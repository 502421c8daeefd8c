package costmodel

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/apb"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
	"repro/internal/workload"
)

// This file pins the size-class kernel, the linear outcome-table build
// and the strided hit-pattern walk to the pre-kernel semantics: the naive
// per-fragment loops below are the retained reference implementation (the
// exact code the kernel replaced), and the property tests assert
// bit-for-bit equality between the two on randomized geometries — uniform
// and skewed — so any drift in summation order, operand order or skip
// conditions fails loudly.

// naiveClassCost is the pre-kernel evaluateClass: FragmentCost and
// Seconds per fragment, accumulators folded in logical fragment order.
func naiveClassCost(cfg *Config, f *fragment.Fragmentation, g *fragment.Geometry, pl *alloc.Placement, plan *ClassPlan, factGranule, bmGranule int) ClassCost {
	c := plan.Class
	cc := ClassCost{Class: c, DiskBusy: make([]time.Duration, pl.Disks)}
	cc.HitProb = plan.HitProb
	n := g.NumFragments()
	cc.FragmentsHit = plan.HitProb * float64(n)
	tv := make([]float64, n)
	busy := make([]float64, pl.Disks)
	var totalBusy float64
	sz := g.SizeClasses()
	for v := int64(0); v < n; v++ {
		rows := sz.Rows[sz.ClassOf[v]]
		b := sz.Pages[sz.ClassOf[v]]
		if b == 0 {
			continue
		}
		cc.SelectedRows += plan.HitProb * rows * plan.RowSel
		io := FragmentCost(plan, g.PageSize, b, rows, factGranule, bmGranule)
		cc.FactIOs += plan.HitProb * io.FactIOs
		cc.FactPages += plan.HitProb * io.FactPages
		cc.BitmapIOs += plan.HitProb * io.BitmapIOs
		cc.BitmapPages += plan.HitProb * io.BitmapPages

		tv[v] = io.Seconds(&cfg.Disk)
		w := plan.HitProb * tv[v]
		busy[pl.DiskOf[v]] += w
		totalBusy += w
	}
	for d, bz := range busy {
		cc.DiskBusy[d] = time.Duration(bz * float64(time.Second))
	}
	cc.AccessCost = time.Duration(totalBusy * float64(time.Second))
	resp, exact := naiveExpectedMaxResponse(cfg, plan, pl, tv, SampleSeed(f, c))
	cc.ResponseTime = time.Duration(resp * float64(time.Second))
	cc.ResponseExact = exact
	return cc
}

// naiveDimOutcomes is the quadratic outcome-table build dimOutcomes
// replaced: for every query value w, a scan of all fragment values
// collecting those whose ancestor is w.
func naiveDimOutcomes(dp DimPlan, mapping skew.Mapping) [][]int {
	switch dp.Case {
	case CoarserEq:
		sets := make([][]int, dp.QueryCard)
		for w := 0; w < dp.QueryCard; w++ {
			var hit []int
			for v := 0; v < dp.FragCard; v++ {
				if Ancestor(v, dp.FragCard, dp.QueryCard, mapping) == w {
					hit = append(hit, v)
				}
			}
			sets[w] = hit
		}
		return sets
	case Finer:
		sets := make([][]int, dp.FragCard)
		for v := 0; v < dp.FragCard; v++ {
			sets[v] = []int{v}
		}
		return sets
	default: // Unreferenced
		all := make([]int, dp.FragCard)
		for v := range all {
			all[v] = v
		}
		return [][]int{all}
	}
}

// fragID maps fragment-attribute values to the fragment's logical id using
// the plan's cardinalities (identical to Fragmentation.FragmentID but
// without re-deriving cardinalities from the schema) — the per-hit id
// computation the strided walk replaced.
func (p *ClassPlan) fragID(vals []int) int64 {
	id := int64(0)
	for i, dp := range p.Dims {
		id = id*int64(dp.FragCard) + int64(vals[i])
	}
	return id
}

// naiveExpectedMaxResponse is the pre-kernel response expectation: fresh
// quadratic outcome tables per call, a full fragment id per hit, and
// per-fragment service times from a tv array.
func naiveExpectedMaxResponse(cfg *Config, plan *ClassPlan, pl *alloc.Placement, tv []float64, sampleSeed int64) (float64, bool) {
	outcomes := make([][][]int, len(plan.Dims))
	for i, dp := range plan.Dims {
		outcomes[i] = naiveDimOutcomes(dp, cfg.Mapping)
	}
	return naiveWalk(plan, pl, tv, outcomes, sampleSeed)
}

// naiveWalk is the uncollapsed hit-pattern walk over the given outcome
// tables: every pattern is evaluated, whatever the placement.
func naiveWalk(plan *ClassPlan, pl *alloc.Placement, tv []float64, outcomes [][][]int, sampleSeed int64) (float64, bool) {
	combos := 1
	hitsPerCombo := 1
	for _, sets := range outcomes {
		combos *= len(sets)
		if len(sets) > 0 {
			hitsPerCombo *= len(sets[0])
		}
		if combos > maxResponseOutcomes {
			break
		}
	}
	busy := make([]float64, pl.Disks)
	touched := make([]int, 0, pl.Disks)
	sets := make([][]int, len(outcomes))
	idx := make([]int, len(outcomes))
	vals := make([]int, len(outcomes))
	evalPattern := func(choice []int) float64 {
		for i, c := range choice {
			sets[i] = outcomes[i][c]
		}
		clear(idx)
		for {
			for i := range sets {
				vals[i] = sets[i][idx[i]]
			}
			fid := plan.fragID(vals)
			if busy[pl.DiskOf[fid]] == 0 && tv[fid] > 0 {
				touched = append(touched, pl.DiskOf[fid])
			}
			busy[pl.DiskOf[fid]] += tv[fid]
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(sets[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
		var mx float64
		for _, d := range touched {
			if busy[d] > mx {
				mx = busy[d]
			}
			busy[d] = 0
		}
		touched = touched[:0]
		return mx
	}

	choice := make([]int, len(outcomes))
	if combos <= maxResponseOutcomes && combos*hitsPerCombo <= maxResponseWork {
		var sum float64
		count := 0
		for {
			sum += evalPattern(choice)
			count++
			i := len(choice) - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < len(outcomes[i]) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
		return sum / float64(count), true
	}
	rng := rand.New(rand.NewSource(sampleSeed))
	var sum float64
	for s := 0; s < responseSamples; s++ {
		for i := range choice {
			choice[i] = rng.Intn(len(outcomes[i]))
		}
		sum += evalPattern(choice)
	}
	return sum / responseSamples, false
}

// compareClassCost asserts exact (bitwise) equality of every model output
// of one class.
func compareClassCost(t *testing.T, label string, got, want ClassCost) {
	t.Helper()
	check := func(field string, g, w float64) {
		t.Helper()
		if g != w {
			t.Fatalf("%s: %s kernel=%v naive=%v", label, field, g, w)
		}
	}
	check("HitProb", got.HitProb, want.HitProb)
	check("FragmentsHit", got.FragmentsHit, want.FragmentsHit)
	check("SelectedRows", got.SelectedRows, want.SelectedRows)
	check("FactPages", got.FactPages, want.FactPages)
	check("FactIOs", got.FactIOs, want.FactIOs)
	check("BitmapPages", got.BitmapPages, want.BitmapPages)
	check("BitmapIOs", got.BitmapIOs, want.BitmapIOs)
	if got.AccessCost != want.AccessCost {
		t.Fatalf("%s: AccessCost kernel=%v naive=%v", label, got.AccessCost, want.AccessCost)
	}
	if got.ResponseTime != want.ResponseTime {
		t.Fatalf("%s: ResponseTime kernel=%v naive=%v", label, got.ResponseTime, want.ResponseTime)
	}
	if got.ResponseExact != want.ResponseExact {
		t.Fatalf("%s: ResponseExact kernel=%v naive=%v", label, got.ResponseExact, want.ResponseExact)
	}
	if len(got.DiskBusy) != len(want.DiskBusy) {
		t.Fatalf("%s: DiskBusy length %d vs %d", label, len(got.DiskBusy), len(want.DiskBusy))
	}
	for d := range got.DiskBusy {
		if got.DiskBusy[d] != want.DiskBusy[d] {
			t.Fatalf("%s: DiskBusy[%d] kernel=%v naive=%v", label, d, got.DiskBusy[d], want.DiskBusy[d])
		}
	}
}

// TestKernelMatchesNaiveReference is the kernel's core property: over
// randomized star schemas (uniform and skewed dimensions), mixes and disk
// pools, and over paper-scale APB-1 candidates (24M rows, 64 disks) whose
// runs of equal size classes are hundreds of fragments long, every
// per-class output of the size-class kernel is bit-identical to the
// retained naive per-fragment reference.
func TestKernelMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	checked := 0
	var attrChecked [3]int // candidates by attribute count: 0, 1, 2+
	// folds counts the per-class run folds by path: the per-fragment
	// loop (runs shorter than foldRunMin) and addN.
	var folds [2]int
	check := func(cfg *Config, e *Evaluator, f *fragment.Fragmentation) {
		ev, err := e.Evaluate(f)
		if err != nil {
			return
		}
		s, m := cfg.Schema, cfg.Mix
		attrChecked[min(len(f.Attrs()), 2)]++
		start := 0
		for _, end := range runEnds(nil, ev.Geometry.SizeClasses()) {
			path := 0
			if int(end)-start >= foldRunMin {
				path = 1
			}
			folds[path] += len(m.Classes)
			start = int(end)
		}
		for i := range m.Classes {
			plan := PlanClass(s, f, ev.Scheme, &m.Classes[i])
			want := naiveClassCost(cfg, f, ev.Geometry, ev.Placement, &plan,
				ev.FactPrefetch, ev.BitmapPrefetch)
			got := ev.PerClass[i]
			got.Weight = 0 // naive reference prices one class, not the mix
			compareClassCost(t, f.Name(s)+"/"+m.Classes[i].Name, got, want)
			checked++
		}
	}
	for trial := 0; trial < 40; trial++ {
		s := randomBoundStar(rng)
		m, err := workload.RandomMix(s, 1+rng.Intn(5), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		d := apb.Disk(1 + rng.Intn(32))
		if rng.Intn(2) == 0 {
			d.PrefetchPages = 1 << rng.Intn(7)
			d.BitmapPrefetchPages = d.PrefetchPages
		}
		cfg := &Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20, Mapping: skew.Mapping(rng.Intn(2))}
		e, err := NewEvaluator(cfg)
		if err != nil {
			t.Fatalf("trial %d: evaluator: %v", trial, err)
		}
		cands := fragment.Enumerate(s)
		if len(cands) > 12 {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:12]
		}
		// The strided walk's edge cases: no fragmentation attribute (one
		// hit, fragment 0) and a single one (no outer odometer).
		dim := rng.Intn(len(s.Dimensions))
		single := fragment.MustNew(s, schema.AttrRef{Dim: dim, Level: rng.Intn(len(s.Dimensions[dim].Levels))})
		cands = append(cands, &fragment.Fragmentation{}, single)
		for _, f := range cands {
			check(cfg, e, f)
		}
	}

	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Schema: s, Mix: m, Disk: apb.Disk(64), MaxFragments: 1 << 20}
	e, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range [][]string{
		{"Customer.store", "Time.month"},                        // one run of 21,600
		{"Product.family", "Customer.retailer", "Time.quarter"}, // 150 runs
		{"Product.group", "Customer.retailer"},                  // long and short runs alternate
		{"Product.class", "Customer.retailer", "Time.year"},     // 1,210 runs, 4 size classes
	} {
		f, err := fragment.Parse(s, name...)
		if err != nil {
			t.Fatal(err)
		}
		check(cfg, e, f)
	}

	if checked < 300 {
		t.Fatalf("kernel property sweep only checked %d class costs", checked)
	}
	if attrChecked[0] == 0 || attrChecked[1] == 0 || attrChecked[2] == 0 {
		t.Fatalf("candidates checked by attribute count (0, 1, 2+) = %v; every shape must be covered", attrChecked)
	}
	if folds[0] == 0 || folds[1] == 0 {
		t.Fatalf("run folds checked by path (per-fragment, addN) = %v; both paths must be covered", folds)
	}
	t.Logf("kernel property: %d class costs bit-identical; candidates by attribute count (0, 1, 2+) = %v; run folds by path (per-fragment, addN) = %v",
		checked, attrChecked, folds)
}

// dimOutcomeCases are the (fragCard, queryCard) shapes the outcome-table
// property test always covers: equal cardinalities, a single query value,
// a query cardinality that does not divide the fragment cardinality, and
// the paper-scale Product.code table.
var dimOutcomeCases = [][2]int{{1, 1}, {7, 7}, {12, 1}, {10, 3}, {9000, 605}, {9000, 250}, {4096, 100}, {2000, 2000}}

// TestDimOutcomesMatchNaive: the linear outcome-table build yields exactly
// the quadratic reference's sets — same values, same order, nil where the
// reference has nil — for every case and mapping, on fixed edge shapes
// and random cardinalities.
func TestDimOutcomesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := append([][2]int(nil), dimOutcomeCases...)
	for i := 0; i < 100; i++ {
		fc := 1 + rng.Intn(400)
		shapes = append(shapes, [2]int{fc, 1 + rng.Intn(fc)}, [2]int{fc, 1 + rng.Intn(2*fc)})
	}
	checked := 0
	for _, sh := range shapes {
		for _, m := range []skew.Mapping{skew.Interleaved, skew.Contiguous} {
			for _, kase := range []DimCase{Unreferenced, CoarserEq, Finer} {
				dp := DimPlan{Case: kase, FragCard: sh[0], QueryCard: sh[1]}
				if kase == Unreferenced {
					dp.QueryCard = 0
				}
				if got, want := dimOutcomes(dp, m), naiveDimOutcomes(dp, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v %v: linear build differs from the quadratic reference", dp, m)
				}
				checked++
			}
		}
	}
	t.Logf("%d outcome tables identical", checked)
}

// FuzzDimOutcomes extends TestDimOutcomesMatchNaive to fuzzer-chosen
// cardinalities, mappings and cases (cardinalities clamped to [1, 1<<14]).
func FuzzDimOutcomes(f *testing.F) {
	for _, sh := range dimOutcomeCases {
		f.Add(sh[0], sh[1], uint8(0), uint8(1))
		f.Add(sh[0], sh[1], uint8(1), uint8(1))
	}
	f.Add(5, 9, uint8(1), uint8(1))
	f.Add(3, 0, uint8(0), uint8(0))
	f.Add(6, 12, uint8(0), uint8(2))
	clamp := func(v int) int {
		if v < 1 {
			return 1
		}
		return min(v, 1<<14)
	}
	f.Fuzz(func(t *testing.T, fragCard, queryCard int, mapping, kase uint8) {
		dp := DimPlan{Case: DimCase(kase % 3), FragCard: clamp(fragCard), QueryCard: clamp(queryCard)}
		m := skew.Mapping(mapping % 2)
		if got, want := dimOutcomes(dp, m), naiveDimOutcomes(dp, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v %v: linear build differs from the quadratic reference", dp, m)
		}
	})
}

// skewedStar is a schema whose fragmented geometry has thousands of
// distinct fragment sizes (a heavily skewed high-cardinality dimension:
// every value gets a distinct share), the regime where the size-class
// table is largest.
func skewedStar() *schema.Star {
	return &schema.Star{
		Name: "Skewed",
		Fact: schema.FactTable{Name: "F", Rows: 2_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "Big", SkewTheta: 0.8, Levels: []schema.Level{
				{Name: "id", Cardinality: 8192},
			}},
			{Name: "Small", Levels: []schema.Level{
				{Name: "g", Cardinality: 6},
			}},
		},
	}
}

// TestScratchReuseRace hammers worker-owned scratch reuse on a shared
// Evaluator: two workers each price every candidate of the skewed schema
// repeatedly through their own Scratch, and every concurrent evaluation
// must be bit-identical to the serial one. Run with -race this doubles as
// the memory-safety proof of the Evaluator's shared memos.
func TestScratchReuseRace(t *testing.T) {
	s := skewedStar()
	m, err := workload.RandomMix(s, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(8)})
	if err != nil {
		t.Fatal(err)
	}
	cands := fragment.Enumerate(s)

	type costs struct{ access, resp time.Duration }
	want := make(map[string]costs, len(cands))
	for _, f := range cands {
		ev, err := e.Evaluate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(s), err)
		}
		want[f.Key()] = costs{ev.AccessCost, ev.ResponseTime}
	}

	const workers, reps = 2, 8
	work := make(chan *fragment.Fragmentation)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.NewScratch(nil)
			for f := range work {
				ev, err := e.EvaluateWith(sc, f)
				if err != nil {
					t.Errorf("%s: %v", f.Name(s), err)
					continue
				}
				if w := want[f.Key()]; ev.AccessCost != w.access || ev.ResponseTime != w.resp {
					t.Errorf("%s: concurrent (%v,%v) != serial (%v,%v)",
						f.Name(s), ev.AccessCost, ev.ResponseTime, w.access, w.resp)
				}
			}
		}()
	}
	for r := 0; r < reps; r++ {
		for _, f := range cands {
			work <- f
		}
	}
	close(work)
	wg.Wait()
}

// TestPriceSizeClassesAllocationFree pins the kernel fill as a plain
// loop: once the scratch's cost table has capacity, pricing one class of
// a candidate allocates nothing (no closure, no goroutine).
func TestPriceSizeClassesAllocationFree(t *testing.T) {
	s := apb.Schema(2_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(16)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fragment.Parse(s, "Product.code")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	sz := ev.Geometry.SizeClasses()
	plan := PlanClass(s, f, ev.Scheme, &m.Classes[0])
	sc := e.NewScratch(nil)
	price := func() {
		e.priceSizeClasses(&plan, ev.Geometry.PageSize, sz, ev.FactPrefetch, ev.BitmapPrefetch, sc)
	}
	price()
	if cap(sc.cls) < sz.NumClasses() {
		t.Fatalf("cost table capacity %d < %d size classes", cap(sc.cls), sz.NumClasses())
	}
	if allocs := testing.AllocsPerRun(100, price); allocs != 0 {
		t.Fatalf("priceSizeClasses allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkEvaluateSizeClasses compares the size-class kernel against the
// naive per-fragment reference on the paper-scale configuration (24M-row
// APB-1, 64 disks), pricing the heaviest enumerable candidate's first mix
// class.
func BenchmarkEvaluateSizeClasses(b *testing.B) {
	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	d := apb.Disk(64)
	cfg := &Config{Schema: s, Mix: m, Disk: d, MaxFragments: 1 << 20}
	e, err := NewEvaluator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var best *fragment.Fragmentation
	var bestN int64
	for _, f := range fragment.Enumerate(s) {
		g, err := e.Geometry(f)
		if err != nil {
			continue
		}
		if n := g.NumFragments(); n > bestN {
			best, bestN = f, n
		}
	}
	ev, err := e.Evaluate(best)
	if err != nil {
		b.Fatal(err)
	}
	plan := PlanClass(s, best, ev.Scheme, &m.Classes[0])
	b.Logf("candidate %s: %d fragments, %d size classes",
		best.Name(s), bestN, ev.Geometry.SizeClasses().NumClasses())

	b.Run("kernel", func(b *testing.B) {
		sc := e.NewScratch(nil)
		sc.resize(ev.Placement.Disks, len(best.Attrs()), len(m.Classes))
		sc.runs = runEnds(sc.runs, ev.Geometry.SizeClasses())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.evaluateClass(best, ev.Geometry, ev.Placement, &plan,
				ev.FactPrefetch, ev.BitmapPrefetch, sc)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveClassCost(cfg, best, ev.Geometry, ev.Placement, &plan,
				ev.FactPrefetch, ev.BitmapPrefetch)
		}
	})
}

// BenchmarkExpectedMaxResponse compares the response-time expectation of
// the linear outcome-table build plus strided walk against the naive
// reference (quadratic build, full fragment id per hit) on the
// paper-scale configuration (24M-row APB-1, 64 disks) and candidate
// Product.code, whose 9000-value outcome tables dominated the CLI
// advisory. One op prices every mix class, table builds included: the
// kernel side clears the evaluator's outcome and group memos before each
// class.
func BenchmarkExpectedMaxResponse(b *testing.B) {
	s := apb.Schema(24_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &Config{Schema: s, Mix: m, Disk: apb.Disk(64), MaxFragments: 1 << 20}
	e, err := NewEvaluator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fragment.Parse(s, "Product.code")
	if err != nil {
		b.Fatal(err)
	}
	ev, err := e.Evaluate(f)
	if err != nil {
		b.Fatal(err)
	}
	sz := ev.Geometry.SizeClasses()
	sc := e.NewScratch(nil)
	sc.resize(ev.Placement.Disks, len(f.Attrs()), len(m.Classes))
	plans := make([]ClassPlan, len(m.Classes))
	cls := make([][]sizeClassCost, len(m.Classes))
	tvs := make([][]float64, len(m.Classes))
	for i := range m.Classes {
		plans[i] = PlanClass(s, f, ev.Scheme, &m.Classes[i])
		cls[i] = append([]sizeClassCost(nil), e.priceSizeClasses(&plans[i], ev.Geometry.PageSize, sz,
			ev.FactPrefetch, ev.BitmapPrefetch, sc)...)
		tvs[i] = make([]float64, len(sz.ClassOf))
		for v, ci := range sz.ClassOf {
			tvs[i][v] = cls[i][ci].tv
		}
	}

	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for c := range plans {
				clear(e.outcomes)
				clear(e.groups)
				e.expectedMaxResponse(&plans[c], ev.Geometry, ev.Placement, cls[c], SampleSeed(f, plans[c].Class), sc)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for c := range plans {
				naiveExpectedMaxResponse(cfg, &plans[c], ev.Placement, tvs[c], SampleSeed(f, plans[c].Class))
			}
		}
	})
}

// BenchmarkPriceSizeClasses times the size-class kernel alone on the
// skewed paper-scale configuration (24M-row APB-1, 64 disks, θ = 1 on
// Product and Customer, candidates with fewer than 64 pages per average
// fragment excluded): the surviving candidate with the most size classes,
// every mix class priced per op.
func BenchmarkPriceSizeClasses(b *testing.B) {
	s := apb.Schema(24_000_000)
	for i := range s.Dimensions {
		if d := &s.Dimensions[i]; d.Name == "Product" || d.Name == "Customer" {
			d.SkewTheta = 1
		}
	}
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(64)})
	if err != nil {
		b.Fatal(err)
	}
	th := fragment.Thresholds{MinAvgFragmentPages: 64}
	var best *fragment.Fragmentation
	bestK := 0
	for _, f := range fragment.Enumerate(s) {
		g, err := e.Geometry(f)
		if err != nil || th.Check(g) != nil {
			continue
		}
		if k := g.SizeClasses().NumClasses(); k > bestK {
			best, bestK = f, k
		}
	}
	ev, err := e.Evaluate(best)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("candidate %s: %d fragments, %d size classes, %d mix classes",
		best.Name(s), ev.Geometry.NumFragments(), bestK, len(m.Classes))
	plans := make([]ClassPlan, len(m.Classes))
	for i := range plans {
		plans[i] = PlanClass(s, best, ev.Scheme, &m.Classes[i])
	}
	sz := ev.Geometry.SizeClasses()
	sc := e.NewScratch(nil)
	b.ReportAllocs()
	for b.Loop() {
		for i := range plans {
			e.priceSizeClasses(&plans[i], ev.Geometry.PageSize, sz, ev.FactPrefetch, ev.BitmapPrefetch, sc)
		}
	}
}

// addLoop is addN's reference: n sequential s += x.
func addLoop(s, x float64, n int) float64 {
	for range n {
		s += x
	}
	return s
}

// checkAddN asserts that addN(s, x, n) has the reference's bit pattern.
func checkAddN(t *testing.T, s, x float64, n int) {
	t.Helper()
	if got, want := addN(s, x, n), addLoop(s, x, n); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("addN(%v, %v, %d) = %v (%#x), loop = %v (%#x)",
			s, x, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAddNMatchesLoop: addN is bit-identical to the plain loop on the
// cases its binade argument singles out — a zero start, addends below
// half an ulp, exact ties on the binade grid from even and odd starts,
// addends at least the sum, subnormal sums, runs crossing many binades
// and up to 10⁶ adds — and on random sums and addends.
func TestAddNMatchesLoop(t *testing.T) {
	ulp := func(s float64) float64 { return math.Nextafter(s, math.Inf(1)) - s }
	one, odd := 1.0, math.Nextafter(1, 2) // significands even and odd
	sub := math.SmallestNonzeroFloat64
	type tc struct {
		s, x float64
		n    int
	}
	cases := []tc{
		{0, 0, 5}, {0, 1, 1}, {0, 0.1, 1_000_000}, {0, 3, 1_000_000},
		{math.Copysign(0, -1), 0, 3}, {math.Copysign(0, -1), 2.5, 100},
		{one, ulp(one) / 4, 1000}, {1e16, 0.9, 1000}, {1e16, 1.1, 1000},
		{1e300, 1e-300, 1_000_000},
		{3, 3, 1_000_000}, {1, 1e6, 1000}, {0.5, 1e10, 64},
		{sub, sub, 1_000_000}, {5 * sub, 3 * sub, 1000}, {0x1p-1021 - 3*sub, sub, 10},
		{0x1p-1022 - sub, sub, 10}, {0x1p-1030, 0x1p-1030, 1 << 20},
		{math.MaxFloat64 / 2, math.MaxFloat64 / 1e6, 1_000_000},
		{math.MaxFloat64, math.MaxFloat64, 2},
	}
	for _, s := range []float64{one, odd, 1 << 40, 3.0 / 7, 1e16} {
		u := ulp(s)
		for k := 0.0; k < 6; k++ {
			cases = append(cases, tc{s, (k + 0.5) * u, 10_000}, tc{s, (k + 0.5) * u, 1_000_000})
			cases = append(cases, tc{s, k * u, 10_000}, tc{s, k*u + u/4, 10_000})
		}
		// Ties of the next binades' grids, met after the sum has grown.
		cases = append(cases, tc{s, 2.5 * u, 1_000_000}, tc{s, 4.5 * u, 1_000_000})
		for n := 0; n <= 2*foldRunMin; n++ {
			cases = append(cases, tc{s, 1.5 * u, n}, tc{s, s / 3, n})
		}
	}
	for _, c := range cases {
		checkAddN(t, c.s, c.x, c.n)
	}

	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		s := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		var x float64
		switch rng.Intn(3) {
		case 0: // an independent addend, of any relative size
			x = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		case 1: // a tie or near-tie on s's grid
			x = (float64(rng.Intn(8)) + 0.5) * ulp(s) * float64(1+rng.Intn(2))
		default: // the evaluator's regime: many similar, small addends
			x = s * math.Ldexp(1+rng.Float64(), -10-rng.Intn(40))
		}
		checkAddN(t, s, x, rng.Intn(5000))
	}
}

// FuzzAddN extends TestAddNMatchesLoop to fuzzer-chosen sums, addends
// and counts; negative inputs are folded to their magnitudes, non-finite
// ones skipped, and n is taken modulo 2^17.
func FuzzAddN(f *testing.F) {
	f.Add(0.0, 0.1, uint32(100_000))
	f.Add(1.0, 0x1p-53, uint32(1000))
	f.Add(math.Nextafter(1, 2), 0x1p-53, uint32(1000))
	f.Add(1.0, 3*0x1p-53, uint32(100_000))
	f.Add(math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, uint32(100_000))
	f.Add(1e16, 1.0, uint32(50))
	f.Fuzz(func(t *testing.T, s, x float64, n uint32) {
		s, x = math.Abs(s), math.Abs(x)
		if math.IsInf(s, 0) || math.IsNaN(s) || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Skip()
		}
		checkAddN(t, s, x, int(n%(1<<17)))
	})
}
