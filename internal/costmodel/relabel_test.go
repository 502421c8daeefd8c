package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// This file pins the relabeling collapse of the exact hit-pattern walk
// (relabel.go) to the uncollapsed walk: the collapsed expectation must
// equal naiveWalk's with == on every class, whatever the geometry,
// mapping, placement or outcome tables.

// equivalentSets is the collapse rule stated directly: same length, an
// elementwise translate, and bit-equal shares position by position.
func equivalentSets(a, b []int, shares []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j]-a[0] != b[j]-b[0] || math.Float64bits(shares[a[j]]) != math.Float64bits(shares[b[j]]) {
			return false
		}
	}
	return true
}

// TestGroupOutcomesMatchesRule: two sets share a group exactly when the
// rule calls them equivalent, and each group's representative is its
// lowest-index member. The tables mix translates, same-length
// non-translates and empty sets (a query value without fragment values);
// the shares mix repeated and distinct values.
func TestGroupOutcomesMatchesRule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var order []int32
	for trial := 0; trial < 300; trial++ {
		card := 1 + rng.Intn(40)
		shares := make([]float64, card)
		palette := []float64{0.5, 0.25, 0.1 + rng.Float64()}
		for v := range shares {
			shares[v] = palette[rng.Intn(len(palette))]
		}
		sets := randomOutcomeTable(rng, card, 1+rng.Intn(30))
		for range rng.Intn(3) {
			sets = slices.Insert(sets, rng.Intn(len(sets)+1), nil)
		}
		var g outcomeGroups
		g, order = groupOutcomes(sets, shares, order)
		groupOf := func(c int) int32 {
			if g.of == nil {
				return 0
			}
			return g.of[c]
		}
		for c := range sets {
			rep := int(g.reps[groupOf(c)])
			if rep > c || !equivalentSets(sets[rep], sets[c], shares) {
				t.Fatalf("trial %d: set %d grouped with representative %d", trial, c, rep)
			}
			for d := 0; d < c; d++ {
				if same := groupOf(c) == groupOf(d); same != equivalentSets(sets[c], sets[d], shares) {
					t.Fatalf("trial %d: sets %d and %d: grouped together = %v, rule says %v", trial, d, c, same, !same)
				}
			}
		}
	}
}

// randomOutcomeTable returns n random non-empty ascending subsets of
// [0, card). Lengths are drawn from a small range, so same-length sets
// that are not translates of each other are common, and about a third of
// the sets are translates of the first.
func randomOutcomeTable(rng *rand.Rand, card, n int) [][]int {
	sets := make([][]int, n)
	for c := range sets {
		if base := sets[0]; c > 0 && rng.Intn(3) == 0 {
			t := rng.Intn(card-base[len(base)-1]+base[0]) - base[0]
			sets[c] = make([]int, len(base))
			for j, v := range base {
				sets[c][j] = v + t
			}
			continue
		}
		sets[c] = rng.Perm(card)[:1+rng.Intn(min(card, 4))]
		slices.Sort(sets[c])
	}
	return sets
}

// randomRelabelStar is a small random schema for the walk tests. Level
// cardinalities grow by a random factor or a random increment, so a
// fragmentation cardinality is sometimes a multiple of a query
// cardinality and sometimes not; some dimensions are skewed.
func randomRelabelStar(rng *rand.Rand, theta float64) *schema.Star {
	s := &schema.Star{
		Name: "RndRelabel",
		Fact: schema.FactTable{Name: "F", Rows: int64(10_000 + rng.Intn(2_000_000)), RowSize: 20 + rng.Intn(200)},
	}
	nDims := 1 + rng.Intn(3)
	for d := 0; d < nDims; d++ {
		dim := schema.Dimension{Name: fmt.Sprintf("D%d", d)}
		card := 1 + rng.Intn(6)
		for l := 0; l < 1+rng.Intn(3); l++ {
			dim.Levels = append(dim.Levels, schema.Level{Name: fmt.Sprintf("l%d", l), Cardinality: card})
			if rng.Intn(2) == 0 {
				card *= 1 + rng.Intn(5)
			} else {
				card += rng.Intn(2 * card)
			}
			card = min(card, 90)
		}
		if rng.Intn(3) == 0 {
			dim.SkewTheta = theta
		}
		s.Dimensions = append(s.Dimensions, dim)
	}
	return s
}

// walkCoverage counts what a walk comparison exercised.
type walkCoverage struct {
	classes, exact, collapsed, greedy, skewed, nonDividing, mappings [2]int
}

// checkCollapsedWalk compares, for every candidate of s and every class
// of m, the evaluator's walk against naiveWalk with ==, under the given
// placement scheme and mapping. With inject set, each class's outcome
// tables are replaced by random ones (translates and same-length
// non-translates) before the walk, in both the evaluator's memo and the
// reference.
func checkCollapsedWalk(t *testing.T, rng *rand.Rand, s *schema.Star, m *workload.Mix, disks int, scheme alloc.Scheme, mapping skew.Mapping, inject bool, cov *walkCoverage) {
	t.Helper()
	cfg := &Config{Schema: s, Mix: m, Disk: apb.Disk(disks), MaxFragments: 1 << 16, Mapping: mapping, AllocScheme: &scheme}
	e, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := e.NewScratch(nil)
	cands := append(fragment.Enumerate(s), &fragment.Fragmentation{})
	if len(cands) > 10 {
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		cands = cands[:10]
	}
	for _, f := range cands {
		ev, err := e.Evaluate(f)
		if err != nil {
			continue
		}
		g, pl := ev.Geometry, ev.Placement
		sz := g.SizeClasses()
		sc.resize(disks, len(f.Attrs()), len(m.Classes))
		for i := range m.Classes {
			plan := PlanClass(s, f, ev.Scheme, &m.Classes[i])
			label := fmt.Sprintf("%s/%s scheme=%d mapping=%d inject=%v", f.Name(s), m.Classes[i].Name, scheme, mapping, inject)
			outcomes := make([][][]int, len(plan.Dims))
			injected := map[outcomeKey][][]int{}
			for d, dp := range plan.Dims {
				switch key := dp.outcomeKey(); {
				case !inject:
					outcomes[d] = naiveDimOutcomes(dp, mapping)
				case injected[key] != nil:
					outcomes[d] = injected[key]
				default:
					outcomes[d] = randomOutcomeTable(rng, dp.FragCard, 1+rng.Intn(6))
					injected[key] = outcomes[d]
					e.outcomes[key] = outcomes[d]
				}
			}
			if inject {
				clear(e.groups)
			}
			cls := e.priceSizeClasses(&plan, g.PageSize, sz, ev.FactPrefetch, ev.BitmapPrefetch, sc)
			tv := make([]float64, len(sz.ClassOf))
			for v, c := range sz.ClassOf {
				tv[v] = cls[c].tv
			}
			seed := SampleSeed(f, plan.Class)
			got, gotExact := e.expectedMaxResponse(&plan, g, pl, cls, seed, sc)
			want, wantExact := naiveWalk(&plan, pl, tv, outcomes, seed)
			if got != want || gotExact != wantExact {
				t.Fatalf("%s: collapsed walk (%v, exact %v) != uncollapsed (%v, exact %v)", label, got, gotExact, want, wantExact)
			}
			if cc := ev.PerClass[i]; !inject && (cc.ResponseTime != time.Duration(got*float64(time.Second)) || cc.ResponseExact != gotExact) {
				t.Fatalf("%s: Evaluate's ResponseTime %v/%v differs from the walk's %v/%v", label, ev.PerClass[i].ResponseTime, ev.PerClass[i].ResponseExact, got, gotExact)
			}
			k := 0
			if inject {
				k = 1
			}
			cov.classes[k]++
			cov.mappings[k] += int(mapping)
			if gotExact {
				cov.exact[k]++
			}
			if scheme == alloc.GreedySize {
				cov.greedy[k]++
			}
			if gotExact && scheme == alloc.RoundRobin && collapses(e, g, &plan, outcomes, sc) {
				cov.collapsed[k]++
			}
			for d, dp := range plan.Dims {
				a := f.Attrs()[d]
				if s.Dimensions[a.Dim].SkewTheta > 0 {
					cov.skewed[k]++
				}
				if (dp.Case == CoarserEq && dp.FragCard%dp.QueryCard != 0) || (dp.Case == Finer && dp.QueryCard%dp.FragCard != 0) {
					cov.nonDividing[k]++
				}
			}
		}
	}
}

// collapses reports whether the group combinations of a class are fewer
// than its patterns.
func collapses(e *Evaluator, g *fragment.Geometry, plan *ClassPlan, outcomes [][][]int, sc *Scratch) bool {
	combos, groups := 1, 1
	for d, dp := range plan.Dims {
		combos *= len(outcomes[d])
		groups *= len(e.outcomeGroupsOf(g.Frag.Attrs()[d], dp, outcomes[d], g.AttrShares[d], sc).reps)
	}
	return groups < combos
}

// TestCollapsedWalkMatchesUncollapsed is the collapse's core property:
// over random geometries (uniform and skewed dimensions, fragmentation
// cardinalities that are and are not multiples of the query
// cardinalities), both mappings and both placement schemes, the
// collapsed walk equals the uncollapsed one with == on the expectation
// and on exactness, for the real outcome tables and for injected random
// ones.
func TestCollapsedWalkMatchesUncollapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cov walkCoverage
	// Two uniform 100-value dimensions: a class restricting both at
	// their own level has 10,000 patterns, over the exact budget, but a
	// single group combination. It must still be sampled.
	sampled := &schema.Star{
		Name: "Sampled",
		Fact: schema.FactTable{Name: "F", Rows: 1_000_000, RowSize: 100},
		Dimensions: []schema.Dimension{
			{Name: "A", Levels: []schema.Level{{Name: "a", Cardinality: 100}}},
			{Name: "B", Levels: []schema.Level{{Name: "b", Cardinality: 100}}},
		},
	}
	both := &workload.Mix{Classes: []workload.Class{{Name: "AB", Weight: 1,
		Predicates: []schema.AttrRef{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}}}}
	for _, mapping := range []skew.Mapping{skew.Interleaved, skew.Contiguous} {
		checkCollapsedWalk(t, rng, sampled, both, 8, alloc.RoundRobin, mapping, false, &cov)
	}
	if cov.exact[0] == cov.classes[0] {
		t.Fatalf("the 10,000-pattern classes were priced exactly: %+v", cov)
	}
	for trial := 0; trial < 100; trial++ {
		s := randomRelabelStar(rng, 0.2+rng.Float64())
		m, err := workload.RandomMix(s, 1+rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatalf("trial %d: random mix: %v", trial, err)
		}
		disks := 1 + rng.Intn(12)
		for _, scheme := range []alloc.Scheme{alloc.RoundRobin, alloc.GreedySize} {
			mapping := skew.Mapping(rng.Intn(2))
			checkCollapsedWalk(t, rng, s, m, disks, scheme, mapping, false, &cov)
			checkCollapsedWalk(t, rng, s, m, disks, scheme, mapping, true, &cov)
		}
	}
	t.Logf("coverage [real tables, injected tables]: %+v", cov)
	for k, name := range []string{"real", "injected"} {
		if cov.collapsed[k] < 50 || cov.greedy[k] < 50 || cov.skewed[k] < 50 || cov.mappings[k] < 50 {
			t.Fatalf("%s tables: too little coverage: %+v", name, cov)
		}
	}
	if cov.nonDividing[0] < 20 {
		t.Fatalf("too few non-dividing dimensions: %+v", cov)
	}
}

// FuzzCollapsedWalk extends TestCollapsedWalkMatchesUncollapsed to
// fuzzer-chosen schemas (from a seed), skew, disk counts, mappings,
// placement schemes and table injection.
func FuzzCollapsedWalk(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0), false, false)
	f.Add(int64(2), uint8(80), uint8(7), uint8(1), true, false)
	f.Add(int64(3), uint8(120), uint8(3), uint8(0), false, true)
	f.Add(int64(4), uint8(40), uint8(16), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, theta, disks, mapping uint8, greedy, inject bool) {
		rng := rand.New(rand.NewSource(seed))
		s := randomRelabelStar(rng, float64(theta%201)/100)
		m, err := workload.RandomMix(s, 1+rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		scheme := alloc.RoundRobin
		if greedy {
			scheme = alloc.GreedySize
		}
		var cov walkCoverage
		checkCollapsedWalk(t, rng, s, m, 1+int(disks%32), scheme, skew.Mapping(mapping%2), inject, &cov)
	})
}

// TestGroupMemoConcurrentBuild: goroutines sharing one fresh Evaluator
// build its outcome and group memos concurrently (run with -race), and
// every evaluation equals the serial one of a separate Evaluator.
func TestGroupMemoConcurrentBuild(t *testing.T) {
	s := apb.Schema(2_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	rr := alloc.RoundRobin
	cfg := &Config{Schema: s, Mix: m, Disk: apb.Disk(16), AllocScheme: &rr}
	cands := fragment.Enumerate(s)[:24]
	serial, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]ClassCost, len(cands))
	for i, f := range cands {
		ev, err := serial.Evaluate(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev.PerClass
	}
	shared, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := shared.NewScratch(nil)
			<-start
			// Each worker walks the candidates from its own offset, so
			// different workers miss on different memo keys at once.
			for j := range cands {
				i := (j + w*len(cands)/workers) % len(cands)
				ev, err := shared.EvaluateWith(sc, cands[i])
				if err != nil {
					t.Error(err)
					return
				}
				for c, cc := range ev.PerClass {
					if w := want[i][c]; cc.ResponseTime != w.ResponseTime || cc.ResponseExact != w.ResponseExact {
						t.Errorf("%s/%s: concurrent response %v (exact %v) != serial %v (exact %v)",
							cands[i].Name(s), cc.Class.Name, cc.ResponseTime, cc.ResponseExact, w.ResponseTime, w.ResponseExact)
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if len(shared.groups) == 0 {
		t.Fatal("no group memo entries were built")
	}
}

// TestExpectedMaxResponseAllocationFree: once the outcome and group memos
// and the scratch are warm, the walk allocates nothing, collapsed or not.
func TestExpectedMaxResponseAllocationFree(t *testing.T) {
	s := apb.Schema(2_000_000)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(&Config{Schema: s, Mix: m, Disk: apb.Disk(16)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fragment.Parse(s, "Product.family", "Customer.retailer", "Time.month")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Placement.Scheme != alloc.RoundRobin {
		t.Fatalf("placement %v, want round-robin", ev.Placement.Scheme)
	}
	g := ev.Geometry
	sc := e.NewScratch(nil)
	sc.resize(ev.Placement.Disks, len(f.Attrs()), len(m.Classes))
	plans := make([]ClassPlan, len(m.Classes))
	cls := make([][]sizeClassCost, len(m.Classes))
	var collapsed, exact int
	for i := range m.Classes {
		plans[i] = PlanClass(s, f, ev.Scheme, &m.Classes[i])
		cls[i] = slices.Clone(e.priceSizeClasses(&plans[i], g.PageSize, g.SizeClasses(), ev.FactPrefetch, ev.BitmapPrefetch, sc))
		outcomes := make([][][]int, len(plans[i].Dims))
		for d, dp := range plans[i].Dims {
			outcomes[d] = e.dimOutcomeSets(dp)
		}
		if ev.PerClass[i].ResponseExact {
			exact++
			if collapses(e, g, &plans[i], outcomes, sc) {
				collapsed++
			}
		}
	}
	if collapsed == 0 || exact == len(m.Classes) {
		t.Fatalf("%d of %d classes exact, %d collapsed: want some collapsed and some sampled", exact, len(m.Classes), collapsed)
	}
	walk := func() {
		for i := range plans {
			e.expectedMaxResponse(&plans[i], g, ev.Placement, cls[i], SampleSeed(f, plans[i].Class), sc)
		}
	}
	walk()
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("expectedMaxResponse allocated %.1f times per %d classes, want 0", allocs, len(plans))
	}
}
