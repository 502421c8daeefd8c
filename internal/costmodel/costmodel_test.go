package costmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/disk"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/workload"
)

// testStar: 1 Mi rows of 128 B => exactly 64 rows/page at 8 KiB pages,
// 16384 pages total. Dimension A has levels a1(4) < a2(16); B has b1(8).
func testStar() *schema.Star {
	return &schema.Star{
		Name: "T",
		Fact: schema.FactTable{Name: "F", Rows: 1 << 20, RowSize: 128},
		Dimensions: []schema.Dimension{
			{Name: "A", Levels: []schema.Level{
				{Name: "a1", Cardinality: 4},
				{Name: "a2", Cardinality: 16},
			}},
			{Name: "B", Levels: []schema.Level{
				{Name: "b1", Cardinality: 8},
				{Name: "b2", Cardinality: 65536},
			}},
		},
	}
}

func testDisk() disk.Params {
	p := disk.Default2001()
	p.Disks = 8
	p.PrefetchPages = 4
	p.BitmapPrefetchPages = 4
	return p
}

func attr(t *testing.T, s *schema.Star, path string) schema.AttrRef {
	t.Helper()
	a, err := s.Attr(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func cfgWith(t *testing.T, s *schema.Star, m *workload.Mix) *Config {
	t.Helper()
	return &Config{Schema: s, Mix: m, Disk: testDisk()}
}

func TestValidate(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	if err := cfgWith(t, s, m).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (&Config{}).Validate(); err == nil {
		t.Fatal("nil schema/mix should fail")
	}
	bad := cfgWith(t, s, m)
	bad.Disk.Disks = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad disk params should fail")
	}
	badMix := cfgWith(t, s, &workload.Mix{})
	if err := badMix.Validate(); err == nil {
		t.Fatal("empty mix should fail")
	}
}

func TestSameLevelQueryFullFragmentElimination(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2") // 16 fragments of 1024 pages
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if math.Abs(cc.FragmentsHit-1) > 1e-9 {
		t.Fatalf("FragmentsHit = %g, want 1", cc.FragmentsHit)
	}
	if math.Abs(cc.HitProb-1.0/16) > 1e-12 {
		t.Fatalf("HitProb = %g", cc.HitProb)
	}
	// Full scan of one 1024-page fragment (expected over the pick).
	if math.Abs(cc.FactPages-1024) > 1e-6 {
		t.Fatalf("FactPages = %g, want 1024", cc.FactPages)
	}
	// Granule 4: 256 I/Os for the hit fragment.
	if math.Abs(cc.FactIOs-256) > 1e-6 {
		t.Fatalf("FactIOs = %g, want 256", cc.FactIOs)
	}
	// Resolved predicate: no bitmap reads at all.
	if cc.BitmapIOs != 0 || cc.BitmapPages != 0 {
		t.Fatalf("bitmap cost should be 0: %g IOs %g pages", cc.BitmapIOs, cc.BitmapPages)
	}
	if len(ev.Scheme.Indexes) != 0 {
		t.Fatalf("no bitmap index needed, got %d", len(ev.Scheme.Indexes))
	}
	// Selected rows = 1/16 of the table.
	if math.Abs(cc.SelectedRows-65536) > 1e-6 {
		t.Fatalf("SelectedRows = %g", cc.SelectedRows)
	}
}

func TestCoarserQueryHitsSubtree(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if math.Abs(cc.FragmentsHit-4) > 1e-9 { // 16/4
		t.Fatalf("FragmentsHit = %g, want 4", cc.FragmentsHit)
	}
	if math.Abs(cc.FactPages-4096) > 1e-6 { // 4 full fragments
		t.Fatalf("FactPages = %g, want 4096", cc.FactPages)
	}
	if math.Abs(cc.SelectedRows-float64(1<<18)) > 1e-6 {
		t.Fatalf("SelectedRows = %g", cc.SelectedRows)
	}
}

func TestFinerQuerySingleFragmentWithBitmap(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a1") // 4 fragments of 4096 pages
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if math.Abs(cc.FragmentsHit-1) > 1e-9 {
		t.Fatalf("FragmentsHit = %g, want 1", cc.FragmentsHit)
	}
	// Bitmap on A.a2 is needed (predicate finer than fragmentation).
	if _, ok := ev.Scheme.Index(attr(t, s, "A.a2")); !ok {
		t.Fatal("bitmap on A.a2 expected")
	}
	if cc.BitmapIOs == 0 || cc.BitmapPages == 0 {
		t.Fatal("bitmap read cost expected")
	}
	// In-fragment selectivity 4/16 = 1/4 still touches essentially every
	// granule (64 rows/page): Cardenas saturates at the fragment size, so
	// the cost equals a scan of the ONE hit fragment and never exceeds it.
	if cc.FactPages > 4096 || cc.FactPages <= 0 {
		t.Fatalf("FactPages = %g, want (0, 4096]", cc.FactPages)
	}
	if math.Abs(cc.SelectedRows-65536) > 1e-6 {
		t.Fatalf("SelectedRows = %g", cc.SelectedRows)
	}
}

func TestHighSelectivityPrunesPages(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "B.b2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a1") // 4 fragments of 4096 pages, all hit
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if math.Abs(cc.FragmentsHit-4) > 1e-9 {
		t.Fatalf("FragmentsHit = %g, want 4", cc.FragmentsHit)
	}
	// 1/65536 selectivity → ~16 qualifying rows in the whole table; the
	// bitmap prunes fact access to a handful of granules, far below the
	// 16384-page scan.
	if cc.FactPages > 200 {
		t.Fatalf("FactPages = %g, want strong pruning", cc.FactPages)
	}
	if cc.FactPages <= 0 {
		t.Fatalf("FactPages = %g, want > 0", cc.FactPages)
	}
	// The encoded bitmap on B.b2 must be read in every fragment.
	ix, ok := ev.Scheme.Index(attr(t, s, "B.b2"))
	if !ok || ix.Kind.String() != "encoded" {
		t.Fatalf("B.b2 index = %+v, %v", ix, ok)
	}
	if cc.BitmapPages == 0 {
		t.Fatal("bitmap pages expected")
	}
}

func TestUnreferencedFragmentationHitsEverything(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "B.b1")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if math.Abs(cc.FragmentsHit-16) > 1e-9 {
		t.Fatalf("FragmentsHit = %g, want all 16", cc.FragmentsHit)
	}
	if _, ok := ev.Scheme.Index(attr(t, s, "B.b1")); !ok {
		t.Fatal("bitmap on B.b1 expected")
	}
}

func TestMatchingFragmentationBeatsIrrelevantOne(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	onA, _ := fragment.Parse(s, "A.a2")
	onB, _ := fragment.Parse(s, "B.b1")
	evA, err := Evaluate(cfg, onA)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := Evaluate(cfg, onB)
	if err != nil {
		t.Fatal(err)
	}
	if evA.AccessCost >= evB.AccessCost {
		t.Fatalf("fragmenting the referenced dimension should win: %v >= %v", evA.AccessCost, evB.AccessCost)
	}
}

func TestResponseTimeImprovesWithDisks(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 1},
	}}
	f, _ := fragment.Parse(s, "A.a2")
	var prev time.Duration
	for i, disks := range []int{1, 2, 4, 8, 16} {
		cfg := cfgWith(t, s, m)
		cfg.Disk.Disks = disks
		ev, err := Evaluate(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && ev.ResponseTime > prev {
			t.Fatalf("response time grew with disks: %v -> %v at %d disks", prev, ev.ResponseTime, disks)
		}
		prev = ev.ResponseTime
		// Access cost is disk-count independent (same I/Os overall).
		if i == 0 {
			continue
		}
	}
}

func TestAccessCostIndependentOfDisks(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 1},
	}}
	f, _ := fragment.Parse(s, "A.a2")
	var costs []time.Duration
	for _, disks := range []int{2, 8, 32} {
		cfg := cfgWith(t, s, m)
		cfg.Disk.Disks = disks
		ev, err := Evaluate(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, ev.AccessCost)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Fatalf("access cost varies with disk count: %v", costs)
		}
	}
}

func TestBitmapExclusionDegradesToScan(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "B.b1")}, Weight: 1},
	}}
	f, _ := fragment.Parse(s, "A.a2")
	with := cfgWith(t, s, m)
	evWith, err := Evaluate(with, f)
	if err != nil {
		t.Fatal(err)
	}
	without := cfgWith(t, s, m)
	without.Bitmap.Exclude = []schema.AttrRef{attr(t, s, "B.b1")}
	evWithout, err := Evaluate(without, f)
	if err != nil {
		t.Fatal(err)
	}
	ccW, ccWo := evWith.PerClass[0], evWithout.PerClass[0]
	if ccWo.BitmapPages != 0 {
		t.Fatalf("excluded bitmap still read: %g", ccWo.BitmapPages)
	}
	if ccWo.FactPages <= ccW.FactPages {
		t.Fatalf("without bitmap fact pages should grow: %g <= %g", ccWo.FactPages, ccW.FactPages)
	}
	// Without the index the hit fragments are fully scanned.
	if math.Abs(ccWo.FactPages-16384) > 1e-6 {
		t.Fatalf("full scan expected: %g pages", ccWo.FactPages)
	}
}

func TestDiskProfileSumsToAccessCost(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q1", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 2},
		{Name: "Q2", Predicates: []schema.AttrRef{attr(t, s, "B.b1")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2", "B.b1")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range ev.PerClass {
		var sum time.Duration
		var maxD time.Duration
		for _, d := range cc.DiskBusy {
			sum += d
			if d > maxD {
				maxD = d
			}
		}
		if relDiff(float64(sum), float64(cc.AccessCost)) > 1e-6 {
			t.Fatalf("%s: disk profile sum %v != access cost %v", cc.Class.Name, sum, cc.AccessCost)
		}
		// E[max busy] is bracketed by max E[busy] and E[sum busy].
		if float64(cc.ResponseTime) < float64(maxD)*(1-1e-9) {
			t.Fatalf("%s: response %v below max expected disk busy %v", cc.Class.Name, cc.ResponseTime, maxD)
		}
		if float64(cc.ResponseTime) > float64(cc.AccessCost)*(1+1e-9) {
			t.Fatalf("%s: response %v > access %v", cc.Class.Name, cc.ResponseTime, cc.AccessCost)
		}
		if !cc.ResponseExact {
			t.Fatalf("%s: expected exact response enumeration on this small case", cc.Class.Name)
		}
	}
}

func TestWeightedTotals(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q1", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 3},
		{Name: "Q2", Predicates: []schema.AttrRef{attr(t, s, "B.b1")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75*float64(ev.PerClass[0].AccessCost) + 0.25*float64(ev.PerClass[1].AccessCost)
	if relDiff(float64(ev.AccessCost), want) > 1e-9 {
		t.Fatalf("AccessCost = %v, want weighted %v", ev.AccessCost, time.Duration(want))
	}
}

func TestForcedAllocScheme(t *testing.T) {
	s := testStar()
	s.Dimensions[0].SkewTheta = 1.0
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	f, _ := fragment.Parse(s, "A.a2")
	// Default: skewed geometry triggers greedy.
	cfg := cfgWith(t, s, m)
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Placement.Scheme != alloc.GreedySize {
		t.Fatalf("skew should pick greedy, got %v", ev.Placement.Scheme)
	}
	// Forced round-robin.
	rr := alloc.RoundRobin
	cfg2 := cfgWith(t, s, m)
	cfg2.AllocScheme = &rr
	ev2, err := Evaluate(cfg2, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Placement.Scheme != alloc.RoundRobin {
		t.Fatalf("forced scheme ignored: %v", ev2.Placement.Scheme)
	}
}

func TestCapacityCheck(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a2")
	ev, _ := Evaluate(cfg, f)
	if !ev.CapacityOK {
		t.Fatal("default capacity should fit easily")
	}
	tiny := cfgWith(t, s, m)
	tiny.Disk.CapacityBytes = 1 << 20 // 1 MiB per disk
	ev2, err := Evaluate(tiny, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.CapacityOK {
		t.Fatal("1 MiB disks cannot hold 128 MiB fact table")
	}
}

func TestPrefetchConfiguredWins(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a2")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	cfg.Disk.PrefetchPages = 32
	cfg.Disk.BitmapPrefetchPages = 2
	f, _ := fragment.Parse(s, "A.a2")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev.FactPrefetch != 32 || ev.BitmapPrefetch != 2 {
		t.Fatalf("prefetch = %d/%d, want 32/2", ev.FactPrefetch, ev.BitmapPrefetch)
	}
	// Advisor-chosen when unset.
	auto := cfgWith(t, s, m)
	auto.Disk.PrefetchPages = 0
	auto.Disk.BitmapPrefetchPages = 0
	ev2, err := Evaluate(auto, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.FactPrefetch < 1 || ev2.BitmapPrefetch < 1 {
		t.Fatalf("auto prefetch = %d/%d", ev2.FactPrefetch, ev2.BitmapPrefetch)
	}
}

func TestLargerPrefetchSpeedsFullScans(t *testing.T) {
	s := testStar()
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a1")}, Weight: 1},
	}}
	f, _ := fragment.Parse(s, "A.a2")
	small := cfgWith(t, s, m)
	small.Disk.PrefetchPages = 1
	evS, err := Evaluate(small, f)
	if err != nil {
		t.Fatal(err)
	}
	big := cfgWith(t, s, m)
	big.Disk.PrefetchPages = 64
	evB, err := Evaluate(big, f)
	if err != nil {
		t.Fatal(err)
	}
	if evB.AccessCost >= evS.AccessCost {
		t.Fatalf("prefetch 64 should beat 1 on scans: %v >= %v", evB.AccessCost, evS.AccessCost)
	}
}

func TestCardenas(t *testing.T) {
	if got := cardenas(0, 5); got != 0 {
		t.Fatalf("G=0: %g", got)
	}
	if got := cardenas(10, 0); got != 0 {
		t.Fatalf("k=0: %g", got)
	}
	if got := cardenas(1, 100); got != 1 {
		t.Fatalf("G=1: %g", got)
	}
	// k→∞ saturates at G.
	if got := cardenas(10, 1e9); math.Abs(got-10) > 1e-9 {
		t.Fatalf("saturation: %g", got)
	}
	// Monotone in k.
	if cardenas(100, 10) >= cardenas(100, 20) {
		t.Fatal("cardenas should grow with k")
	}
	// Never exceeds G or k.
	if cardenas(100, 5) > 5 {
		t.Fatalf("touched %g > k", cardenas(100, 5))
	}
}

func TestResponseSamplingFallback(t *testing.T) {
	// Two same-level predicates over a 100x100 fragmentation: 10,000
	// outcome combinations exceed the exact-enumeration budget (8192), so
	// the response expectation must come from the deterministic sampler —
	// and still respect the structural brackets.
	s := &schema.Star{
		Name: "S",
		Fact: schema.FactTable{Name: "F", Rows: 10_000_000, RowSize: 80},
		Dimensions: []schema.Dimension{
			{Name: "A", Levels: []schema.Level{{Name: "a", Cardinality: 100}}},
			{Name: "B", Levels: []schema.Level{{Name: "b", Cardinality: 100}}},
		},
	}
	m := &workload.Mix{Classes: []workload.Class{
		{Name: "Q", Predicates: []schema.AttrRef{attr(t, s, "A.a"), attr(t, s, "B.b")}, Weight: 1},
	}}
	cfg := cfgWith(t, s, m)
	f, _ := fragment.Parse(s, "A.a", "B.b")
	ev, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cc := ev.PerClass[0]
	if cc.ResponseExact {
		t.Fatal("10k outcomes should use the sampling fallback")
	}
	if cc.ResponseTime <= 0 {
		t.Fatalf("response = %v", cc.ResponseTime)
	}
	// One fragment hit per query: the sampled expectation must equal the
	// single fragment's access time (all fragments identical).
	if math.Abs(cc.FragmentsHit-1) > 1e-9 {
		t.Fatalf("FragmentsHit = %g", cc.FragmentsHit)
	}
	if float64(cc.ResponseTime) > float64(cc.AccessCost)*1.05 {
		t.Fatalf("sampled response %v far above access %v", cc.ResponseTime, cc.AccessCost)
	}
	// Determinism of the sampler.
	ev2, err := Evaluate(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.PerClass[0].ResponseTime != cc.ResponseTime {
		t.Fatal("sampling fallback not deterministic")
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}
