package warlock_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/warlock"
)

// update regenerates the golden files instead of comparing:
//
//	go test ./warlock -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with the current pipeline output")

// The golden corpus snapshots the complete rendered advisory —
// Report(Advise(in)) — for two reference workloads, and one rendered
// sweep report over the first. The pipeline is
// deterministic by construction (no clock or global-rand seeding, and
// Parallelism never changes results), so any byte-level drift in these
// files is a real behavioural change in enumeration, pruning, the cost
// model, ranking, allocation or report rendering — exactly what a
// refactor must not silently do.

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s: advisory output drifted from golden snapshot.\n"+
			"If the change is intentional, regenerate with:\n"+
			"  go test ./warlock -run TestGolden -update\n"+
			"--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenAPB1 pins the uniform APB-1 advisory (1M rows, 16 disks,
// fixed 8-page granules).
func TestGoldenAPB1(t *testing.T) {
	schema := warlock.APB1Schema(1_000_000)
	mix, err := warlock.APB1Mix(schema)
	if err != nil {
		t.Fatal(err)
	}
	disk := warlock.DefaultDisk(16)
	disk.PrefetchPages = 8
	disk.BitmapPrefetchPages = 8
	res, err := warlock.New().Advise(context.Background(), &warlock.Input{Schema: schema, Mix: mix, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "apb1.golden", warlock.Report(res))
}

// TestGoldenSkewedRetail pins the skewed grocery advisory from
// examples/skewed-retail: strong Zipf skew on articles and stores, which
// must flip the allocation rule to greedy size-based.
func TestGoldenSkewedRetail(t *testing.T) {
	res, err := warlock.New().Advise(context.Background(), skewedRetailInput(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Placement.Scheme != warlock.GreedySize {
		t.Fatalf("skewed retail winner should use greedy allocation, got %v", res.Best().Placement.Scheme)
	}
	goldenCompare(t, "skewed-retail.golden", warlock.Report(res))
}

// TestGoldenSweepReport pins both rendered forms of a multi-axis sweep
// report (table, then JSON): a disks × prefetch × allocation grid over
// the APB-1 workload of TestGoldenAPB1, with a response-time target.
func TestGoldenSweepReport(t *testing.T) {
	schema := warlock.APB1Schema(1_000_000)
	mix, err := warlock.APB1Mix(schema)
	if err != nil {
		t.Fatal(err)
	}
	grid := &warlock.SweepGrid{
		Disks:    []int{8, 16},
		Prefetch: []int{0, 8},
		Allocs:   []string{"auto", "greedy-size"},
	}
	adv := warlock.New(warlock.WithResponseTarget(500 * time.Millisecond))
	rep, err := adv.Sweep(context.Background(), &warlock.Input{Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(16)}, grid)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Table(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "sweep-report.golden", buf.String())
}

// TestGoldenDeterministicAcrossParallelism guards the premise the sweep
// engine and the goldens rest on: the rendered advisory is byte-identical
// for every worker count.
func TestGoldenDeterministicAcrossParallelism(t *testing.T) {
	in := skewedRetailInput(t)
	in.Parallelism = 1
	serial, err := warlock.New().Advise(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := *in
	in2.Parallelism = 7
	parallel, err := warlock.New().Advise(context.Background(), &in2)
	if err != nil {
		t.Fatal(err)
	}
	if warlock.Report(serial) != warlock.Report(parallel) {
		t.Fatal("rendered advisory differs across Parallelism values")
	}
}

// TestGoldenPrunedVsUnpruned guards the branch-and-bound stage's core
// contract over the golden corpus: with pruning disabled, both reference
// workloads must render byte-identically and carry identical result
// surfaces (ranking, retained evaluations, exclusions) at every
// parallelism level — the lower bound may only ever remove work, never
// results.
func TestGoldenPrunedVsUnpruned(t *testing.T) {
	apb1 := func(t *testing.T) *warlock.Input {
		t.Helper()
		schema := warlock.APB1Schema(1_000_000)
		mix, err := warlock.APB1Mix(schema)
		if err != nil {
			t.Fatal(err)
		}
		disk := warlock.DefaultDisk(16)
		disk.PrefetchPages = 8
		disk.BitmapPrefetchPages = 8
		return &warlock.Input{Schema: schema, Mix: mix, Disk: disk}
	}
	for _, tc := range []struct {
		name  string
		input func(*testing.T) *warlock.Input
	}{
		{"apb1", apb1},
		{"skewed-retail", skewedRetailInput},
	} {
		for _, par := range []int{1, 4, 0 /* GOMAXPROCS */} {
			pruned := tc.input(t)
			pruned.Parallelism = par
			unpruned := tc.input(t)
			unpruned.Parallelism = par
			unpruned.DisablePruning = true

			rp, err := warlock.New().Advise(context.Background(), pruned)
			if err != nil {
				t.Fatalf("%s par=%d pruned: %v", tc.name, par, err)
			}
			ru, err := warlock.New().Advise(context.Background(), unpruned)
			if err != nil {
				t.Fatalf("%s par=%d unpruned: %v", tc.name, par, err)
			}
			if warlock.Report(rp) != warlock.Report(ru) {
				t.Fatalf("%s par=%d: rendered advisory differs with pruning disabled", tc.name, par)
			}
			assertSameResult(t, tc.name, par, rp, ru)
			if !rp.PruneStats.Enabled || ru.PruneStats.Enabled {
				t.Fatalf("%s par=%d: PruneStats.Enabled pruned=%v unpruned=%v",
					tc.name, par, rp.PruneStats.Enabled, ru.PruneStats.Enabled)
			}
		}
	}
}

// TestGoldenAllowPartialByteIdentical guards the anytime-advisory
// contract over the golden corpus: a run with AllowPartial set that is
// never interrupted must be indistinguishable from a plain run — same
// rendered report, same result surfaces, Partial false, nothing left
// uncovered — at every parallelism level.
func TestGoldenAllowPartialByteIdentical(t *testing.T) {
	apb1 := func(t *testing.T) *warlock.Input {
		t.Helper()
		schema := warlock.APB1Schema(1_000_000)
		mix, err := warlock.APB1Mix(schema)
		if err != nil {
			t.Fatal(err)
		}
		disk := warlock.DefaultDisk(16)
		disk.PrefetchPages = 8
		disk.BitmapPrefetchPages = 8
		return &warlock.Input{Schema: schema, Mix: mix, Disk: disk}
	}
	for _, tc := range []struct {
		name  string
		input func(*testing.T) *warlock.Input
	}{
		{"apb1", apb1},
		{"skewed-retail", skewedRetailInput},
	} {
		for _, par := range []int{1, 4, 0 /* GOMAXPROCS */} {
			plain := tc.input(t)
			plain.Parallelism = par
			anytime := tc.input(t)
			anytime.Parallelism = par
			anytime.AllowPartial = true

			rp, err := warlock.New().Advise(context.Background(), plain)
			if err != nil {
				t.Fatalf("%s par=%d plain: %v", tc.name, par, err)
			}
			ra, err := warlock.New().Advise(context.Background(), anytime)
			if err != nil {
				t.Fatalf("%s par=%d anytime: %v", tc.name, par, err)
			}
			if ra.Partial || ra.Coverage.Remaining != 0 {
				t.Fatalf("%s par=%d: uninterrupted anytime run partial=%v coverage=%+v",
					tc.name, par, ra.Partial, ra.Coverage)
			}
			if warlock.Report(rp) != warlock.Report(ra) {
				t.Fatalf("%s par=%d: rendered advisory differs with AllowPartial set", tc.name, par)
			}
			assertSameResult(t, tc.name, par, rp, ra)
		}
	}
}

// assertSameResult compares every deterministic surface of two advisories
// field by field (PruneStats is diagnostic and deliberately excluded).
func assertSameResult(t *testing.T, name string, par int, a, b *warlock.Result) {
	t.Helper()
	if len(a.Ranked) != len(b.Ranked) || len(a.Evaluations) != len(b.Evaluations) ||
		len(a.Excluded) != len(b.Excluded) || len(a.EvalFailures) != len(b.EvalFailures) {
		t.Fatalf("%s par=%d: surface sizes differ: ranked %d/%d evals %d/%d excluded %d/%d failures %d/%d",
			name, par, len(a.Ranked), len(b.Ranked), len(a.Evaluations), len(b.Evaluations),
			len(a.Excluded), len(b.Excluded), len(a.EvalFailures), len(b.EvalFailures))
	}
	for i := range a.Ranked {
		x, y := a.Ranked[i].Eval, b.Ranked[i].Eval
		if x.Frag.Key() != y.Frag.Key() || x.AccessCost != y.AccessCost || x.ResponseTime != y.ResponseTime {
			t.Fatalf("%s par=%d: ranked[%d] differs: %s(%v,%v) vs %s(%v,%v)", name, par, i,
				x.Frag.Key(), x.AccessCost, x.ResponseTime, y.Frag.Key(), y.AccessCost, y.ResponseTime)
		}
	}
	for i := range a.Evaluations {
		x, y := a.Evaluations[i], b.Evaluations[i]
		if x.Frag.Key() != y.Frag.Key() || x.AccessCost != y.AccessCost || x.ResponseTime != y.ResponseTime {
			t.Fatalf("%s par=%d: evaluations[%d] differs: %s vs %s", name, par, i, x.Frag.Key(), y.Frag.Key())
		}
	}
	for i := range a.Excluded {
		if a.Excluded[i].Reason != b.Excluded[i].Reason {
			t.Fatalf("%s par=%d: excluded[%d] differs", name, par, i)
		}
	}
}

// skewedRetailInput reproduces the examples/skewed-retail configuration.
func skewedRetailInput(t *testing.T) *warlock.Input {
	t.Helper()
	schema := &warlock.Star{
		Name: "Grocery",
		Fact: warlock.FactTable{Name: "Receipts", Rows: 6_000_000, RowSize: 80},
		Dimensions: []warlock.Dimension{
			{Name: "Article", SkewTheta: 0.9, Levels: []warlock.Level{
				{Name: "department", Cardinality: 12},
				{Name: "category", Cardinality: 180},
				{Name: "article", Cardinality: 5000},
			}},
			{Name: "Store", SkewTheta: 1.0, Levels: []warlock.Level{
				{Name: "region", Cardinality: 16},
				{Name: "store", Cardinality: 640},
			}},
			{Name: "Day", Levels: []warlock.Level{
				{Name: "year", Cardinality: 3},
				{Name: "month", Cardinality: 36},
				{Name: "day", Cardinality: 1096},
			}},
		},
	}
	mix := &warlock.Mix{Classes: []warlock.QueryClass{
		retailClass(t, schema, "category-by-month", 30, "Article.category", "Day.month"),
		retailClass(t, schema, "store-monthly", 25, "Store.store", "Day.month"),
		retailClass(t, schema, "regional-departments", 20, "Store.region", "Article.department"),
		retailClass(t, schema, "article-drill", 15, "Article.article"),
		retailClass(t, schema, "daily-flash", 10, "Day.day"),
	}}
	return &warlock.Input{Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(24)}
}

func retailClass(t *testing.T, s *warlock.Star, name string, weight float64, paths ...string) warlock.QueryClass {
	t.Helper()
	c := warlock.QueryClass{Name: name, Weight: weight}
	for _, p := range paths {
		a, err := s.Attr(p)
		if err != nil {
			t.Fatal(err)
		}
		c.Predicates = append(c.Predicates, a)
	}
	return c
}
