package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apb"
	"repro/internal/core"
)

// baseInput builds a small APB-1 advisor input.
func baseInput(t testing.TB, rows int64, disks int) *core.Input {
	t.Helper()
	s := apb.Schema(rows)
	m, err := apb.Mix(s)
	if err != nil {
		t.Fatal(err)
	}
	d := apb.Disk(disks)
	d.PrefetchPages = 8
	d.BitmapPrefetchPages = 8
	return &core.Input{Schema: s, Mix: m, Disk: d}
}

// fullGrid is a 12-scenario grid exercising the shared geometry cache
// (disks, prefetch and mix axes on one schema).
func fullGrid() *Grid {
	return &Grid{
		Disks:    []int{8, 16, 32},
		Prefetch: []int{0, 8},
		MixScales: []MixScale{
			{Name: "base"},
			{Name: "boost-Q3", Factors: map[string]float64{"Q3-store-month": 8}},
		},
	}
}

// TestSweepBitIdenticalToColdAdvise is the acceptance-criteria test: every
// scenario of a 12-scenario grid must be bit-for-bit identical to an
// independent cold core.Advise call on the scenario's input — identical
// ranked lists, evaluations, exclusions, and rendered report bytes.
func TestSweepBitIdenticalToColdAdvise(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	grid := fullGrid()
	rep, err := Run(context.Background(), base, grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 12 {
		t.Fatalf("grid expanded to %d scenarios, want 12", len(rep.Scenarios))
	}
	for _, sr := range rep.Scenarios {
		if sr.Err != nil {
			t.Fatalf("scenario %q: %v", sr.Name, sr.Err)
		}
		cold, err := core.Advise(sr.Scenario.Input)
		if err != nil {
			t.Fatalf("cold advise %q: %v", sr.Name, err)
		}
		if !reflect.DeepEqual(sr.Result.Ranked, cold.Ranked) {
			t.Fatalf("scenario %q: ranked list differs from cold Advise", sr.Name)
		}
		if !reflect.DeepEqual(sr.Result.Evaluations, cold.Evaluations) {
			t.Fatalf("scenario %q: evaluations differ from cold Advise", sr.Name)
		}
		if !reflect.DeepEqual(sr.Result.Excluded, cold.Excluded) {
			t.Fatalf("scenario %q: exclusions differ from cold Advise", sr.Name)
		}
		if got, want := analysis.Report(sr.Result), analysis.Report(cold); got != want {
			t.Fatalf("scenario %q: rendered report differs from cold Advise", sr.Name)
		}
	}
}

func TestExpandAxes(t *testing.T) {
	base := baseInput(t, 200_000, 8)
	grid := &Grid{
		Rows:     []int64{100_000, 200_000},
		Disks:    []int{4, 8},
		Prefetch: []int{0, 16},
		Skews: []SkewSetting{
			{Name: "uniform"},
			{Name: "cust-hot", Theta: map[string]float64{"Customer": 0.86}},
		},
		Allocs: []string{AllocAuto, AllocGreedySize},
	}
	scens, err := Expand(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != grid.Size() || len(scens) != 32 {
		t.Fatalf("expanded %d scenarios, want %d", len(scens), grid.Size())
	}
	// Schema pointers: shared across disks/prefetch/alloc, distinct per
	// (rows, skew); uniform skew at base rows keeps... actually every
	// rows value clones, so 2 rows × 2 skews = 4 distinct schemas.
	schemas := map[any]bool{}
	for _, sc := range scens {
		schemas[sc.Input.Schema] = true
	}
	if len(schemas) != 4 {
		t.Fatalf("scenarios use %d distinct schemas, want 4", len(schemas))
	}
	first := scens[0]
	if first.Input.Disk.Disks != 4 || first.Input.Disk.PrefetchPages != 0 {
		t.Fatalf("first scenario disk params %+v", first.Input.Disk)
	}
	if first.Input.AllocScheme != nil {
		t.Fatal("alloc=auto should leave AllocScheme nil")
	}
	if !strings.Contains(first.Name, "prefetch=auto") || !strings.Contains(first.Name, "alloc=auto") {
		t.Fatalf("scenario name %q", first.Name)
	}
	last := scens[len(scens)-1]
	if last.Input.AllocScheme == nil {
		t.Fatal("alloc=greedy-size should force the scheme")
	}
	if last.Input.Schema.Dimensions[1].SkewTheta != 0.86 {
		t.Fatalf("skew axis did not apply: %+v", last.Input.Schema.Dimensions[1])
	}
	if base.Schema.Dimensions[1].SkewTheta != 0 {
		t.Fatal("base schema was mutated")
	}
	// Empty grid → one base scenario.
	single, err := Expand(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0].Name != "base" {
		t.Fatalf("nil grid expanded to %+v", single)
	}
	if single[0].Input.Schema != base.Schema || single[0].Input.Mix != base.Mix {
		t.Fatal("base scenario should share the base schema and mix")
	}
}

func TestExpandErrors(t *testing.T) {
	base := baseInput(t, 200_000, 8)
	cases := []struct {
		name string
		grid *Grid
	}{
		{"bad rows", &Grid{Rows: []int64{-1}}},
		{"bad disks", &Grid{Disks: []int{0}}},
		{"bad prefetch", &Grid{Prefetch: []int{-2}}},
		{"unknown class", &Grid{MixScales: []MixScale{{Name: "x", Factors: map[string]float64{"nope": 2}}}}},
		{"bad factor", &Grid{MixScales: []MixScale{{Name: "x", Factors: map[string]float64{"Q5-code": 0}}}}},
		{"unknown dim", &Grid{Skews: []SkewSetting{{Name: "x", Theta: map[string]float64{"Nope": 0.5}}}}},
		{"bad theta", &Grid{Skews: []SkewSetting{{Name: "x", Theta: map[string]float64{"Customer": 9}}}}},
		{"bad alloc", &Grid{Allocs: []string{"hashed"}}},
	}
	for _, tc := range cases {
		if _, err := Expand(base, tc.grid); err == nil {
			t.Errorf("%s: Expand accepted invalid grid", tc.name)
		}
	}
	if _, err := Expand(nil, &Grid{}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Expand(&core.Input{}, &Grid{}); err == nil {
		t.Error("invalid base accepted")
	}
}

// TestGridSize pins the scenario count, including a product of axis
// lengths that overflows int: Size saturates instead of wrapping.
func TestGridSize(t *testing.T) {
	if n := (&Grid{}).Size(); n != 1 {
		t.Fatalf("empty grid size %d, want 1", n)
	}
	if n := fullGrid().Size(); n != 12 {
		t.Fatalf("fullGrid size %d, want 12", n)
	}
	// 1500^6 > 2^63: six axes of 1500 values each.
	const l = 1500
	huge := &Grid{
		Rows:      make([]int64, l),
		Disks:     make([]int, l),
		Prefetch:  make([]int, l),
		MixScales: make([]MixScale, l),
		Skews:     make([]SkewSetting, l),
		Allocs:    make([]string, l),
	}
	if n := huge.Size(); n != math.MaxInt {
		t.Fatalf("overflowing grid size %d, want math.MaxInt", n)
	}
}

// TestExpandRejectsOversizedGrid: a grid above MaxScenarios is an error
// from Expand (and so from Run), not an allocation sized by the grid.
func TestExpandRejectsOversizedGrid(t *testing.T) {
	base := baseInput(t, 200_000, 8)
	at := &Grid{Disks: make([]int, 64), Prefetch: make([]int, MaxScenarios/64)}
	over := &Grid{}
	for i := 1; i <= 3000; i++ {
		over.Disks = append(over.Disks, i)
		over.Prefetch = append(over.Prefetch, i)
		over.Allocs = append(over.Allocs, AllocAuto)
	}
	if err := at.CheckSize(); err != nil {
		t.Fatalf("grid of exactly MaxScenarios rejected: %v", err)
	}
	if _, err := Expand(base, over); err == nil || !strings.Contains(err.Error(), "more than 4096 scenarios") {
		t.Fatalf("Expand on a %d-scenario grid: err = %v", over.Size(), err)
	}
	if _, err := Run(context.Background(), base, over, Options{}); err == nil {
		t.Fatal("Run accepted an oversized grid")
	}
}

func TestReportBestAndTarget(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	grid := &Grid{Disks: []int{4, 8, 16, 32}}
	rep, err := Run(context.Background(), base, grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without a target: lowest winning response time.
	best := rep.Best()
	if best == nil {
		t.Fatal("no best scenario")
	}
	for i := range rep.Scenarios {
		if ev := rep.Scenarios[i].Best(); ev != nil && ev.ResponseTime < best.Best().ResponseTime {
			t.Fatalf("Best() %q is not the fastest scenario", best.Name)
		}
	}
	// With a target met by several disk counts: smallest disk count wins.
	loose := rep.Scenarios[len(rep.Scenarios)-1].Best().ResponseTime * 100
	rep.Target = loose
	got := rep.Best()
	if got == nil || got.Input.Disk.Disks != 4 {
		t.Fatalf("Best() with loose target picked %+v, want disks=4", got)
	}
	// With an unmeetable target: fall back to fastest, flagged as not
	// meeting the target.
	rep.Target = time.Nanosecond
	fb := rep.Best()
	if fb == nil {
		t.Fatal("unmeetable target should fall back to fastest scenario")
	}
	if fb.MeetsTarget(rep.Target) {
		t.Fatal("fallback scenario cannot claim to meet an unmeetable target")
	}
}

// TestReportBestRequiresCapacity: a scenario whose winner does not fit
// the disk capacity is never recommended as "meeting" a target, however
// fast it is — the smallest-disks preference runs exactly toward the
// configurations where layouts stop fitting.
func TestReportBestRequiresCapacity(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	base.Disk.CapacityBytes = 1 << 20 // 1 MiB/disk: nothing fits
	rep, err := Run(context.Background(), base, &Grid{Disks: []int{4, 8}}, Options{ResponseTarget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Scenarios {
		sr := &rep.Scenarios[i]
		if ev := sr.Best(); ev == nil || ev.CapacityOK {
			t.Fatalf("scenario %q: expected an over-capacity winner", sr.Name)
		}
		if sr.MeetsTarget(rep.Target) {
			t.Fatalf("scenario %q: over-capacity winner claims to meet the target", sr.Name)
		}
	}
	if best := rep.Best(); best == nil {
		t.Fatal("Best() should still fall back to the fastest scenario")
	} else if best.MeetsTarget(rep.Target) {
		t.Fatal("fallback over-capacity scenario cannot meet the target")
	}
}

func TestReportTableAndJSON(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	grid := &Grid{Disks: []int{8, 16}}
	rep, err := Run(context.Background(), base, grid, Options{ResponseTarget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	if err := rep.Table(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SCENARIO", "WINNER", "TARGET", "disks=8", "disks=16", "meets"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Advisories int `json:"advisories"`
		Scenarios  []struct {
			Name        string  `json:"name"`
			Disks       int     `json:"disks"`
			Winner      string  `json:"winner"`
			ResponseMs  float64 `json:"responseMs"`
			MeetsTarget bool    `json:"meetsTarget"`
		} `json:"scenarios"`
		Best string `json:"best"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, js.String())
	}
	if doc.Advisories != 2 || len(doc.Scenarios) != 2 {
		t.Fatalf("JSON doc %+v", doc)
	}
	for _, s := range doc.Scenarios {
		if s.Winner == "" || s.ResponseMs <= 0 || !s.MeetsTarget {
			t.Fatalf("JSON scenario %+v", s)
		}
	}
	if doc.Best != "disks=8" {
		t.Fatalf("best %q, want disks=8 (smallest disk count meeting target)", doc.Best)
	}
}

func TestRunScenarioErrorDoesNotAbort(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	// A huge minimum fragment size excludes every candidate in every
	// scenario; the sweep must still return a report with per-scenario
	// errors rather than failing outright.
	base.Thresholds.MinAvgFragmentPages = 1 << 40
	base.Thresholds.MaxFragments = 1 << 20
	rep, err := Run(context.Background(), base, &Grid{Disks: []int{4, 8}}, Options{})
	if err != nil {
		t.Fatalf("sweep aborted on scenario error: %v", err)
	}
	for _, sr := range rep.Scenarios {
		if !errors.Is(sr.Err, core.ErrNoFeasible) {
			t.Fatalf("scenario %q err = %v, want ErrNoFeasible", sr.Name, sr.Err)
		}
	}
	if rep.Best() != nil {
		t.Fatal("Best() should be nil when every scenario failed")
	}
}

func TestRunCancellation(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, base, fullGrid(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestSweepSharesGeometryCache pins the memoization: a disks+mix grid on
// one schema computes each candidate geometry once, not once per
// scenario (the per-advisory evaluation count stays the same).
func TestSweepSharesGeometryCache(t *testing.T) {
	base := baseInput(t, 400_000, 8)
	rep, err := Run(context.Background(), base, fullGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All 12 advisories share one schema; the cache inside the run is not
	// directly visible here, but the scenario results must expose the
	// cache through their inputs for follow-up evaluations.
	for _, sr := range rep.Scenarios {
		if sr.Result.Input.EvalCache == nil {
			t.Fatalf("scenario %q result input lost the shared cache", sr.Name)
		}
	}
	// And the shared cache holds one geometry per distinct evaluated or
	// geometry-checked candidate — not scenarios × candidates.
	cache := rep.Scenarios[0].Result.Input.EvalCache
	evaluated := len(rep.Scenarios[0].Result.Evaluations)
	if g := cache.Geometries(); g == 0 || g > 3*evaluated {
		t.Fatalf("cache holds %d geometries for %d evaluated candidates over %d scenarios — sharing broken?",
			g, evaluated, len(rep.Scenarios))
	}
}
