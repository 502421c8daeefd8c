package repro

// One benchmark per experiment of EXPERIMENTS.md (E1–E13; E14 itself
// times its cold-vs-sweep comparison) plus the two paper figures (F1
// pipeline, F2 analysis panels). Each benchmark
// exercises exactly the code path the corresponding warlock-bench
// experiment uses, at a reduced scale so `go test -bench=.` completes in
// seconds. The absolute table values are produced by cmd/warlock-bench;
// these benchmarks track the cost of regenerating them.

import (
	"io"
	"testing"

	"repro/internal/alloc"
	"repro/internal/analysis"
	"repro/internal/apb"
	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/internal/sim"
	"repro/internal/skew"
	"repro/internal/storage"
	"repro/internal/validate"
)

const benchRows = 1_000_000

func benchInput(b *testing.B, productTheta, customerTheta float64, disks int) *core.Input {
	b.Helper()
	s := apb.SkewedSchema(benchRows, productTheta, customerTheta)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	d := apb.Disk(disks)
	d.PrefetchPages = 8
	d.BitmapPrefetchPages = 8
	return &core.Input{Schema: s, Mix: m, Disk: d}
}

func benchAdvise(b *testing.B, in *core.Input) *core.Result {
	b.Helper()
	res, err := core.Advise(in)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1CandidateRanking measures the full advisor pipeline that
// produces the ranked candidate list (experiment E1).
func BenchmarkE1CandidateRanking(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Advise(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2DiskScaling measures re-evaluating one candidate across the
// disk-count sweep (experiment E2).
func BenchmarkE2DiskScaling(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	f := res.Best().Frag
	cfg := res.CostModelConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, disks := range []int{4, 16, 64, 256} {
			c := *cfg
			c.Disk.Disks = disks
			if _, err := costmodel.Evaluate(&c, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE3PrefetchSweep measures the prefetch-granule sweep of the
// winner (experiment E3).
func BenchmarkE3PrefetchSweep(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	f := res.Best().Frag
	cfg := res.CostModelConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []int{1, 8, 64, 256} {
			c := *cfg
			c.Disk.PrefetchPages = g
			c.Disk.BitmapPrefetchPages = g
			if _, err := costmodel.Evaluate(&c, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4SkewAllocation measures the skewed geometry + both allocation
// schemes comparison (experiment E4).
func BenchmarkE4SkewAllocation(b *testing.B) {
	in := benchInput(b, 0, 1.0, 16)
	f, err := fragment.Parse(in.Schema, "Customer.store")
	if err != nil {
		b.Fatal(err)
	}
	cfg := (&core.Result{Input: in}).CostModelConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []alloc.Scheme{alloc.RoundRobin, alloc.GreedySize} {
			sc := scheme
			c := *cfg
			c.AllocScheme = &sc
			if _, err := costmodel.Evaluate(&c, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5BitmapSchemes measures bitmap sizing across every schema
// attribute for both kinds (experiment E5).
func BenchmarkE5BitmapSchemes(b *testing.B) {
	s := apb.Schema(benchRows)
	f, err := fragment.Parse(s, "Time.month")
	if err != nil {
		b.Fatal(err)
	}
	g, err := fragment.NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range s.Dimensions {
			for li, lv := range d.Levels {
				a, _ := s.Attr(d.Name + "." + lv.Name)
				_ = li
				std := bitmap.Index{Attr: a, Kind: bitmap.Standard, Slices: s.Cardinality(a), ReadSlices: 1}
				bitmap.IndexPages(std, g)
				enc := bitmap.Index{Attr: a, Kind: bitmap.HierEncoded, Slices: 14, ReadSlices: 14}
				bitmap.IndexPages(enc, g)
			}
		}
	}
}

// BenchmarkE6Thresholds measures the threshold-sweep candidate filtering
// (experiment E6).
func BenchmarkE6Thresholds(b *testing.B) {
	s := apb.Schema(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, minPages := range []int64{1, 16, 256, 1024} {
			th := fragment.Thresholds{MinAvgFragmentPages: minPages, MaxFragments: 1 << 20}
			fragment.EnumerateFiltered(s, th, 8192)
		}
	}
}

// BenchmarkE7ModelVsSim measures one analytical-vs-simulation validation
// round (experiment E7): 50 simulated queries against the winner.
func BenchmarkE7ModelVsSim(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	cfg := res.CostModelConfig()
	ev := res.Best()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.SingleUser(cfg, ev, 50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8VolumeScaling measures advising across fact-table volumes
// (experiment E8).
func BenchmarkE8VolumeScaling(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rows := range []int64{250_000, 1_000_000} {
			s := apb.Schema(rows)
			m, err := apb.Mix(s)
			if err != nil {
				b.Fatal(err)
			}
			d := apb.Disk(16)
			d.PrefetchPages = 8
			d.BitmapPrefetchPages = 8
			if _, err := core.Advise(&core.Input{Schema: s, Mix: m, Disk: d}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE9TwofoldTradeoff measures Pareto-front extraction plus the X%
// ranking sweep over pre-computed evaluations (experiment E9).
func BenchmarkE9TwofoldTradeoff(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	// Retain every evaluation (LeadingPercent 100) so the Pareto front and
	// the ranking sweep below operate on the full candidate set.
	in.Rank.LeadingPercent = 100
	res := benchAdvise(b, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank.ParetoFront(res.Evaluations)
		for _, pct := range []float64{5, 25, 100} {
			if _, err := rank.Rank(res.Evaluations, rank.Options{LeadingPercent: pct, MinLeading: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE10MixSensitivity measures one weight-perturbation advisory
// round (experiment E10).
func BenchmarkE10MixSensitivity(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boosted, err := in.Mix.Scale("Q3-store-month", 8)
		if err != nil {
			b.Fatal(err)
		}
		in2 := *in
		in2.Mix = boosted
		if _, err := core.Advise(&in2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11ExecutedValidation measures one cost-model-vs-executed-
// layout validation round (experiment E11): materialize 100k rows, run 5
// queries per class.
func BenchmarkE11ExecutedValidation(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	in.Schema = apb.Schema(100_000)
	m, err := apb.Mix(in.Schema)
	if err != nil {
		b.Fatal(err)
	}
	in.Mix = m
	res := benchAdvise(b, in)
	cfg := res.CostModelConfig()
	f := res.Best().Frag
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := validate.Run(cfg, f, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12MultiUser measures the analytical multi-user estimate plus
// one open-system simulation round (experiment E12).
func BenchmarkE12MultiUser(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	cfg := res.CostModelConfig()
	ev := res.Best()
	sat := costmodel.SaturationRate(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := costmodel.MultiUserEstimate(ev, 0.5*sat); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.MultiUser(cfg, ev, 50, 0.5*sat, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllocSchemes contrasts the cost of the two allocation
// schemes on a skewed geometry (DESIGN §6 ablation).
func BenchmarkAblationAllocSchemes(b *testing.B) {
	in := benchInput(b, 0, 1.0, 16)
	f, err := fragment.Parse(in.Schema, "Customer.store")
	if err != nil {
		b.Fatal(err)
	}
	g, err := fragment.NewGeometry(in.Schema, f, in.Disk.PageSize, skew.Interleaved, 0)
	if err != nil {
		b.Fatal(err)
	}
	sz := g.SizeClasses()
	pages := make([]int64, len(sz.ClassOf))
	for v, c := range sz.ClassOf {
		pages[v] = sz.Pages[c]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.Allocate(alloc.RoundRobin, pages, 16); err != nil {
			b.Fatal(err)
		}
		if _, err := alloc.Allocate(alloc.GreedySize, pages, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStorageExecution measures raw query execution against a
// materialized layout (bitmap AND + granule fetch path).
func BenchmarkAblationStorageExecution(b *testing.B) {
	s := apb.Schema(100_000)
	m, err := apb.Mix(s)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fragment.Parse(s, "Product.line", "Time.quarter")
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := bitmap.PlanScheme(s, f, m, bitmap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := datagen.New(s, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := gen.Rows(100_000)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := storage.Build(s, f, scheme, rows, 8192)
	if err != nil {
		b.Fatal(err)
	}
	c := &m.Classes[0] // Q1-group-month
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := []int{i % 250, i % 24}
		if _, err := layout.Execute(c, vals, 8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1Pipeline measures the end-to-end Fig.1 pipeline (input →
// prediction → analysis) including report rendering.
func BenchmarkF1Pipeline(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Advise(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.WriteString(io.Discard, analysis.Report(res)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2AnalysisReport measures rendering the Fig.2 analysis panels
// for a pre-computed winner.
func BenchmarkF2AnalysisReport(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	best := res.Best()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.DatabaseStatistic(in.Schema, best)
		analysis.QueryStatistic(in.Schema, best)
		analysis.AllocationReport(in.Schema, best, 16)
		if _, err := analysis.DiskAccessProfile(in.Schema, best, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13RangedDesign measures deriving and evaluating a range
// fragmentation (experiment E13).
func BenchmarkE13RangedDesign(b *testing.B) {
	in := benchInput(b, 0, 0, 16)
	res := benchAdvise(b, in)
	best := res.Best()
	attrs := best.Frag.Attrs()
	cfg := res.CostModelConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranges := make([]int, len(attrs))
		for j := range ranges {
			ranges[j] = 4
		}
		ds, dm, f, err := fragment.RangedDesign(in.Schema, in.Mix, attrs, ranges)
		if err != nil {
			b.Fatal(err)
		}
		c := *cfg
		c.Schema = ds
		c.Mix = dm
		if _, err := costmodel.Evaluate(&c, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiFactCoAllocation measures the two-fact-table advisory with
// combined placement.
func BenchmarkMultiFactCoAllocation(b *testing.B) {
	a := benchInput(b, 0, 0, 16)
	c := benchInput(b, 0, 0, 16)
	c.Schema = apb.Schema(250_000)
	m, err := apb.Mix(c.Schema)
	if err != nil {
		b.Fatal(err)
	}
	c.Mix = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AdviseMulti(&core.MultiInput{Inputs: []*core.Input{a, c}}); err != nil {
			b.Fatal(err)
		}
	}
}
