package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/analysis"
	"repro/internal/apb"
	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/internal/sim"
	"repro/internal/skew"
	"repro/internal/sweep"
	"repro/internal/validate"
)

// input assembles the standard APB-1 advisor input at the experiment scale.
func input(p params, productTheta, customerTheta float64) (*core.Input, error) {
	s := apb.SkewedSchema(p.rows, productTheta, customerTheta)
	m, err := apb.Mix(s)
	if err != nil {
		return nil, err
	}
	d := apb.Disk(p.disks)
	d.PrefetchPages = 8
	d.BitmapPrefetchPages = 8
	return &core.Input{Schema: s, Mix: m, Disk: d}, nil
}

func tw() *tabwriter.Writer { return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runE1 prints the ranked candidate list — the advisor's primary output.
func runE1(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	in.Rank.TopN = 15
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	fmt.Printf("candidates: %d survivors (%d skipped by lower bound), %d excluded by thresholds\n",
		res.PruneStats.Survivors, res.PruneStats.Skipped, len(res.Excluded))
	fmt.Print(analysis.CandidateTable(in.Schema, res.Ranked))
	return nil
}

// runE2 sweeps the disk count for the best 1-D, 2-D and 3-D candidates:
// one sweep definition over the disks axis, restricted to the three
// picked candidates, evaluated through the shared memoizing pipeline
// (each candidate's geometry is computed once, not once per disk count).
func runE2(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	// Retain every evaluation: the per-dimensionality pick below scans
	// the full candidate set, not just the leading cut.
	in.Rank.LeadingPercent = 100
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	// Best candidate per dimensionality, by access cost.
	bestBy := map[int]*costmodel.Evaluation{}
	for _, ev := range res.Evaluations {
		d := ev.Frag.Dims()
		if cur, ok := bestBy[d]; !ok || ev.AccessCost < cur.AccessCost {
			bestBy[d] = ev
		}
	}
	w := tw()
	fmt.Fprint(w, "DISKS")
	var picks []*costmodel.Evaluation
	base := *in
	// Pinned candidates are evaluated unconditionally (the what-if grids
	// replicate the old direct Evaluate calls, which bypassed thresholds).
	base.Thresholds = fragment.Thresholds{MaxFragments: fragment.MaxFragmentsDefault}
	for d := 1; d <= 3; d++ {
		if ev, ok := bestBy[d]; ok {
			picks = append(picks, ev)
			base.Candidates = append(base.Candidates, ev.Frag)
			fmt.Fprintf(w, "\t%s (resp ms)", ev.Frag.Name(in.Schema))
		}
	}
	fmt.Fprintln(w)
	disks := []int{4, 8, 16, 32, 64, 128, 256}
	rep, err := sweep.Run(context.Background(), &base, &sweep.Grid{Disks: disks}, sweep.Options{})
	if err != nil {
		return err
	}
	for i, sr := range rep.Scenarios {
		if sr.Err != nil {
			return sr.Err
		}
		fmt.Fprintf(w, "%d", disks[i])
		for _, pick := range picks {
			ev := sr.Result.Find(pick.Frag.Key())
			if ev == nil {
				return fmt.Errorf("e2: candidate %s missing at %s", pick.Frag.Name(in.Schema), sr.Name)
			}
			fmt.Fprintf(w, "\t%.1f", ms(ev.ResponseTime))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("(response should fall with disks until #fragments-hit limits parallelism)")
	return nil
}

// runE3 sweeps the prefetch granule for the winner: a prefetch-axis
// sweep definition restricted to the winning candidate (granule 0 =
// advisor-optimized).
func runE3(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	best := res.Best()
	base := *in
	base.Candidates = []*fragment.Fragmentation{best.Frag}
	base.Thresholds = fragment.Thresholds{MaxFragments: fragment.MaxFragmentsDefault}
	granules := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 0}
	rep, err := sweep.Run(context.Background(), &base, &sweep.Grid{Prefetch: granules}, sweep.Options{})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "GRANULE (pages)\tI/O COST (ms)\tRESPONSE (ms)")
	for i, sr := range rep.Scenarios {
		if sr.Err != nil {
			return sr.Err
		}
		ev := sr.Best()
		if granules[i] == 0 {
			fmt.Fprintf(w, "auto (%d/%d)\t%.1f\t%.1f\n", ev.FactPrefetch, ev.BitmapPrefetch, ms(ev.AccessCost), ms(ev.ResponseTime))
		} else {
			fmt.Fprintf(w, "%d\t%.1f\t%.1f\n", granules[i], ms(ev.AccessCost), ms(ev.ResponseTime))
		}
	}
	w.Flush()
	fmt.Printf("(fragmentation: %s)\n", best.Frag.Name(in.Schema))
	return nil
}

// runE4 contrasts round-robin and greedy allocation under growing skew:
// a skew-axis × allocation-axis sweep definition on the Customer.store
// fragmentation.
func runE4(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	f, err := fragment.Parse(in.Schema, "Customer.store")
	if err != nil {
		return err
	}
	base := *in
	base.Candidates = []*fragment.Fragmentation{f}
	base.Thresholds = fragment.Thresholds{MaxFragments: fragment.MaxFragmentsDefault}
	thetas := []float64{0, 0.5, 0.86, 1.0}
	grid := &sweep.Grid{Allocs: []string{sweep.AllocRoundRobin, sweep.AllocGreedySize}}
	for _, theta := range thetas {
		grid.Skews = append(grid.Skews, sweep.SkewSetting{
			Name:  fmt.Sprintf("%.2f", theta),
			Theta: map[string]float64{"Customer": theta},
		})
	}
	rep, err := sweep.Run(context.Background(), &base, grid, sweep.Options{})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "THETA\tSCHEME\tLOAD CV\tIMBALANCE\tRESPONSE (ms)")
	for _, sr := range rep.Scenarios {
		if sr.Err != nil {
			return sr.Err
		}
		ev := sr.Best()
		st := ev.Placement.Stats()
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%.1f\n",
			sr.Skew, ev.Placement.Scheme, st.CV, st.Imbalance, ms(ev.ResponseTime))
	}
	w.Flush()
	fmt.Println("(greedy should keep imbalance near 1.0 as theta grows; round-robin degrades)")
	return nil
}

// runE5 tabulates standard vs encoded bitmap footprints per attribute.
func runE5(p params) error {
	s := apb.Schema(p.rows)
	w := tw()
	fmt.Fprintln(w, "ATTRIBUTE\tCARD\tSTD SLICES\tENC SLICES\tSTD PAGES\tENC PAGES\tWARLOCK PICK")
	f, err := fragment.Parse(s, "Time.month")
	if err != nil {
		return err
	}
	g, err := fragment.NewGeometry(s, f, 8192, skew.Interleaved, 0)
	if err != nil {
		return err
	}
	for _, d := range s.Dimensions {
		for li := range d.Levels {
			a, _ := s.Attr(d.Name + "." + d.Levels[li].Name)
			card := s.Cardinality(a)
			std := bitmap.Index{Attr: a, Kind: bitmap.Standard, Slices: card, ReadSlices: 1}
			encSlices := 1
			for c := 2; c < card; c *= 2 {
				encSlices++
			}
			enc := bitmap.Index{Attr: a, Kind: bitmap.HierEncoded, Slices: encSlices, ReadSlices: encSlices}
			pick := "standard"
			if card > bitmap.DefaultThreshold {
				pick = "encoded"
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
				s.AttrName(a), card, std.Slices, enc.Slices,
				bitmap.IndexPages(std, g), bitmap.IndexPages(enc, g), pick)
		}
	}
	w.Flush()
	return nil
}

// runE6 sweeps the exclusion thresholds.
func runE6(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "MIN AVG FRAGMENT PAGES\tKEPT\tEXCLUDED")
	for _, minPages := range []int64{1, 4, 16, 64, 256, 1024} {
		th := fragment.Thresholds{MinAvgFragmentPages: minPages, MaxFragments: 1 << 20}
		kept, excluded := fragment.EnumerateFiltered(in.Schema, th, in.Disk.PageSize)
		fmt.Fprintf(w, "%d\t%d\t%d\n", minPages, len(kept), len(excluded))
	}
	w.Flush()
	return nil
}

// runE7 compares the analytical model against the discrete-event simulator.
func runE7(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	cfg := res.CostModelConfig()
	w := tw()
	fmt.Fprintln(w, "CANDIDATE\tANALYT RESP (ms)\tSIM MEAN (ms)\tERR %\tANALYT COST (ms)\tSIM BUSY/Q (ms)\tERR %")
	limit := 3
	for i, r := range res.Ranked {
		if i >= limit {
			break
		}
		ev := r.Eval
		m, _, err := sim.SingleUser(cfg, ev, 400, p.seed)
		if err != nil {
			return err
		}
		busyPerQ := time.Duration(int64(m.TotalBusy) / 400)
		respErr := 100 * (float64(m.MeanResponse) - float64(ev.ResponseTime)) / float64(ev.ResponseTime)
		costErr := 100 * (float64(busyPerQ) - float64(ev.AccessCost)) / float64(ev.AccessCost)
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%+.1f\t%.1f\t%.1f\t%+.1f\n",
			ev.Frag.Name(in.Schema), ms(ev.ResponseTime), ms(m.MeanResponse), respErr,
			ms(ev.AccessCost), ms(busyPerQ), costErr)
	}
	w.Flush()
	// Skewed variant: predicate-value sampling vs the model's uniform-
	// value expectation now differ, exposing the model's approximation.
	inS, err := input(p, 0.86, 0.5)
	if err != nil {
		return err
	}
	resS, err := core.Advise(inS)
	if err != nil {
		return err
	}
	cfgS := resS.CostModelConfig()
	evS := resS.Best()
	mS, _, err := sim.SingleUser(cfgS, evS, 400, p.seed)
	if err != nil {
		return err
	}
	busyS := time.Duration(int64(mS.TotalBusy) / 400)
	fmt.Printf("skewed (theta 0.86/0.5) winner %s: analytical resp %.1fms vs sim %.1fms; cost %.1fms vs %.1fms\n",
		evS.Frag.Name(inS.Schema), ms(evS.ResponseTime), ms(mS.MeanResponse), ms(evS.AccessCost), ms(busyS))
	fmt.Println("(uniform rows match to <0.1%; both paths share the fragment pricing and the")
	fmt.Println(" hit-pattern expectation is enumerated exactly — residuals appear only under skew)")
	return nil
}

// runE8 scales the fact table volume: a rows-axis sweep definition.
func runE8(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	rowsAxis := []int64{1_000_000, 4_000_000, 16_000_000, 64_000_000}
	rep, err := sweep.Run(context.Background(), in, &sweep.Grid{Rows: rowsAxis}, sweep.Options{})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "ROWS\tWINNER\tFRAGMENTS\tI/O COST (ms)\tRESPONSE (ms)")
	for _, sr := range rep.Scenarios {
		if sr.Err != nil {
			return sr.Err
		}
		best := sr.Best()
		fmt.Fprintf(w, "%d\t%s\t%d\t%.1f\t%.1f\n",
			sr.Rows, best.Frag.Name(sr.Input.Schema), best.Geometry.NumFragments(),
			ms(best.AccessCost), ms(best.ResponseTime))
	}
	w.Flush()
	return nil
}

// runE9 exposes the throughput/response-time trade-off and the X% cut.
func runE9(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	// Retain every evaluation so the Pareto front and the ranking sweep
	// below operate on the full candidate set.
	in.Rank.LeadingPercent = 100
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	front := rank.ParetoFront(res.Evaluations)
	fmt.Printf("Pareto front (%d of %d candidates):\n", len(front), len(res.Evaluations))
	w := tw()
	fmt.Fprintln(w, "CANDIDATE\tI/O COST (ms)\tRESPONSE (ms)")
	for _, ev := range front {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", ev.Frag.Name(in.Schema), ms(ev.AccessCost), ms(ev.ResponseTime))
	}
	w.Flush()
	fmt.Println("\ntwofold pick per leading-X% cut:")
	w = tw()
	fmt.Fprintln(w, "X%\tWINNER\tI/O COST (ms)\tRESPONSE (ms)")
	for _, pct := range []float64{5, 10, 25, 50, 100} {
		ranked, err := rank.Rank(res.Evaluations, rank.Options{LeadingPercent: pct, MinLeading: 1})
		if err != nil {
			return err
		}
		best := ranked[0].Eval
		fmt.Fprintf(w, "%.0f\t%s\t%.1f\t%.1f\n", pct, best.Frag.Name(in.Schema), ms(best.AccessCost), ms(best.ResponseTime))
	}
	w.Flush()
	fmt.Println("(small X favors throughput; X=100 minimizes response time outright)")
	return nil
}

// runE10 perturbs per-class weights and watches the winner: a query-mix
// reweighting sweep definition, the base mix as the reference scenario.
func runE10(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	grid := &sweep.Grid{MixScales: []sweep.MixScale{{Name: "base"}}}
	for _, c := range in.Mix.Classes {
		grid.MixScales = append(grid.MixScales, sweep.MixScale{
			Name:    c.Name,
			Factors: map[string]float64{c.Name: 8},
		})
	}
	rep, err := sweep.Run(context.Background(), in, grid, sweep.Options{})
	if err != nil {
		return err
	}
	if err := rep.Scenarios[0].Err; err != nil {
		return err
	}
	baseKey := rep.Scenarios[0].Best().Frag.Key()
	fmt.Printf("base winner: %s\n", rep.Scenarios[0].Best().Frag.Name(in.Schema))
	w := tw()
	fmt.Fprintln(w, "BOOSTED CLASS (x8)\tWINNER\tCHANGED")
	for _, sr := range rep.Scenarios[1:] {
		if sr.Err != nil {
			return sr.Err
		}
		changed := ""
		if sr.Best().Frag.Key() != baseKey {
			changed = "*"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", sr.Mix, sr.Best().Frag.Name(in.Schema), changed)
	}
	w.Flush()
	return nil
}

// runE11 materializes the winner's layout (synthetic rows + real bitmap
// bit-slices), executes concrete queries, and compares measured physical
// I/O against the cost model's predictions.
func runE11(p params) error {
	rows := p.rows
	if rows > 1_000_000 {
		rows = 1_000_000 // materialization cap for the default run
	}
	q := p
	q.rows = rows
	in, err := input(q, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	best := res.Best()
	rep, err := validate.Run(res.CostModelConfig(), best.Frag, 30, p.seed)
	if err != nil {
		return err
	}
	fmt.Printf("candidate %s, %d materialized rows, 30 queries/class\n", rep.Candidate, rep.Rows)
	w := tw()
	fmt.Fprintln(w, "CLASS\tFRAGS pred/meas\tFACT PAGES pred/meas\tBM PAGES pred/meas\tROWS pred/meas")
	for _, cr := range rep.PerClass {
		fmt.Fprintf(w, "%s\t%.1f / %.1f\t%.0f / %.0f\t%.0f / %.0f\t%.0f / %.0f\n",
			cr.Class,
			cr.PredictedFragments, cr.MeasuredFragments,
			cr.PredictedFactPages, cr.MeasuredFactPages,
			cr.PredictedBitmapPages, cr.MeasuredBitmapPages,
			cr.PredictedRows, cr.MeasuredRows)
	}
	w.Flush()
	fmt.Println("(measured = mean over executed queries against the materialized layout)")
	return nil
}

// runE12 contrasts the analytical multi-user estimate with the simulated
// open system across arrival rates, for the top two candidates.
func runE12(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	cfg := res.CostModelConfig()
	w := tw()
	fmt.Fprintln(w, "CANDIDATE\tUTIL\tRATE (q/s)\tEST RESP (ms)\tSIM RESP (ms)\tSIM P95 (ms)")
	for i, r := range res.Ranked {
		if i >= 2 {
			break
		}
		ev := r.Eval
		sat := costmodel.SaturationRate(ev)
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			rate := frac * sat
			est, rho, err := costmodel.MultiUserEstimate(ev, rate)
			if err != nil {
				return err
			}
			m, err := sim.MultiUser(cfg, ev, 400, rate, p.seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f\t%.1f\t%.1f\n",
				ev.Frag.Name(in.Schema), rho, rate, ms(est), ms(m.MeanResponse), ms(m.P95Response))
		}
		fmt.Fprintf(w, "%s\tsaturation rate: %.2f q/s\t\t\t\t\n", ev.Frag.Name(in.Schema), sat)
	}
	w.Flush()
	fmt.Println("(the I/O-cheapest candidates sustain the highest saturation rates —")
	fmt.Println(" the quantitative form of the paper's throughput argument for the twofold ranking)")
	return nil
}

// runE13 evaluates the winner's attribute set with growing MDHF range
// sizes. The paper limits the evaluation space to point fragmentations
// (range size 1, §3.2); the sweep shows what that restriction costs.
func runE13(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	best := res.Best()
	attrs := best.Frag.Attrs()
	w := tw()
	fmt.Fprintln(w, "RANGE SIZE\tFRAGMENTS\tI/O COST (ms)\tRESPONSE (ms)")
	for _, r := range []int{1, 2, 4, 8, 16} {
		ranges := make([]int, len(attrs))
		ok := true
		for i, a := range attrs {
			ranges[i] = r
			if r > in.Schema.Cardinality(a) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		ds, dm, f, err := fragment.RangedDesign(in.Schema, in.Mix, attrs, ranges)
		if err != nil {
			return err
		}
		cfg := res.CostModelConfig()
		c := *cfg
		c.Schema = ds
		c.Mix = dm
		ev, err := costmodel.Evaluate(&c, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\n", r, ev.Geometry.NumFragments(), ms(ev.AccessCost), ms(ev.ResponseTime))
	}
	w.Flush()
	fmt.Printf("(attribute set: %s — ranges shrink the fragment count and the attainable\n", best.Frag.Name(in.Schema))
	fmt.Println(" parallelism without reducing I/O: the paper's point-fragmentation restriction)")
	return nil
}

// runF1 demonstrates the Fig.1 pipeline end to end with timings.
func runF1(p params) error {
	start := time.Now()
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	buildT := time.Since(start)
	start = time.Now()
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	adviseT := time.Since(start)
	fmt.Printf("input layer:      %s, %d query classes, %d disks (built in %v)\n",
		in.Schema.Fact.Name, len(in.Mix.Classes), in.Disk.Disks, buildT.Round(time.Millisecond))
	fmt.Printf("prediction layer: %d candidates enumerated, %d excluded, %d survivors (%d pruned by lower bound), %d ranked (in %v)\n",
		res.PruneStats.Survivors+len(res.Excluded), len(res.Excluded),
		res.PruneStats.Survivors, res.PruneStats.Skipped, len(res.Ranked), adviseT.Round(time.Millisecond))
	fmt.Printf("analysis layer:   winner %s (I/O cost %v, response %v)\n",
		res.Best().Frag.Name(in.Schema), res.Best().AccessCost.Round(time.Millisecond), res.Best().ResponseTime.Round(time.Millisecond))
	return nil
}

// runF2 prints the full Fig.2 analysis pack for the winner.
func runF2(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	res, err := core.Advise(in)
	if err != nil {
		return err
	}
	best := res.Best()
	fmt.Print(analysis.DatabaseStatistic(in.Schema, best))
	fmt.Println()
	fmt.Print(analysis.QueryStatistic(in.Schema, best))
	fmt.Println()
	fmt.Print(analysis.AllocationReport(in.Schema, best, 8))
	fmt.Println()
	prof, err := analysis.DiskAccessProfile(in.Schema, best, 0)
	if err != nil {
		return err
	}
	fmt.Print(prof)
	return nil
}

// runE14 measures the what-if sweep engine: the same scenario grid
// evaluated as N independent cold advisories versus one shared-state
// sweep (memoized geometries, concurrent scenarios). Winners are
// asserted identical per scenario; the table reports the wall-clock
// speedup the sharing buys.
func runE14(p params) error {
	in, err := input(p, 0, 0)
	if err != nil {
		return err
	}
	// Quarter/half/full disk counts, deduplicated and capped at the
	// configuration under study (tiny -disks values collapse the axis).
	var diskAxis []int
	for _, d := range []int{p.disks / 4, p.disks / 2, p.disks} {
		if d < 1 {
			d = 1
		}
		if len(diskAxis) == 0 || d > diskAxis[len(diskAxis)-1] {
			diskAxis = append(diskAxis, d)
		}
	}
	grid := &sweep.Grid{
		Disks: diskAxis,
		MixScales: []sweep.MixScale{
			{Name: "base"},
			{Name: "boost-Q3", Factors: map[string]float64{"Q3-store-month": 8}},
		},
	}
	scens, err := sweep.Expand(in, grid)
	if err != nil {
		return err
	}
	start := time.Now()
	cold := make([]*core.Result, len(scens))
	for i := range scens {
		if cold[i], err = core.Advise(scens[i].Input); err != nil {
			return err
		}
	}
	coldWall := time.Since(start)
	start = time.Now()
	rep, err := sweep.Run(context.Background(), in, grid, sweep.Options{})
	if err != nil {
		return err
	}
	sweepWall := time.Since(start)
	for i, sr := range rep.Scenarios {
		if sr.Err != nil {
			return sr.Err
		}
		if got, want := sr.Best().Frag.Key(), cold[i].Best().Frag.Key(); got != want {
			return fmt.Errorf("scenario %s: sweep winner %s differs from cold advise %s", sr.Name, got, want)
		}
	}
	w := tw()
	fmt.Fprintln(w, "PIPELINE\tSCENARIOS\tWALL\tSPEEDUP")
	fmt.Fprintf(w, "cold (independent Advise)\t%d\t%v\t1.00x\n",
		len(scens), coldWall.Round(time.Millisecond))
	fmt.Fprintf(w, "sweep (shared state)\t%d\t%v\t%.2fx\n",
		len(rep.Scenarios), sweepWall.Round(time.Millisecond),
		float64(coldWall)/float64(sweepWall))
	w.Flush()
	fmt.Println("(identical ranked results per scenario by construction; the sweep shares")
	fmt.Println(" geometries across disk counts and mixes and runs scenario advisories")
	fmt.Println(" concurrently)")
	return nil
}
