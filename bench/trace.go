package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/analysis"
	"repro/internal/bitmap"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/internal/sweep"
)

// The traced run times calls into each layer's public functions from the
// benchmark's side; the program itself records no spans. For each traced
// advisory it
//
//  1. runs the advisory untraced twice: at the default parallelism, for
//     core.Result.Timings, and serially, for the wall time the traced pass
//     is compared with (trace.coverage, trace.overhead_pct);
//  2. redoes it serially as separate layer calls — enumerate, lower bound
//     on every survivor, EvaluateWith on every survivor, rank, report —
//     and checks that its report equals the untraced one;
//  3. replays every evaluated candidate through the public calls its
//     evaluation makes inside costmodel (geometry, size classes, bitmap
//     plan, allocation, the size-class kernel and the outcome tables, the
//     latter timed once per distinct key the way the evaluator memoizes
//     them). What remains of the candidate's evaluation time is the
//     hit-pattern walk, reported as an estimate (walk_est_ms).

// span is one timed layer call. Spans of one advisory share Op; Parent 0
// marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes its trace file.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int, key string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Key: key,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes a span and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return ms(time.Duration(s.End - s.Start))
}

// candidateSplit is one candidate's mean evaluation time and its layer
// split, as listed in the trace file.
type candidateSplit struct {
	Key        string             `json:"key"`
	EvaluateMs float64            `json:"evaluate_ms"`
	Layers     map[string]float64 `json:"layers_ms"`
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Top      []candidateSplit   `json:"top_candidates"`
	Metrics  map[string]float64 `json:"metrics"`
	Extras   any                `json:"extras,omitempty"`
	Spans    []span             `json:"spans"`
}

// traceRun adds the per-layer metrics of inst's replay document to m and
// writes the spans to the run's trace file.
func traceRun(rc *runConfig, name string, inst instance, m map[string]float64) error {
	tr := &tracer{t0: time.Now()}
	top, err := replayAdvisories(rc.advisories, inst.replayDoc(), tr, m)
	if err != nil {
		return err
	}
	if sj, ok := inst.(interface{ replaySweep() *config.SweepDoc }); ok {
		if err := replaySweep(sj.replaySweep(), m); err != nil {
			return err
		}
	}
	tf := traceFile{Workload: name, Seed: rc.seed, Top: top, Metrics: m, Spans: tr.spans}
	if x, ok := inst.(interface{ extras() any }); ok {
		tf.Extras = x.extras()
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rc.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, rc.seed)), b, 0o644)
}

// evaluated is one candidate priced by the traced pass.
type evaluated struct {
	ev *costmodel.Evaluation
	ms float64
}

// replayAdvisories traces n advisories of doc, adds the per-advisory mean
// of every layer metric to m and returns the five slowest candidates.
func replayAdvisories(n int, doc *config.Document, tr *tracer, m map[string]float64) ([]candidateSplit, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	tot := map[string]float64{}
	cands := map[string]*candidateSplit{}
	var untraced, traced float64
	for op := 1; op <= n; op++ {
		tr.op = op
		_, res, err := adviseReport(doc, 0)
		if err != nil {
			return nil, err
		}
		tot["core.setup_ms"] += ms(res.Timings.Setup)
		tot["core.pipeline_ms"] += ms(res.Timings.Pipeline)
		tot["core.rank_ms"] += ms(res.Timings.Rank)

		t := time.Now()
		want, _, err := adviseReport(doc, 1)
		if err != nil {
			return nil, err
		}
		untraced += ms(time.Since(t))

		got, wall, evals, err := tracedAdvisory(tr, body, tot)
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("traced advisory %d: report differs from the untraced serial advisory", op)
		}
		traced += wall
		if err := replayCandidates(tr, body, evals, tot, cands); err != nil {
			return nil, err
		}
	}

	for k, v := range tot {
		m[k] = v / float64(n)
	}
	evalMs := tot["costmodel.evaluate_ms"]
	covered := tot["fragment.enumerate_ms"] + tot["costmodel.lowerbound_ms"] + evalMs +
		tot["rank.collect_ms"] + tot["analysis.report_ms"]
	m["trace.coverage"] = covered / untraced
	m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced

	top := make([]candidateSplit, 0, len(cands))
	for _, c := range cands {
		c.EvaluateMs /= float64(n)
		for k := range c.Layers {
			c.Layers[k] /= float64(n)
		}
		top = append(top, *c)
	}
	sort.Slice(top, func(i, j int) bool { return top[i].EvaluateMs > top[j].EvaluateMs })
	if len(top) > 0 && evalMs > 0 {
		m["costmodel.top_candidate_share"] = top[0].EvaluateMs * float64(n) / evalMs
	}
	return top[:min(5, len(top))], nil
}

// tracedAdvisory is the serial pipeline as separate layer calls. It
// returns the rendered report, the advisory's wall time (ms, parse and
// build excluded) and the evaluations in enumeration order.
func tracedAdvisory(tr *tracer, body []byte, tot map[string]float64) (string, float64, []evaluated, error) {
	id := tr.begin("config.parse_build", 0, "")
	doc, err := config.Parse(bytes.NewReader(body))
	if err != nil {
		return "", 0, nil, err
	}
	in, err := doc.Build()
	if err != nil {
		return "", 0, nil, err
	}
	tot["config.parse_build_ms"] += tr.end(id)

	root := tr.begin("advisory", 0, "")
	th := in.Thresholds
	if th == (fragment.Thresholds{}) {
		th = core.DefaultThresholds(in.Disk)
	}
	ev, err := costmodel.NewEvaluator((&core.Result{Input: in}).CostModelConfig())
	if err != nil {
		return "", 0, nil, err
	}

	id = tr.begin("fragment.enumerate", root, "")
	var survivors []*fragment.Fragmentation
	var excluded []fragment.Violation
	for f, v := range fragment.EnumerateFilteredSeq(in.Schema, th, in.Disk.PageSize) {
		tot["fragment.candidates"]++
		if v != nil {
			excluded = append(excluded, *v)
		} else {
			survivors = append(survivors, f)
		}
	}
	tot["fragment.enumerate_ms"] += tr.end(id)
	tot["fragment.survivors"] += float64(len(survivors))

	id = tr.begin("costmodel.lowerbound", root, "")
	for _, f := range survivors {
		ev.LowerBound(f)
	}
	tot["costmodel.lowerbound_ms"] += tr.end(id)
	tot["costmodel.lowerbound_calls"] += float64(len(survivors))

	// Evaluation and the post-evaluation threshold check, per candidate,
	// as the pipeline's workers do them.
	sc := ev.NewScratch(nil)
	var evals []evaluated
	var priced []*costmodel.Evaluation
	for _, f := range survivors {
		id := tr.begin("costmodel.evaluate", root, f.Key())
		e, err := ev.EvaluateWith(sc, f)
		var vio *fragment.Violation
		if err == nil {
			vio = th.Check(e.Geometry)
		}
		d := tr.end(id)
		tot["costmodel.evaluate_ms"] += d
		switch {
		case err != nil:
		case vio != nil:
			excluded = append(excluded, *vio)
			evals = append(evals, evaluated{e, d})
		default:
			evals = append(evals, evaluated{e, d})
			priced = append(priced, e)
		}
	}

	id = tr.begin("rank.collect", root, "")
	coll := rank.NewCollector(in.Rank, int(fragment.EnumerationSize(in.Schema)))
	for _, e := range priced {
		coll.Add(e)
	}
	ranked, err := coll.Ranked()
	if err != nil {
		return "", 0, nil, err
	}
	tot["rank.collect_ms"] += tr.end(id)

	id = tr.begin("analysis.report", root, "")
	rep := analysis.Report(&core.Result{Input: in, Ranked: ranked, Excluded: excluded})
	tot["analysis.report_ms"] += tr.end(id)
	return rep, tr.end(root), evals, nil
}

// replayCandidates replays each evaluation through the layer calls made
// inside it, on a fresh evaluator (no memoized outcome tables, no share
// vectors yet — as the traced pass's evaluator started).
func replayCandidates(tr *tracer, body []byte, evals []evaluated, tot map[string]float64, cands map[string]*candidateSplit) error {
	doc, err := config.Parse(bytes.NewReader(body))
	if err != nil {
		return err
	}
	in, err := doc.Build()
	if err != nil {
		return err
	}
	cfg := (&core.Result{Input: in}).CostModelConfig()
	ev, err := costmodel.NewEvaluator(cfg)
	if err != nil {
		return err
	}
	memo := map[costmodel.DimPlan][][]int{}
	var classes, exact, greedy float64
	rp := tr.begin("layer_replay", 0, "")
	defer tr.end(rp)
	for _, e := range evals {
		f := e.ev.Frag
		key := f.Key()
		c := tr.begin("candidate", rp, key)
		lay := map[string]float64{}

		id := tr.begin("fragment.geometry", c, key)
		g, err := ev.Geometry(f)
		if err != nil {
			return err
		}
		lay["fragment.geometry_ms"] = tr.end(id)
		id = tr.begin("fragment.sizeclass", c, key)
		sz := g.SizeClasses()
		lay["fragment.sizeclass_ms"] = tr.end(id)
		tot["fragment.fragments"] += float64(g.NumFragments())
		tot["fragment.size_classes"] += float64(sz.NumClasses())

		id = tr.begin("bitmap.plan", c, key)
		scheme, err := bitmap.PlanScheme(in.Schema, f, in.Mix, cfg.Bitmap)
		if err != nil {
			return err
		}
		lay["bitmap.plan_ms"] = tr.end(id)

		id = tr.begin("alloc.allocate", c, key)
		pages := costmodel.AllocationPages(e.ev)
		var pl *alloc.Placement
		if cfg.AllocScheme != nil {
			pl, err = alloc.Allocate(*cfg.AllocScheme, pages, cfg.Disk.Disks)
		} else {
			pl, err = alloc.Choose(pages, cfg.Disk.Disks, cfg.SkewCVThreshold)
		}
		if err != nil {
			return err
		}
		lay["alloc.allocate_ms"] = tr.end(id)
		if pl.Scheme == alloc.GreedySize {
			greedy++
		}

		id = tr.begin("costmodel.kernel", c, key)
		plans := make([]costmodel.ClassPlan, len(in.Mix.Classes))
		for i := range plans {
			plans[i] = costmodel.PlanClass(in.Schema, f, scheme, &in.Mix.Classes[i])
			for k := range sz.Rows {
				if sz.Pages[k] == 0 {
					continue
				}
				io := costmodel.FragmentCost(&plans[i], g.PageSize, sz.Pages[k], sz.Rows[k], e.ev.FactPrefetch, e.ev.BitmapPrefetch)
				io.Seconds(&cfg.Disk)
				tot["costmodel.kernel_prices"]++
			}
		}
		lay["costmodel.kernel_ms"] = tr.end(id)

		// Outcome tables the evaluator's memo did not hold yet when it
		// reached this candidate.
		var fresh []costmodel.DimPlan
		for _, p := range plans {
			for _, dp := range p.Dims {
				if _, ok := memo[dp]; !ok {
					memo[dp] = nil
					fresh = append(fresh, dp)
				}
			}
		}
		if len(fresh) > 0 {
			id = tr.begin("costmodel.outcomes", c, key)
			for _, dp := range fresh {
				memo[dp] = costmodel.Outcomes(&costmodel.ClassPlan{Dims: []costmodel.DimPlan{dp}}, cfg.Mapping)[0]
			}
			lay["costmodel.outcomes_ms"] = tr.end(id)
			for _, dp := range fresh {
				tot["costmodel.outcome_tables"]++
				for _, set := range memo[dp] {
					tot["costmodel.outcome_cells"] += float64(len(set))
				}
			}
		}

		// The hit-pattern walk: every outcome combination when the class
		// is priced exactly, a fixed number of samples otherwise.
		for i, p := range plans {
			combos, hits := 1.0, 1.0
			for _, dp := range p.Dims {
				sets := memo[dp]
				combos *= float64(len(sets))
				if len(sets) > 0 {
					hits *= float64(len(sets[0]))
				}
			}
			classes++
			if e.ev.PerClass[i].ResponseExact {
				exact++
			} else {
				combos = responseSamples
			}
			tot["costmodel.walk_patterns"] += combos
			tot["costmodel.walk_cells"] += combos * hits
		}

		var parts float64
		for k, v := range lay {
			tot[k] += v
			parts += v
		}
		lay["costmodel.walk_est_ms"] = e.ms - parts
		tot["costmodel.walk_est_ms"] += e.ms - parts
		tr.end(c)

		cs := cands[key]
		if cs == nil {
			cs = &candidateSplit{Key: key, Layers: map[string]float64{}}
			cands[key] = cs
		}
		cs.EvaluateMs += e.ms
		for k, v := range lay {
			cs.Layers[k] += v
		}
	}
	tot["costmodel.response_exact_ratio"] += exact / max(classes, 1)
	tot["alloc.greedy_share"] += greedy / float64(max(len(evals), 1))
	return nil
}

// responseSamples is the number of hit patterns the evaluator samples
// when a class's outcome space is too large to enumerate.
const responseSamples = 256

// replaySweep runs the sweep-job document's grid in process with its own
// geometry cache and adds the sweep layer metrics to m.
func replaySweep(doc *config.SweepDoc, m map[string]float64) error {
	base, grid, target, err := doc.Canonical().Build()
	if err != nil {
		return err
	}
	cache := costmodel.NewCache()
	base.EvalCache = cache
	groups := 0
	t := time.Now()
	rep, err := sweep.Run(context.Background(), base, grid, sweep.Options{
		ResponseTarget: target,
		OnScenario:     func(sweep.Progress) { groups++ },
	})
	if err != nil {
		return err
	}
	m["sweep.scenario_ms"] = ms(time.Since(t)) / float64(len(rep.Scenarios))
	m["sweep.advisory_groups"] = float64(groups)
	m["sweep.geometry_cache_entries"] = float64(cache.Geometries())
	return nil
}
