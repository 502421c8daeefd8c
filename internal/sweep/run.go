package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// Options tunes a sweep run.
type Options struct {
	// Workers is the number of scenario advisories run concurrently;
	// <= 0 uses GOMAXPROCS. Each advisory additionally parallelizes its
	// own cost-model stage per its input's Parallelism.
	Workers int
	// ResponseTarget, when > 0, is recorded in the report: the table
	// marks scenarios whose winner meets it, and Best() prefers the
	// smallest disk count among them.
	ResponseTarget time.Duration
	// OnScenario, when set, is called once per scenario as it completes
	// (resumed ones replay first, in canonical order). Calls are
	// serialized; the callback must not block for long — it sits between
	// scenario completions. Results are unaffected.
	OnScenario func(Progress)
	// Resume maps scenario indices (Progress.Index from an earlier run
	// over the identical grid) to their persisted Outcomes; those
	// scenarios are not advised again and their Outcomes are replayed,
	// which is what lets an interrupted sweep continue from its last
	// completed scenario. Entries that name no scenario are ignored.
	// Resumed scenarios carry no Result (the full evaluation was never
	// redone) but serialize byte-identically.
	Resume map[int]Outcome
}

// ScenarioResult is one evaluated grid point.
type ScenarioResult struct {
	Scenario
	// Result is the scenario's advisory. Nil when the advisory failed
	// without one, and for scenarios replayed from Options.Resume: the
	// checkpointed Outcome stands in for the evaluation.
	Result *core.Result
	// Err is the scenario's advisory error (e.g. every candidate
	// excluded); scenario errors do not abort the sweep.
	Err error
	// Outcome is the advisory's serialization-complete summary — the
	// single source the report renderers and Best() read, so live and
	// resumed scenarios are indistinguishable on every output surface.
	Outcome Outcome
}

// Best returns the scenario's winning evaluation, or nil.
func (sr *ScenarioResult) Best() *costmodel.Evaluation {
	if sr.Result == nil {
		return nil
	}
	return sr.Result.Best()
}

// Report is the result of a sweep run.
type Report struct {
	// Scenarios holds every grid point in canonical order.
	Scenarios []ScenarioResult
	// Target is Options.ResponseTarget.
	Target time.Duration
}

// Run expands the grid and advises every scenario exactly once — or
// replays its Outcome from Options.Resume — through one shared
// costmodel.Cache, scenarios advised concurrently under the worker
// pool. Scenario-level advisory failures are recorded per scenario; Run
// itself fails only on invalid grids/inputs or context cancellation.
func Run(ctx context.Context, base *core.Input, g *Grid, opts Options) (*Report, error) {
	scens, err := Expand(base, g)
	if err != nil {
		return nil, err
	}
	// A caller-provided cache (base.EvalCache) lets warm state outlive
	// one sweep — the advisory service shares one cache per schema
	// identity across requests. Without one the cache is scoped to this
	// run, exactly as before.
	cache := base.EvalCache
	if cache == nil {
		cache = costmodel.NewCache()
	}

	// Progress accounting; the callback is serialized under pmu.
	var pmu sync.Mutex
	done := 0
	notify := func(i int, o Outcome, res *core.Result, resumed bool) {
		pmu.Lock()
		defer pmu.Unlock()
		done++
		if opts.OnScenario != nil {
			opts.OnScenario(Progress{Index: i, Done: done, Total: len(scens), Outcome: o, Result: res, Resumed: resumed})
		}
	}

	// Replay checkpointed scenarios first, in canonical order, so a
	// caller watching progress sees the resumed prefix before fresh work;
	// the rest are advised in this run.
	rep := &Report{Scenarios: make([]ScenarioResult, len(scens)), Target: opts.ResponseTarget}
	var live []int
	for i := range scens {
		o, ok := opts.Resume[i]
		if !ok {
			live = append(live, i)
			continue
		}
		rep.Scenarios[i] = ScenarioResult{Scenario: scens[i], Outcome: o}
		if o.Failed {
			rep.Scenarios[i].Err = errors.New(o.Err)
		}
		notify(i, o, nil, true)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(live) {
		workers = len(live)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run := *scens[i].Input
				run.EvalCache = cache
				res, err := core.AdviseContext(ctx, &run)
				o := outcomeOf(&scens[i], res, err)
				rep.Scenarios[i] = ScenarioResult{Scenario: scens[i], Result: res, Err: err, Outcome: o}
				if ctx.Err() == nil {
					notify(i, o, res, false)
				}
			}
		}()
	}
	for _, i := range live {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Best returns the sweep's recommended scenario: among scenarios whose
// winner fits the disk capacity and meets the report's response-time
// target, the one with the smallest disk count (ties: lower response
// time, then grid order) — "the smallest configuration that is fast
// enough". Without a target (or when no capacity-feasible scenario
// meets it) it falls back to the scenario with the lowest winning
// response time, preferring capacity-feasible ones; use MeetsTarget to
// distinguish a true recommendation from the fallback. Nil when no
// scenario succeeded.
func (r *Report) Best() *ScenarioResult {
	if best := r.bestMeeting(r.Target); best != nil {
		return best
	}
	var best, bestAny *ScenarioResult
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		o := &sr.Outcome
		if !o.HasWinner {
			continue
		}
		if bestAny == nil || o.ResponseNs < bestAny.Outcome.ResponseNs {
			bestAny = sr
		}
		if o.CapacityOK && (best == nil || o.ResponseNs < best.Outcome.ResponseNs) {
			best = sr
		}
	}
	if best != nil {
		return best
	}
	return bestAny
}

// MeetsTarget reports whether the scenario's winner fits the disk
// capacity and meets the given response-time target.
func (sr *ScenarioResult) MeetsTarget(target time.Duration) bool {
	o := &sr.Outcome
	return o.HasWinner && o.CapacityOK && target > 0 && o.ResponseTime() <= target
}

// bestMeeting picks the smallest-disk-count capacity-feasible scenario
// meeting the target. Capacity matters here precisely because the
// preference runs toward fewer disks — the direction in which layouts
// stop fitting.
func (r *Report) bestMeeting(target time.Duration) *ScenarioResult {
	var best *ScenarioResult
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		if !sr.MeetsTarget(target) {
			continue
		}
		if best == nil {
			best = sr
			continue
		}
		bd, sd := best.Input.Disk.Disks, sr.Input.Disk.Disks
		switch {
		case sd < bd:
			best = sr
		case sd == bd && sr.Outcome.ResponseNs < best.Outcome.ResponseNs:
			best = sr
		}
	}
	return best
}

// Table renders the per-scenario summary as an aligned text table.
func (r *Report) Table(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "SCENARIO\tWINNER\tFRAGMENTS\tI/O COST (ms)\tRESPONSE (ms)\tALLOC\tCAP"
	if r.Target > 0 {
		header += "\tTARGET"
	}
	fmt.Fprintln(tw, header)
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		if o := &sr.Outcome; o.HasWinner {
			capLabel := "ok"
			if !o.CapacityOK {
				capLabel = "over"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%s\t%s",
				sr.Name, o.Winner, o.Fragments,
				durMs(o.AccessCost()), durMs(o.ResponseTime()), o.Scheme, capLabel)
			if r.Target > 0 {
				mark := "-"
				if sr.MeetsTarget(r.Target) {
					mark = "meets"
				}
				fmt.Fprintf(tw, "\t%s", mark)
			}
			fmt.Fprintln(tw)
			continue
		}
		fmt.Fprintf(tw, "%s\terror: %v\t\t\t\t\t", sr.Name, sr.Err)
		if r.Target > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// scenarioJSON is the machine-readable per-scenario record.
type scenarioJSON struct {
	Name        string  `json:"name"`
	Rows        int64   `json:"rows,omitempty"`
	Disks       int     `json:"disks"`
	Prefetch    *int    `json:"prefetch,omitempty"`
	Mix         string  `json:"mix,omitempty"`
	Skew        string  `json:"skew,omitempty"`
	Alloc       string  `json:"alloc,omitempty"`
	Winner      string  `json:"winner,omitempty"`
	WinnerKey   string  `json:"winnerKey,omitempty"`
	Fragments   int64   `json:"fragments,omitempty"`
	AccessMs    float64 `json:"accessCostMs,omitempty"`
	ResponseMs  float64 `json:"responseMs,omitempty"`
	Scheme      string  `json:"allocScheme,omitempty"`
	CapacityOK  bool    `json:"capacityOK"`
	MeetsTarget bool    `json:"meetsTarget,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// reportJSON is the machine-readable sweep report.
type reportJSON struct {
	TargetMs float64 `json:"responseTargetMs,omitempty"`
	// Advisories counts the advisories behind the report: one per
	// scenario.
	Advisories int            `json:"advisories"`
	Scenarios  []scenarioJSON `json:"scenarios"`
	Best       string         `json:"best,omitempty"`
}

// WriteJSON emits the machine-readable report (scenarios in grid order).
func (r *Report) WriteJSON(w io.Writer) error {
	doc := reportJSON{TargetMs: durMs(r.Target), Advisories: len(r.Scenarios)}
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		row := scenarioJSON{
			Name: sr.Name, Rows: sr.Rows, Disks: sr.Input.Disk.Disks,
			Mix: sr.Mix, Skew: sr.Skew, Alloc: sr.Alloc,
		}
		if sr.Prefetch >= 0 {
			pf := sr.Prefetch
			row.Prefetch = &pf
		}
		if o := &sr.Outcome; o.HasWinner {
			row.Winner = o.Winner
			row.WinnerKey = o.WinnerKey
			row.Fragments = o.Fragments
			row.AccessMs = durMs(o.AccessCost())
			row.ResponseMs = durMs(o.ResponseTime())
			row.Scheme = o.Scheme
			row.CapacityOK = o.CapacityOK
			row.MeetsTarget = sr.MeetsTarget(r.Target)
		} else if o.Failed {
			row.Error = o.Err
		}
		doc.Scenarios = append(doc.Scenarios, row)
	}
	if best := r.Best(); best != nil {
		doc.Best = best.Name
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
