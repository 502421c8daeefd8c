package core

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/rank"
)

// The prediction layer runs as one evaluation loop:
//
//	enumerate + prune (thresholds) ──► bound + order (best-first) ──► evaluate (N workers) ──► rank (top-k)
//
// The calling goroutine enumerates the candidates and runs the threshold
// pre-check, collecting the survivors into a slice before any geometry
// exists (enumeration is a negligible share of an advisory). A worker
// pool then prices the survivors with one shared goroutine-safe
// costmodel.Evaluator: each worker claims the next survivor from a
// shared atomic cursor over the dispatch order and writes its verdict
// into that survivor's enumeration-indexed result slot, so the result
// slice is in enumeration order without a sort. The workers feed a
// streaming rank.Collector, which maintains the twofold top-k as
// evaluations complete. Between the pre-check and the full evaluation
// sits a branch-and-bound stage. The calling goroutine computes each
// survivor's admissible cost lower bound once (costmodel.LowerBound — no
// geometry, no allocation) and orders dispatch best-first: ascending
// lower-bound access cost, the ranking's phase-1 key, stable on
// enumeration index, with unbounded survivors last. Once the collector's
// bounded heap fills, each worker compares the claimed candidate's
// stored bound against the heap's published admission cutoff and skips
// the evaluation of provable losers. Best-first dispatch prices the
// likeliest winners first, so the cutoff tightens before the losers
// come up. With pruning off, dispatch follows enumeration order.
//
// The evaluation stage is organized for throughput on two levels:
//
//   - Size-class kernel: the evaluator prices each distinct fragment
//     (rows, pages) size once per query class and folds the results per
//     fragment (costmodel kernel.go) — the transcendental-heavy math runs
//     O(distinct sizes), not O(fragments).
//   - Per-worker scratch + cursor dispatch: every worker owns one
//     costmodel.Scratch for its lifetime (buffers are reused and stay
//     hot in one goroutine), and claiming a candidate costs one atomic
//     add. Each candidate is priced by exactly one worker; the workers
//     are the only goroutines an advisory starts.
//
// Every per-candidate computation is pure and deterministically seeded,
// all ordered outputs are keyed by the candidate's enumeration index, and
// skipping is only ever applied to candidates that could not have
// influenced any output, so the Result is bit-for-bit identical for any
// worker count and with pruning on or off — Parallelism and
// DisablePruning only change wall-clock time (PruneStats records the
// diagnostic split).

// evalResult is the evaluation stage's verdict on one survivor. The zero
// value marks a candidate no worker reached before cancellation.
type evalResult struct {
	ev      *costmodel.Evaluation // nil when excluded, failed or skipped
	vio     *fragment.Violation   // post-evaluation threshold violation
	err     error                 // evaluation failure
	fault   *Fault                // evaluation panicked; isolated
	skipped bool                  // pruned: lower bound proved it a loser
	done    bool                  // evaluated: exactly one of ev, vio, err, fault is set
}

// candidateBound is one survivor's admissible cost-pair lower bound
// (costmodel.LowerBound); ok is false when the candidate has none.
type candidateBound struct {
	cost, resp time.Duration
	ok         bool
}

// redactPanic renders a recovered panic value for Result.Faults: the
// value's dynamic type plus a bounded, newline-free formatting, so an
// arbitrary panic payload cannot bloat or corrupt advisory outputs.
func redactPanic(p any) string {
	s := fmt.Sprintf("%T: %v", p, p)
	s = strings.ReplaceAll(s, "\n", " ")
	const maxLen = 160
	if len(s) > maxLen {
		s = s[:maxLen] + "..."
	}
	return s
}

// maxWorkers caps the evaluation pool: beyond it extra goroutines only
// cost memory — no advisory has that many cores to use.
const maxWorkers = 1024

// parallelism resolves the worker count: explicit value, or GOMAXPROCS,
// clamped to [1, min(maxWorkers, survivors)] so absurd Parallelism values
// (or tiny candidate sets) cannot balloon goroutines.
func (in *Input) parallelism(survivors int) int {
	p := in.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxWorkers {
		p = maxWorkers
	}
	if p > survivors {
		p = survivors
	}
	if p < 1 {
		p = 1
	}
	return p
}

// candidateSource returns the stream of (candidate, pre-check verdict)
// pairs and an upper bound on its length: the explicit candidate list
// when given, the lazy full enumeration otherwise.
func (in *Input) candidateSource(th fragment.Thresholds) (iter.Seq2[*fragment.Fragmentation, *fragment.Violation], int) {
	if in.Candidates != nil {
		src := func(yield func(*fragment.Fragmentation, *fragment.Violation) bool) {
			for _, f := range in.Candidates {
				if !yield(f, th.PreCheck(in.Schema, f, in.Disk.PageSize)) {
					return
				}
			}
		}
		return src, len(in.Candidates)
	}
	return fragment.EnumerateFilteredSeq(in.Schema, th, in.Disk.PageSize), int(fragment.EnumerationSize(in.Schema))
}

// AdviseContext runs the WARLOCK pipeline with cancellation: candidate
// generation, threshold exclusion, parallel cost-model evaluation
// (in.Parallelism workers) and streaming twofold ranking. On ctx
// cancellation the stages drain cleanly — no goroutine outlives the call
// — and ctx.Err() is returned, unless in.AllowPartial turns the
// cancellation into a graceful partial Result (see Input.AllowPartial).
// Results are identical for every Parallelism value.
func AdviseContext(ctx context.Context, in *Input) (*Result, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	th := in.Thresholds
	if th == (fragment.Thresholds{}) {
		th = DefaultThresholds(in.Disk)
	}
	res := &Result{Input: in}
	eval, err := costmodel.NewEvaluator(res.CostModelConfig())
	if err != nil {
		return nil, err
	}
	res.Timings.Setup = time.Since(start)
	source, maxCands := in.candidateSource(th)

	// Branch-and-bound gate. Pruning must be unobservable, so it stays
	// off whenever a skipped candidate could have surfaced anywhere:
	// RequireCapacity filters on a value only evaluation produces, and
	// MaxSizeCV is the one threshold only the post-evaluation check can
	// decide (every other threshold is settled conservatively by the
	// pre-check, so a survivor can never join Excluded after evaluation).
	pruneOn := !in.DisablePruning && !in.Rank.RequireCapacity && th.MaxSizeCV == 0

	// Stage 1: enumerate + prune, in the calling goroutine. Pre-check
	// violations are recorded in enumeration order.
	var preVios []fragment.Violation
	var survivors []*fragment.Fragmentation
	for f, v := range source {
		if ctx.Err() != nil {
			break
		}
		if v != nil {
			preVios = append(preVios, *v)
			continue
		}
		survivors = append(survivors, f)
	}

	// Stage 2: bound + order. order holds the survivors' enumeration
	// indices in dispatch order: best-first by lower-bound access cost
	// when pruning (stable, unbounded survivors last), enumeration order
	// otherwise.
	order := make([]int, len(survivors))
	for i := range order {
		order[i] = i
	}
	var bounds []candidateBound
	if pruneOn {
		bounds = make([]candidateBound, len(survivors))
		for i, f := range survivors {
			b := &bounds[i]
			b.cost, b.resp, b.ok = eval.LowerBound(f)
		}
		slices.SortStableFunc(order, func(x, y int) int {
			bx, by := &bounds[x], &bounds[y]
			if bx.ok != by.ok {
				if bx.ok {
					return -1
				}
				return 1
			}
			if !bx.ok {
				return 0
			}
			return cmp.Compare(bx.cost, by.cost)
		})
	}

	// Stage 3: parallel evaluation + post-evaluation threshold check +
	// collection. The shared Evaluator is goroutine-safe and every
	// evaluation is pure, so worker scheduling cannot influence any
	// result. Each worker owns one Scratch for its lifetime and claims
	// the next survivor of order through the shared cursor until it runs
	// dry or the context fails. The collector ingests verdicts as they
	// complete (its total-order tie-break makes arrival order
	// irrelevant); Add and AddSkipped are serialized by collMu, while the
	// workers read the atomically published admission cutoff lock-free.
	// Skipped candidates still enter the pool count (AddSkipped) so the
	// leading-set fraction matches the unpruned run exactly.
	coll := rank.NewCollector(in.Rank, maxCands)
	results := make([]evalResult, len(survivors))
	workers := in.parallelism(len(survivors))
	var (
		cursor atomic.Int64
		collMu sync.Mutex
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := eval.NewScratch(nil)
			// evalOne prices one candidate with per-candidate panic
			// isolation: a panic anywhere in the evaluation (including one
			// injected through the FaultEvaluate failpoint) is recovered
			// here, the possibly half-mutated scratch is discarded, and the
			// candidate surfaces as a Fault instead of killing the advisory.
			evalOne := func(f *fragment.Fragmentation) (r evalResult) {
				r.done = true
				defer func() {
					if p := recover(); p != nil {
						sc.Reset()
						r = evalResult{done: true, fault: &Fault{Key: f.Key(), Panic: redactPanic(p)}}
					}
				}()
				// The failpoint fires inside the recover scope so an
				// injected panic exercises exactly the path a real one
				// takes; an injected error rides the EvalFailures path.
				if err := in.Faults.Hit(FaultEvaluate); err != nil {
					r.err = fmt.Errorf("%s: %w", f.Name(in.Schema), err)
					return r
				}
				switch ev, err := eval.EvaluateWith(sc, f); {
				case err != nil:
					r.err = fmt.Errorf("%s: %w", f.Name(in.Schema), err)
				default:
					// Post-evaluation threshold check (size-based
					// exclusions under skew that the cheap pre-check
					// could not decide).
					if r.vio = th.Check(ev.Geometry); r.vio == nil {
						r.ev = ev
					}
				}
				return r
			}
			for ctx.Err() == nil {
				next := int(cursor.Add(1) - 1)
				if next >= len(order) {
					return
				}
				i := order[next]
				f := survivors[i]
				if pruneOn {
					if cut, ok := coll.Cutoff(); ok {
						if lb := &bounds[i]; lb.ok && !cut.Admits(lb.cost, lb.resp, f.Key()) {
							// The bound proves the candidate cannot beat the
							// worst retained evaluation (and the cutoff only
							// tightens), so skipping it cannot change any
							// output. Unbounded candidates (e.g. share-vector
							// failures) always fall through to evaluation so
							// their failure modes are reproduced exactly.
							results[i].skipped = true
							collMu.Lock()
							coll.AddSkipped()
							collMu.Unlock()
							continue
						}
					}
				}
				results[i] = evalOne(f)
				if ev := results[i].ev; ev != nil {
					collMu.Lock()
					coll.Add(ev)
					collMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Every worker has exited, so results are final. If the context
	// failed, either fail the run (default) or degrade gracefully into a
	// partial Result (AllowPartial): every verdict recorded is complete,
	// so the collector holds exactly the candidates that finished.
	ctxErr := ctx.Err()
	if ctxErr != nil && !in.AllowPartial {
		return nil, ctxErr
	}
	res.Timings.Pipeline = time.Since(start) - res.Timings.Setup
	rankStart := time.Now()
	defer func() {
		res.Timings.Rank = time.Since(rankStart)
		res.Timings.Total = time.Since(start)
	}()

	evaluated, skipped := 0, 0
	for _, r := range results {
		if r.done {
			evaluated++
		} else if r.skipped {
			skipped++
		}
	}
	res.PruneStats = PruneStats{
		Enabled:   pruneOn,
		Survivors: len(survivors),
		Evaluated: evaluated, // == survivors-skipped on complete runs
		Skipped:   skipped,
	}
	// Coverage accounts for the whole candidate space: everything not
	// pre-excluded, evaluated, or skipped never reached a verdict.
	// maxCands is exact for both sources (explicit list length;
	// fragment.EnumerationSize for the full enumeration), so Remaining is
	// 0 exactly when the run was complete — a cancelled run that happened
	// to finish everything stays Partial=false and bit-identical.
	res.Coverage = Coverage{
		Evaluated: evaluated,
		Skipped:   skipped,
		Remaining: maxCands - len(preVios) - evaluated - skipped,
	}
	res.Partial = in.AllowPartial && ctxErr != nil && res.Coverage.Remaining > 0
	// Result.Evaluations is canonical: the retained leading set (plus
	// evaluated capacity violators under RequireCapacity), restored to
	// enumeration order. Evaluations outside it were evicted by the
	// bounded heap — the same candidates the bound stage skips when it
	// can — so pruned and unpruned runs assemble identical slices.
	retained := coll.RetainedKeys()
	res.Excluded = preVios
	for _, r := range results {
		switch {
		case !r.done:
		case r.fault != nil:
			res.Faults = append(res.Faults, *r.fault)
		case r.err != nil:
			res.EvalFailures = append(res.EvalFailures, r.err)
		case r.vio != nil:
			res.Excluded = append(res.Excluded, *r.vio)
		case retained[r.ev.Frag.Key()] || (in.Rank.RequireCapacity && !r.ev.CapacityOK):
			res.Evaluations = append(res.Evaluations, r.ev)
		}
	}
	if !res.Partial {
		if len(survivors) == 0 {
			return res, fmt.Errorf("%w: all %d candidates excluded by thresholds", ErrNoFeasible, len(res.Excluded))
		}
		if len(res.Evaluations) == 0 {
			return res, fmt.Errorf("%w: no candidate survived evaluation", ErrNoFeasible)
		}
	} else if coll.Seen() == 0 {
		// A partial pool may legitimately be empty — nothing finished
		// pricing before the deadline. Ranked() refuses an empty pool, so
		// return the well-formed (if uninformative) partial Result as is.
		return res, nil
	}
	ranked, err := coll.Ranked()
	if err != nil {
		return res, err
	}
	res.Ranked = ranked
	return res, nil
}
