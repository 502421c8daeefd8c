package core

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fragment"
	"repro/internal/rank"
)

// The prediction layer runs as a concurrent streaming pipeline:
//
//	enumerate ──► prune (thresholds) ──► bound (branch & bound) ──► evaluate (N workers) ──► rank (top-k)
//
// The enumerator yields candidates lazily (fragment.EnumerateSeq); the
// threshold pre-check drops candidates before any geometry exists; a
// worker pool prices survivors with one shared goroutine-safe
// costmodel.Evaluator; and a streaming rank.Collector maintains the
// twofold top-k without waiting for the full evaluation set. Between the
// pre-check and the full evaluation sits a branch-and-bound stage: once
// the collector's bounded heap fills, each worker first compares the
// candidate's admissible cost lower bound (costmodel.LowerBound — no
// geometry, no allocation) against the heap's published admission cutoff
// and skips the evaluation of provable losers.
//
// The evaluation stage is organized for throughput on three levels:
//
//   - Size-class kernel: the evaluator prices each distinct fragment
//     (rows, pages) size once per query class and folds the results per
//     fragment (costmodel kernel.go) — the transcendental-heavy math runs
//     O(distinct sizes), not O(fragments).
//   - Per-worker scratch + chunked dispatch: every worker owns one
//     costmodel.Scratch for its lifetime (buffers are reused and stay
//     hot in one goroutine), and candidates travel through the work
//     channel in chunks so channel operations amortize across many
//     candidates instead of costing one synchronization each.
//   - Intra-candidate sharding: workers park an idle token
//     (costmodel.Sharder) while blocked on the work channel; a worker
//     pricing a candidate with a huge size-class table borrows parked
//     tokens and splits the kernel fill across that many extra
//     goroutines, so a few giant candidates near the end of the stream
//     no longer serialize the run.
//
// Every per-candidate computation is pure and deterministically seeded,
// all ordered outputs are keyed by the candidate's enumeration index, and
// skipping is only ever applied to candidates that could not have
// influenced any output, so the Result is bit-for-bit identical for any
// worker count, chunking, sharding, and with pruning on or off —
// Parallelism and DisablePruning only change wall-clock time (PruneStats
// records the diagnostic split).

// workItem is one surviving candidate entering the evaluation stage.
type workItem struct {
	idx  int // enumeration index among survivors
	frag *fragment.Fragmentation
}

// evalResult is the evaluation stage's output for one candidate.
type evalResult struct {
	idx     int
	ev      *costmodel.Evaluation // nil when excluded, failed or skipped
	vio     *fragment.Violation   // post-evaluation threshold violation
	err     error                 // evaluation failure
	fault   *Fault                // evaluation panicked; isolated
	skipped bool                  // pruned: lower bound proved it a loser
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

// maxWorkers caps the evaluation pool: beyond it extra goroutines and
// channel buffers only cost memory — no advisory has that many cores to
// use.
const maxWorkers = 1024

// maxEvalChunk caps the dispatch chunk: candidates enter the evaluation
// stage in slices of up to this many, so the per-candidate channel cost
// amortizes away on big enumerations.
const maxEvalChunk = 64

// evalChunkSize picks the dispatch chunk for an enumeration of at most
// maxCands candidates over `workers` workers: large enough to amortize
// channel synchronization, small enough that every worker still sees
// several chunks (load balance on small candidate sets).
func evalChunkSize(maxCands, workers int) int {
	c := maxCands / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > maxEvalChunk {
		return maxEvalChunk
	}
	return c
}

// parallelism resolves the worker count: explicit value, or GOMAXPROCS,
// clamped to [1, min(maxWorkers, maxCands)] so absurd Parallelism values
// (or tiny candidate sets) cannot balloon goroutines and buffers.
func (in *Input) parallelism(maxCands int) int {
	p := in.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxWorkers {
		p = maxWorkers
	}
	if p > maxCands {
		p = maxCands
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
	workers := in.parallelism(maxCands)

	// Branch-and-bound gate. Pruning must be unobservable, so it stays
	// off whenever a skipped candidate could have surfaced anywhere:
	// RequireCapacity filters on a value only evaluation produces, and
	// MaxSizeCV is the one threshold only the post-evaluation check can
	// decide (every other threshold is settled conservatively by the
	// pre-check, so a survivor can never join Excluded after evaluation).
	pruneOn := !in.DisablePruning && !in.Rank.RequireCapacity && th.MaxSizeCV == 0

	chunk := evalChunkSize(maxCands, workers)
	work := make(chan []workItem, 2*workers)
	out := make(chan evalResult, 2*workers*chunk)

	// The collector is shared between stage 3 (Add/AddSkipped, single
	// goroutine) and the workers, which only read the atomically
	// published admission cutoff.
	coll := rank.NewCollector(in.Rank, maxCands)

	// Stage 1: enumerate + prune. Runs in its own goroutine so candidates
	// stream into the workers while later ones are still being generated.
	// Survivors are dispatched in chunks (one channel operation per
	// `chunk` candidates); each chunk slice is freshly allocated and
	// handed off — the receiving worker owns it. Pre-check violations are
	// recorded here in enumeration order; the main goroutine reads them
	// only after the pipeline fully drains.
	var preVios []fragment.Violation
	survivors := 0
	go func() {
		defer close(work)
		batch := make([]workItem, 0, chunk)
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			select {
			case work <- batch:
				batch = make([]workItem, 0, chunk)
				return true
			case <-ctx.Done():
				return false
			}
		}
		for f, v := range source {
			if ctx.Err() != nil {
				return
			}
			if v != nil {
				preVios = append(preVios, *v)
				continue
			}
			batch = append(batch, workItem{idx: survivors, frag: f})
			survivors++
			if len(batch) == chunk && !flush() {
				return
			}
		}
		flush()
	}()

	// Stage 2: parallel evaluation + post-evaluation threshold check. The
	// shared Evaluator is goroutine-safe and every evaluation is pure, so
	// worker scheduling cannot influence any result. Each worker owns one
	// Scratch for its lifetime and parks an idle token with the shared
	// Sharder while blocked on the work channel (a worker that exits
	// leaves its token parked — exited workers are permanently idle
	// capacity for intra-candidate sharding). After cancellation the
	// workers keep draining `work` without evaluating, so the producer
	// never blocks on a full channel.
	sharder := costmodel.NewSharder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := eval.NewScratch(sharder)
			// evalOne prices one candidate with per-candidate panic
			// isolation: a panic anywhere in the evaluation (including one
			// forwarded from a sharded kernel fill, or injected through the
			// FaultEvaluate failpoint) is recovered here, the possibly
			// half-mutated scratch is discarded, and the candidate surfaces
			// as a Fault instead of killing the advisory.
			evalOne := func(item workItem) (r evalResult) {
				r.idx = item.idx
				defer func() {
					if p := recover(); p != nil {
						sc.Reset()
						r = evalResult{idx: item.idx, fault: &Fault{
							Key:   item.frag.Key(),
							Panic: redactPanic(p),
						}}
					}
				}()
				// The failpoint fires inside the recover scope so an
				// injected panic exercises exactly the path a real one
				// takes; an injected error rides the EvalFailures path.
				if err := in.Faults.Hit(FaultEvaluate); err != nil {
					r.err = fmt.Errorf("%s: %w", item.frag.Name(in.Schema), err)
					return r
				}
				switch ev, err := eval.EvaluateWith(sc, item.frag); {
				case err != nil:
					r.err = fmt.Errorf("%s: %w", item.frag.Name(in.Schema), err)
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
			for {
				sharder.Park()
				batch, ok := <-work
				if !ok {
					return
				}
				sharder.Unpark()
				for _, item := range batch {
					if ctx.Err() != nil {
						continue
					}
					if pruneOn {
						if cut, ok := coll.Cutoff(); ok {
							if lbCost, lbResp, bounded := eval.LowerBound(item.frag); bounded &&
								!cut.Admits(lbCost, lbResp, item.frag.Key()) {
								// The bound proves the candidate cannot beat the
								// worst retained evaluation (and the cutoff only
								// tightens), so skipping it cannot change any
								// output. Unbounded candidates (e.g. share-vector
								// failures) always fall through to evaluation so
								// their failure modes are reproduced exactly.
								select {
								case out <- evalResult{idx: item.idx, skipped: true}:
								case <-ctx.Done():
								}
								continue
							}
						}
					}
					select {
					case out <- evalOne(item):
					case <-ctx.Done():
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Stage 3: streaming rank + deterministic result assembly. The
	// collector ingests evaluations as they complete (its total-order
	// tie-break makes arrival order irrelevant); the ordered Result
	// slices are restored from enumeration indices after the drain.
	// Skipped candidates still enter the pool count (AddSkipped) so the
	// leading-set fraction matches the unpruned run exactly.
	var done []evalResult
	skipped := 0
	for r := range out {
		// Workers never send a result after observing cancellation, so
		// everything that arrives here is a complete verdict; under
		// AllowPartial we keep collecting them (anytime advisory), without
		// it we discard and keep draining so the workers can exit.
		if ctx.Err() != nil && !in.AllowPartial {
			continue
		}
		if r.skipped {
			coll.AddSkipped()
			skipped++
			continue
		}
		if r.ev != nil {
			coll.Add(r.ev)
		}
		done = append(done, r)
	}
	// `out` is closed: every worker has exited, so done/skipped/preVios/
	// survivors are final. If the context failed, either fail the run
	// (default) or degrade gracefully into a partial Result (AllowPartial).
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
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })

	res.PruneStats = PruneStats{
		Enabled:   pruneOn,
		Survivors: survivors,
		Evaluated: len(done), // == survivors-skipped on complete runs
		Skipped:   skipped,
	}
	// Coverage accounts for the whole candidate space: everything not
	// pre-excluded, evaluated, or skipped never reached a verdict.
	// maxCands is exact for both sources (explicit list length;
	// fragment.EnumerationSize for the full enumeration), so Remaining is
	// 0 exactly when the run was complete — a cancelled run that happened
	// to finish everything stays Partial=false and bit-identical.
	res.Coverage = Coverage{
		Evaluated: len(done),
		Skipped:   skipped,
		Remaining: maxCands - len(preVios) - len(done) - skipped,
	}
	res.Partial = in.AllowPartial && ctxErr != nil && res.Coverage.Remaining > 0
	// Result.Evaluations is canonical: the retained leading set (plus
	// evaluated capacity violators under RequireCapacity), restored to
	// enumeration order. Evaluations outside it were evicted by the
	// bounded heap — the same candidates the bound stage skips when it
	// can — so pruned and unpruned runs assemble identical slices.
	retained := coll.RetainedKeys()
	res.Excluded = preVios
	for _, r := range done {
		switch {
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
		if survivors == 0 {
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
