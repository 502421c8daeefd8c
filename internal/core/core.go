// Package core implements the WARLOCK advisor pipeline — the tool
// architecture of the paper's Fig. 1:
//
//	Input layer      star schema, DBS & disk parameters, weighted star
//	                 query mix (package schema, disk, workload)
//	Prediction layer generation of fragmentations & bitmaps, exclusion of
//	                 fragmentations by thresholds, calculation of
//	                 performance metrics via the I/O cost model, ranking
//	                 of "top" fragmentations (package fragment, bitmap,
//	                 costmodel, rank)
//	Analysis layer   fragmentation candidates, query analysis, physical
//	                 allocation scheme (package analysis)
//
// Advise runs the whole pipeline; the Result carries everything the
// analysis and output layer renders.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/skew"
	"repro/internal/workload"
)

// ErrNoFeasible is returned when every candidate was excluded or failed
// evaluation.
var ErrNoFeasible = errors.New("core: no feasible fragmentation candidate")

// Input is the advisor's input layer.
type Input struct {
	// Schema is the star schema (required).
	Schema *schema.Star
	// Mix is the weighted star-query mix (required).
	Mix *workload.Mix
	// Disk carries the DBS & disk parameters (required; see
	// disk.Default2001 for a representative set).
	Disk disk.Params
	// Thresholds exclude fragmentation candidates before evaluation.
	// The zero value applies DefaultThresholds.
	Thresholds fragment.Thresholds
	// Rank controls the twofold ranking (zero value = paper defaults).
	Rank rank.Options
	// Mapping selects the hierarchy skew-aggregation mapping.
	Mapping skew.Mapping
	// Bitmap carries bitmap planning options (threshold, DBA exclusions).
	Bitmap bitmap.Options
	// AllocScheme forces an allocation scheme; nil applies WARLOCK's rule
	// (round-robin, greedy size-based under notable skew).
	AllocScheme *alloc.Scheme
	// SkewCVThreshold tunes the "notable skew" detection.
	SkewCVThreshold float64
	// Candidates restricts evaluation to an explicit list; nil enumerates
	// every point fragmentation of the schema.
	Candidates []*fragment.Fragmentation
	// Parallelism is the number of cost-model evaluation workers of the
	// pipeline. <= 0 uses GOMAXPROCS. Results are bit-for-bit
	// identical for every value; only wall-clock time changes.
	Parallelism int
	// DisablePruning switches off the branch-and-bound stage that skips
	// candidates whose admissible cost lower bound proves they cannot
	// enter the retained set. Results are bit-for-bit identical with and
	// without pruning (the bound only ever skips provable losers); the
	// knob exists for A/B measurement (cmd/warlock -no-prune) and
	// benchmarking. Pruning also auto-disables when it could observably
	// matter: under Rank.RequireCapacity (capacity is unknown without
	// evaluation) and under Thresholds.MaxSizeCV (the only post-
	// evaluation-only exclusion).
	DisablePruning bool
	// EvalCache optionally shares candidate-independent cost-model state
	// (attribute share vectors, candidate geometries) with other
	// advisories on the same schema — the what-if sweep engine sets one
	// cache for all scenarios of a run. Nil disables sharing. Results
	// are bit-for-bit identical with and without a cache.
	EvalCache *costmodel.Cache
	// AllowPartial turns context cancellation into graceful degradation:
	// instead of discarding everything and returning ctx.Err(), the
	// pipeline stops accepting work, drains what the workers already
	// priced, and returns a well-formed Result with Partial=true and
	// Coverage describing how much of the candidate space was processed.
	// A run that happens to process every candidate before noticing the
	// cancellation is bit-identical to a normal run (Partial stays
	// false). Which candidates a partial run covered is inherently
	// timing-dependent — partial results are best-effort by definition
	// and are excluded from every bit-identity surface. With pruning on,
	// the workers take candidates in ascending lower-bound order, not
	// enumeration order, so a partial run has priced the likeliest
	// winners first.
	AllowPartial bool
	// Faults optionally arms the fault-injection harness on this
	// advisory's evaluation path (failpoint FaultEvaluate, fired once per
	// candidate entering full evaluation). Nil — the production default —
	// disarms it; see package faults.
	Faults *faults.Registry
}

// Result is everything the prediction layer hands to the analysis layer.
type Result struct {
	Input *Input
	// Ranked is the final candidate list of the twofold heuristic,
	// best compromise first.
	Ranked []rank.Ranked
	// Evaluations holds the retained candidate evaluations — the
	// collector's leading set under the phase-1 cost order (a superset
	// of the ranked ones), plus, under Rank.RequireCapacity, the
	// evaluated capacity violators — in enumeration order. The retained
	// set is deterministic (schedule-independent) and identical with and
	// without pruning: candidates outside it are evicted either way, so
	// the pruned pipeline's skips are unobservable here.
	Evaluations []*costmodel.Evaluation
	// Excluded lists candidates dropped by thresholds, with reasons.
	Excluded []fragment.Violation
	// EvalFailures lists candidates that failed evaluation.
	EvalFailures []error
	// Faults lists candidates whose evaluation panicked: the pipeline
	// workers isolate per-candidate panics (the candidate is dropped
	// from the pool, its scratch discarded) so one poisoned candidate
	// cannot kill the advisory. In enumeration order.
	Faults []Fault
	// Partial reports a gracefully degraded advisory: the context was
	// cancelled with Input.AllowPartial set and at least one candidate
	// was never processed. The Result is well-formed — Ranked holds the
	// best-so-far leading set — but covers only the candidates in
	// Coverage. Always false on complete runs, whatever AllowPartial is.
	Partial bool
	// Coverage reports how much of the candidate space this run
	// processed; Remaining is 0 exactly when the run was complete.
	Coverage Coverage
	// PruneStats reports the branch-and-bound stage's work breakdown.
	PruneStats PruneStats
	// Timings reports wall-clock stage durations of this advisory run.
	// Diagnostic only (service slow-request logs, latency accounting):
	// never serialized into advisory outputs, so bit-identity surfaces
	// are unaffected.
	Timings StageTimings
}

// Fault records one candidate whose evaluation panicked and was
// isolated by the pipeline's per-candidate recover.
type Fault struct {
	// Key is the candidate's canonical fragmentation key.
	Key string
	// Panic is the redacted panic value: its type plus a bounded,
	// newline-free rendering — safe to serialize and log whatever the
	// panicking code threw.
	Panic string
}

// Coverage accounts for every candidate of one (possibly partial)
// advisory. Candidates the threshold pre-check excluded appear in
// Result.Excluded, not here; on a complete run
// Evaluated + Skipped + len(pre-check exclusions) covers the whole
// enumeration and Remaining is 0. A cancelled run reaches its verdicts
// in dispatch order — ascending lower-bound access cost when pruning is
// on, enumeration order otherwise — so its Remaining candidates are a
// tail of that order.
type Coverage struct {
	// Evaluated counts candidates that completed the evaluation stage:
	// fully priced (retained or not), excluded by the post-evaluation
	// threshold check, failed, or faulted.
	Evaluated int
	// Skipped counts candidates the branch-and-bound stage proved could
	// not enter the retained set and skipped without evaluation.
	Skipped int
	// Remaining counts candidates that never reached a verdict before a
	// partial run stopped. 0 exactly when the run was complete.
	Remaining int
}

// FaultEvaluate is the fault-injection point fired once per candidate
// entering full cost-model evaluation, inside the worker's recover
// scope — an injected panic exercises exactly the isolation path a real
// evaluation panic takes (see Input.Faults).
const FaultEvaluate = "core/evaluate"

// StageTimings is the wall-clock breakdown of one pipeline run.
// Evaluation and collection overlap, so Pipeline covers enumeration plus
// the whole concurrent evaluation rather than pretending the stages were
// sequential.
type StageTimings struct {
	// Setup covers input validation and evaluator construction
	// (per-schema state: share vectors, skew tables).
	Setup time.Duration
	// Pipeline covers enumerate → prune, then evaluate → collect
	// across all workers.
	Pipeline time.Duration
	// Rank covers final result assembly and the twofold ranking.
	Rank time.Duration
	// Total is the full AdviseContext call.
	Total time.Duration
}

// PruneStats summarizes the branch-and-bound pruning stage of one
// advisory: every survivor is bounded once, the survivors are evaluated
// best-first (ascending lower-bound access cost), and a survivor whose
// bound the collector's admission cutoff rejects is skipped. Enabled and
// Survivors are deterministic, and so is the Evaluated/Skipped split at
// Parallelism 1. With more workers the split depends on scheduling (a
// candidate evaluated before the admission cutoff tightens would have
// been skipped under another schedule), so it is diagnostic only — it is
// deliberately excluded from every bit-identity surface (reports,
// goldens, service response bodies).
type PruneStats struct {
	// Enabled reports whether the pruning stage was active (see
	// Input.DisablePruning for the auto-disable conditions).
	Enabled bool
	// Survivors counts candidates that passed the threshold pre-check:
	// Evaluated + Skipped.
	Survivors int
	// Evaluated counts candidates fully priced by the cost model.
	Evaluated int
	// Skipped counts candidates whose admissible lower bound proved they
	// could not enter the retained set, so evaluation was skipped.
	Skipped int
}

// DefaultThresholds derives the paper's standard exclusions from the disk
// parameters: average fragments must not drop below the (configured or
// representative) prefetch granule, and the fragment count is bounded to
// keep candidate materialization tractable.
func DefaultThresholds(d disk.Params) fragment.Thresholds {
	minPages := int64(d.PrefetchPages)
	if minPages <= 0 {
		minPages = 16 // representative granule when the advisor optimizes
	}
	return fragment.Thresholds{
		MinAvgFragmentPages: minPages,
		MaxFragments:        1 << 20,
	}
}

// Validate checks the input layer.
func (in *Input) Validate() error {
	if in.Schema == nil {
		return fmt.Errorf("core: %w", schema.ErrEmptySchema)
	}
	if err := in.Schema.Validate(); err != nil {
		return err
	}
	if in.Mix == nil {
		return workload.ErrNoClasses
	}
	if err := in.Mix.Validate(in.Schema); err != nil {
		return err
	}
	return in.Disk.Validate()
}

// Advise runs the WARLOCK pipeline: candidate generation, threshold
// exclusion, parallel cost-model evaluation, and streaming twofold
// ranking. It is AdviseContext without cancellation.
func Advise(in *Input) (*Result, error) {
	return AdviseContext(context.Background(), in)
}

// Best returns the top-ranked evaluation.
func (r *Result) Best() *costmodel.Evaluation {
	if len(r.Ranked) == 0 {
		return nil
	}
	return r.Ranked[0].Eval
}

// Find returns the evaluation of the candidate with the given key, or nil.
func (r *Result) Find(key string) *costmodel.Evaluation {
	for _, ev := range r.Evaluations {
		if ev.Frag.Key() == key {
			return ev
		}
	}
	return nil
}

// CostModelConfig reconstructs the cost-model configuration the advisor
// used, for follow-up analyses (simulation, what-if evaluation).
func (r *Result) CostModelConfig() *costmodel.Config {
	in := r.Input
	th := in.Thresholds
	if th == (fragment.Thresholds{}) {
		th = DefaultThresholds(in.Disk)
	}
	return &costmodel.Config{
		Schema:          in.Schema,
		Mix:             in.Mix,
		Disk:            in.Disk,
		Mapping:         in.Mapping,
		Bitmap:          in.Bitmap,
		AllocScheme:     in.AllocScheme,
		SkewCVThreshold: in.SkewCVThreshold,
		MaxFragments:    th.MaxFragments,
		Cache:           in.EvalCache,
	}
}
