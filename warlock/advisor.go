package warlock

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// Advisor is the package's context-first front door: one value carrying
// the cross-call configuration (shared evaluation cache, parallelism,
// sweep tuning, and — for the job client — the warlockd endpoint), with
// every method taking a context. Construct one with New:
//
//	adv := warlock.New(
//	    warlock.WithEvalCache(warlock.NewEvalCache()),
//	    warlock.WithParallelism(8),
//	)
//	res, err := adv.Advise(ctx, in)
//
// A zero-option Advisor adds nothing to its inputs: its Advise and Sweep
// results are bit-for-bit identical to the pipeline and sweep engine run
// on the same input. An Advisor is immutable after New and safe for
// concurrent use by multiple goroutines.
type Advisor struct {
	cache       *EvalCache
	parallelism int
	workers     int
	target      time.Duration
	endpoint    string
	httpc       *http.Client
}

// Option configures an Advisor.
type Option func(*Advisor)

// WithEvalCache shares candidate-independent cost-model state across
// every advisory the Advisor runs: repeated Advise calls on the same
// schema skip recomputing attribute share vectors and candidate
// geometries. Results are bit-identical with and without it. Inputs
// that carry their own Input.EvalCache keep it.
func WithEvalCache(c *EvalCache) Option { return func(a *Advisor) { a.cache = c } }

// WithParallelism sets the default cost-model worker count for inputs
// that leave Input.Parallelism zero (<= 0 keeps GOMAXPROCS). Results
// are bit-identical for every value — this trades wall-clock time only.
func WithParallelism(n int) Option { return func(a *Advisor) { a.parallelism = n } }

// WithSweepWorkers sets how many sweep scenarios run concurrently
// (<= 0 keeps GOMAXPROCS). Wall-clock only; results are unaffected.
func WithSweepWorkers(n int) Option { return func(a *Advisor) { a.workers = n } }

// WithResponseTarget sets the response-time target recorded in sweep
// reports: Sweep's Best() then prefers the smallest configuration
// meeting it.
func WithResponseTarget(d time.Duration) Option { return func(a *Advisor) { a.target = d } }

// WithEndpoint points the Advisor's job client (Submit, JobStatus,
// JobResult, CancelJob, WaitJob) at a running warlockd, e.g.
// "http://localhost:8080". Local methods are unaffected.
func WithEndpoint(url string) Option { return func(a *Advisor) { a.endpoint = url } }

// WithHTTPClient sets the HTTP client the job client uses (nil keeps
// http.DefaultClient).
func WithHTTPClient(c *http.Client) Option { return func(a *Advisor) { a.httpc = c } }

// New returns an Advisor with the given options applied.
func New(opts ...Option) *Advisor {
	a := &Advisor{}
	for _, o := range opts {
		o(a)
	}
	return a
}

// prepared returns a shallow copy of in with the Advisor's defaults
// filled into fields the caller left zero. The copy keeps the caller's
// Input free of side effects.
func (a *Advisor) prepared(in *Input) *Input {
	run := *in
	if run.EvalCache == nil {
		run.EvalCache = a.cache
	}
	if run.Parallelism == 0 {
		run.Parallelism = a.parallelism
	}
	return &run
}

// Advise runs the full WARLOCK pipeline — candidate generation,
// threshold exclusion, parallel cost-model evaluation, streaming
// twofold ranking — under ctx: on cancellation the pipeline drains
// cleanly and the context's error is returned. Results are bit-for-bit
// identical for every Advisor option: the options trade wall-clock time
// only.
func (a *Advisor) Advise(ctx context.Context, in *Input) (*Result, error) {
	return core.AdviseContext(ctx, a.prepared(in))
}

// Sweep evaluates a declarative what-if grid over the base input
// through one shared, memoizing pipeline, using the Advisor's sweep
// configuration (WithSweepWorkers, WithResponseTarget). Per-scenario
// results are bit-for-bit identical to independent Advise calls on the
// scenario inputs.
func (a *Advisor) Sweep(ctx context.Context, base *Input, grid *SweepGrid) (*SweepReport, error) {
	return a.SweepWithOptions(ctx, base, grid, SweepOptions{})
}

// SweepWithOptions is Sweep with explicit per-call options (progress
// callbacks, resume checkpoints); option fields left zero inherit the
// Advisor's configuration.
func (a *Advisor) SweepWithOptions(ctx context.Context, base *Input, grid *SweepGrid, opts SweepOptions) (*SweepReport, error) {
	if opts.Workers == 0 {
		opts.Workers = a.workers
	}
	if opts.ResponseTarget == 0 {
		opts.ResponseTarget = a.target
	}
	return sweep.Run(ctx, a.prepared(base), grid, opts)
}

// Scenarios expands a grid into its materialized scenarios without
// evaluating them — useful to inspect or cost a sweep before running
// it.
func (a *Advisor) Scenarios(base *Input, grid *SweepGrid) ([]SweepScenario, error) {
	return sweep.Expand(a.prepared(base), grid)
}
