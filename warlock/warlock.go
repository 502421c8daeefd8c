// Package warlock is the public API of the WARLOCK data allocation tool
// for parallel warehouses (reproduction of Stöhr/Rahm, VLDB 2001).
//
// WARLOCK automatically determines a parallel data warehouse's disk
// allocation: given a relational star schema, database and disk
// parameters, and a weighted star-query mix, it recommends a ranked list
// of multi-dimensional hierarchical fragmentation candidates (MDHF), a
// bitmap join index scheme per candidate, a detailed query performance
// analysis, and a tailored physical allocation (logical round-robin, or
// greedy size-based under data skew).
//
// Quickstart:
//
//	adv := warlock.New()
//	schema := warlock.APB1Schema(24_000_000)
//	mix, _ := warlock.APB1Mix(schema)
//	res, err := adv.Advise(ctx, &warlock.Input{
//	    Schema: schema, Mix: mix, Disk: warlock.DefaultDisk(64),
//	})
//	fmt.Println(warlock.Report(res))
//
// New returns an Advisor, the context-first front door: options set the
// cross-call configuration once (WithEvalCache, WithParallelism,
// WithSweepWorkers, WithResponseTarget, WithEndpoint), and every method
// takes a context.
//
// # Concurrency
//
// The prediction layer runs as one evaluation loop: candidate
// enumeration and threshold pruning, a branch-and-bound stage that
// dispatches candidates best-first by their admissible cost lower bound
// and skips those whose bound proves they cannot enter the retained set
// (Result.PruneStats reports the split;
// Input.DisablePruning turns it off for A/B runs), a pool of cost-model
// workers, and a streaming top-k ranking stage. Input.Parallelism sets
// the worker count (<= 0 uses GOMAXPROCS); results are bit-for-bit
// identical for every value and with pruning on or off, so both knobs
// trade wall-clock time only. Advisor.Advise honours its context: on
// cancellation the workers stop cleanly and the context's error is
// returned.
//
// # Robustness
//
// Three mechanisms keep one misbehaving candidate, deadline or disk from
// taking an advisory (or the service) down:
//
//   - Anytime advisory: with Input.AllowPartial set, context
//     cancellation degrades gracefully — the pipeline stops accepting
//     work, keeps what the workers already priced, and returns a
//     well-formed Result with Partial=true and a Coverage breakdown
//     (Evaluated/Skipped/Remaining) instead of an error. A run that
//     happens to finish every candidate anyway stays Partial=false and
//     is bit-identical to a normal run; partial results themselves are
//     timing-dependent by nature and excluded from every bit-identity
//     and caching surface. ServerConfig.AllowPartial exposes the same
//     semantics on /v1/advise ("partial": true in a 200 instead of 504).
//   - Panic isolation: pipeline workers wrap each candidate's evaluation
//     in a recover. A panicking candidate is dropped from the pool,
//     recorded in Result.Faults (candidate key + redacted panic value),
//     and counted on warlockd_eval_panics_total; the remaining
//     candidates complete normally.
//   - Fault injection: FaultRegistry arms named failpoints with
//     deterministic schedules (every-Nth, after-K, bounded count) that
//     return errors, panic, delay, or tear checkpoint writes — on the
//     evaluation path (Input.Faults) and the service's job persistence
//     path (ServerConfig.Faults). A nil registry, the production
//     default, disarms everything; no build tags involved.
//
// # What-if sweeps
//
// Advisor.Sweep evaluates a declarative grid of what-if scenarios (disk
// counts, query-mix reweightings, skew settings, prefetch granules,
// allocation schemes) against one base Input through a shared,
// memoizing pipeline:
//
//	adv := warlock.New(warlock.WithResponseTarget(500 * time.Millisecond))
//	rep, _ := adv.Sweep(ctx, in, &warlock.SweepGrid{
//	    Disks: []int{16, 32, 64},
//	    MixScales: []warlock.SweepMixScale{
//	        {Name: "base"},
//	        {Name: "boost-Q3", Factors: map[string]float64{"Q3-store-month": 8}},
//	    },
//	})
//	rep.Table(os.Stdout)
//	best := rep.Best() // smallest disk count meeting the target
//
// Each scenario is advised exactly once, scenarios run concurrently, and
// attribute share vectors and candidate geometries are computed once per
// schema rather than once per scenario. Every per-scenario result is
// bit-for-bit identical to an independent Advise call on the scenario's
// input. A grid may expand to at most 4,096 scenarios; larger grids are
// an error.
//
// # Advisory service
//
// NewServer embeds the long-running advisory service that also backs
// the warlockd binary: POST /v1/advise and /v1/sweep take the CLI's JSON
// documents and return advisories, with an LRU response cache keyed by
// the canonical request fingerprint (byte-identical replay), singleflight
// coalescing of concurrent identical requests, and evaluation state
// shared per schema identity:
//
//	srv := warlock.NewServer(warlock.ServerConfig{CacheSize: 512})
//	defer srv.Close()
//	http.ListenAndServe(":8080", srv)
//
// Every request is fully request-scoped: a client that disconnects or
// exceeds ServerConfig.RequestTimeout cancels its own pipeline
// evaluation (504 on timeout, 408 on departure) — unless other
// coalesced requests still wait on the shared flight, in which case the
// evaluation survives until the last waiter is gone. Under overload the
// service degrades predictably instead of queueing without bound:
// MaxQueue caps the number of evaluations waiting for a slot (excess
// requests are shed with 503 + Retry-After computed from the live
// queue backlog) and QueueTimeout bounds the wait itself. GET /metrics
// counts timeouts, shed requests and departed clients, and exposes
// per-endpoint stage latency histograms (parse, queue, evaluate,
// serialize, total). Its counters cover this process only: a job
// resumed after a restart adds the pruning and panic counts of the
// scenarios it evaluates, never those of replayed checkpoints.
//
// # Asynchronous jobs
//
// Work too large for a synchronous request runs as a job: POST /v1/jobs
// takes the same advise/sweep documents, answers 202 with a job id (the
// document's canonical fingerprint — identical submissions coalesce),
// and evaluates in the background on a bounded worker pool that shares
// the evaluation semaphore without ever exhausting it. GET
// /v1/jobs/{id} reports live progress (scenarios completed/total, prune
// stats, stage timings), GET /v1/jobs/{id}/result returns the finished
// body byte-identical to the synchronous response, DELETE cancels. With
// ServerConfig.JobsDir set, submissions and per-scenario checkpoints
// persist to disk and a restarted service resumes interrupted sweeps
// from their last completed scenario. The Advisor doubles as the
// client: construct it with WithEndpoint and use Submit, JobStatus,
// JobResult, CancelJob and WaitJob.
//
// # Error codes
//
// Service errors default to the legacy {"error": "message"} JSON body;
// clients that send Accept: application/json receive the structured
// envelope {"error": {"code", "message", "retry_after_seconds"}}. The
// codes:
//
//	bad_request        400  document failed to parse or validate
//	oversized          413  request body exceeds the configured limit
//	unfeasible         422  advisory ran; no candidate was feasible
//	deadline           504  request exceeded RequestTimeout
//	client_gone        408  client disconnected before completion
//	shed               503  evaluation queue full (Retry-After set)
//	queue_timeout      503  no evaluation slot within QueueTimeout
//	shutdown           503  server draining
//	retry              503  transient coalescing race; retry immediately
//	method_not_allowed 405  wrong HTTP method
//	not_found          404  unknown job id
//	not_ready          409  job result requested before completion
//	cancelled          410  job was cancelled
//	jobs_full          503  job store full of unfinished jobs
//	internal           500  unexpected server-side failure
//
// The package re-exports the stable subset of the internal building
// blocks; advanced users may also assemble the pipeline from the pieces
// (fragmentation enumeration, cost model, allocation, simulation).
package warlock

import (
	"io"
	"time"

	"repro/internal/alloc"
	"repro/internal/analysis"
	"repro/internal/apb"
	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/fragment"
	"repro/internal/rank"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/skew"
	"repro/internal/sweep"
	"repro/internal/validate"
	"repro/internal/workload"
)

// Schema modelling.
type (
	// Star is a star schema: one fact table plus hierarchically
	// organized dimensions.
	Star = schema.Star
	// Dimension is a hierarchically organized dimension table.
	Dimension = schema.Dimension
	// Level is one hierarchy level of a dimension.
	Level = schema.Level
	// FactTable describes a fact table (rows, row size).
	FactTable = schema.FactTable
	// AttrRef identifies a dimension attribute (dimension, level).
	AttrRef = schema.AttrRef
)

// Workload modelling.
type (
	// QueryClass is a weighted star-query class.
	QueryClass = workload.Class
	// Mix is a weighted set of query classes.
	Mix = workload.Mix
)

// Physical design building blocks.
type (
	// DiskParams carries database and disk parameters.
	DiskParams = disk.Params
	// Fragmentation is an MDHF point fragmentation.
	Fragmentation = fragment.Fragmentation
	// Thresholds exclude candidates before evaluation.
	Thresholds = fragment.Thresholds
	// BitmapOptions tunes bitmap scheme planning.
	BitmapOptions = bitmap.Options
	// RankOptions tunes the twofold ranking.
	RankOptions = rank.Options
	// Ranked is one ranked candidate.
	Ranked = rank.Ranked
	// Evaluation is the full cost-model prediction for one candidate.
	Evaluation = costmodel.Evaluation
	// ClassCost is the per-query-class prediction.
	ClassCost = costmodel.ClassCost
	// AllocScheme selects round-robin or greedy size-based allocation.
	AllocScheme = alloc.Scheme
	// Placement is a computed disk allocation.
	Placement = alloc.Placement
)

// Advisor pipeline.
type (
	// Input is the advisor's input layer.
	Input = core.Input
	// Result carries ranked candidates, evaluations and exclusions.
	Result = core.Result
	// PruneStats reports the branch-and-bound pruning stage's work
	// breakdown for one advisory (Result.PruneStats): candidates whose
	// admissible cost lower bound proved they could not enter the
	// retained set are skipped without full evaluation. Pruning never
	// changes results — Input.DisablePruning exists for A/B measurement.
	PruneStats = core.PruneStats
	// Coverage accounts for how much of the candidate space one advisory
	// processed (Result.Coverage): Remaining is 0 exactly on complete
	// runs, > 0 on partial ones (see Input.AllowPartial).
	Coverage = core.Coverage
	// Fault records one candidate whose evaluation panicked and was
	// isolated by the pipeline (Result.Faults): the advisory completes
	// without it instead of crashing.
	Fault = core.Fault
	// FaultRegistry is the fault-injection harness: named failpoints with
	// deterministic schedules, armed via Input.Faults or
	// ServerConfig.Faults. The nil registry — the production default —
	// is fully disarmed at a single predictable-branch cost per failpoint.
	FaultRegistry = faults.Registry
	// MultiInput advises several fact tables sharing one disk pool.
	MultiInput = core.MultiInput
	// MultiResult is the combined multi-fact-table advisory.
	MultiResult = core.MultiResult
)

// What-if scenario sweeps.
type (
	// SweepGrid declares the axes of a what-if sweep (rows, disk
	// counts, query-mix reweightings, skew, prefetch granules,
	// allocation schemes) over a base Input.
	SweepGrid = sweep.Grid
	// SweepMixScale is one query-mix reweighting axis value.
	SweepMixScale = sweep.MixScale
	// SweepSkew is one per-dimension skew axis value.
	SweepSkew = sweep.SkewSetting
	// SweepOptions tunes a sweep run (scenario workers, response-time
	// target).
	SweepOptions = sweep.Options
	// SweepScenario is one materialized grid point.
	SweepScenario = sweep.Scenario
	// SweepResult is one evaluated grid point.
	SweepResult = sweep.ScenarioResult
	// SweepReport is the complete sweep result with ranking helpers,
	// a tabular renderer and a machine-readable JSON form.
	SweepReport = sweep.Report
	// EvalCache shares candidate-independent cost-model state across
	// advisories on the same schema (Input.EvalCache); Advisor.Sweep manages
	// one automatically.
	EvalCache = costmodel.Cache
)

// NewEvalCache returns an empty shared evaluation-state cache for
// advanced callers wiring Input.EvalCache by hand; Advisor.Sweep
// manages one per run automatically.
func NewEvalCache() *EvalCache { return costmodel.NewCache() }

// Advisory service.
type (
	// Server is the embeddable long-running advisory service (an
	// http.Handler): POST /v1/advise and /v1/sweep with response
	// caching, request coalescing and per-schema evaluation-state
	// sharing, the asynchronous job API under /v1/jobs, plus /healthz
	// and /metrics. The warlockd binary is a thin wrapper around it.
	Server = server.Server
	// ServerConfig tunes the advisory service: cache sizes, evaluation
	// concurrency, request body limit, the per-request deadline
	// (RequestTimeout), overload bounds (MaxQueue, QueueTimeout),
	// slow-request logging (SlowRequestThreshold, Logger) and the
	// asynchronous job store (JobTTL, MaxJobs, MaxRunningJobs, JobsDir).
	ServerConfig = server.Config
	// AdviseResponse is the JSON body of a successful /v1/advise call.
	AdviseResponse = server.AdviseResponse
)

// NewServer returns the advisory HTTP service. Serve it under any
// http.Server and Close it on shutdown to cancel in-flight pipeline
// evaluations (drain the http.Server first for a graceful stop).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Simulation and validation.
type (
	// SimMetrics summarizes a discrete-event simulation run.
	SimMetrics = sim.Metrics
	// ValidationReport compares cost-model predictions against queries
	// executed on a materialized layout.
	ValidationReport = validate.Report
	// ValidationClassReport is the per-class comparison row.
	ValidationClassReport = validate.ClassReport
)

// Allocation scheme values.
const (
	RoundRobin = alloc.RoundRobin
	GreedySize = alloc.GreedySize
)

// AdviseMulti advises several fact tables sharing one disk pool and
// co-allocates their winning fragmentations (paper §2: "one or more fact
// tables").
func AdviseMulti(mi *MultiInput) (*MultiResult, error) { return core.AdviseMulti(mi) }

// RangedDesign derives the general MDHF range fragmentation (range size
// >= 1 per attribute) as an equivalent point design over a derived schema;
// evaluate the returned triple with Evaluate to price it. WARLOCK itself
// searches point fragmentations only (paper §3.2); this is the extension
// experiment E13 ablates.
func RangedDesign(s *Star, m *Mix, attrs []AttrRef, ranges []int) (*Star, *Mix, *Fragmentation, error) {
	return fragment.RangedDesign(s, m, attrs, ranges)
}

// DefaultDisk returns 2001-era disk parameters with the given disk count
// (<= 0 keeps 64).
func DefaultDisk(disks int) DiskParams { return apb.Disk(disks) }

// APB1Schema returns the APB-1 star schema at the given fact-table scale
// (rows <= 0 selects 24 million).
func APB1Schema(rows int64) *Star { return apb.Schema(rows) }

// APB1SkewedSchema returns the APB-1 schema with Zipf skew on Product and
// Customer.
func APB1SkewedSchema(rows int64, productTheta, customerTheta float64) *Star {
	return apb.SkewedSchema(rows, productTheta, customerTheta)
}

// APB1Mix returns the default APB-1-like weighted query mix for the schema.
func APB1Mix(s *Star) (*Mix, error) { return apb.Mix(s) }

// ParseFragmentation builds a fragmentation from "Dimension.level" paths.
func ParseFragmentation(s *Star, paths ...string) (*Fragmentation, error) {
	return fragment.Parse(s, paths...)
}

// EnumerateFragmentations returns every point fragmentation of the schema.
func EnumerateFragmentations(s *Star) []*Fragmentation { return fragment.Enumerate(s) }

// Evaluate runs the cost model for a single explicit candidate using the
// advisor input's configuration.
func Evaluate(in *Input, f *Fragmentation) (*Evaluation, error) {
	res := &core.Result{Input: in}
	return costmodel.Evaluate(res.CostModelConfig(), f)
}

// Evaluator is the reusable, goroutine-safe cost-model front end: it
// precomputes the per-(schema, mix, disk) state once so pricing many
// candidates — possibly from many goroutines — skips the repeated setup.
type Evaluator = costmodel.Evaluator

// NewEvaluator builds an Evaluator from the advisor input's
// configuration.
func NewEvaluator(in *Input) (*Evaluator, error) {
	res := &core.Result{Input: in}
	return costmodel.NewEvaluator(res.CostModelConfig())
}

// Report renders the complete advisor report (ranked candidates, database
// and query statistics, allocation summary).
func Report(res *Result) string { return analysis.Report(res) }

// MultiReport renders the multi-fact-table advisory with the combined
// co-allocation summary.
func MultiReport(mr *MultiResult) string { return analysis.MultiReport(mr) }

// CandidateTable renders only the ranked candidate list.
func CandidateTable(s *Star, ranked []Ranked) string { return analysis.CandidateTable(s, ranked) }

// QueryStatistic renders the per-class analysis of one candidate.
func QueryStatistic(s *Star, ev *Evaluation) string { return analysis.QueryStatistic(s, ev) }

// DatabaseStatistic renders the database statistic panel of one candidate.
func DatabaseStatistic(s *Star, ev *Evaluation) string { return analysis.DatabaseStatistic(s, ev) }

// AllocationReport renders disk occupancy of one candidate (maxDisks <= 0
// prints every disk).
func AllocationReport(s *Star, ev *Evaluation, maxDisks int) string {
	return analysis.AllocationReport(s, ev, maxDisks)
}

// DiskAccessProfile renders the per-disk busy-time bar chart of one query
// class.
func DiskAccessProfile(s *Star, ev *Evaluation, classIdx int) (string, error) {
	return analysis.DiskAccessProfile(s, ev, classIdx)
}

// WriteCandidatesCSV exports the ranked list as CSV.
func WriteCandidatesCSV(w io.Writer, s *Star, ranked []Ranked) error {
	return analysis.WriteCandidatesCSV(w, s, ranked)
}

// WriteQueryStatsCSV exports one candidate's per-class statistics as CSV.
func WriteQueryStatsCSV(w io.Writer, s *Star, ev *Evaluation) error {
	return analysis.WriteQueryStatsCSV(w, s, ev)
}

// SimulateSingleUser validates a candidate with the discrete-event
// simulator: n independent queries on an idle system. Returns aggregate
// metrics and per-query response times.
func SimulateSingleUser(res *Result, ev *Evaluation, n int, seed int64) (SimMetrics, []time.Duration, error) {
	return sim.SingleUser(res.CostModelConfig(), ev, n, seed)
}

// SimulateMultiUser runs an open-system simulation: n queries arriving
// Poisson at ratePerSec, competing for the disks.
func SimulateMultiUser(res *Result, ev *Evaluation, n int, ratePerSec float64, seed int64) (SimMetrics, error) {
	return sim.MultiUser(res.CostModelConfig(), ev, n, ratePerSec, seed)
}

// ZipfShares exposes the skew model: the share vector of n values under
// Zipf parameter theta.
func ZipfShares(n int, theta float64) ([]float64, error) { return skew.Shares(n, theta) }

// ValidateExecution materializes the candidate's physical layout
// (synthetic fact rows + real bitmap bit-slices), executes
// queriesPerClass concrete queries of every class against it, and
// compares the measured fragment/page/I-O counts with the cost model's
// predictions. The schema's declared row count is generated — keep it
// laptop-sized (≤ 4M rows).
func ValidateExecution(res *Result, f *Fragmentation, queriesPerClass int, seed int64) (*ValidationReport, error) {
	return validate.Run(res.CostModelConfig(), f, queriesPerClass, seed)
}

// RelErr is the relative-error helper used in validation reports.
func RelErr(predicted, measured float64) float64 { return validate.RelErr(predicted, measured) }

// MultiUserEstimate approximates the mean multi-user response time of a
// candidate at the given Poisson arrival rate (queries/second), via an
// M/M/1-style correction on the bottleneck disk. Returns the estimate and
// the bottleneck utilization.
func MultiUserEstimate(ev *Evaluation, ratePerSec float64) (time.Duration, float64, error) {
	return costmodel.MultiUserEstimate(ev, ratePerSec)
}

// SaturationRate returns the maximum sustainable query arrival rate of a
// candidate (bottleneck disk at full utilization) — its modeled
// multi-user throughput capacity.
func SaturationRate(ev *Evaluation) float64 { return costmodel.SaturationRate(ev) }
