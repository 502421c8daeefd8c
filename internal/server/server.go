// Package server implements warlockd, the long-running WARLOCK advisory
// service. The paper frames WARLOCK as a tool an administrator consults
// again and again while exploring configurations; the service amortizes
// warm state across those consultations. It serves two advisory kinds,
// each one value of the endpoint type:
//
//	kind    document         scenarios  pipeline            route
//	advise  config.Document  1          core.AdviseContext  POST /v1/advise
//	sweep   config.SweepDoc  grid size  sweep.Run           POST /v1/sweep
//
// The kind also names the POST /v1/jobs kind (jobs.go) and the endpoint
// label of the /metrics stage histograms. Each endpoint owns a response
// cache and a singleflight group; its synchronous route, its jobs and
// restart recovery all evaluate through one leader path (Server.lead).
// GET /healthz is a liveness probe. Three layers remove repeated work:
//
//  1. The LRU response cache, keyed by the document's canonical,
//     order-insensitive fingerprint, replays responses byte-identically.
//  2. Singleflight coalescing: N concurrent requests with one
//     fingerprint trigger exactly one pipeline evaluation.
//  3. A costmodel.Cache per schema identity (config.SchemaFingerprint),
//     shared by both kinds: same-schema requests share one interned
//     *schema.Star and so its share vectors and candidate geometries.
//
// A synchronous evaluation runs under a context that is cancelled as
// soon as no client waits for it: a lone client that disconnects or
// exceeds RequestTimeout aborts its own evaluation, while a coalesced
// flight runs until its last waiter departs. Under overload the
// evaluation queue is bounded (MaxQueue) and waits are bounded
// (QueueTimeout): excess load is shed with 503 + Retry-After.
//
// Every cached or coalesced response is byte-for-byte identical to the
// cold response for any document with the same fingerprint: requests are
// evaluated in canonical form, and the cache stores exactly the bytes a
// cold evaluation produced.
//
// GET /metrics renders one ordered table of counters and gauges
// (Server.metricsTable) plus the per-endpoint stage histograms. Counters
// are incremented where the counted event happens and cover this
// process only: a job resumed after a restart adds the prune and panic
// counts of the scenarios it evaluates, never those of replayed
// checkpoints. Gauges are read from the state they describe.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/lru"
	"repro/internal/schema"
	"repro/internal/sweep"
)

// Defaults for Config fields left zero.
const (
	DefaultCacheSize       = 256
	DefaultSchemaCacheSize = 64
	DefaultMaxBodyBytes    = 8 << 20
)

// maxCachedEntries bounds one schema entry's evaluation cache: sweeps
// with rows/skew axes derive per-scenario schemas whose geometries and
// share vectors accumulate in the shared cache, so a long-lived entry is
// swapped for a fresh cache once its combined entry count grows past
// this limit (the swap only costs warm state; results are identical
// with and without it).
const maxCachedEntries = 4096

// Overload sentinels, mapped to 503 + Retry-After by the handlers.
var (
	// errShed reports a request rejected because the evaluation queue
	// was already at MaxQueue depth; the request never touched the
	// evaluation semaphore.
	errShed = errors.New("server: overloaded, evaluation queue full")
	// errQueueTimeout reports a request that waited QueueTimeout for an
	// evaluation slot without getting one.
	errQueueTimeout = errors.New("server: gave up waiting for an evaluation slot")
)

// FaultEvaluate is the service-level fault-injection point fired once
// per advisory evaluation, after the slot is acquired and before the
// pipeline runs (see Config.Faults). The pipeline's own per-candidate
// failpoint is core.FaultEvaluate.
const FaultEvaluate = "server/evaluate"

// transientJobError is the job retry policy: retry what a later attempt
// could plausibly survive — overload rejections, injected faults,
// filesystem errors — and never what is deterministic for the submitted
// document (bad configs, infeasible advisories), where a retry would
// reproduce the same failure.
func transientJobError(err error) bool {
	switch {
	case errors.Is(err, config.ErrBadConfig), errors.Is(err, core.ErrNoFeasible):
		return false
	case errors.Is(err, errShed), errors.Is(err, errQueueTimeout), faults.Injected(err):
		return true
	}
	var pathErr *os.PathError
	var sysErr *os.SyscallError
	return errors.As(err, &pathErr) || errors.As(err, &sysErr)
}

// Config tunes the advisory service.
type Config struct {
	// CacheSize is the per-endpoint response cache capacity in entries
	// (<= 0 uses DefaultCacheSize).
	CacheSize int
	// SchemaCacheSize is the interned-schema cache capacity (<= 0 uses
	// DefaultSchemaCacheSize). Each entry holds one *schema.Star plus
	// the evaluation cache shared by every request on that schema.
	SchemaCacheSize int
	// MaxConcurrent limits concurrently running pipeline evaluations
	// (<= 0 uses GOMAXPROCS). Excess evaluations queue.
	MaxConcurrent int
	// MaxBodyBytes limits request body size (<= 0 uses
	// DefaultMaxBodyBytes). Oversized bodies get 413.
	MaxBodyBytes int64
	// RequestTimeout bounds one request end to end, evaluation included:
	// a request that exceeds it gets 504 and its pipeline evaluation is
	// cancelled (unless coalesced waiters still need it). <= 0 disables
	// the timeout; the client's own disconnect still cancels.
	RequestTimeout time.Duration
	// QueueTimeout bounds the wait for an evaluation slot; a request
	// queued longer is answered 503 + Retry-After without evaluating.
	// <= 0 waits as long as the request context allows.
	QueueTimeout time.Duration
	// MaxQueue bounds how many evaluations may wait for a slot; beyond
	// it requests are shed immediately with 503 + Retry-After. <= 0
	// queues without bound.
	MaxQueue int
	// SlowRequestThreshold logs any request slower than this with its
	// fingerprint and stage breakdown. <= 0 disables slow logging.
	SlowRequestThreshold time.Duration
	// Logger receives slow-request lines (nil uses log.Default()).
	Logger *log.Logger

	// JobTTL is how long finished asynchronous jobs stay queryable
	// (<= 0 uses jobs.DefaultTTL).
	JobTTL time.Duration
	// MaxJobs bounds the asynchronous job store (<= 0 uses
	// jobs.DefaultMaxJobs).
	MaxJobs int
	// MaxRunningJobs bounds concurrently running asynchronous jobs
	// (<= 0 uses max(1, MaxConcurrent-1), so jobs can never hold every
	// evaluation slot and synchronous requests always find one free).
	MaxRunningJobs int
	// JobsDir, when non-empty, persists job submissions and per-scenario
	// checkpoints so a restarted daemon resumes interrupted sweeps from
	// their last completed scenario.
	JobsDir string
	// JobRetries is how many times an asynchronous job's transient
	// failure (overload shed, queue timeout, injected fault, I/O error)
	// is retried with exponential backoff before the job fails for good
	// (<= 0 disables retries). Deterministic failures — bad configs,
	// infeasible advisories — never retry.
	JobRetries int

	// AllowPartial turns request-deadline expiry on /v1/advise into
	// graceful degradation: instead of a 504, the response carries the
	// best-so-far ranking with "partial": true and a coverage breakdown
	// (see core.Input.AllowPartial). Partial responses are never cached —
	// what a partial run covered is timing-dependent, and the response
	// cache must stay byte-deterministic.
	AllowPartial bool
	// Faults optionally arms the fault-injection harness across the
	// service: the advise evaluation path (core.FaultEvaluate and the
	// server-level FaultEvaluate failpoint) and the job persistence path
	// (jobs.FaultSpecWrite and friends). Nil — the production default —
	// disarms everything; see package faults.
	Faults *faults.Registry
}

// schemaEntry is one interned schema identity: the canonical
// *schema.Star every same-schema request is rewritten to, plus the
// evaluation cache keyed off that pointer.
type schemaEntry struct {
	star  *schema.Star
	cache *costmodel.Cache
}

// Server is the embeddable advisory service; it implements
// http.Handler. Create one with New, serve it under any http.Server,
// and Close it to cancel in-flight pipeline evaluations.
type Server struct {
	mux     *http.ServeMux
	baseCtx context.Context
	cancel  context.CancelFunc
	sem     chan struct{}
	maxBody int64

	reqTimeout    time.Duration
	queueTimeout  time.Duration
	maxQueue      int
	slowThreshold time.Duration
	logger        *log.Logger
	queued        atomic.Int64

	advise, sweep *endpoint // the advisory kinds

	jobs *jobs.Manager

	allowPartial bool
	faults       *faults.Registry

	mu      sync.Mutex // guards the response caches and schemas
	schemas *lru.Cache[string, *schemaEntry]

	// evalHook, when set (tests only), runs on the flight leader between
	// semaphore acquisition and the pipeline, under the evaluation
	// context — the seam that lets tests hold an evaluation open and
	// observe cancellation deterministically.
	evalHook func(context.Context)

	// The lifetime counters behind the /metrics *_total series (see
	// metricsTable), each incremented where the counted event happens.
	// requests counts advisory requests (probes excluded); evaluations
	// counts pipeline runs, which caching and coalescing keep below it;
	// timeouts counts 504s and queue-timeout 503s, shed the MaxQueue
	// 503s, clientGone the 408s of departed clients.
	requests, cacheHits, cacheMisses, coalesced, evaluations atomic.Int64
	timeouts, shed, clientGone                               atomic.Int64
	pruneEvaluated, pruneSkipped, evalPanics                 atomic.Int64
	schemaHits, schemaMisses                                 atomic.Int64
}

// New returns a ready-to-serve advisory service.
func New(cfg Config) *Server {
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	schemaSize := cfg.SchemaCacheSize
	if schemaSize <= 0 {
		schemaSize = DefaultSchemaCacheSize
	}
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		mux:           http.NewServeMux(),
		baseCtx:       ctx,
		cancel:        cancel,
		sem:           make(chan struct{}, maxConc),
		maxBody:       maxBody,
		reqTimeout:    cfg.RequestTimeout,
		queueTimeout:  cfg.QueueTimeout,
		maxQueue:      cfg.MaxQueue,
		slowThreshold: cfg.SlowRequestThreshold,
		logger:        cfg.Logger,
		schemas:       lru.New[string, *schemaEntry](schemaSize),
		allowPartial:  cfg.AllowPartial,
		faults:        cfg.Faults,
	}
	s.advise = &endpoint{kind: kindAdvise, parse: s.parseAdvise, cache: lru.New[string, []byte](cacheSize)}
	s.sweep = &endpoint{kind: kindSweep, parse: s.parseSweep, cache: lru.New[string, []byte](cacheSize)}
	maxRunning := cfg.MaxRunningJobs
	if maxRunning <= 0 {
		// At least one evaluation slot stays out of the job pool's reach,
		// so background jobs can never starve synchronous requests.
		maxRunning = maxConc - 1
		if maxRunning < 1 {
			maxRunning = 1
		}
	}
	s.jobs = jobs.New(jobs.Config{
		TTL:        cfg.JobTTL,
		MaxJobs:    cfg.MaxJobs,
		MaxRunning: maxRunning,
		Dir:        cfg.JobsDir,
		Retries:    cfg.JobRetries,
		Transient:  transientJobError,
		Faults:     cfg.Faults,
	})
	for _, ep := range s.endpoints() {
		s.mux.HandleFunc("/v1/"+ep.kind, s.serve(ep))
	}
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.recoverJobs(cfg.JobsDir)
	return s
}

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the asynchronous job manager first — its jobs observe a
// manager shutdown (not a user cancel), so persisted state survives for
// restart recovery — then cancels the server's base context: queued
// evaluations stop waiting and running pipelines drain. Safe to call
// more than once. Callers draining an http.Server should call its
// Shutdown first (to let in-flight requests finish) and Close the
// advisory server after — or on drain timeout, to abort the stragglers.
func (s *Server) Close() {
	s.jobs.Close()
	s.cancel()
}

// The advisory kinds: route /v1/{kind}, job kind and /metrics label.
const kindAdvise, kindSweep = "advise", "sweep"

// endpoint is one advisory kind and the state the service keeps per kind,
// shared by its synchronous route (serve) and its jobs (runner); the
// kinds differ only in parse.
type endpoint struct {
	kind   string
	parse  func(body io.Reader) (*request, error)
	cache  *lru.Cache[string, []byte] // guarded by Server.mu
	flight flightGroup[[]byte]
	stats  endpointStats
}

// endpoints lists the advisory kinds in /metrics order.
func (s *Server) endpoints() []*endpoint { return []*endpoint{s.advise, s.sweep} }

// request is one parsed document, reduced to what the shared paths need.
type request struct {
	fp        string
	scenarios int // 1 for advise, the grid size for sweep
	// build is the per-kind middle of lead: the canonical input, its
	// schema identity, and the pipeline run that lead calls once it holds
	// an evaluation slot. j is the job running the request, or nil.
	build func(j *jobs.Job) (in *core.Input, schemaKey string, run runFunc, err error)
}

// runFunc runs the pipeline on a built, interned input.
type runFunc func(context.Context) (outcome, error)

// outcome is a finished pipeline run: whether it is partial (and so
// never cached), and its serializer.
type outcome struct {
	partial bool
	marshal func() ([]byte, error)
}

// countDiagnostics adds one advisory this process evaluated to the
// pruning and panic counters.
func (s *Server) countDiagnostics(res *core.Result) {
	s.pruneEvaluated.Add(int64(res.PruneStats.Evaluated))
	s.pruneSkipped.Add(int64(res.PruneStats.Skipped))
	s.evalPanics.Add(int64(len(res.Faults)))
}

func (s *Server) parseAdvise(body io.Reader) (*request, error) {
	doc, err := config.Parse(body)
	if err != nil {
		return nil, err
	}
	fp := doc.Fingerprint()
	return &request{fp: fp, scenarios: 1, build: func(j *jobs.Job) (*core.Input, string, runFunc, error) {
		// Build from the canonical ordering so every document sharing this
		// fingerprint evaluates bit-identically (float accumulations over
		// the mix are order-sensitive in the last ulp).
		doc := doc.Canonical()
		in, err := doc.Build()
		if err != nil {
			return nil, "", nil, err
		}
		in.AllowPartial = s.allowPartial
		return in, doc.SchemaFingerprint(), func(ctx context.Context) (outcome, error) {
			res, err := core.AdviseContext(ctx, in)
			if err != nil {
				return outcome{}, err
			}
			s.countDiagnostics(res)
			if j != nil {
				j.Update(func(p *jobs.Progress) {
					p.PruneEvaluated += res.PruneStats.Evaluated
					p.PruneSkipped += res.PruneStats.Skipped
				})
			}
			return outcome{res.Partial, func() ([]byte, error) {
				return json.MarshalIndent(buildAdviseResponse(fp, in, res), "", "  ")
			}}, nil
		}, nil
	}}, nil
}

// parseSweep never sets AllowPartial: sweep.Run fails the whole run on
// cancellation, so a sweep response is never partial. A job's sweep also
// resumes, streams progress and checkpoints; its bytes are the same.
// Scenarios replayed from checkpoints carry no Result and so add nothing
// to the diagnostic counters.
func (s *Server) parseSweep(body io.Reader) (*request, error) {
	doc, err := config.ParseSweep(body)
	if err != nil {
		return nil, err
	}
	return &request{fp: doc.Fingerprint(), scenarios: doc.Scenarios(), build: func(j *jobs.Job) (*core.Input, string, runFunc, error) {
		doc := doc.Canonical()
		base, grid, target, err := doc.Build()
		if err != nil {
			return nil, "", nil, err
		}
		opts := sweep.Options{ResponseTarget: target}
		if j != nil {
			jobSweepOptions(j, &opts)
		}
		return base, doc.Base.SchemaFingerprint(), func(ctx context.Context) (outcome, error) {
			rep, err := sweep.Run(ctx, base, grid, opts)
			if err != nil {
				return outcome{}, err
			}
			for _, sr := range rep.Scenarios {
				if sr.Result != nil {
					s.countDiagnostics(sr.Result)
				}
			}
			return outcome{false, func() ([]byte, error) {
				var buf bytes.Buffer
				err := rep.WriteJSON(&buf)
				return buf.Bytes(), err
			}}, nil
		}, nil
	}}, nil
}

// serve returns an endpoint's synchronous route: derive the request
// context (client context + RequestTimeout), parse, consult the response
// cache, and run or join a singleflight whose evaluation context lives
// exactly as long as someone is waiting.
func (s *Server) serve(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, r, errorClass{http.StatusMethodNotAllowed, CodeMethodNotAllowed, 0, errors.New("POST required")})
			return
		}
		s.requests.Add(1)
		start := time.Now()
		reqCtx := r.Context()
		if s.reqTimeout > 0 {
			var cancel context.CancelFunc
			reqCtx, cancel = context.WithTimeout(reqCtx, s.reqTimeout)
			defer cancel()
		}
		st := &stageTimes{}
		fp, status, state := "", http.StatusOK, "none"
		defer func() {
			total := time.Since(start)
			ep.stats.total.observe(total)
			s.logSlow(ep.kind, fp, status, state, total, st)
		}()

		pt := time.Now()
		req, err := ep.parse(http.MaxBytesReader(w, r.Body, s.maxBody))
		st.parse = time.Since(pt)
		ep.stats.parse.observe(st.parse)
		if err != nil {
			status = s.writeError(w, r, parseErrorClass(err))
			return
		}
		fp = req.fp

		if b, ok := s.cacheGet(ep.cache, fp); ok {
			s.cacheHits.Add(1)
			state = "hit"
			writeJSON(w, b, state)
			return
		}

		// A deadline reads as expired only once its timer fires, which a
		// busy machine can delay past the whole evaluation. So the clock
		// decides, before the run and after it, unless the endpoint
		// degrades to a partial answer at the deadline instead of 504.
		strict := ep.kind != kindAdvise || !s.allowPartial
		if strict && deadlinePassed(reqCtx) {
			status = s.writeAdvisoryError(w, r, reqCtx, context.DeadlineExceeded)
			return
		}
		run := func(ctx context.Context) ([]byte, error) { return s.lead(ctx, ep, req, st, nil) }
		b, err, joined := ep.flight.Do(reqCtx, s.baseCtx, fp, run)
		if joined {
			s.coalesced.Add(1)
		}
		if isCtxErr(err) && reqCtx.Err() == nil && s.baseCtx.Err() == nil {
			// The flight this caller joined was cancelled because all of its
			// own waiters departed — not this caller's fault, and the server
			// is healthy, so run a fresh flight (cheap if the dead flight
			// already cached its result).
			b, err, _ = ep.flight.Do(reqCtx, s.baseCtx, fp, run)
		}
		if err == nil && strict && deadlinePassed(reqCtx) {
			err = context.DeadlineExceeded
		}
		if err != nil {
			status = s.writeAdvisoryError(w, r, reqCtx, err)
			return
		}
		state = "miss"
		if joined {
			state = "coalesced"
		}
		writeJSON(w, b, state)
	}
}

// lead is the evaluation path of a flight leader or a job (j != nil):
// build, intern, evaluate, serialize, cache. It re-checks the response
// cache first so a flight opened just as an identical flight finished
// replays the fresh entry: a request never triggers a second evaluation
// of an already-cached response. st receives the stage durations.
func (s *Server) lead(ctx context.Context, ep *endpoint, req *request, st *stageTimes, j *jobs.Job) ([]byte, error) {
	if b, ok := s.cacheGet(ep.cache, req.fp); ok {
		s.cacheHits.Add(1)
		return b, nil
	}
	s.cacheMisses.Add(1)
	in, schemaKey, run, err := req.build(j)
	if err != nil {
		return nil, err
	}
	// Safe swap: fingerprint equality means the interned star is
	// field-identical, and mix predicates reference it by index.
	in.Schema, in.EvalCache = s.internSchema(schemaKey, in.Schema)
	in.Faults = s.faults
	qt := time.Now()
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	st.queue = time.Since(qt)
	ep.stats.queue.observe(st.queue)
	defer s.release()
	s.evaluations.Add(1)
	if s.evalHook != nil {
		s.evalHook(ctx)
	}
	if err := s.faults.Hit(FaultEvaluate); err != nil {
		return nil, err
	}
	et := time.Now()
	out, err := run(ctx)
	st.evaluate = time.Since(et)
	ep.stats.evaluate.observe(st.evaluate)
	if err != nil {
		return nil, err
	}
	mt := time.Now()
	b, err := out.marshal()
	if err != nil {
		return nil, err
	}
	b = ensureTrailingNewline(b)
	st.serialize = time.Since(mt)
	ep.stats.serialize.observe(st.serialize)
	// A partial advisory is timing-dependent: caching it would replay a
	// degraded snapshot to later, healthy requests.
	if !out.partial {
		s.cacheAdd(ep.cache, req.fp, b)
	}
	return b, nil
}

// allowGetHead gates the read-only probe endpoints to GET/HEAD, matching
// the POST gating on the advisory routes.
func (s *Server) allowGetHead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	s.writeError(w, r, errorClass{http.StatusMethodNotAllowed, CodeMethodNotAllowed, 0, errors.New("GET or HEAD required")})
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.allowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.allowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, m := range s.metricsTable() {
		fmt.Fprintf(w, "%s %d\n", m.name, m.value())
	}
	for _, ep := range s.endpoints() {
		ep.stats.write(w, "warlockd_request_stage_seconds", ep.kind)
	}
}

// series is one /metrics line: its name with labels, and its value.
type series struct {
	name  string
	value func() int64
}

// metricsTable lists the /metrics counters and gauges in exposition
// order: counters are the atomics incremented where the work happens,
// gauges are read from the state they describe.
func (s *Server) metricsTable() []series {
	jt := s.jobs.Totals()
	state := func(st jobs.State) func() int64 { return func() int64 { return s.jobs.Count(st) } }
	entries := func(c interface{ Len() int }) func() int64 {
		return func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(c.Len())
		}
	}
	return []series{
		{"warlockd_requests_total", s.requests.Load},
		{"warlockd_cache_hits_total", s.cacheHits.Load},
		{"warlockd_cache_misses_total", s.cacheMisses.Load},
		{"warlockd_coalesced_total", s.coalesced.Load},
		{"warlockd_evaluations_total", s.evaluations.Load},
		{"warlockd_timeouts_total", s.timeouts.Load},
		{"warlockd_shed_total", s.shed.Load},
		{"warlockd_client_gone_total", s.clientGone.Load},
		{"warlockd_prune_evaluated_total", s.pruneEvaluated.Load},
		{"warlockd_prune_skipped_total", s.pruneSkipped.Load},
		{"warlockd_eval_panics_total", s.evalPanics.Load},
		// Running evaluations hold a semaphore slot; queued ones wait.
		{"warlockd_in_flight", func() int64 { return int64(len(s.sem)) + s.queued.Load() }},
		{"warlockd_queue_depth", s.queued.Load},
		{"warlockd_schema_cache_hits_total", s.schemaHits.Load},
		{"warlockd_schema_cache_misses_total", s.schemaMisses.Load},
		{"warlockd_advise_cache_entries", entries(s.advise.cache)},
		{"warlockd_sweep_cache_entries", entries(s.sweep.cache)},
		{"warlockd_schema_cache_entries", entries(s.schemas)},
		{`warlockd_jobs_total{state="queued"}`, state(jobs.StateQueued)},
		{`warlockd_jobs_total{state="running"}`, state(jobs.StateRunning)},
		{`warlockd_jobs_total{state="done"}`, jt.Done.Load},
		{`warlockd_jobs_total{state="failed"}`, jt.Failed.Load},
		{`warlockd_jobs_total{state="cancelled"}`, jt.Cancelled.Load},
		{"warlockd_jobs_submitted_total", jt.Submitted.Load},
		{"warlockd_jobs_coalesced_total", jt.Coalesced.Load},
		{"warlockd_job_scenarios_completed_total", jt.ScenariosCompleted.Load},
		{"warlockd_job_retries_total", jt.Retries.Load},
		{"warlockd_job_checkpoint_failures_total", jt.CheckpointFailures.Load},
		{"warlockd_jobs_stored", func() int64 { return int64(s.jobs.Len()) }},
	}
}

// logSlow emits one line for a request slower than the configured
// threshold, with the request fingerprint and the stage breakdown.
func (s *Server) logSlow(endpoint, fp string, status int, state string, total time.Duration, st *stageTimes) {
	if s.slowThreshold <= 0 || total < s.slowThreshold {
		return
	}
	if fp == "" {
		fp = "-"
	}
	s.logf("warlockd: slow request endpoint=%s fingerprint=%s status=%d cache=%s total=%s parse=%s queue=%s evaluate=%s serialize=%s",
		endpoint, fp, status, state, total, st.parse, st.queue, st.evaluate, st.serialize)
}

func (s *Server) logf(format string, args ...any) {
	lg := s.logger
	if lg == nil {
		lg = log.Default()
	}
	lg.Printf(format, args...)
}

// internSchema returns the canonical star and shared evaluation cache
// for a schema identity, interning the given star on first sight. An
// entry whose evaluation cache outgrew maxCachedEntries gets a fresh
// cache (same star, warm state dropped).
func (s *Server) internSchema(key string, star *schema.Star) (*schema.Star, *costmodel.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.schemas.Get(key); ok {
		s.schemaHits.Add(1)
		if e.cache.Geometries()+e.cache.Shares() > maxCachedEntries {
			e.cache = costmodel.NewCache()
		}
		return e.star, e.cache
	}
	s.schemaMisses.Add(1)
	e := &schemaEntry{star: star, cache: costmodel.NewCache()}
	s.schemas.Add(key, e)
	return e.star, e.cache
}

// acquire takes an evaluation slot on behalf of ctx (the evaluation
// context: alive while any waiter wants the result, dead when the last
// one leaves or the server closes). The queue in front of the semaphore
// is bounded two ways: MaxQueue sheds excess depth immediately —
// without ever touching the semaphore — and QueueTimeout bounds how
// long one evaluation may wait for a slot.
func (s *Server) acquire(ctx context.Context) error {
	// Fast path: a free slot means no queueing, so neither bound applies.
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	depth := s.queued.Add(1)
	defer s.queued.Add(-1)
	if s.maxQueue > 0 && depth > int64(s.maxQueue) {
		return errShed
	}
	wait := ctx
	if s.queueTimeout > 0 {
		var cancel context.CancelFunc
		wait, cancel = context.WithTimeout(ctx, s.queueTimeout)
		defer cancel()
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.baseCtx.Done():
		return s.baseCtx.Err()
	case <-wait.Done():
		if ctx.Err() == nil {
			return errQueueTimeout // the queue timer fired, not the request
		}
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

func (s *Server) cacheGet(c *lru.Cache[string, []byte], key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.Get(key)
}

func (s *Server) cacheAdd(c *lru.Cache[string, []byte], key string, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Add(key, b)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// deadlinePassed reports whether ctx ended by its deadline, or has a
// deadline the clock has reached though its timer has not fired yet.
func deadlinePassed(ctx context.Context) bool {
	if err := ctx.Err(); err != nil {
		return errors.Is(err, context.DeadlineExceeded)
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// parseErrorClass maps request decoding failures: an oversized body is
// 413 (the *http.MaxBytesError survives config's error wrapping), any
// other parse failure is the client's 400.
func parseErrorClass(err error) errorClass {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return errorClass{http.StatusRequestEntityTooLarge, CodeOversized, 0,
			fmt.Errorf("request body exceeds the configured limit of %d bytes", mbe.Limit)}
	}
	return errorClass{http.StatusBadRequest, CodeBadRequest, 0, err}
}

// advisoryErrorClass maps evaluation errors of requests and jobs alike:
// invalid documents are the client's fault (400/413), no feasible
// candidate is 422, overload is 503 + a Retry-After from the live queue
// backlog, and a cancellation is told apart by its cause — the request
// deadline (504), the departed client (408), or server shutdown (503).
func (s *Server) advisoryErrorClass(reqCtx context.Context, err error) errorClass {
	switch {
	case errors.Is(err, errShed):
		return errorClass{http.StatusServiceUnavailable, CodeShed, s.retryAfter(), err}
	case errors.Is(err, errQueueTimeout):
		return errorClass{http.StatusServiceUnavailable, CodeQueueTimeout, s.retryAfter(), err}
	case errors.Is(err, config.ErrBadConfig):
		return parseErrorClass(err)
	case errors.Is(err, core.ErrNoFeasible):
		return errorClass{http.StatusUnprocessableEntity, CodeUnfeasible, 0, err}
	case isCtxErr(err):
		switch {
		case s.baseCtx.Err() != nil:
			return errorClass{http.StatusServiceUnavailable, CodeShutdown, 0,
				errors.New("advisory cancelled: server shutting down")}
		case deadlinePassed(reqCtx):
			return errorClass{http.StatusGatewayTimeout, CodeDeadline, 0,
				errors.New("advisory timed out before completing (request timeout exceeded)")}
		case errors.Is(reqCtx.Err(), context.Canceled):
			return errorClass{http.StatusRequestTimeout, CodeClientGone, 0,
				errors.New("client went away before the advisory completed")}
		default:
			// A joined flight died under this caller twice (its other
			// waiters left mid-retry); rare, transient, retryable.
			return errorClass{http.StatusServiceUnavailable, CodeRetry, s.retryAfter(),
				errors.New("advisory evaluation cancelled, retry")}
		}
	default:
		return errorClass{http.StatusInternalServerError, CodeInternal, 0, err}
	}
}

// writeAdvisoryError renders a synchronous request's evaluation error and
// counts the operational failures.
func (s *Server) writeAdvisoryError(w http.ResponseWriter, r *http.Request, reqCtx context.Context, err error) int {
	c := s.advisoryErrorClass(reqCtx, err)
	switch c.code {
	case CodeShed:
		s.shed.Add(1)
	case CodeQueueTimeout, CodeDeadline:
		s.timeouts.Add(1)
	case CodeClientGone:
		s.clientGone.Add(1)
	}
	return s.writeError(w, r, c)
}

func writeJSON(w http.ResponseWriter, b []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Warlock-Cache", cacheState)
	w.Write(b)
}

// ensureTrailingNewline makes every advisory body newline-terminated,
// whatever the serializer did, so both endpoints byte-match their CLI
// counterparts (json.Encoder already terminates, json.Marshal does not).
func ensureTrailingNewline(b []byte) []byte {
	if len(b) == 0 || b[len(b)-1] != '\n' {
		return append(b, '\n')
	}
	return b
}

// AdviseResponse is the JSON body of a successful /v1/advise call.
type AdviseResponse struct {
	// Fingerprint is the request's canonical content hash — the cache
	// and coalescing key.
	Fingerprint string `json:"fingerprint"`
	// Schema and Disks echo the advised configuration.
	Schema string `json:"schema"`
	Disks  int    `json:"disks"`
	// Candidates is the final ranked list, best compromise first.
	Candidates []Candidate `json:"candidates"`
	// EvaluatedCandidates / ExcludedCandidates / EvalFailures summarize
	// the pipeline run.
	EvaluatedCandidates int `json:"evaluatedCandidates"`
	ExcludedCandidates  int `json:"excludedCandidates"`
	EvalFailures        int `json:"evalFailures"`
	// FaultedCandidates counts candidates whose evaluation panicked and
	// was isolated (core.Result.Faults). omitempty: absent on clean runs,
	// so pre-existing response bytes are unchanged.
	FaultedCandidates int `json:"faultedCandidates,omitempty"`
	// Partial marks a gracefully degraded advisory (Config.AllowPartial +
	// request deadline): Candidates is the best-so-far ranking over the
	// covered slice of the space, described by Coverage. Both fields are
	// absent on complete runs — complete response bytes are identical
	// with and without AllowPartial.
	Partial  bool           `json:"partial,omitempty"`
	Coverage *CoverageStats `json:"coverage,omitempty"`
}

// CoverageStats is the candidate-space accounting of a partial advisory
// (core.Coverage).
type CoverageStats struct {
	Evaluated int `json:"evaluated"`
	Skipped   int `json:"skipped"`
	Remaining int `json:"remaining"`
}

// Candidate is one ranked fragmentation in an AdviseResponse.
type Candidate struct {
	Rank           int     `json:"rank"`
	Name           string  `json:"name"`
	Key            string  `json:"key"`
	CostRank       int     `json:"costRank"`
	ResponseRank   int     `json:"responseRank"`
	Fragments      int64   `json:"fragments"`
	AccessCostMs   float64 `json:"accessCostMs"`
	ResponseMs     float64 `json:"responseMs"`
	AllocScheme    string  `json:"allocScheme"`
	CapacityOK     bool    `json:"capacityOK"`
	BitmapPages    int64   `json:"bitmapPages"`
	FactPrefetch   int     `json:"factPrefetch"`
	BitmapPrefetch int     `json:"bitmapPrefetch"`
	// PerClass carries the winner's per-query-class prediction in
	// canonical (name-sorted) mix order; omitted for the other ranks to
	// keep responses compact.
	PerClass []ClassStat `json:"perClass,omitempty"`
}

// ClassStat is one query class's prediction for the winning candidate.
type ClassStat struct {
	Name         string  `json:"name"`
	Weight       float64 `json:"weight"`
	AccessCostMs float64 `json:"accessCostMs"`
	ResponseMs   float64 `json:"responseMs"`
	FactIOs      float64 `json:"factIOs"`
	BitmapIOs    float64 `json:"bitmapIOs"`
}

func buildAdviseResponse(fp string, in *core.Input, res *core.Result) *AdviseResponse {
	resp := &AdviseResponse{
		Fingerprint:         fp,
		Schema:              in.Schema.Name,
		Disks:               in.Disk.Disks,
		EvaluatedCandidates: len(res.Evaluations),
		ExcludedCandidates:  len(res.Excluded),
		EvalFailures:        len(res.EvalFailures),
		FaultedCandidates:   len(res.Faults),
	}
	if res.Partial {
		resp.Partial = true
		resp.Coverage = &CoverageStats{
			Evaluated: res.Coverage.Evaluated,
			Skipped:   res.Coverage.Skipped,
			Remaining: res.Coverage.Remaining,
		}
	}
	for i, rk := range res.Ranked {
		ev := rk.Eval
		c := Candidate{
			Rank:           i + 1,
			Name:           ev.Frag.Name(in.Schema),
			Key:            ev.Frag.Key(),
			CostRank:       rk.CostRank,
			ResponseRank:   rk.ResponseRank,
			Fragments:      ev.Geometry.NumFragments(),
			AccessCostMs:   durMs(ev.AccessCost),
			ResponseMs:     durMs(ev.ResponseTime),
			AllocScheme:    ev.Placement.Scheme.String(),
			CapacityOK:     ev.CapacityOK,
			BitmapPages:    ev.BitmapPagesTotal,
			FactPrefetch:   ev.FactPrefetch,
			BitmapPrefetch: ev.BitmapPrefetch,
		}
		if i == 0 {
			for _, cc := range ev.PerClass {
				c.PerClass = append(c.PerClass, ClassStat{
					Name:         cc.Class.Name,
					Weight:       cc.Weight,
					AccessCostMs: durMs(cc.AccessCost),
					ResponseMs:   durMs(cc.ResponseTime),
					FactIOs:      cc.FactIOs,
					BitmapIOs:    cc.BitmapIOs,
				})
			}
		}
		resp.Candidates = append(resp.Candidates, c)
	}
	return resp
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
