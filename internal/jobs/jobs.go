// Package jobs implements warlockd's durable asynchronous job manager.
//
// The paper's workflow is batch-shaped: an administrator sweeps large
// what-if grids and compares allocations offline, while the service's
// request-timeout/shed machinery deliberately kills any synchronous
// request that runs long. This package decouples that long-running work
// from the HTTP request lifetime:
//
//   - a job is keyed by the request document's canonical fingerprint, so
//     identical submissions coalesce onto one running job;
//   - jobs run on a bounded worker pool (Config.MaxRunning) whose
//     members additionally contend on the server's shared evaluation
//     semaphore inside the Runner, so background jobs never starve
//     synchronous requests;
//   - finished jobs are retained for Config.TTL and garbage-collected;
//     the whole store is LRU-bounded (Config.MaxJobs);
//   - with Config.Dir set, every job persists its submission document
//     and appends per-scenario result checkpoints to disk, so a
//     restarted daemon resumes an interrupted sweep from its last
//     completed scenario instead of recomputing (LoadPending +
//     Request.Resume).
//
// The manager is deliberately generic over the work itself: a Runner is
// any func(ctx, *Job) ([]byte, error), and checkpoints are opaque
// json.RawMessage values keyed by int. The server layer owns the
// advise/sweep semantics.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. queued → running → done|failed; cancelled can be
// entered from queued or running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ErrStoreFull reports a submission rejected because the job store is at
// capacity with no finished job to evict.
var ErrStoreFull = errors.New("jobs: store full, no finished job to evict")

// Defaults for Config fields left zero.
const (
	DefaultTTL     = 15 * time.Minute
	DefaultMaxJobs = 64
	// DefaultRetryBackoff is the first retry delay; it doubles per
	// attempt, capped at maxRetryBackoff.
	DefaultRetryBackoff = time.Second
)

// maxRetryBackoff caps the exponential backoff between retries.
const maxRetryBackoff = time.Minute

// Config tunes a Manager.
type Config struct {
	// TTL is how long finished jobs (done, failed or cancelled) stay
	// queryable after completion (<= 0 uses DefaultTTL).
	TTL time.Duration
	// MaxJobs bounds the store: beyond it, the least recently finished
	// job is evicted; with no finished job to evict, Submit returns
	// ErrStoreFull (<= 0 uses DefaultMaxJobs).
	MaxJobs int
	// MaxRunning bounds concurrently running jobs (<= 0 runs one at a
	// time). Keep it below the evaluation semaphore's capacity so
	// synchronous requests always find a slot jobs cannot occupy.
	MaxRunning int
	// Dir, when non-empty, persists submissions and per-scenario
	// checkpoints for restart recovery. The directory is created on
	// first use.
	Dir string
	// Retries is how many times a failed run is retried before the job
	// fails for good (<= 0 disables retries). Only errors Transient
	// classifies as retryable are retried, never cancellations; between
	// attempts the worker sleeps an exponential backoff starting at
	// DefaultRetryBackoff (doubling per attempt, capped at one minute).
	// Retried runs re-execute the same Runner with the same Job — checkpoints
	// recorded by earlier attempts remain visible, so runners that consult
	// Job.ResumeCheckpoints-style state must be idempotent per key (the
	// server's runners are: they re-check caches and rewrite checkpoints
	// keyed by scenario index).
	Retries int
	// Transient classifies a Runner error as worth retrying. Nil retries
	// nothing — misclassifying a deterministic failure (bad config, no
	// feasible candidate) as transient would burn Retries runs to produce
	// the same error, so the policy is opt-in and owned by the caller who
	// knows the error taxonomy.
	Transient func(error) bool
	// Faults optionally arms the fault-injection harness on the
	// persistence path (failpoints FaultSpecWrite, FaultSpecRename,
	// FaultCkptAppend, FaultCkptSync). Nil — the production default —
	// disarms it; see package faults.
	Faults *faults.Registry

	// now is the test seam for TTL expiry (nil uses time.Now).
	now func() time.Time
	// sleep is the test seam for retry backoff (nil sleeps on a real
	// timer); it returns false when ctx ends the wait early.
	sleep func(ctx context.Context, d time.Duration) bool
}

// Totals are the manager's lifetime counters, incremented where the
// counted event happens. How many jobs are queued or running now is not
// a counter but a count of the store (Manager.Count).
type Totals struct {
	// Submitted counts accepted new jobs; Coalesced counts submissions
	// answered by an existing job with the same id.
	Submitted, Coalesced atomic.Int64
	// Done, Failed, Cancelled count terminal transitions.
	Done, Failed, Cancelled atomic.Int64
	// ScenariosCompleted counts per-scenario completion callbacks
	// recorded via Job.AddScenarios across all jobs.
	ScenariosCompleted atomic.Int64
	// Retries counts transient-failure re-runs across all jobs.
	Retries atomic.Int64
	// CheckpointFailures counts checkpoint lines that could not be
	// durably recorded (write, marshal or fsync failure). Checkpointing
	// degrades silently by design — a lost line only costs recomputation
	// after a restart — but the failures must still surface somewhere,
	// and this counter (exported as warlockd_job_checkpoint_failures_total)
	// is that somewhere.
	CheckpointFailures atomic.Int64
}

// Runner executes one job: it receives the job's context (cancelled by
// DELETE, manager shutdown, or store close) and the job itself (for
// progress updates and checkpointing) and returns the result body.
type Runner func(ctx context.Context, j *Job) ([]byte, error)

// Request is one job submission.
type Request struct {
	// Kind tags the document type ("advise" or "sweep" at the server
	// layer); it travels into persistence and Status.
	Kind string
	// ID is the job identity — the document's canonical fingerprint.
	// Submissions sharing an ID coalesce onto one job.
	ID string
	// Spec is the submitted document, persisted verbatim for restart
	// recovery.
	Spec []byte
	// Resume seeds the job's checkpoint map (restart recovery only).
	Resume map[int]json.RawMessage
	// Run executes the job.
	Run Runner
}

// Progress is a job's live progress, updated by its Runner.
type Progress struct {
	// ScenariosDone / ScenariosTotal count sweep scenarios (an advise
	// job is a 1-scenario sweep for progress purposes).
	ScenariosDone  int `json:"scenariosDone"`
	ScenariosTotal int `json:"scenariosTotal"`
	// ScenariosResumed counts scenarios replayed from checkpoints
	// rather than evaluated in this run.
	ScenariosResumed int `json:"scenariosResumed,omitempty"`
	// PruneEvaluated / PruneSkipped aggregate the branch-and-bound work
	// split across the advisories this process evaluated for the job;
	// scenarios replayed from checkpoints add nothing. Diagnostic only.
	PruneEvaluated int `json:"pruneEvaluated,omitempty"`
	PruneSkipped   int `json:"pruneSkipped,omitempty"`
}

// Status is a point-in-time snapshot of one job — the JSON body of
// GET /v1/jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// CreatedAt / StartedAt / FinishedAt are the lifecycle timestamps.
	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	// Progress is the live scenario/prune progress.
	Progress Progress `json:"progress"`
	// QueueMs is the time spent waiting for a job slot; EvaluateMs the
	// time running (still growing while the job runs).
	QueueMs    float64 `json:"queueMs"`
	EvaluateMs float64 `json:"evaluateMs"`
}

// Job is one asynchronous advisory or sweep evaluation.
type Job struct {
	id, kind string
	spec     []byte
	m        *Manager
	ctx      context.Context
	cancel   context.CancelFunc
	doneCh   chan struct{}

	mu       sync.Mutex
	state    State
	result   []byte
	err      error
	progress Progress
	created  time.Time
	started  time.Time
	finished time.Time
	resume   map[int]json.RawMessage
	ckpt     *checkpointFile
}

// ID returns the job's identity (the request fingerprint).
func (j *Job) ID() string { return j.id }

// Kind returns the submitted document kind.
func (j *Job) Kind() string { return j.kind }

// Spec returns the submitted document bytes.
func (j *Job) Spec() []byte { return j.spec }

// Done is closed when the job reaches a terminal state in this process.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Context returns the job's context: cancelled by Cancel, or when the
// manager closes.
func (j *Job) Context() context.Context { return j.ctx }

// ResumeCheckpoints returns the checkpoints recovered from disk at
// submission (restart recovery); nil for fresh jobs. The Runner decodes
// the values into its own checkpoint type.
func (j *Job) ResumeCheckpoints() map[int]json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume
}

// Update mutates the job's progress under its lock. Runners call it from
// per-scenario completion hooks.
func (j *Job) Update(f func(*Progress)) {
	j.mu.Lock()
	f(&j.progress)
	j.mu.Unlock()
}

// AddScenarios adds n newly completed scenarios (resumed scenarios
// excluded) to the manager-wide Totals.ScenariosCompleted counter. It
// leaves the job's own progress alone: runners set that through Update.
func (j *Job) AddScenarios(n int) {
	if n <= 0 {
		return
	}
	j.m.totals.ScenariosCompleted.Add(int64(n))
}

// Checkpoint durably records one completed unit of work (a sweep
// scenario) under an integer key. A no-op without a persistence
// directory. Errors are deliberately swallowed: checkpointing is an
// optimization — losing one only costs recomputation after a restart.
func (j *Job) Checkpoint(key int, v any) {
	j.mu.Lock()
	f := j.ckpt
	j.mu.Unlock()
	if f == nil {
		return
	}
	f.append(key, v)
}

// Status returns a point-in-time snapshot.
func (j *Job) Status() Status {
	now := j.m.now()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		Kind:      j.kind,
		State:     j.state,
		CreatedAt: j.created,
		Progress:  j.progress,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.QueueMs = durMs(j.started.Sub(j.created))
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		st.EvaluateMs = durMs(end.Sub(j.started))
	} else {
		st.QueueMs = durMs(now.Sub(j.created))
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Result returns the job's outcome: the result bytes of a done job, the
// error of a failed one. ok reports whether the job is terminal.
func (j *Job) Result() (b []byte, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil, true
	case StateFailed:
		return nil, j.err, true
	case StateCancelled:
		return nil, context.Canceled, true
	default:
		return nil, nil, false
	}
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Manager owns the job store and worker pool.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job

	totals Totals
}

// New returns a running manager. Close it to cancel every job context
// and stop the GC loop.
func New(cfg Config) *Manager {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		slots:  make(chan struct{}, cfg.MaxRunning),
		jobs:   make(map[string]*Job),
	}
	m.wg.Add(1)
	go m.gcLoop()
	return m
}

// Close cancels every job context, stops the GC loop and waits for job
// goroutines to observe cancellation. Persisted state of unfinished jobs
// stays on disk — that is what a restarted daemon resumes from.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

func (m *Manager) now() time.Time { return m.cfg.now() }

// Totals returns the manager's lifetime counters.
func (m *Manager) Totals() *Totals { return &m.totals }

// Count returns how many stored jobs are in the given state.
func (m *Manager) Count(s State) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := int64(0)
	for _, j := range m.jobs {
		if j.State() == s {
			n++
		}
	}
	return n
}

// Len returns the number of stored jobs (any state).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Submit registers (or coalesces onto) a job. created reports whether a
// new job was started: false means the returned job pre-existed —
// running, queued, or finished-and-cached. A cancelled (but not yet
// expired) job is replaced by a fresh run: cancellation was explicit
// user intent, so a re-submission means "run it again".
func (m *Manager) Submit(req Request) (*Job, bool, error) {
	if req.ID == "" || req.Run == nil {
		return nil, false, errors.New("jobs: submission needs an ID and a Runner")
	}
	if req.Kind == "" {
		return nil, false, errors.New("jobs: submission needs a Kind")
	}
	now := m.now()
	m.mu.Lock()
	if j, ok := m.jobs[req.ID]; ok && !m.expiredLocked(j, now) && j.State() != StateCancelled {
		m.mu.Unlock()
		m.totals.Coalesced.Add(1)
		return j, false, nil
	}
	if err := m.evictForLocked(now); err != nil {
		m.mu.Unlock()
		return nil, false, err
	}
	jctx, jcancel := context.WithCancel(m.ctx)
	j := &Job{
		id:      req.ID,
		kind:    req.Kind,
		spec:    req.Spec,
		m:       m,
		ctx:     jctx,
		cancel:  jcancel,
		doneCh:  make(chan struct{}),
		state:   StateQueued,
		created: now,
		resume:  req.Resume,
	}
	m.jobs[req.ID] = j
	m.mu.Unlock()

	if err := m.persistSpec(j); err != nil {
		// Persistence is required for durability but not for running:
		// surface the degradation by failing the submission — a daemon
		// configured with -jobs-dir must not silently lose restart
		// safety.
		m.mu.Lock()
		delete(m.jobs, req.ID)
		m.mu.Unlock()
		jcancel()
		return nil, false, fmt.Errorf("jobs: persist submission: %w", err)
	}

	m.totals.Submitted.Add(1)
	m.wg.Add(1)
	go m.runJob(j, req.Run)
	return j, true, nil
}

// Get returns the job with the given id, evicting it first if expired.
func (m *Manager) Get(id string) (*Job, bool) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	if m.expiredLocked(j, now) {
		delete(m.jobs, id)
		return nil, false
	}
	return j, true
}

// Cancel cancels a queued or running job (its context is cancelled and
// the state becomes cancelled) or evicts a finished one. ok reports
// whether the id was known.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return j, true
	}
	m.totals.Cancelled.Add(1)
	j.state = StateCancelled
	j.finished = m.now()
	ck := j.ckpt
	j.ckpt = nil
	close(j.doneCh)
	j.mu.Unlock()
	j.cancel()
	ck.close()
	m.removeFiles(id)
	return j, true
}

// Jobs returns a snapshot of every stored job, unordered.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// runJob is the per-job goroutine: wait for a worker slot, run, finish.
func (m *Manager) runJob(j *Job, run Runner) {
	defer m.wg.Done()
	select {
	case m.slots <- struct{}{}:
	case <-j.ctx.Done():
		// Cancelled while queued (Cancel already transitioned the state
		// and cleaned up), or the manager is shutting down (leave the
		// queued state and the persisted spec for restart recovery).
		return
	}
	defer func() { <-m.slots }()
	if !j.start() {
		return
	}
	b, err := run(j.ctx, j)
	// Retry policy: transient failures (as classified by Config.Transient)
	// re-run the job after an exponential backoff, as long as the job
	// itself is still live — a cancellation is user intent, never retried.
	// The backoff sleeps on the seam'd clock so tests drive it
	// deterministically.
	for attempt := 0; attempt < m.cfg.Retries && m.retryable(j, err); attempt++ {
		m.totals.Retries.Add(1)
		backoff := DefaultRetryBackoff << attempt
		if backoff > maxRetryBackoff || backoff <= 0 { // <= 0: shift overflow
			backoff = maxRetryBackoff
		}
		if !m.cfg.sleep(j.ctx, backoff) {
			break
		}
		b, err = run(j.ctx, j)
	}
	j.finish(b, err)
}

// retryable reports whether a run error should consume a retry: the
// error must be transient per policy and the job still live (its own
// context intact, the failure not itself a cancellation surfacing as an
// error).
func (m *Manager) retryable(j *Job, err error) bool {
	return err != nil && m.cfg.Transient != nil &&
		j.ctx.Err() == nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		m.cfg.Transient(err)
}

// sleepCtx is the production retry backoff: a real timer, interruptible
// by ctx.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// start transitions queued → running; false when the job was cancelled
// while waiting for its slot.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = j.m.now()
	if j.m.cfg.Dir != "" {
		m := j.m
		j.ckpt = openCheckpoint(m.cfg.Dir, j.id, m.cfg.Faults, func() { m.totals.CheckpointFailures.Add(1) })
	}
	return true
}

// finish records the runner's outcome. A shutdown-cancelled run leaves
// the job as-is (state running, files on disk) so the next process can
// resume it; a Cancel-cancelled run was already transitioned by Cancel.
func (j *Job) finish(b []byte, err error) {
	if j.m.ctx.Err() != nil {
		// Manager shutdown: persisted state must survive for restart.
		j.mu.Lock()
		ck := j.ckpt
		j.ckpt = nil
		j.mu.Unlock()
		ck.close()
		return
	}
	j.mu.Lock()
	if j.state != StateRunning { // cancelled mid-run
		j.mu.Unlock()
		return
	}
	j.finished = j.m.now()
	ck := j.ckpt
	j.ckpt = nil
	if err != nil {
		j.state = StateFailed
		j.err = err
		j.m.totals.Failed.Add(1)
	} else {
		j.state = StateDone
		j.result = b
		j.m.totals.Done.Add(1)
	}
	j.mu.Unlock()
	// Clean up before signalling Done so "the job is finished" implies
	// "its persisted state is gone" — waiters must not observe a terminal
	// job whose files a restart would still recover.
	ck.close()
	j.m.removeFiles(j.id)
	close(j.doneCh)
}

// expiredLocked reports whether a finished job outlived the TTL.
func (m *Manager) expiredLocked(j *Job, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && now.Sub(j.finished) > m.cfg.TTL
}

// evictForLocked makes room for one more job: expired jobs go first,
// then the least recently finished one; with only unfinished jobs left
// the store is genuinely full.
func (m *Manager) evictForLocked(now time.Time) error {
	if len(m.jobs) < m.cfg.MaxJobs {
		return nil
	}
	var oldest *Job
	var oldestFin time.Time
	for _, j := range m.jobs {
		j.mu.Lock()
		terminal, fin := j.state.Terminal(), j.finished
		j.mu.Unlock()
		if !terminal {
			continue
		}
		if now.Sub(fin) > m.cfg.TTL {
			delete(m.jobs, j.id)
			if len(m.jobs) < m.cfg.MaxJobs {
				return nil
			}
			continue
		}
		if oldest == nil || fin.Before(oldestFin) {
			oldest, oldestFin = j, fin
		}
	}
	if len(m.jobs) < m.cfg.MaxJobs {
		return nil
	}
	if oldest == nil {
		return ErrStoreFull
	}
	delete(m.jobs, oldest.id)
	return nil
}

// gcLoop periodically evicts expired jobs so the store does not pin
// memory between requests.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	period := m.cfg.TTL / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	if period > time.Minute {
		period = time.Minute
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			now := m.now()
			m.mu.Lock()
			for id, j := range m.jobs {
				if m.expiredLocked(j, now) {
					delete(m.jobs, id)
				}
			}
			m.mu.Unlock()
		}
	}
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
