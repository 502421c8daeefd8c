package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic time source for TTL/eviction tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func wait(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

func TestSubmitRunResult(t *testing.T) {
	m := newTestManager(t, Config{})
	j, created, err := m.Submit(Request{
		Kind: "advise", ID: "fp1", Spec: []byte(`{"x":1}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			j.Update(func(p *Progress) { p.ScenariosDone, p.ScenariosTotal = 1, 1 })
			j.AddScenarios(1)
			return []byte("body"), nil
		},
	})
	if err != nil || !created {
		t.Fatalf("Submit: created=%v err=%v", created, err)
	}
	wait(t, j)
	b, err, ok := j.Result()
	if !ok || err != nil || string(b) != "body" {
		t.Fatalf("Result = %q, %v, %v", b, err, ok)
	}
	st := j.Status()
	if st.State != StateDone || st.Kind != "advise" || st.ID != "fp1" {
		t.Fatalf("status: %+v", st)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("missing lifecycle timestamps: %+v", st)
	}
	if st.Progress.ScenariosDone != 1 || st.Progress.ScenariosTotal != 1 {
		t.Fatalf("progress: %+v", st.Progress)
	}
	tot := m.Totals()
	if tot.Submitted.Load() != 1 || tot.Done.Load() != 1 || tot.ScenariosCompleted.Load() != 1 ||
		m.Count(StateRunning) != 0 || m.Count(StateQueued) != 0 {
		t.Fatalf("totals: submitted=%d done=%d scenarios=%d running=%d queued=%d",
			tot.Submitted.Load(), tot.Done.Load(), tot.ScenariosCompleted.Load(),
			m.Count(StateRunning), m.Count(StateQueued))
	}
}

func TestSubmitFailure(t *testing.T) {
	m := newTestManager(t, Config{})
	boom := errors.New("boom")
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "fp-fail",
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return nil, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if _, rerr, ok := j.Result(); !ok || !errors.Is(rerr, boom) {
		t.Fatalf("Result err = %v, ok=%v", rerr, ok)
	}
	if st := j.Status(); st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("status: %+v", st)
	}
	if got := m.Totals().Failed.Load(); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}

func TestCoalesce(t *testing.T) {
	m := newTestManager(t, Config{})
	release := make(chan struct{})
	run := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("r"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	j1, created, err := m.Submit(Request{Kind: "sweep", ID: "same", Run: run})
	if err != nil || !created {
		t.Fatalf("first: created=%v err=%v", created, err)
	}
	j2, created, err := m.Submit(Request{Kind: "sweep", ID: "same", Run: run})
	if err != nil || created {
		t.Fatalf("second: created=%v err=%v", created, err)
	}
	if j1 != j2 {
		t.Fatal("coalesced submission returned a different job")
	}
	close(release)
	wait(t, j1)
	// A finished (unexpired) job still coalesces: the result is cached.
	j3, created, err := m.Submit(Request{Kind: "sweep", ID: "same", Run: run})
	if err != nil || created || j3 != j1 {
		t.Fatalf("post-finish: created=%v err=%v same=%v", created, err, j3 == j1)
	}
	if tot := m.Totals(); tot.Submitted.Load() != 1 || tot.Coalesced.Load() != 2 {
		t.Fatalf("submitted=%d coalesced=%d, want 1/2", tot.Submitted.Load(), tot.Coalesced.Load())
	}
}

func TestCancelRunning(t *testing.T) {
	m := newTestManager(t, Config{})
	started := make(chan struct{})
	stopped := make(chan struct{})
	j, _, err := m.Submit(Request{
		Kind: "sweep", ID: "c1",
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			close(started)
			<-ctx.Done()
			close(stopped)
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cj, ok := m.Cancel("c1")
	if !ok || cj != j {
		t.Fatalf("Cancel: ok=%v", ok)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("runner did not observe cancellation")
	}
	wait(t, j)
	if j.State() != StateCancelled {
		t.Fatalf("state = %s", j.State())
	}
	if _, err, ok := j.Result(); !ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v ok=%v", err, ok)
	}
	if got := m.Totals().Cancelled.Load(); got != 1 || m.Count(StateRunning) != 0 {
		t.Fatalf("cancelled = %d running = %d, want 1/0", got, m.Count(StateRunning))
	}
	// Resubmission after an explicit cancel starts a fresh run.
	j2, created, err := m.Submit(Request{
		Kind: "sweep", ID: "c1",
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte("again"), nil },
	})
	if err != nil || !created || j2 == j {
		t.Fatalf("resubmit after cancel: created=%v err=%v fresh=%v", created, err, j2 != j)
	}
	wait(t, j2)
	if b, _, _ := j2.Result(); string(b) != "again" {
		t.Fatalf("resubmitted result = %q", b)
	}
}

func TestCancelQueued(t *testing.T) {
	// MaxRunning 1: the second job is stuck waiting for a slot when
	// cancelled, so its Runner must never run.
	m := newTestManager(t, Config{MaxRunning: 1})
	release := make(chan struct{})
	_, _, err := m.Submit(Request{
		Kind: "sweep", ID: "hog",
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte("r"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	q, _, err := m.Submit(Request{
		Kind: "sweep", ID: "queued",
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			close(ran)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.State() != StateQueued {
		t.Fatalf("state = %s", q.State())
	}
	if _, ok := m.Cancel("queued"); !ok {
		t.Fatal("Cancel queued job")
	}
	wait(t, q)
	if q.State() != StateCancelled {
		t.Fatalf("state = %s", q.State())
	}
	close(release)
	select {
	case <-ran:
		t.Fatal("cancelled queued job still ran")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, Config{TTL: time.Minute, now: clk.now})
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "ttl",
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte("r"), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if _, ok := m.Get("ttl"); !ok {
		t.Fatal("finished job should be queryable before TTL")
	}
	clk.advance(time.Minute + time.Second)
	if _, ok := m.Get("ttl"); ok {
		t.Fatal("expired job still queryable")
	}
	// An expired id accepts a fresh submission instead of coalescing.
	j2, created, err := m.Submit(Request{
		Kind: "advise", ID: "ttl",
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte("r2"), nil },
	})
	if err != nil || !created {
		t.Fatalf("resubmit after expiry: created=%v err=%v", created, err)
	}
	wait(t, j2)
}

func TestEvictionAndStoreFull(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, Config{TTL: time.Hour, MaxJobs: 2, MaxRunning: 2, now: clk.now})
	done := func(id string) *Job {
		j, _, err := m.Submit(Request{
			Kind: "advise", ID: id,
			Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte(id), nil },
		})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		wait(t, j)
		return j
	}
	done("a")
	clk.advance(time.Second) // "a" is the least recently finished
	done("b")
	clk.advance(time.Second)
	done("c") // evicts "a"
	if _, ok := m.Get("a"); ok {
		t.Fatal("least recently finished job not evicted")
	}
	if _, ok := m.Get("b"); !ok {
		t.Fatal("newer finished job evicted")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}

	// Fill the store with running jobs: nothing evictable → ErrStoreFull.
	release := make(chan struct{})
	blocker := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	for _, id := range []string{"r1", "r2"} {
		if _, _, err := m.Submit(Request{Kind: "sweep", ID: id, Run: blocker}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	if _, _, err := m.Submit(Request{Kind: "sweep", ID: "r3", Run: blocker}); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("err = %v, want ErrStoreFull", err)
	}
	close(release)
}

func TestPersistLoadPendingRoundtrip(t *testing.T) {
	dir := t.TempDir()
	spec := []byte(`{"base":{"rows":1}}`)
	m := New(Config{Dir: dir, MaxRunning: 1})
	started := make(chan struct{})
	j, _, err := m.Submit(Request{
		Kind: "sweep", ID: "pend", Spec: spec,
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			j.Checkpoint(0, map[string]int{"winner": 1})
			j.Checkpoint(3, map[string]int{"winner": 2})
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.Close() // shutdown, not cancel: files must survive
	select {
	case <-j.Done():
		t.Fatal("shutdown must not mark the job terminal")
	default:
	}

	pending, errs := LoadPending(dir)
	if len(errs) != 0 {
		t.Fatalf("LoadPending errs: %v", errs)
	}
	if len(pending) != 1 {
		t.Fatalf("pending = %d jobs", len(pending))
	}
	p := pending[0]
	if p.ID != "pend" || p.Kind != "sweep" || string(p.Spec) != string(spec) {
		t.Fatalf("pending: %+v", p)
	}
	if len(p.Resume) != 2 {
		t.Fatalf("resume checkpoints = %d", len(p.Resume))
	}
	var v struct{ Winner int }
	if err := json.Unmarshal(p.Resume[3], &v); err != nil || v.Winner != 2 {
		t.Fatalf("checkpoint 3 = %s (%v)", p.Resume[3], err)
	}

	// Re-submission with the recovered checkpoints hands them to the job.
	m2 := newTestManager(t, Config{Dir: dir})
	j2, _, err := m2.Submit(Request{
		Kind: p.Kind, ID: p.ID, Spec: p.Spec, Resume: p.Resume,
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			if got := j.ResumeCheckpoints(); len(got) != 2 {
				t.Errorf("runner saw %d checkpoints", len(got))
			}
			return []byte("resumed"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	// Terminal in a live process: persisted state is gone.
	if _, err := os.Stat(filepath.Join(dir, "pend"+specExt)); !os.IsNotExist(err) {
		t.Fatalf("spec file survives completion: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "pend"+ckptExt)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survives completion: %v", err)
	}
}

func TestLoadPendingTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("ok.job", `{"kind":"sweep","spec":{"base":{}}}`)
	// Two good lines, then a torn final write.
	write("ok.ckpt", "{\"k\":0,\"v\":{\"a\":1}}\n{\"k\":1,\"v\":{\"a\":2}}\n{\"k\":2,\"v\":{\"a\"")
	write("corrupt.job", `{"kind":`)

	pending, errs := LoadPending(dir)
	if len(pending) != 1 || pending[0].ID != "ok" {
		t.Fatalf("pending: %+v", pending)
	}
	if len(pending[0].Resume) != 2 {
		t.Fatalf("resume = %d entries, want 2 (torn line dropped)", len(pending[0].Resume))
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "corrupt.job") {
		t.Fatalf("errs: %v", errs)
	}
}

func TestCancelRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	started := make(chan struct{})
	_, _, err := m.Submit(Request{
		Kind: "sweep", ID: "gone", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			j.Checkpoint(0, 1)
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := m.Cancel("gone"); !ok {
		t.Fatal("Cancel")
	}
	for _, ext := range []string{specExt, ckptExt} {
		if _, err := os.Stat(filepath.Join(dir, "gone"+ext)); !os.IsNotExist(err) {
			t.Fatalf("%s file survives user cancel: %v", ext, err)
		}
	}
	if pending, _ := LoadPending(dir); len(pending) != 0 {
		t.Fatalf("cancelled job recoverable: %+v", pending)
	}
}

func TestMaxRunningSerializes(t *testing.T) {
	m := newTestManager(t, Config{MaxRunning: 1})
	var mu sync.Mutex
	running, peak := 0, 0
	run := func(ctx context.Context, j *Job) ([]byte, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return nil, nil
	}
	var js []*Job
	for _, id := range []string{"s1", "s2", "s3"} {
		j, _, err := m.Submit(Request{Kind: "advise", ID: id, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		wait(t, j)
	}
	if peak != 1 {
		t.Fatalf("peak concurrency = %d, want 1", peak)
	}
}
