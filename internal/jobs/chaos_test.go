package jobs

// Chaos suite for the job manager's robustness features: the transient-
// failure retry policy (deterministic backoff on the test seam), the
// persistence failpoints, and checkpoint corruption recovery.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// recordedSleep is the deterministic retry-backoff seam: it records every
// requested delay and returns immediately.
type recordedSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *recordedSleep) sleep(ctx context.Context, d time.Duration) bool {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
	return ctx.Err() == nil
}

func (r *recordedSleep) snapshot() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.delays...)
}

var errFlaky = errors.New("flaky backend")

func transientTest(err error) bool {
	return errors.Is(err, errFlaky) || faults.Injected(err)
}

// TestRetryTransientFailure: a runner that fails transiently twice and
// then succeeds is retried with exponential backoff and finishes done.
func TestRetryTransientFailure(t *testing.T) {
	sl := &recordedSleep{}
	m := newTestManager(t, Config{
		Retries:   5,
		Transient: transientTest, sleep: sl.sleep,
	})
	attempts := 0
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "flaky", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			attempts++
			if attempts <= 2 {
				return nil, fmt.Errorf("attempt %d: %w", attempts, errFlaky)
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	b, jerr, ok := j.Result()
	if !ok || jerr != nil || string(b) != "ok" {
		t.Fatalf("result = %q, %v, %v", b, jerr, ok)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if got := m.Totals().Retries.Load(); got != 2 {
		t.Fatalf("Totals.Retries = %d, want 2", got)
	}
	if got, want := sl.snapshot(), []time.Duration{time.Second, 2 * time.Second}; !slices.Equal(got, want) {
		t.Fatalf("backoffs = %v, want %v", got, want)
	}
}

// TestRetryExhaustion: a persistently transient failure burns every
// retry and then fails for good with the last error.
func TestRetryExhaustion(t *testing.T) {
	sl := &recordedSleep{}
	m := newTestManager(t, Config{
		Retries:   3,
		Transient: transientTest, sleep: sl.sleep,
	})
	attempts := 0
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "doomed", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			attempts++
			return nil, errFlaky
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if _, jerr, _ := j.Result(); !errors.Is(jerr, errFlaky) {
		t.Fatalf("final error = %v", jerr)
	}
	if attempts != 4 { // initial run + 3 retries
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if got := m.Totals().Retries.Load(); got != 3 {
		t.Fatalf("Totals.Retries = %d, want 3", got)
	}
	if got, want := sl.snapshot(), []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}; !slices.Equal(got, want) {
		t.Fatalf("backoffs = %v, want %v", got, want)
	}
}

// TestRetrySkipsPermanentFailures: errors the policy does not classify
// as transient fail immediately, consuming no retries.
func TestRetrySkipsPermanentFailures(t *testing.T) {
	m := newTestManager(t, Config{
		Retries: 3, Transient: transientTest,
		sleep: func(context.Context, time.Duration) bool {
			t.Error("backoff slept for a permanent failure")
			return true
		},
	})
	attempts := 0
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "perm", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			attempts++
			return nil, errors.New("bad config")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if attempts != 1 || m.Totals().Retries.Load() != 0 {
		t.Fatalf("attempts = %d retries = %d, want 1/0", attempts, m.Totals().Retries.Load())
	}
}

// TestRetrySkipsCancellation: a failure that is (or rides on) a
// cancellation is user intent, never retried — even when the policy
// would call it transient.
func TestRetrySkipsCancellation(t *testing.T) {
	m := newTestManager(t, Config{
		Retries:   3,
		Transient: func(error) bool { return true },
		sleep: func(context.Context, time.Duration) bool {
			t.Error("backoff slept for a cancellation")
			return true
		},
	})
	attempts := 0
	j, _, err := m.Submit(Request{
		Kind: "advise", ID: "ctxerr", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			attempts++
			return nil, fmt.Errorf("wrapped: %w", context.Canceled)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if attempts != 1 || m.Totals().Retries.Load() != 0 {
		t.Fatalf("attempts = %d retries = %d, want 1/0", attempts, m.Totals().Retries.Load())
	}
}

// TestSpecWriteFaultFailsSubmission: an injected submission-persistence
// failure surfaces as a submission error (durability is a contract, not
// a best effort) and leaves no half-registered job behind.
func TestSpecWriteFaultFailsSubmission(t *testing.T) {
	dir := t.TempDir()
	reg := faults.New()
	reg.Enable(FaultSpecWrite, faults.Schedule{Times: 1}, faults.Outcome{})
	m := newTestManager(t, Config{Dir: dir, Faults: reg})
	_, _, err := m.Submit(Request{
		Kind: "advise", ID: "nospec", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte("x"), nil },
	})
	if !faults.Injected(err) {
		t.Fatalf("submission error = %v, want injected", err)
	}
	if m.Len() != 0 {
		t.Fatal("failed submission left a job in the store")
	}
	// The failpoint fired its single shot; the identical re-submission
	// succeeds — the failure was transient, the store is consistent.
	j, created, err := m.Submit(Request{
		Kind: "advise", ID: "nospec", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) { return []byte("x"), nil },
	})
	if err != nil || !created {
		t.Fatalf("re-submission: created=%v err=%v", created, err)
	}
	wait(t, j)
}

// TestCheckpointFaultsCounted: injected checkpoint-append failures are
// swallowed (the job succeeds) but counted on Totals.CheckpointFailures,
// and the lost lines are simply absent from recovery.
func TestCheckpointFaultsCounted(t *testing.T) {
	dir := t.TempDir()
	reg := faults.New()
	// Fail the 2nd append only.
	reg.Enable(FaultCkptAppend, faults.Schedule{AfterK: 1, Times: 1}, faults.Outcome{})
	m := New(Config{Dir: dir, Faults: reg})
	started := make(chan struct{})
	_, _, err := m.Submit(Request{
		Kind: "sweep", ID: "ck", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			j.Checkpoint(0, map[string]int{"w": 1})
			j.Checkpoint(1, map[string]int{"w": 2}) // injected away
			j.Checkpoint(2, map[string]int{"w": 3})
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if got := m.Totals().CheckpointFailures.Load(); got != 1 {
		t.Fatalf("CheckpointFailures = %d, want 1", got)
	}
	m.Close() // shutdown: files survive
	pending, errs := LoadPending(dir)
	if len(errs) != 0 || len(pending) != 1 {
		t.Fatalf("pending=%d errs=%v", len(pending), errs)
	}
	r := pending[0].Resume
	if len(r) != 2 || r[0] == nil || r[2] == nil || r[1] != nil {
		t.Fatalf("resume keys = %v, want {0,2}", keysOf(r))
	}
}

// TestTornCheckpointRecovery: a torn final checkpoint line — injected
// with the Torn outcome, the exact shape a crash mid-write leaves — is
// silently dropped on recovery; every line before it survives.
func TestTornCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := faults.New()
	reg.Enable(FaultCkptAppend, faults.Schedule{AfterK: 2, Times: 1}, faults.Outcome{Torn: 0.4})
	m := New(Config{Dir: dir, Faults: reg})
	started := make(chan struct{})
	_, _, err := m.Submit(Request{
		Kind: "sweep", ID: "torn", Spec: []byte(`{}`),
		Run: func(ctx context.Context, j *Job) ([]byte, error) {
			j.Checkpoint(0, map[string]int{"w": 1})
			j.Checkpoint(1, map[string]int{"w": 2})
			j.Checkpoint(2, map[string]int{"w": 3}) // torn mid-write
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.Close()
	// The file must literally end in a torn (newline-less, undecodable)
	// fragment of line 3.
	raw, err := os.ReadFile(filepath.Join(dir, "torn"+ckptExt))
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(string(raw), "\n") || strings.Count(string(raw), "\n") != 2 {
		t.Fatalf("torn file shape wrong: %q", raw)
	}
	pending, errs := LoadPending(dir)
	if len(errs) != 0 {
		t.Fatalf("a torn FINAL line must recover silently, got %v", errs)
	}
	if len(pending) != 1 || len(pending[0].Resume) != 2 {
		t.Fatalf("resume = %v, want keys {0,1}", keysOf(pending[0].Resume))
	}
}

// TestCorruptMiddleCheckpointLine: corruption in the middle of a
// checkpoint file — not the torn-final-write crash shape — is reported
// and skipped; the corrupt scenario just re-runs.
func TestCorruptMiddleCheckpointLine(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("mid.job", `{"kind":"sweep","spec":{"base":{}}}`)
	write("mid.ckpt", "{\"k\":0,\"v\":{\"a\":1}}\nGARBAGE NOT JSON\n{\"k\":2,\"v\":{\"a\":3}}\n")

	pending, errs := LoadPending(dir)
	if len(pending) != 1 {
		t.Fatalf("pending = %+v", pending)
	}
	r := pending[0].Resume
	if len(r) != 2 || r[0] == nil || r[2] == nil {
		t.Fatalf("resume keys = %v, want {0,2}", keysOf(r))
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "corrupt checkpoint line 2") {
		t.Fatalf("errs = %v, want one corrupt-line warning", errs)
	}
}

func keysOf[V any](m map[int]V) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
