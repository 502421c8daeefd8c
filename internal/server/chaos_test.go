package server

// Chaos tests for the service-level robustness features: AllowPartial
// degradation at the HTTP boundary, panic-isolation metrics, the
// server-side failpoint, the job retry policy end to end, and the
// transient-error classifier.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jobs"
)

// partialEnvelope is the slice of AdviseResponse the chaos tests care
// about.
type partialEnvelope struct {
	Partial           bool `json:"partial"`
	FaultedCandidates int  `json:"faultedCandidates"`
	Coverage          *struct {
		Evaluated int `json:"evaluated"`
		Skipped   int `json:"skipped"`
		Remaining int `json:"remaining"`
	} `json:"coverage"`
}

// TestAllowPartialDeadlineReturns200: with AllowPartial on, a request
// deadline that expires mid-advisory degrades to 200 + "partial": true +
// coverage instead of 504, and the degraded response never enters the
// cache.
func TestAllowPartialDeadlineReturns200(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		RequestTimeout: time.Nanosecond, // dead on arrival: maximal degradation
		AllowPartial:   true,
	})
	// The evaluation context is cancelled only once the flight's last
	// waiter departs, and a fast pipeline could otherwise price every
	// candidate before that happens. Holding the leader until the
	// cancellation lands makes the deadline expire mid-advisory.
	srv.evalHook = func(ctx context.Context) { <-ctx.Done() }
	for i := 0; i < 2; i++ {
		code, state, body := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
		if code != http.StatusOK {
			t.Fatalf("request %d: %d %s, want 200", i, code, body)
		}
		var env partialEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("request %d: %v in %s", i, err, body)
		}
		if !env.Partial || env.Coverage == nil {
			t.Fatalf("request %d: degraded response lacks partial/coverage: %s", i, body)
		}
		if env.Coverage.Remaining <= 0 {
			t.Fatalf("request %d: partial response claims full coverage: %s", i, body)
		}
		// Timing-dependent bytes must never be replayed from the cache.
		if state == "hit" {
			t.Fatalf("request %d served a partial response from the cache", i)
		}
	}
	m := metrics(t, srv)
	if m["warlockd_advise_cache_entries"] != 0 {
		t.Fatalf("partial responses were cached: %+v", m)
	}
	if m["warlockd_timeouts_total"] != 0 {
		t.Fatalf("degraded requests still counted as timeouts: %+v", m)
	}
}

// TestAllowPartialCompleteRunByteIdentical: without deadline pressure the
// flag is unobservable — the response bytes match a server that never
// heard of AllowPartial, carry no partial/coverage fields, and cache
// normally.
func TestAllowPartialCompleteRunByteIdentical(t *testing.T) {
	doc := encodeDoc(t, tinyDoc(100_000))
	_, plainTS := newTestServer(t, Config{})
	srv, partialTS := newTestServer(t, Config{AllowPartial: true})

	_, _, want := post(t, plainTS, "/v1/advise", doc)
	code, _, got := post(t, partialTS, "/v1/advise", doc)
	if code != http.StatusOK {
		t.Fatalf("advise: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AllowPartial changed a complete run's bytes:\n%s\nvs\n%s", got, want)
	}
	if strings.Contains(string(got), `"partial"`) {
		t.Fatalf("complete response leaked the partial field: %s", got)
	}
	if m := metrics(t, srv); m["warlockd_advise_cache_entries"] != 1 {
		t.Fatalf("complete AllowPartial response not cached: %+v", m)
	}
}

// TestEvalPanicsSurfaceInResponseAndMetrics: a panic injected into one
// candidate evaluation shows up as faultedCandidates in the response and
// on warlockd_eval_panics_total — while the advisory itself completes
// with 200.
func TestEvalPanicsSurfaceInResponseAndMetrics(t *testing.T) {
	reg := faults.New()
	// Exactly the first evaluated candidate panics; the rest survive.
	reg.Enable(core.FaultEvaluate, faults.Schedule{Times: 1}, faults.Outcome{
		Panic: "chaos: poisoned candidate",
	})
	srv, ts := newTestServer(t, Config{Faults: reg})

	code, _, body := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
	if code != http.StatusOK {
		t.Fatalf("advise with poisoned candidate: %d %s, want 200", code, body)
	}
	var env partialEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.FaultedCandidates != 1 {
		t.Fatalf("faultedCandidates = %d, want 1: %s", env.FaultedCandidates, body)
	}
	if env.Partial {
		t.Fatalf("panic isolation marked the run partial: %s", body)
	}
	if got := metrics(t, srv)["warlockd_eval_panics_total"]; got != 1 {
		t.Fatalf("warlockd_eval_panics_total = %d, want 1", got)
	}
}

// TestServerEvaluateFailpoint: the service-level failpoint (fired after
// slot acquisition, before the pipeline) fails the request cleanly as a
// classified 500; once the schedule is exhausted the same document
// evaluates normally.
func TestServerEvaluateFailpoint(t *testing.T) {
	reg := faults.New()
	reg.Enable(FaultEvaluate, faults.Schedule{Times: 1}, faults.Outcome{})
	_, ts := newTestServer(t, Config{Faults: reg})
	doc := encodeDoc(t, tinyDoc(100_000))

	code, _, body := post(t, ts, "/v1/advise", doc)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected failure: %d %s, want 500", code, body)
	}
	if code, _, body := post(t, ts, "/v1/advise", doc); code != http.StatusOK {
		t.Fatalf("after failpoint exhausted: %d %s, want 200", code, body)
	}
}

// TestJobRetryRecoversTransientFailure: a job whose first attempt dies on
// an injected (transient) fault is retried by the manager and succeeds;
// the retry shows on warlockd_job_retries_total.
func TestJobRetryRecoversTransientFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("retry backoff sleeps ~1s")
	}
	reg := faults.New()
	reg.Enable(FaultEvaluate, faults.Schedule{Times: 1}, faults.Outcome{})
	srv, ts := newTestServer(t, Config{Faults: reg, JobRetries: 2})

	var receipt JobSubmitResponse
	resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", encodeDoc(t, tinyDoc(100_000)), &receipt)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	st := waitJob(t, ts, receipt.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q), want done after retry", st.State, st.Error)
	}
	if got := metrics(t, srv)["warlockd_job_retries_total"]; got != 1 {
		t.Fatalf("Jobs.Retries = %d, want 1", got)
	}
	mResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(buf.String(), "warlockd_job_retries_total 1") {
		t.Fatalf("metrics exposition missing retry count:\n%s", buf.String())
	}
}

// TestJobCrashResumeByteIdentical: a daemon that dies mid-sweep — with
// its final checkpoint line torn mid-write, the exact crash shape — is
// restarted on the same directory; the resumed job replays the
// checkpointed scenarios and its result is byte-identical to an
// uninterrupted synchronous sweep.
func TestJobCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := encodeSweepDoc(t, tinySweepDoc(100_000))

	// Slow every checkpoint append after the first so the "crash" lands
	// deterministically between the first and the last scenario.
	reg := faults.New()
	reg.Enable(jobs.FaultCkptAppend, faults.Schedule{AfterK: 1},
		faults.Outcome{Delay: 300 * time.Millisecond})
	srvA := New(Config{JobsDir: dir, Faults: reg})
	tsA := httptest.NewServer(srvA)

	var receipt JobSubmitResponse
	if resp := jobRequest(t, tsA, http.MethodPost, "/v1/jobs", spec, &receipt); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st jobs.Status
		jobRequest(t, tsA, http.MethodGet, "/v1/jobs/"+receipt.ID, nil, &st)
		if st.Progress.ScenariosDone >= 1 {
			if st.State.Terminal() {
				t.Fatalf("job finished (%s) before the crash could land", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed a scenario")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsA.Close()
	srvA.Close() // manager shutdown: persisted state survives for restart

	// Tear the checkpoint tail the way a crash mid-write would: a partial
	// line with no newline. Recovery must drop it silently.
	f, err := os.OpenFile(filepath.Join(dir, receipt.ID+".ckpt"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":3,"v":{"resp`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart on the same directory: the job resumes, finishes, and its
	// bytes match an uninterrupted synchronous sweep exactly.
	_, tsB := newTestServer(t, Config{JobsDir: dir})
	st := waitJob(t, tsB, receipt.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job state = %s (error %q)", st.State, st.Error)
	}
	if st.Progress.ScenariosResumed == 0 {
		t.Fatalf("restart re-ran everything instead of resuming: %+v", st.Progress)
	}
	resp, err := tsB.Client().Get(tsB.URL + "/v1/jobs/" + receipt.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, got.Bytes())
	}

	_, tsC := newTestServer(t, Config{})
	code, _, want := post(t, tsC, "/v1/sweep", spec)
	if code != http.StatusOK {
		t.Fatalf("sync sweep: %d", code)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("crash-resumed result differs from uninterrupted sweep:\n%s\nvs\n%s", got.Bytes(), want)
	}
}

// TestTransientJobErrorClassification pins the retry policy: overload,
// injected faults and filesystem errors retry; deterministic document
// failures and cancellations never do.
func TestTransientJobErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"bad config", fmt.Errorf("parse: %w", config.ErrBadConfig), false},
		{"no feasible", fmt.Errorf("advise: %w", core.ErrNoFeasible), false},
		{"shed", errShed, true},
		{"queue timeout", errQueueTimeout, true},
		{"injected", fmt.Errorf("hook: %w", faults.ErrInjected), true},
		{"path error", &os.PathError{Op: "open", Path: "x", Err: syscall.ENOSPC}, true},
		{"syscall error", os.NewSyscallError("write", syscall.EIO), true},
		{"cancelled", context.Canceled, false},
		{"unknown", errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := transientJobError(c.err); got != c.want {
			t.Errorf("transientJobError(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
