package server

// Tests for the asynchronous job API and the structured error layer:
// lifecycle (submit → progress → result == synchronous bytes), coalescing,
// cancellation mid-run, restart recovery from persisted checkpoints,
// Retry-After computation, and Accept-negotiated error envelopes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/sweep"
)

// tinySweepDoc wraps tinyDoc in a small 4-scenario grid.
func tinySweepDoc(rows int64) *config.SweepDoc {
	return &config.SweepDoc{
		Base: *tinyDoc(rows),
		Grid: config.GridDoc{
			Disks: []int{2, 4},
			MixScales: []config.MixScaleDoc{
				{Name: "base"},
				{Name: "boost-Q2", Factors: map[string]float64{"Q2": 4}},
			},
		},
		ResponseTargetMs: 500,
	}
}

func encodeSweepDoc(t *testing.T, d *config.SweepDoc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jobRequest issues one request against the job API and decodes the JSON
// body into out (when non-nil).
func jobRequest(t *testing.T, ts *httptest.Server, method, path string, body []byte, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp
}

// waitJob polls a job until it reaches a terminal state, asserting along
// the way that the reported progress only ever grows.
func waitJob(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	prevDone := -1
	for {
		var st jobs.Status
		resp := jobRequest(t, ts, http.MethodGet, "/v1/jobs/"+id, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d", resp.StatusCode)
		}
		if st.Progress.ScenariosDone < prevDone {
			t.Fatalf("progress went backwards: %d then %d", prevDone, st.Progress.ScenariosDone)
		}
		prevDone = st.Progress.ScenariosDone
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		depth    int64
		maxQueue int
		want     int
	}{
		{0, 100, 1},    // empty queue: historical floor
		{5, 0, 1},      // unbounded queue: no fill fraction to scale by
		{-3, 100, 1},   // defensive: negative depth
		{1, 100, 1},    // near-empty rounds up to the floor
		{50, 100, 15},  // half-full queue → half the cap
		{100, 100, 30}, // full queue → cap
		{500, 100, 30}, // over-full clamps to cap
		{1, 1, 30},     // tiny queue saturates immediately
		{33, 100, 10},  // ceiling division: 33*30/100 = 9.9 → 10
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.depth, c.maxQueue); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d) = %d, want %d", c.depth, c.maxQueue, got, c.want)
		}
	}
}

func TestErrorEnvelopeNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	send := func(accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// No Accept header (and the permissive */*): legacy shape, a plain
	// string under "error" — existing clients see exactly what they did
	// before the envelope existed.
	for _, accept := range []string{"", "*/*", "text/html"} {
		resp, body := send(accept)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("Accept=%q: status %d", accept, resp.StatusCode)
		}
		var legacy struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &legacy); err != nil || legacy.Error == "" {
			t.Fatalf("Accept=%q: legacy body = %s (%v)", accept, body, err)
		}
		if bytes.Contains(body, []byte(`"code"`)) {
			t.Fatalf("Accept=%q: legacy client got the envelope: %s", accept, body)
		}
	}

	// Accept naming application/json (alone, in a list, or as a +json
	// suffix): structured envelope.
	for _, accept := range []string{
		"application/json",
		"text/html, application/json;q=0.9",
		"application/problem+json",
	} {
		resp, body := send(accept)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("Accept=%q: status %d", accept, resp.StatusCode)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("Accept=%q: envelope body = %s (%v)", accept, body, err)
		}
		if env.Error.Code != CodeBadRequest || env.Error.Message == "" {
			t.Fatalf("Accept=%q: envelope = %+v", accept, env)
		}
	}
}

func TestShedRetryAfterScalesWithQueueDepth(t *testing.T) {
	// MaxQueue 4 with the semaphore held: each parked request deepens the
	// queue, so successive shed responses must carry growing hints.
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4})
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv.evalHook = func(ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer close(release)

	postAsync := func(doc []byte) {
		go func() {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise", bytes.NewReader(doc))
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	postAsync(encodeDoc(t, tinyDoc(100_000)))
	select {
	case <-entered: // leader holds the only slot
	case <-time.After(10 * time.Second):
		t.Fatal("leader never started evaluating")
	}

	// Park four distinct documents in the queue (distinct fingerprints so
	// nothing coalesces), waiting on the live depth gauge so the probe
	// below cannot itself end up parked.
	for i := 0; i < 4; i++ {
		postAsync(encodeDoc(t, tinyDoc(int64(200_000+i))))
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.queued.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", srv.queued.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise", bytes.NewReader(encodeDoc(t, tinyDoc(999_999))))
	req.Header.Set("Accept", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error errorBody `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeShed {
		t.Fatalf("probe beyond capacity: status %d code %q", resp.StatusCode, env.Error.Code)
	}
	var hint int
	fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &hint)
	if env.Error.RetryAfterSecs != hint {
		t.Fatalf("envelope hint %d != header %d", env.Error.RetryAfterSecs, hint)
	}
	// Depth 4 of 4 → the full-queue cap, not the historical constant 1s.
	if hint != maxRetryAfterSecs {
		t.Fatalf("full-queue Retry-After = %d, want %d", hint, maxRetryAfterSecs)
	}
}

func TestJobAdviseLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doc := encodeDoc(t, tinyDoc(100_000))

	var receipt JobSubmitResponse
	resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", doc, &receipt)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if receipt.Kind != kindAdvise || receipt.Coalesced || receipt.ID == "" {
		t.Fatalf("receipt: %+v", receipt)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+receipt.ID {
		t.Fatalf("Location = %q", loc)
	}

	st := waitJob(t, ts, receipt.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	if st.Progress.ScenariosDone != 1 || st.Progress.ScenariosTotal != 1 {
		t.Fatalf("progress: %+v", st.Progress)
	}
	// The job reports the prune split the daemon counted for its advisory.
	m := metrics(t, srv)
	if p := st.Progress; p.PruneEvaluated == 0 || int64(p.PruneEvaluated) != m["warlockd_prune_evaluated_total"] ||
		int64(p.PruneSkipped) != m["warlockd_prune_skipped_total"] {
		t.Fatalf("job progress prune %d/%d, metrics %d/%d", p.PruneEvaluated, p.PruneSkipped,
			m["warlockd_prune_evaluated_total"], m["warlockd_prune_skipped_total"])
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", st)
	}

	var jobBody []byte
	{
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + receipt.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", resp.StatusCode, buf.Bytes())
		}
		jobBody = buf.Bytes()
	}

	// The job result must be byte-identical to the synchronous endpoint.
	code, state, syncBody := post(t, ts, "/v1/advise", doc)
	if code != http.StatusOK {
		t.Fatalf("sync advise: %d", code)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("job result differs from sync response:\n%s\nvs\n%s", jobBody, syncBody)
	}
	// And since the job populated the response cache, the sync request
	// must have been a cache hit — no recomputation.
	if state != "hit" {
		t.Fatalf("sync advise after job: cache state %q, want hit", state)
	}

	// Identical resubmission coalesces onto the stored job.
	var again JobSubmitResponse
	if resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", doc, &again); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	if !again.Coalesced || again.ID != receipt.ID || again.State != jobs.StateDone {
		t.Fatalf("resubmit receipt: %+v", again)
	}

	// The list endpoint returns it.
	var list JobListResponse
	jobRequest(t, ts, http.MethodGet, "/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != receipt.ID {
		t.Fatalf("list: %+v", list)
	}

	m = metrics(t, srv)
	if m["warlockd_jobs_submitted_total"] != 1 || m["warlockd_jobs_coalesced_total"] != 1 || m[`warlockd_jobs_total{state="done"}`] != 1 ||
		m["warlockd_job_scenarios_completed_total"] != 1 || m["warlockd_jobs_stored"] != 1 {
		t.Fatalf("job metrics: %v", m)
	}

	// DELETE on a finished job evicts it.
	if resp := jobRequest(t, ts, http.MethodDelete, "/v1/jobs/"+receipt.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := jobRequest(t, ts, http.MethodGet, "/v1/jobs/"+receipt.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}
}

func TestJobSweepLifecycleByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doc := encodeSweepDoc(t, tinySweepDoc(100_000))

	var receipt JobSubmitResponse
	resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", doc, &receipt)
	if resp.StatusCode != http.StatusAccepted || receipt.Kind != kindSweep {
		t.Fatalf("submit: %d %+v", resp.StatusCode, receipt)
	}

	st := waitJob(t, ts, receipt.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	if st.Progress.ScenariosDone != 4 || st.Progress.ScenariosTotal != 4 {
		t.Fatalf("progress: %+v", st.Progress)
	}

	respR, err := ts.Client().Get(ts.URL + "/v1/jobs/" + receipt.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(respR.Body)
	respR.Body.Close()
	if respR.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", respR.StatusCode)
	}

	// Byte-identical to the synchronous sweep on an INDEPENDENT server
	// instance — cross-process determinism, not just a shared cache.
	_, other := newTestServer(t, Config{})
	code, _, syncBody := post(t, other, "/v1/sweep", doc)
	if code != http.StatusOK {
		t.Fatalf("sync sweep: %d", code)
	}
	if !bytes.Equal(buf.Bytes(), syncBody) {
		t.Fatalf("job sweep result differs from independent sync sweep:\n%s\nvs\n%s", buf.Bytes(), syncBody)
	}

	if m := metrics(t, srv); m["warlockd_job_scenarios_completed_total"] != 4 {
		t.Fatalf("scenario counter: %v", m)
	}

	// The metrics endpoint exposes the per-state counters.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`warlockd_jobs_total{state="done"} 1`,
		`warlockd_jobs_submitted_total 1`,
		`warlockd_job_scenarios_completed_total 4`,
		`warlockd_jobs_stored 1`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb.String())
		}
	}
}

func TestJobCancelMidRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// Open the HTTP connection pool before taking the goroutine baseline,
	// so the leak check below sees only the evaluation's goroutines.
	jobRequest(t, ts, http.MethodGet, "/v1/jobs", nil, nil)
	before := runtime.NumGoroutine()
	running := make(chan struct{}, 1)
	srv.evalHook = func(ctx context.Context) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-ctx.Done() // hold the evaluation until cancelled
	}

	doc := encodeSweepDoc(t, tinySweepDoc(100_000))
	var receipt JobSubmitResponse
	if resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", doc, &receipt); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started evaluating")
	}

	var st jobs.Status
	if resp := jobRequest(t, ts, http.MethodDelete, "/v1/jobs/"+receipt.ID, nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if st.State != jobs.StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}

	// The result route reports the cancellation as 410 + code.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+receipt.ID+"/result", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error errorBody `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || env.Error.Code != CodeCancelled {
		t.Fatalf("result after cancel: %d %+v", resp.StatusCode, env)
	}

	// Cancellation must actually stop the pipeline: the job runner, the
	// sweep workers and the evaluation all unwind (goroutine count falls
	// back to roughly the pre-submission baseline; the server's own
	// long-lived goroutines existed before it too).
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+4 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not unwind after cancel: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The evaluation semaphore must be free again: a synchronous request
	// (different document, so no caches help) completes promptly once the
	// hook is disarmed.
	srv.evalHook = nil
	code, _, _ := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(777_777)))
	if code != http.StatusOK {
		t.Fatalf("advise after cancel: %d", code)
	}

	// Cancellation was explicit intent: resubmitting starts a fresh run.
	var again JobSubmitResponse
	if resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", doc, &again); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	if again.Coalesced {
		t.Fatalf("resubmit after cancel coalesced: %+v", again)
	}
	if st := waitJob(t, ts, again.ID); st.State != jobs.StateDone {
		t.Fatalf("rerun state = %s (error %q)", st.State, st.Error)
	}
	if m := metrics(t, srv); m[`warlockd_jobs_total{state="cancelled"}`] != 1 || m[`warlockd_jobs_total{state="done"}`] != 1 {
		t.Fatalf("job metrics: %v", m)
	}
}

// TestJobRestartResume seeds a jobs dir with a persisted submission and
// its first checkpoints — exactly what a killed daemon leaves behind —
// and verifies a fresh server resumes the job, replays the checkpointed
// scenarios instead of re-evaluating them, and produces bytes identical
// to an uninterrupted synchronous sweep. One checkpoint line is in the
// older format that still carried per-scenario diagnostics; the
// restarted server's prune and panic counters must cover only the
// scenarios it evaluated itself.
func TestJobRestartResume(t *testing.T) {
	sd := tinySweepDoc(100_000)
	spec := encodeSweepDoc(t, sd)
	parsed, err := config.ParseSweep(bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	fp := parsed.Fingerprint()

	// Capture real checkpoints by running the sweep directly, the same
	// way the server's job runner would have before the "crash".
	base, grid, target, err := parsed.Canonical().Build()
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[int]json.RawMessage{}
	results := map[int]*core.Result{}
	if _, err := sweep.Run(context.Background(), base, grid, sweep.Options{
		ResponseTarget: target,
		OnScenario: func(p sweep.Progress) {
			b, err := json.Marshal(p.Outcome)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[p.Index], results[p.Index] = b, p.Result
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("grid has %d scenarios, want 4", len(outcomes))
	}

	// Persist the spec and HALF the checkpoints in the documented on-disk
	// format: {id}.job + {id}.ckpt JSONL.
	dir := t.TempDir()
	sf, err := json.Marshal(struct {
		Kind string          `json:"kind"`
		Spec json.RawMessage `json:"spec"`
	}{Kind: kindSweep, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fp+".job"), sf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Scenario 0's line is written in the old format; it must decode to
	// the same Outcome a current checkpoint holds.
	const oldLine = `{"k":0,"v":{"hasResult":true,"pruneEvaluated":4,"pruneSkipped":0,"evalPanics":0,` +
		`"hasWinner":true,"winner":"D1.b","winnerKey":"0:1","fragments":16,"accessNs":97343749,` +
		`"responseNs":97343749,"scheme":"round-robin","capacityOK":true}}`
	var old struct{ V sweep.Outcome }
	var cur sweep.Outcome
	if json.Unmarshal([]byte(oldLine), &old) != nil || json.Unmarshal(outcomes[0], &cur) != nil || old.V != cur {
		t.Fatalf("old-format checkpoint %s no longer matches scenario 0's outcome %s", oldLine, outcomes[0])
	}
	ckpt := bytes.NewBufferString(oldLine + "\n")
	fmt.Fprintf(ckpt, "{\"k\":1,\"v\":%s}\n", outcomes[1])
	if err := os.WriteFile(filepath.Join(dir, fp+".ckpt"), ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon pointed at the directory resumes the job on startup.
	srv, ts := newTestServer(t, Config{JobsDir: dir})
	st := waitJob(t, ts, fp)
	if st.State != jobs.StateDone {
		t.Fatalf("recovered job state = %s (error %q)", st.State, st.Error)
	}
	if st.Kind != kindSweep {
		t.Fatalf("recovered kind = %q", st.Kind)
	}
	if st.Progress.ScenariosResumed == 0 {
		t.Fatalf("no scenarios resumed from checkpoints: %+v", st.Progress)
	}
	if st.Progress.ScenariosDone != st.Progress.ScenariosTotal {
		t.Fatalf("incomplete progress: %+v", st.Progress)
	}
	// Only the non-checkpointed scenarios were actually evaluated, and
	// only they feed the diagnostic counters. Scenarios 2 and 3 are live;
	// their Evaluated/Skipped split is schedule-dependent, their sum
	// (Survivors) is not.
	m := metrics(t, srv)
	if m["warlockd_job_scenarios_completed_total"]+int64(st.Progress.ScenariosResumed) != int64(st.Progress.ScenariosTotal) {
		t.Fatalf("resumed+evaluated != total: counter=%d progress=%+v", m["warlockd_job_scenarios_completed_total"], st.Progress)
	}
	var survivors, panics int64
	for _, i := range []int{2, 3} {
		survivors += int64(results[i].PruneStats.Survivors)
		panics += int64(len(results[i].Faults))
	}
	evaluated, skipped := m["warlockd_prune_evaluated_total"], m["warlockd_prune_skipped_total"]
	if evaluated+skipped != survivors || m["warlockd_eval_panics_total"] != panics {
		t.Fatalf("diagnostics count replayed scenarios: evaluated=%d skipped=%d panics=%d, want evaluated+skipped=%d panics=%d",
			evaluated, skipped, m["warlockd_eval_panics_total"], survivors, panics)
	}
	if p := st.Progress; int64(p.PruneEvaluated) != evaluated || int64(p.PruneSkipped) != skipped {
		t.Fatalf("job progress prune %d/%d, metrics %d/%d", p.PruneEvaluated, p.PruneSkipped, evaluated, skipped)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + fp + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}

	// Byte-identical to an uninterrupted sync sweep on a separate server.
	_, other := newTestServer(t, Config{})
	code, _, want := post(t, other, "/v1/sweep", spec)
	if code != http.StatusOK {
		t.Fatalf("sync sweep: %d", code)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("resumed job result differs from uninterrupted sweep:\n%s\nvs\n%s", got.Bytes(), want)
	}

	// Completion removed the persisted files: nothing left to recover.
	if p, _ := jobs.LoadPending(dir); len(p) != 0 {
		t.Fatalf("files survive completion: %+v", p)
	}
}

func TestJobAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Unparseable document.
	resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", []byte("{nope"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad doc: %d", resp.StatusCode)
	}
	// Unknown forced kind.
	resp = jobRequest(t, ts, http.MethodPost, "/v1/jobs?kind=mystery", encodeDoc(t, tinyDoc(1000)), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", resp.StatusCode)
	}
	// Unknown job id.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		if resp := jobRequest(t, ts, http.MethodGet, path, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	// Unknown sub-route.
	if resp := jobRequest(t, ts, http.MethodGet, "/v1/jobs/x/result/extra", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deep route: %d", resp.StatusCode)
	}
	// Wrong methods.
	if resp := jobRequest(t, ts, http.MethodDelete, "/v1/jobs", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE collection: %d", resp.StatusCode)
	}
	if resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs/abc", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST item: %d", resp.StatusCode)
	}
}

func TestJobResultNotReady(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	defer close(release)
	srv.evalHook = func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	var receipt JobSubmitResponse
	if resp := jobRequest(t, ts, http.MethodPost, "/v1/jobs", encodeDoc(t, tinyDoc(100_000)), &receipt); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+receipt.ID+"/result", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error errorBody `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Error.Code != CodeNotReady {
		t.Fatalf("unfinished result: %d %+v", resp.StatusCode, env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not_ready response missing Retry-After")
	}
}

func TestJobKindSniffing(t *testing.T) {
	if k := sniffKind(encodeDoc(t, tinyDoc(1000))); k != kindAdvise {
		t.Fatalf("advise doc sniffed as %q", k)
	}
	if k := sniffKind(encodeSweepDoc(t, tinySweepDoc(1000))); k != kindSweep {
		t.Fatalf("sweep doc sniffed as %q", k)
	}
	if k := sniffKind([]byte("garbage")); k != kindAdvise {
		t.Fatalf("garbage sniffed as %q", k)
	}
}

// TestJobAnsweredFromCacheReportsFullProgress: a job whose document the
// response cache already holds finishes without evaluating, yet reports
// every scenario done and credits them to the scenario counter, for both
// kinds alike.
func TestJobAnsweredFromCacheReportsFullProgress(t *testing.T) {
	for _, tc := range []struct {
		route     string
		doc       []byte
		scenarios int
	}{
		{"/v1/advise", encodeDoc(t, tinyDoc(100_000)), 1},
		{"/v1/sweep", encodeSweepDoc(t, tinySweepDoc(100_000)), 4},
	} {
		t.Run(strings.TrimPrefix(tc.route, "/v1/"), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			if code, _, _ := post(t, ts, tc.route, tc.doc); code != http.StatusOK {
				t.Fatalf("sync %s: %d", tc.route, code)
			}
			var receipt JobSubmitResponse
			jobRequest(t, ts, http.MethodPost, "/v1/jobs", tc.doc, &receipt)
			st := waitJob(t, ts, receipt.ID)
			if st.State != jobs.StateDone {
				t.Fatalf("state = %s (error %q)", st.State, st.Error)
			}
			if st.Progress.ScenariosDone != tc.scenarios || st.Progress.ScenariosTotal != tc.scenarios {
				t.Fatalf("progress %d/%d, want %d/%d", st.Progress.ScenariosDone,
					st.Progress.ScenariosTotal, tc.scenarios, tc.scenarios)
			}
			m := metrics(t, srv)
			if m["warlockd_evaluations_total"] != 1 {
				t.Fatalf("evaluations = %d: the job was not answered from the cache", m["warlockd_evaluations_total"])
			}
			if m["warlockd_job_scenarios_completed_total"] != int64(tc.scenarios) {
				t.Fatalf("scenarios completed = %d, want %d", m["warlockd_job_scenarios_completed_total"], tc.scenarios)
			}
		})
	}
}

// TestJobResultKeepsOverloadTaxonomy: a job that failed because the
// evaluation queue was overloaded reports that on its result route the
// way the synchronous routes do — 503 with the shed or queue_timeout code
// and a Retry-After hint — without counting into the synchronous
// overload counters.
func TestJobResultKeepsOverloadTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		queued int64 // synchronous requests parked before the job arrives
		code   string
	}{
		{"shed", Config{MaxConcurrent: 1, MaxQueue: 1, MaxRunningJobs: 2}, 1, CodeShed},
		{"queue_timeout", Config{MaxConcurrent: 1, QueueTimeout: 20 * time.Millisecond, MaxRunningJobs: 2}, 0, CodeQueueTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, tc.cfg)
			release := make(chan struct{})
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(unblock)                // runs before the server's cleanup, even on failure
			entered := make(chan struct{}, 4) // room for every evaluation, so the hook never blocks
			srv.evalHook = func(ctx context.Context) {
				entered <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			codes := make(chan int, 4) // room for every synchronous request
			postAsync := func(doc []byte) {
				go func() {
					resp, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(doc))
					if err != nil {
						codes <- 0
						return
					}
					resp.Body.Close()
					codes <- resp.StatusCode
				}()
			}
			postAsync(encodeDoc(t, tinyDoc(100_000)))
			<-entered // the only evaluation slot is held
			for i := int64(0); i < tc.queued; i++ {
				postAsync(encodeDoc(t, tinyDoc(200_000+i)))
			}
			waitFor(t, "queued requests", func() bool { return srv.queued.Load() == tc.queued })

			var receipt JobSubmitResponse
			jobRequest(t, ts, http.MethodPost, "/v1/jobs", encodeDoc(t, tinyDoc(300_000)), &receipt)
			if st := waitJob(t, ts, receipt.ID); st.State != jobs.StateFailed {
				t.Fatalf("job state = %s, want failed", st.State)
			}
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+receipt.ID+"/result", nil)
			req.Header.Set("Accept", "application/json")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error errorBody `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != tc.code {
				t.Fatalf("job result: %d %+v, want 503 %s", resp.StatusCode, env, tc.code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("overloaded job result missing Retry-After")
			}
			if m := metrics(t, srv); m["warlockd_shed_total"] != 0 || m["warlockd_timeouts_total"] != 0 {
				t.Fatalf("job failure counted as synchronous overload: shed=%d timeouts=%d", m["warlockd_shed_total"], m["warlockd_timeouts_total"])
			}

			unblock()
			for i := int64(0); i <= tc.queued; i++ {
				if code := <-codes; code != http.StatusOK {
					t.Fatalf("synchronous request: %d", code)
				}
			}
		})
	}
}

// TestRejectedGridsAnswer400 sends grids the sweep engine must refuse —
// one far above sweep.MaxScenarios (3,000 values on each of four axes,
// 8.1e13 scenarios) and one naming the removed parallelism axis — to
// both sweep routes. Each answers 400 bad_request before any work is
// sized by the grid, no job is persisted, and the server stays healthy.
func TestRejectedGridsAnswer400(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobsDir: dir})

	huge := tinySweepDoc(100_000)
	g := &huge.Grid
	*g = config.GridDoc{}
	for i := 1; i <= 3000; i++ {
		g.Rows = append(g.Rows, int64(i))
		g.Disks = append(g.Disks, i)
		g.Prefetch = append(g.Prefetch, i)
		g.Allocs = append(g.Allocs, "auto")
	}
	docs := map[string][]byte{
		"oversized": encodeSweepDoc(t, huge),
		"parallelism": bytes.Replace(encodeSweepDoc(t, tinySweepDoc(100_000)),
			[]byte(`"grid": {`), []byte(`"grid": {"parallelism": [1, 4], `), 1),
	}
	for name, doc := range docs {
		for _, path := range []string{"/v1/sweep", "/v1/jobs?kind=sweep"} {
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", "application/json")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", name, path, err)
			}
			var env struct {
				Error errorBody `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
				t.Fatalf("%s %s: %d %+v (decode: %v)", name, path, resp.StatusCode, env, err)
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("jobs dir after rejected submissions: %v %v", entries, err)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz after rejected grids: %d %q", resp.StatusCode, body)
	}
}
