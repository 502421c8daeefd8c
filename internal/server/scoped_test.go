package server

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sweep"
)

// Tests for the request-scoped evaluation work: per-request deadlines,
// client-departure cancellation, bounded queueing with load shedding,
// stage histograms and slow-request logging. The hook-driven tests use
// Server.evalHook to hold an evaluation open deterministically instead
// of racing wall-clock evaluation times.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRequestTimeoutCancelsEvaluation: a request that exceeds
// RequestTimeout gets 504, counts into Timeouts, and its pipeline
// evaluation context is cancelled — the evaluation provably stops (the
// hook observes ctx.Done, and no goroutine survives).
func TestRequestTimeoutCancelsEvaluation(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	// Warm-up request: establishes the keep-alive connection so the HTTP
	// machinery goroutines (accept loop, conn serve, transport loops) are
	// part of the baseline, not counted as pipeline leaks.
	if code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(50_000))); code != http.StatusOK {
		t.Fatalf("warm-up advise: %d %s", code, b)
	}
	before := runtime.NumGoroutine()

	evalCancelled := make(chan struct{})
	srv.evalHook = func(ctx context.Context) {
		<-ctx.Done() // simulate an evaluation slower than the deadline
		close(evalCancelled)
	}

	code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out advise: %d %s, want 504", code, b)
	}
	select {
	case <-evalCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("request deadline did not cancel the evaluation context")
	}
	m := metrics(t, srv)
	if m["warlockd_timeouts_total"] != 1 || m["warlockd_client_gone_total"] != 0 || m["warlockd_shed_total"] != 0 {
		t.Fatalf("timeout accounting: %+v", m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("orphaned goroutines after timeout: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestExpiredDeadlineStopsRealPipeline: without any test hook, a request
// whose deadline has already passed gets 504 from the real pipeline
// (AdviseContext refuses to run under a dead context) instead of
// evaluating to completion for nobody.
func TestExpiredDeadlineStopsRealPipeline(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline advise: %d %s, want 504", code, b)
	}
	if m := metrics(t, srv); m["warlockd_timeouts_total"] != 1 {
		t.Fatalf("timeouts = %d, want 1 (metrics %+v)", m["warlockd_timeouts_total"], m)
	}
	// The aborted advisory must not leave a (partial) cache entry behind.
	if m := metrics(t, srv); m["warlockd_advise_cache_entries"] != 0 {
		t.Fatalf("aborted advisory left a cache entry: %+v", m)
	}
}

// TestClientDisconnectCancelsLoneEvaluation: a lone client that goes
// away cancels its own evaluation; the server records it as ClientGone.
func TestClientDisconnectCancelsLoneEvaluation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	evalCancelled := make(chan struct{})
	srv.evalHook = func(ctx context.Context) {
		close(entered)
		<-ctx.Done()
		close(evalCancelled)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/advise",
		bytes.NewReader(encodeDoc(t, tinyDoc(100_000))))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	cancel() // the client disconnects mid-evaluation
	if err := <-errc; err == nil {
		t.Fatal("cancelled client request should error")
	}
	select {
	case <-evalCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("client departure did not cancel the lone evaluation")
	}
	waitFor(t, "client-gone accounting", func() bool { return metrics(t, srv)["warlockd_client_gone_total"] == 1 })
}

// TestQueueTimeout: a request that cannot get an evaluation slot within
// QueueTimeout is answered 503 + Retry-After without ever evaluating.
func TestQueueTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: 30 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.evalHook = func(ctx context.Context) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	// Leader A occupies the only evaluation slot.
	aDone := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
		aDone <- code
	}()
	<-entered

	// B (distinct fingerprint, no coalescing) must give up in the queue.
	resp, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json",
		bytes.NewReader(encodeDoc(t, tinyDoc(200_000))))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request: %d %s, want 503", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-timeout response missing Retry-After")
	}

	close(release)
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("leader failed: %d", code)
	}
	m := metrics(t, srv)
	if m["warlockd_evaluations_total"] != 1 {
		t.Fatalf("queue-timed-out request still evaluated: %+v", m)
	}
	if m["warlockd_timeouts_total"] != 1 {
		t.Fatalf("timeouts = %d, want 1 (metrics %+v)", m["warlockd_timeouts_total"], m)
	}
}

// TestMaxQueueSheds: beyond MaxQueue waiting evaluations, requests are
// shed immediately with 503 + Retry-After — without touching the
// evaluation semaphore (the slot holder and the queued request are
// unaffected, and no extra evaluation ever runs).
func TestMaxQueueSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.evalHook = func(ctx context.Context) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	// A holds the only slot; B fills the queue.
	results := make(chan int, 2)
	go func() {
		code, _, _ := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
		results <- code
	}()
	<-entered
	go func() {
		code, _, _ := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(200_000)))
		results <- code
	}()
	waitFor(t, "B to queue", func() bool { return metrics(t, srv)["warlockd_queue_depth"] == 1 })

	// C must be shed instantly even though the semaphore is saturated.
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json",
		bytes.NewReader(encodeDoc(t, tinyDoc(300_000))))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: %d %s, want 503", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("shed request waited %v; shedding must not block on the semaphore", waited)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("held/queued request %d failed: %d", i, code)
		}
	}
	m := metrics(t, srv)
	if m["warlockd_shed_total"] != 1 {
		t.Fatalf("shed = %d, want 1 (metrics %+v)", m["warlockd_shed_total"], m)
	}
	if m["warlockd_evaluations_total"] != 2 {
		t.Fatalf("evaluations = %d, want 2 (A and B only; metrics %+v)", m["warlockd_evaluations_total"], m)
	}
}

// TestCoalescedFlightSurvivesDepartingWaiter: a waiter leaving a shared
// flight does not kill the leader's evaluation; the result completes,
// is cached, and the departed waiter is recorded as ClientGone.
func TestCoalescedFlightSurvivesDepartingWaiter(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doc := tinyDoc(100_000)
	body := encodeDoc(t, doc)
	fp := doc.Fingerprint()

	entered := make(chan struct{})
	release := make(chan struct{})
	srv.evalHook = func(ctx context.Context) {
		close(entered)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	// Leader A opens the flight and blocks in evaluation.
	aDone := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, "/v1/advise", body)
		aDone <- code
	}()
	<-entered

	// Waiter B joins the same fingerprint, then departs.
	wctx, wcancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(wctx, http.MethodPost, ts.URL+"/v1/advise", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	bDone := make(chan struct{})
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(bDone)
	}()
	waitFor(t, "waiter to attach", func() bool {
		srv.advise.flight.mu.Lock()
		defer srv.advise.flight.mu.Unlock()
		f, ok := srv.advise.flight.flights[fp]
		return ok && f.waiters == 2
	})
	wcancel()
	<-bDone

	// The flight must still be live: the leader's evaluation context was
	// not cancelled by B's departure.
	waitFor(t, "waiter accounting", func() bool { return metrics(t, srv)["warlockd_client_gone_total"] == 1 })
	srv.advise.flight.mu.Lock()
	f := srv.advise.flight.flights[fp]
	srv.advise.flight.mu.Unlock()
	if f == nil {
		t.Fatal("flight vanished after one waiter departed")
	}

	close(release)
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("leader failed after waiter departed: %d", code)
	}
	m := metrics(t, srv)
	if m["warlockd_evaluations_total"] != 1 {
		t.Fatalf("evaluations = %d, want 1 (metrics %+v)", m["warlockd_evaluations_total"], m)
	}
	// The leader's result stayed cached for later requests.
	code, state, _ := post(t, ts, "/v1/advise", body)
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("post-flight request: code=%d state=%q, want cached hit", code, state)
	}
}

// TestOversizedBodyGets413: bodies over MaxBodyBytes return 413 with a
// clear message on both advisory endpoints, not a 400 bad-config error.
func TestOversizedBodyGets413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := encodeDoc(t, tinyDoc(100_000)) // well over 64 bytes
	for _, path := range []string{"/v1/advise", "/v1/sweep"} {
		code, _, b := post(t, ts, path, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: %d %s, want 413", path, code, b)
		}
		if !strings.Contains(string(b), "64 bytes") {
			t.Errorf("%s 413 message should name the limit: %s", path, b)
		}
	}
}

// TestProbeEndpointsGateMethods: /healthz and /metrics accept only
// GET/HEAD, with an Allow header — matching the POST gating on the
// advisory routes.
func TestProbeEndpointsGateMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/metrics"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: %d, want 405", method, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want %q", method, path, got, "GET, HEAD")
			}
		}
		// GET and HEAD still work.
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			req, _ := http.NewRequest(method, ts.URL+path, nil)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: %d, want 200", method, path, resp.StatusCode)
			}
		}
	}
}

// TestResponsesNewlineTerminated: both endpoints produce newline-
// terminated bodies, and the sweep body byte-matches what the CLI's
// -sweep-json mode writes for the same document.
func TestResponsesNewlineTerminated(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, _, advise := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
	if len(advise) == 0 || advise[len(advise)-1] != '\n' {
		t.Error("/v1/advise body is not newline-terminated")
	}
	if bytes.HasSuffix(advise, []byte("\n\n")) {
		t.Error("/v1/advise body has a doubled trailing newline")
	}

	sweepDoc := &config.SweepDoc{
		Base: *tinyDoc(100_000),
		Grid: config.GridDoc{Disks: []int{2, 4}},
	}
	var buf bytes.Buffer
	if err := sweepDoc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	code, _, body := post(t, ts, "/v1/sweep", buf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Error("/v1/sweep body is not newline-terminated")
	}
	if bytes.HasSuffix(body, []byte("\n\n")) {
		t.Error("/v1/sweep body has a doubled trailing newline")
	}

	// Byte-identity with the CLI counterpart: the same canonical document
	// through sweep.Run + WriteJSON (what warlock -sweep -sweep-json
	// writes) must produce exactly the service's response bytes.
	canon := sweepDoc.Canonical()
	base, grid, target, err := canon.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background(), base, grid, sweep.Options{ResponseTarget: target})
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := rep.WriteJSON(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cli.Bytes()) {
		t.Fatalf("service sweep response differs from CLI WriteJSON output:\n%s\nvs\n%s", body, cli.Bytes())
	}
}

// TestMetricsExposeStageHistograms: the stage latency histograms appear
// on /metrics with consistent counts after real traffic.
func TestMetricsExposeStageHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		`warlockd_request_stage_seconds_count{endpoint="advise",stage="parse"} 1`,
		`warlockd_request_stage_seconds_count{endpoint="advise",stage="queue"} 1`,
		`warlockd_request_stage_seconds_count{endpoint="advise",stage="evaluate"} 1`,
		`warlockd_request_stage_seconds_count{endpoint="advise",stage="serialize"} 1`,
		`warlockd_request_stage_seconds_count{endpoint="advise",stage="total"} 1`,
		`warlockd_request_stage_seconds_count{endpoint="sweep",stage="total"} 0`,
		`warlockd_request_stage_seconds_bucket{endpoint="advise",stage="total",le="+Inf"} 1`,
		"warlockd_timeouts_total 0",
		"warlockd_shed_total 0",
		"warlockd_client_gone_total 0",
		"warlockd_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLogging: requests over the threshold are logged with
// their fingerprint and stage breakdown.
func TestSlowRequestLogging(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		SlowRequestThreshold: time.Nanosecond, // everything is slow
		Logger:               log.New(&buf, "", 0),
	})
	doc := tinyDoc(100_000)
	post(t, ts, "/v1/advise", encodeDoc(t, doc))

	waitFor(t, "slow-request log line", func() bool {
		s := buf.String()
		return strings.Contains(s, "slow request") &&
			strings.Contains(s, "fingerprint="+doc.Fingerprint()) &&
			strings.Contains(s, "endpoint=advise") &&
			strings.Contains(s, "evaluate=")
	})
}
