package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
)

// tinyDoc returns a deliberately small configuration (6 candidates) so
// the full HTTP round trip stays fast even under the race detector.
func tinyDoc(rows int64) *config.Document {
	return &config.Document{
		Schema: config.SchemaDoc{
			Name: "tiny",
			Fact: config.FactDoc{Name: "F", Rows: rows, RowSize: 100},
			Dimensions: []config.DimensionDoc{
				{Name: "D1", Levels: []config.LevelDoc{
					{Name: "a", Cardinality: 4}, {Name: "b", Cardinality: 16},
				}},
				{Name: "D2", Levels: []config.LevelDoc{{Name: "x", Cardinality: 8}}},
			},
		},
		Disk: config.DiskDoc{
			PageSize: 8192, Disks: 4, CapacityGB: 4,
			AvgSeekMs: 8, AvgRotationMs: 3, TransferMBs: 20,
		},
		Queries: []config.QueryDoc{
			{Name: "Q1", Weight: 2, Attributes: []string{"D1.b"}},
			{Name: "Q2", Weight: 1, Attributes: []string{"D2.x", "D1.a"}},
		},
	}
}

func encodeDoc(t *testing.T, d *config.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post returns status, the X-Warlock-Cache header and the body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Warlock-Cache"), b
}

// metrics reads the counters and gauges of srv's /metrics exposition by
// series name (labels included); histogram lines with fractional values
// are left out.
func metrics(t testing.TB, srv *Server) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := map[string]int64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); i > 0 && err == nil {
			m[line[:i]] = v
		}
	}
	if len(m) == 0 {
		t.Fatalf("no metrics in:\n%s", rec.Body.String())
	}
	return m
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, counter := range []string{
		"warlockd_requests_total", "warlockd_cache_hits_total",
		"warlockd_cache_misses_total", "warlockd_coalesced_total",
		"warlockd_in_flight", "warlockd_evaluations_total",
	} {
		if !strings.Contains(string(b), counter) {
			t.Errorf("metrics missing %s:\n%s", counter, b)
		}
	}
}

// TestAdviseCacheByteIdentical is acceptance criterion (1): the cached
// response must be byte-identical to the cold response for the same
// document.
func TestAdviseCacheByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := encodeDoc(t, tinyDoc(100_000))

	code, state, cold := post(t, ts, "/v1/advise", body)
	if code != http.StatusOK {
		t.Fatalf("cold advise: %d %s", code, cold)
	}
	if state != "miss" {
		t.Fatalf("cold advise cache state = %q, want miss", state)
	}
	var resp AdviseResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatalf("cold response is not valid JSON: %v", err)
	}
	if len(resp.Candidates) == 0 || resp.Candidates[0].Rank != 1 {
		t.Fatalf("response has no ranked candidates: %s", cold)
	}
	if len(resp.Candidates[0].PerClass) != 2 {
		t.Fatalf("winner should carry per-class stats: %s", cold)
	}

	code, state, warm := post(t, ts, "/v1/advise", body)
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("warm advise: code=%d state=%q", code, state)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached response is not byte-identical to the cold response")
	}

	m := metrics(t, srv)
	if m["warlockd_cache_hits_total"] != 1 || m["warlockd_cache_misses_total"] != 1 || m["warlockd_evaluations_total"] != 1 {
		t.Fatalf("metrics after cold+warm: %+v", m)
	}
}

// TestAdviseReorderedDocumentHitsCache: cosmetically reordered documents
// share a fingerprint and therefore a cache entry.
func TestAdviseReorderedDocumentHitsCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))

	reordered := tinyDoc(100_000)
	reordered.Queries[0], reordered.Queries[1] = reordered.Queries[1], reordered.Queries[0]
	code, state, _ := post(t, ts, "/v1/advise", encodeDoc(t, reordered))
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("reordered doc: code=%d state=%q, want cache hit", code, state)
	}
	if m := metrics(t, srv); m["warlockd_evaluations_total"] != 1 {
		t.Fatalf("reordered doc re-evaluated: %+v", m)
	}
}

// TestAdviseCanonicalEvaluation: two cold servers given the same
// document in different cosmetic orders produce byte-identical
// responses — the guarantee that makes order-insensitive fingerprinting
// sound against order-sensitive float accumulation.
func TestAdviseCanonicalEvaluation(t *testing.T) {
	_, ts1 := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})

	doc := tinyDoc(100_000)
	reordered := tinyDoc(100_000)
	reordered.Queries[0], reordered.Queries[1] = reordered.Queries[1], reordered.Queries[0]
	reordered.Queries[0].Attributes[0], reordered.Queries[0].Attributes[1] =
		reordered.Queries[0].Attributes[1], reordered.Queries[0].Attributes[0]

	_, _, a := post(t, ts1, "/v1/advise", encodeDoc(t, doc))
	_, _, b := post(t, ts2, "/v1/advise", encodeDoc(t, reordered))
	if !bytes.Equal(a, b) {
		t.Fatalf("cold responses for reordered documents differ:\n%s\nvs\n%s", a, b)
	}
}

// TestAdviseCoalescing is acceptance criterion (2): concurrent identical
// requests perform exactly one pipeline evaluation.
func TestAdviseCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := encodeDoc(t, tinyDoc(400_000))

	const n = 12 // ≥ 8 per the acceptance criteria
	start := make(chan struct{})
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, _, b := post(t, ts, "/v1/advise", body)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, code, b)
			}
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()

	m := metrics(t, srv)
	if m["warlockd_evaluations_total"] != 1 {
		t.Fatalf("%d concurrent identical requests ran %d evaluations, want 1 (metrics %+v)", n, m["warlockd_evaluations_total"], m)
	}
	if m["warlockd_requests_total"] != n {
		t.Fatalf("requests counter = %d, want %d", m["warlockd_requests_total"], n)
	}
	// Every request is accounted exactly once: a direct cache hit, a
	// coalesced join, or a flight leader (hit or miss inside the flight).
	if m["warlockd_cache_hits_total"]+m["warlockd_cache_misses_total"]+m["warlockd_coalesced_total"] != n {
		t.Fatalf("counter accounting: hits %d + misses %d + coalesced %d != %d",
			m["warlockd_cache_hits_total"], m["warlockd_cache_misses_total"], m["warlockd_coalesced_total"], n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

// TestAdviseEvictionRecomputesIdentically: with a 1-entry cache, A,B,A
// evaluates three times, and the re-evaluated A is byte-identical to the
// first (warm per-schema state never changes results).
func TestAdviseEvictionRecomputesIdentically(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 1})
	docA := encodeDoc(t, tinyDoc(100_000))
	docB := encodeDoc(t, tinyDoc(200_000))

	_, _, first := post(t, ts, "/v1/advise", docA)
	post(t, ts, "/v1/advise", docB) // evicts A
	_, state, again := post(t, ts, "/v1/advise", docA)
	if state != "miss" {
		t.Fatalf("A after eviction should be a miss, got %q", state)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("re-evaluated advisory differs from the original")
	}
	if m := metrics(t, srv); m["warlockd_evaluations_total"] != 3 || m["warlockd_advise_cache_entries"] != 1 {
		t.Fatalf("eviction metrics: %+v", m)
	}
}

// TestSchemaStateShared: distinct requests on one schema share interned
// schema state (one schema miss, then hits).
func TestSchemaStateShared(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a := tinyDoc(100_000)
	b := tinyDoc(100_000)
	b.Queries[0].Weight = 7 // different advisory, same schema
	c := tinyDoc(300_000)   // different schema (rows differ)

	post(t, ts, "/v1/advise", encodeDoc(t, a))
	post(t, ts, "/v1/advise", encodeDoc(t, b))
	post(t, ts, "/v1/advise", encodeDoc(t, c))

	m := metrics(t, srv)
	if m["warlockd_evaluations_total"] != 3 {
		t.Fatalf("three distinct advisories expected: %+v", m)
	}
	if m["warlockd_schema_cache_misses_total"] != 2 || m["warlockd_schema_cache_hits_total"] != 1 {
		t.Fatalf("schema interning: hits=%d misses=%d, want 1/2 (a,b share; c distinct)", m["warlockd_schema_cache_hits_total"], m["warlockd_schema_cache_misses_total"])
	}
	if m["warlockd_schema_cache_entries"] != 2 {
		t.Fatalf("schema cache entries = %d, want 2", m["warlockd_schema_cache_entries"])
	}
}

func TestSweepEndpointCachedByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sweepDoc := &config.SweepDoc{
		Base: *tinyDoc(100_000),
		Grid: config.GridDoc{
			Disks: []int{2, 4},
			MixScales: []config.MixScaleDoc{
				{Name: "base"},
				{Name: "boost-Q2", Factors: map[string]float64{"Q2": 4}},
			},
		},
		ResponseTargetMs: 500,
	}
	var buf bytes.Buffer
	if err := sweepDoc.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	code, state, cold := post(t, ts, "/v1/sweep", buf.Bytes())
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("cold sweep: code=%d state=%q body=%s", code, state, cold)
	}
	var rep struct {
		Advisories int `json:"advisories"`
		Scenarios  []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(cold, &rep); err != nil {
		t.Fatalf("sweep response is not valid JSON: %v\n%s", err, cold)
	}
	if len(rep.Scenarios) != 4 || rep.Advisories != 4 {
		t.Fatalf("expected 4 scenarios/advisories, got %d/%d", len(rep.Scenarios), rep.Advisories)
	}

	code, state, warm := post(t, ts, "/v1/sweep", buf.Bytes())
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("warm sweep: code=%d state=%q", code, state)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached sweep response is not byte-identical")
	}
	if m := metrics(t, srv); m["warlockd_sweep_cache_entries"] != 1 || m["warlockd_cache_hits_total"] != 1 {
		t.Fatalf("sweep metrics: %+v", m)
	}
}

func TestAdviseErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise: %d, want 405", resp.StatusCode)
	}

	// Malformed JSON.
	if code, _, b := post(t, ts, "/v1/advise", []byte("{nope")); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d %s", code, b)
	}
	// Unknown field (DisallowUnknownFields).
	if code, _, b := post(t, ts, "/v1/advise", []byte(`{"bogus": 1}`)); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", code, b)
	}
	// Structurally valid JSON, semantically invalid document.
	bad := tinyDoc(100_000)
	bad.Queries[0].Attributes = []string{"D1.missing"}
	if code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, bad)); code != http.StatusBadRequest {
		t.Fatalf("bad attribute path: %d %s", code, b)
	}
	// Feasible parse/build, but every candidate excluded.
	infeasible := tinyDoc(100_000)
	infeasible.Options.MinAvgFragmentPages = 1 << 40
	infeasible.Options.MaxFragments = 1
	if code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, infeasible)); code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible advisory: %d %s", code, b)
	}
	// Errors are never cached.
	if code, _, _ := post(t, ts, "/v1/advise", encodeDoc(t, bad)); code != http.StatusBadRequest {
		t.Fatal("repeated bad request should fail again, not hit a cache")
	}

	// Sweep endpoint shares the error mapping.
	if code, _, b := post(t, ts, "/v1/sweep", []byte("{nope")); code != http.StatusBadRequest {
		t.Fatalf("malformed sweep JSON: %d %s", code, b)
	}
}

// TestShutdownRejectsNewEvaluations: after Close, uncached advisories
// fail with 503 instead of hanging on the evaluation semaphore.
func TestShutdownRejectsNewEvaluations(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Close()
	code, _, b := post(t, ts, "/v1/advise", encodeDoc(t, tinyDoc(100_000)))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("advise after Close: %d %s, want 503", code, b)
	}
}

// TestGracefulShutdownNoGoroutineLeak is acceptance criterion (3):
// after serving concurrent traffic and shutting down, no server
// goroutine survives.
func TestGracefulShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv)
	body := encodeDoc(t, tinyDoc(100_000))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/v1/advise", body)
		}()
	}
	wg.Wait()
	ts.Client().CloseIdleConnections()
	ts.Close()  // drains in-flight HTTP handlers
	srv.Close() // cancels pipeline context

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after shutdown: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestMetricsEndpointReflectsTraffic ties the plain-text rendering to
// the counters the acceptance criteria reference.
func TestMetricsEndpointReflectsTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := encodeDoc(t, tinyDoc(100_000))
	post(t, ts, "/v1/advise", body)
	post(t, ts, "/v1/advise", body)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"warlockd_requests_total 2",
		"warlockd_cache_hits_total 1",
		"warlockd_cache_misses_total 1",
		"warlockd_evaluations_total 1",
		"warlockd_in_flight 0",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

func BenchmarkAdviseWarmCache(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var buf bytes.Buffer
	if err := tinyDoc(100_000).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	warm, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	if m := metrics(b, srv); m["warlockd_evaluations_total"] != 1 {
		b.Fatalf("warm benchmark ran %d evaluations", m["warlockd_evaluations_total"])
	}
}

// TestMetricsExpositionPinned pins the /metrics exposition that scrapers
// (and the repository benchmark) parse: every line's name, label set and
// position, with the values masked. Traffic covers both advisory kinds
// on the synchronous routes and the job API.
func TestMetricsExpositionPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	advise := encodeDoc(t, tinyDoc(100_000))
	for _, want := range []string{"miss", "hit"} {
		if code, state, _ := post(t, ts, "/v1/advise", advise); code != http.StatusOK || state != want {
			t.Fatalf("advise: %d %q, want %q", code, state, want)
		}
	}
	if code, _, _ := post(t, ts, "/v1/sweep", encodeSweepDoc(t, tinySweepDoc(100_000))); code != http.StatusOK {
		t.Fatalf("sweep: %d", code)
	}
	var receipt JobSubmitResponse
	jobRequest(t, ts, http.MethodPost, "/v1/jobs", encodeSweepDoc(t, tinySweepDoc(200_000)), &receipt)
	if st := waitJob(t, ts, receipt.ID); st.State != "done" {
		t.Fatalf("sweep job: %s (%s)", st.State, st.Error)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line without a value: %q", line)
		}
		got = append(got, line[:i])
	}

	want := []string{
		"warlockd_requests_total",
		"warlockd_cache_hits_total",
		"warlockd_cache_misses_total",
		"warlockd_coalesced_total",
		"warlockd_evaluations_total",
		"warlockd_timeouts_total",
		"warlockd_shed_total",
		"warlockd_client_gone_total",
		"warlockd_prune_evaluated_total",
		"warlockd_prune_skipped_total",
		"warlockd_eval_panics_total",
		"warlockd_in_flight",
		"warlockd_queue_depth",
		"warlockd_schema_cache_hits_total",
		"warlockd_schema_cache_misses_total",
		"warlockd_advise_cache_entries",
		"warlockd_sweep_cache_entries",
		"warlockd_schema_cache_entries",
		`warlockd_jobs_total{state="queued"}`,
		`warlockd_jobs_total{state="running"}`,
		`warlockd_jobs_total{state="done"}`,
		`warlockd_jobs_total{state="failed"}`,
		`warlockd_jobs_total{state="cancelled"}`,
		"warlockd_jobs_submitted_total",
		"warlockd_jobs_coalesced_total",
		"warlockd_job_scenarios_completed_total",
		"warlockd_job_retries_total",
		"warlockd_job_checkpoint_failures_total",
		"warlockd_jobs_stored",
	}
	les := []string{"0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05",
		"0.1", "0.25", "0.5", "1", "2.5", "5", "10", "+Inf"}
	for _, endpoint := range []string{"advise", "sweep"} {
		for _, stage := range []string{"parse", "queue", "evaluate", "serialize", "total"} {
			labels := fmt.Sprintf("endpoint=%q,stage=%q", endpoint, stage)
			for _, le := range les {
				want = append(want, fmt.Sprintf("warlockd_request_stage_seconds_bucket{%s,le=%q}", labels, le))
			}
			want = append(want,
				"warlockd_request_stage_seconds_sum{"+labels+"}",
				"warlockd_request_stage_seconds_count{"+labels+"}")
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("metrics exposition changed:\ngot:\n%s\n\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
