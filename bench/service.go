package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/server"
)

// The service-mix ladder: fixed-spacing arrivals at each rate in turn,
// the measured phase split evenly across the steps.
var ladder = []int{50, 100, 200, 400, 800}

const (
	// warmPool is the number of documents cached during set-up; it fits
	// the server's default 256-entry response cache.
	warmPool = 32
	// coldEvery: one request in every coldEvery is a fresh document.
	coldEvery = 5
	// reportRate is the ladder step whose latencies are the end-to-end
	// percentiles.
	reportRate = 100
	// latencyLimitMs is the p90 limit a ladder step must meet to count
	// towards service.max_rps.
	latencyLimitMs = 50
	// freshChecks is how many cold (and job) documents are replayed
	// against a fresh server at the end of a run.
	freshChecks = 3
)

var diskChoices = []int{16, 32, 64}

// serviceInst is warlockd behind httptest on loopback, with a warm pool
// of cached replies, driven by at most GOMAXPROCS client connections.
type serviceInst struct {
	rc        *runConfig
	srv       *server.Server
	ts        *httptest.Server
	client    *http.Client
	conns     int
	warmDocs  []*config.Document
	warmBody  [][]byte
	warmReply [][]byte

	coldSerial atomic.Int64
	mu         sync.Mutex
	coldSeen   []exchange // the first freshChecks cold requests
	steps      []stepReport
}

// exchange is one request body and the reply it got.
type exchange struct {
	path        string
	body, reply []byte
}

func setupService(rc *runConfig) (instance, error) {
	s := &serviceInst{rc: rc, conns: runtime.GOMAXPROCS(0)}
	s.srv, s.ts, s.client = startServer(server.Config{}, s.conns)
	for j := 0; j < warmPool; j++ {
		doc := config.FromAPB1(4_000_000+rc.rowOffset()+int64(j), diskChoices[j%len(diskChoices)])
		body, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		reply, err := post(s.client, s.ts.URL+"/v1/advise", body)
		if err != nil {
			s.finish(false)
			return nil, fmt.Errorf("caching warm document %d: %w", j, err)
		}
		s.warmDocs = append(s.warmDocs, doc)
		s.warmBody = append(s.warmBody, body)
		s.warmReply = append(s.warmReply, reply)
	}
	return s, nil
}

// startServer serves a fresh warlockd instance on loopback and returns a
// client limited to conns connections.
func startServer(cfg server.Config, conns int) (*server.Server, *httptest.Server, *http.Client) {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return srv, ts, client
}

func stopServer(srv *server.Server, ts *httptest.Server, client *http.Client) {
	client.CloseIdleConnections()
	ts.Close()
	srv.Close()
}

// post sends one document and returns the 200 reply body.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readReply(resp, http.StatusOK)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return readReply(resp, http.StatusOK)
}

func readReply(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d: %.200s", resp.Request.URL.Path, resp.StatusCode, b)
	}
	return b, nil
}

// request is one scheduled ladder request: a warm-pool index, or a cold
// document when cold is set.
type request struct {
	cold bool
	warm int
}

// schedule draws the ladder's request sequence from the seed: in every
// block of coldEvery requests exactly one, at a seeded position, is cold,
// so the cold share is exact in every step; warm picks are seeded.
func schedule(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	coldAt := 0
	for k := range reqs {
		if k%coldEvery == 0 {
			coldAt = k + rng.Intn(coldEvery)
		}
		reqs[k] = request{cold: k == coldAt, warm: rng.Intn(warmPool)}
	}
	return reqs
}

// do sends one request and checks its reply; wrong reports a reply that
// arrived but was not the expected advisory.
func (s *serviceInst) do(r request) (wrong bool, err error) {
	if !r.cold {
		reply, err := post(s.client, s.ts.URL+"/v1/advise", s.warmBody[r.warm])
		if err != nil {
			return false, err
		}
		if !bytes.Equal(reply, s.warmReply[r.warm]) {
			return true, fmt.Errorf("warm document %d: reply differs from its cached reply", r.warm)
		}
		return false, nil
	}
	n := s.coldSerial.Add(1) - 1
	doc := config.FromAPB1(4_000_000+s.rc.rowOffset()+warmPool+n, diskChoices[n%int64(len(diskChoices))])
	body, err := json.Marshal(doc)
	if err != nil {
		return false, err
	}
	reply, err := post(s.client, s.ts.URL+"/v1/advise", body)
	if err != nil {
		return false, err
	}
	var got server.AdviseResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return true, fmt.Errorf("cold document %d: %w", n, err)
	}
	if got.Fingerprint != doc.Fingerprint() || len(got.Candidates) == 0 {
		return true, fmt.Errorf("cold document %d: reply is not its advisory", n)
	}
	if n < freshChecks {
		s.mu.Lock()
		s.coldSeen = append(s.coldSeen, exchange{"/v1/advise", body, reply})
		s.mu.Unlock()
	}
	return false, nil
}

func (s *serviceInst) warmup() error {
	_, err := s.do(request{warm: 0})
	return err
}

// sample is one ladder request's outcome, timed from its due time.
type sample struct {
	lat, lag time.Duration
	wrong    bool
	err      error
}

// stepReport is one ladder step as recorded in the trace file.
type stepReport struct {
	Rate       int                `json:"rate"`
	Requests   int                `json:"requests"`
	WallS      float64            `json:"wall_s"`
	P50Ms      float64            `json:"p50_ms"`
	P90Ms      float64            `json:"p90_ms"`
	LagP90Ms   float64            `json:"lag_p90_ms"`
	LagGrowing bool               `json:"lag_growing"`
	Meets      bool               `json:"meets_limit"`
	Server     map[string]float64 `json:"server"`
}

func (s *serviceInst) measure(rec *recorder, m map[string]float64) error {
	stepDur := s.rc.seconds / float64(len(ladder))
	total := 0
	for _, rate := range ladder {
		total += int(float64(rate) * stepDur)
	}
	reqs := schedule(s.rc.seed, total)
	first, err := scrape(s.client, s.ts.URL)
	if err != nil {
		return err
	}
	prev := first
	var lags []float64
	maxRPS, passing := 0, true
	for _, rate := range ladder {
		n := int(float64(rate) * stepDur)
		out, wall := s.step(rate, reqs[:n])
		reqs = reqs[n:]
		rec.wall += wall
		var lat []float64 // successful requests
		stepLag := make([]float64, len(out))
		failed := 0
		for i, o := range out {
			stepLag[i] = ms(o.lag)
			switch {
			case o.err != nil:
				rec.fail(o.wrong, o.err)
				failed++
				continue
			case rate == reportRate:
				rec.ok(o.lat)
			default:
				rec.attempts++
			}
			lat = append(lat, ms(o.lat))
		}
		lags = append(lags, stepLag...)
		cur, err := scrape(s.client, s.ts.URL)
		if err != nil {
			return err
		}
		q := len(stepLag) / 4
		growing := q > 0 && percentile(stepLag[len(stepLag)-q:], 0.5) > percentile(stepLag[:q], 0.5)+10
		// A failed request misses the limit: it joins the step's p90 as an
		// infinite latency.
		all := slices.Clone(lat)
		for range failed {
			all = append(all, math.Inf(1))
		}
		p90 := percentile(lat, 0.9)
		meets := percentile(all, 0.9) <= latencyLimitMs && !growing
		if passing = passing && meets; passing {
			maxRPS = rate
		}
		m[fmt.Sprintf("loadgen.p90_ms_at_%d", rate)] = p90
		s.steps = append(s.steps, stepReport{Rate: rate, Requests: n, WallS: wall.Seconds(),
			P50Ms: percentile(lat, 0.5), P90Ms: p90, LagP90Ms: percentile(stepLag, 0.9),
			LagGrowing: growing, Meets: meets, Server: serverMetrics(prev, cur)})
		prev = cur
	}
	m["loadgen.lag_p90_ms"] = percentile(lags, 0.9)
	m["service.max_rps"] = float64(maxRPS)
	for k, v := range serverMetrics(first, prev) {
		m[k] = v
	}
	return nil
}

// step runs one ladder step: request i is due at start + i/rate, and the
// senders (one per connection) each take the next due request in turn.
func (s *serviceInst) step(rate int, reqs []request) ([]sample, time.Duration) {
	spacing := time.Second / time.Duration(rate)
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * spacing)
				waitUntil(due)
				sent := time.Now()
				wrong, err := s.do(reqs[i])
				out[i] = sample{lat: time.Since(due), lag: sent.Sub(due), wrong: wrong, err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// timerSlack is how late a sleeping goroutine may wake: the runtime's
// poller waits in whole milliseconds.
const timerSlack = time.Millisecond

// waitUntil returns at t: it sleeps until timerSlack before t and yields
// the processor for the rest, so the generator's own timer slack does not
// count as request latency.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - timerSlack)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// scrape reads the server's /metrics page into series → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	b, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serverMetrics derives the server layer metrics of the advise endpoint
// from two /metrics scrapes.
func serverMetrics(a, b map[string]float64) map[string]float64 {
	d := func(k string) float64 { return b[k] - a[k] }
	stage := func(st string) float64 {
		sel := `{endpoint="advise",stage="` + st + `"}`
		n := d("warlockd_request_stage_seconds_count" + sel)
		if n == 0 {
			return 0
		}
		return d("warlockd_request_stage_seconds_sum"+sel) * 1e3 / n
	}
	out := map[string]float64{
		"server.parse_ms":     stage("parse"),
		"server.queue_ms":     stage("queue"),
		"server.evaluate_ms":  stage("evaluate"),
		"server.serialize_ms": stage("serialize"),
		"server.coalesced":    d("warlockd_coalesced_total"),
		"server.shed":         d("warlockd_shed_total"),
		"server.timeouts":     d("warlockd_timeouts_total"),
	}
	if n := d("warlockd_requests_total"); n > 0 {
		out["server.cache_hit_ratio"] = d("warlockd_cache_hits_total") / n
	}
	if n := d("warlockd_prune_evaluated_total") + d("warlockd_prune_skipped_total"); n > 0 {
		out["core.prune_skip_ratio"] = d("warlockd_prune_skipped_total") / n
	}
	return out
}

func (s *serviceInst) replayDoc() *config.Document { return s.warmDocs[0] }

func (s *serviceInst) extras() any { return map[string]any{"ladder": s.steps} }

// finish replays the first cold documents against a fresh server: the
// replies must equal those of the run byte for byte.
func (s *serviceInst) finish(check bool) error {
	stopServer(s.srv, s.ts, s.client)
	if !check {
		return nil
	}
	return replayFresh(s.coldSeen)
}

// replayFresh re-sends recorded exchanges to a fresh server instance and
// compares the replies.
func replayFresh(ex []exchange) error {
	srv, ts, client := startServer(server.Config{}, 1)
	defer stopServer(srv, ts, client)
	for i, e := range ex {
		reply, err := post(client, ts.URL+e.path, e.body)
		if err != nil {
			return fmt.Errorf("fresh-server replay %d: %w", i, err)
		}
		if !bytes.Equal(reply, e.reply) {
			return fmt.Errorf("fresh-server replay %d to %s: reply differs from the run's", i, e.path)
		}
	}
	return nil
}
