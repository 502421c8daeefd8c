package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// jobPoll is how often the sweep-job client polls a job's status.
const jobPoll = 5 * time.Millisecond

// sweepJobInst is one client submitting sweep jobs in a closed loop to a
// server that persists them to a job directory.
type sweepJobInst struct {
	rc     *runConfig
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	// ref is the reply to job 0, computed in process through sweep.Run.
	ref  []byte
	warm int64      // warm-up jobs run; they use documents -1, -2, ...
	seen []exchange // the first freshChecks jobs, as /v1/sweep exchanges
}

// sweepDoc is the document of job i: the example 16-scenario sweep over a
// fresh 4M-row APB-1 base.
func (j *sweepJobInst) sweepDoc(i int64) *config.SweepDoc {
	return config.ExampleSweep(4_000_000+j.rc.rowOffset()+i, 32)
}

func setupSweepJob(rc *runConfig) (instance, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.outDir, "jobs-")
	if err != nil {
		return nil, err
	}
	j := &sweepJobInst{rc: rc, dir: dir}
	j.srv, j.ts, j.client = startServer(server.Config{JobsDir: dir}, 1)
	if j.ref, err = sweepReply(j.sweepDoc(0)); err != nil {
		j.finish(false)
		return nil, err
	}
	return j, nil
}

// sweepReply renders a sweep document the way /v1/sweep does, in process.
func sweepReply(doc *config.SweepDoc) ([]byte, error) {
	base, grid, target, err := doc.Canonical().Build()
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(context.Background(), base, grid, sweep.Options{ResponseTarget: target})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if b := buf.Bytes(); len(b) > 0 && b[len(b)-1] != '\n' {
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// jobRun is one finished job as the client saw it.
type jobRun struct {
	status jobs.Status
	// ckptSize is the largest on-disk size seen while the job ran.
	ckptSize int64
}

// job submits document i, polls until the job ends, fetches its result
// and checks it; wrong reports a job that ended with a wrong output.
func (j *sweepJobInst) job(i int64) (jr jobRun, wrong bool, err error) {
	doc := j.sweepDoc(i)
	body, err := json.Marshal(doc)
	if err != nil {
		return jr, false, err
	}
	resp, err := j.client.Post(j.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, false, err
	}
	b, err := readReply(resp, http.StatusAccepted)
	if err != nil {
		return jr, false, err
	}
	var sub server.JobSubmitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		return jr, false, err
	}
	for {
		b, err := get(j.client, j.ts.URL+"/v1/jobs/"+sub.ID)
		if err != nil {
			return jr, false, err
		}
		if err := json.Unmarshal(b, &jr.status); err != nil {
			return jr, false, err
		}
		if jr.status.State.Terminal() {
			break
		}
		jr.ckptSize = max(jr.ckptSize, j.persisted(sub.ID))
		time.Sleep(jobPoll)
	}
	if jr.status.State != jobs.StateDone {
		return jr, false, fmt.Errorf("job %d ended %s: %s", i, jr.status.State, jr.status.Error)
	}
	result, err := get(j.client, j.ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if err != nil {
		return jr, false, err
	}
	if p := jr.status.Progress; p.ScenariosDone != 16 || p.ScenariosTotal != 16 {
		return jr, true, fmt.Errorf("job %d: %d of %d scenarios done, want 16", i, p.ScenariosDone, p.ScenariosTotal)
	}
	if i == 0 && !bytes.Equal(result, j.ref) {
		return jr, true, fmt.Errorf("job 0: result differs from the in-process sweep")
	}
	if i < freshChecks {
		j.seen = append(j.seen, exchange{"/v1/sweep", body, result})
	}
	return jr, false, nil
}

// persisted returns the bytes job id holds on disk: its spec file plus
// its checkpoint file. The manager deletes both when the job ends, so the
// client samples them while it polls.
func (j *sweepJobInst) persisted(id string) int64 {
	var n int64
	for _, ext := range []string{".job", ".ckpt"} {
		if fi, err := os.Stat(filepath.Join(j.dir, id+ext)); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// warmup runs one job on a document outside the measured sequence.
func (j *sweepJobInst) warmup() error {
	j.warm++
	_, _, err := j.job(-j.warm)
	return err
}

func (j *sweepJobInst) measure(rec *recorder, m map[string]float64) error {
	met0, err := scrape(j.client, j.ts.URL)
	if err != nil {
		return err
	}
	var queue, eval, ckpt float64
	var skipRatios []float64
	var skipped, evaluated, done int
	start := time.Now()
	for n := 0; !j.rc.deadline(start, n); n++ {
		t := time.Now()
		jr, wrong, err := j.job(int64(n))
		d := time.Since(t)
		if err != nil {
			rec.fail(wrong, err)
			continue
		}
		rec.ok(d)
		done++
		queue += jr.status.QueueMs
		eval += jr.status.EvaluateMs
		ckpt += float64(jr.ckptSize)
		p := jr.status.Progress
		skipped += p.PruneSkipped
		evaluated += p.PruneEvaluated
		skipRatios = append(skipRatios, float64(p.PruneSkipped)/float64(max(p.PruneSkipped+p.PruneEvaluated, 1)))
	}
	rec.wall = time.Since(start)
	if done > 0 {
		m["jobs.queue_ms"] = queue / float64(done)
		m["jobs.evaluate_ms"] = eval / float64(done)
		m["jobs.checkpoint_bytes"] = ckpt / float64(done)
		m["core.prune_skip_ratio"] = float64(skipped) / float64(max(skipped+evaluated, 1))
		m["core.prune_skip_spread"] = slices.Max(skipRatios) - slices.Min(skipRatios)
	}
	met, err := scrape(j.client, j.ts.URL)
	if err != nil {
		return err
	}
	for name, series := range map[string]string{
		"jobs.retries":             "warlockd_job_retries_total",
		"jobs.checkpoint_failures": "warlockd_job_checkpoint_failures_total",
	} {
		m[name] = met[series] - met0[series]
	}
	return nil
}

func (j *sweepJobInst) replayDoc() *config.Document { return &j.sweepDoc(0).Base }

// replaySweep is the document of the traced sweep replay.
func (j *sweepJobInst) replaySweep() *config.SweepDoc { return j.sweepDoc(0) }

// finish replays the first jobs' documents synchronously against a fresh
// server: the replies must equal the job results byte for byte.
func (j *sweepJobInst) finish(check bool) error {
	stopServer(j.srv, j.ts, j.client)
	err := os.RemoveAll(j.dir)
	if check && err == nil {
		err = replayFresh(j.seen)
	}
	return err
}
