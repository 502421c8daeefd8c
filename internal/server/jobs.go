package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/jobs"
	"repro/internal/sweep"
)

// Asynchronous job endpoints. A job is the same advise/sweep document
// the synchronous endpoints take, detached from the request lifetime:
//
//   - POST /v1/jobs            submit (202 + Location); the job id is
//     the document's canonical fingerprint, so identical submissions
//     coalesce onto one running job
//   - GET  /v1/jobs            list stored jobs, oldest first
//   - GET  /v1/jobs/{id}        status + live progress
//   - GET  /v1/jobs/{id}/result the finished body — byte-identical to
//     the synchronous endpoint's response for the same document
//   - DELETE /v1/jobs/{id}      cancel (or evict a finished job)
//
// The document kind is sniffed from its shape (a top-level "base" key
// marks a sweep) and can be forced with ?kind=advise|sweep.

// JobSubmitResponse is the JSON body of a successful POST /v1/jobs.
type JobSubmitResponse struct {
	// ID is the job id — the document's canonical fingerprint; poll
	// /v1/jobs/{id} with it.
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// State is the job's state at submission time; a coalesced
	// submission can land on a job in any state, done included.
	State jobs.State `json:"state"`
	// Coalesced reports that an identical job already existed and this
	// submission attached to it instead of starting a new run.
	Coalesced bool `json:"coalesced"`
}

// JobListResponse is the JSON body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []jobs.Status `json:"jobs"`
}

// badSpecError marks a submission rejected while decoding its document,
// distinguishing the client's 400 from manager-side failures.
type badSpecError struct{ err error }

func (e *badSpecError) Error() string { return e.err.Error() }
func (e *badSpecError) Unwrap() error { return e.err }

// handleJobs serves the collection route: submit (POST) and list (GET).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet, http.MethodHead:
		s.handleJobList(w, r)
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		s.writeError(w, r, errorClass{http.StatusMethodNotAllowed, CodeMethodNotAllowed, 0,
			errors.New("GET, HEAD or POST required")})
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.writeError(w, r, parseErrorClass(err))
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = sniffKind(body)
	}
	j, created, err := s.submitJobSpec(kind, body, nil)
	if err != nil {
		var bad *badSpecError
		switch {
		case errors.As(err, &bad):
			s.writeError(w, r, parseErrorClass(bad.err))
		case errors.Is(err, jobs.ErrStoreFull):
			s.writeError(w, r, errorClass{http.StatusServiceUnavailable, CodeJobsFull, s.jobsRetryAfter(), err})
		default:
			s.writeError(w, r, errorClass{http.StatusInternalServerError, CodeInternal, 0, err})
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJobJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:        j.ID(),
		Kind:      j.Kind(),
		State:     j.State(),
		Coalesced: !created,
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	all := s.jobs.Jobs()
	sts := make([]jobs.Status, 0, len(all))
	for _, j := range all {
		sts = append(sts, j.Status())
	}
	sort.Slice(sts, func(i, k int) bool {
		if !sts[i].CreatedAt.Equal(sts[k].CreatedAt) {
			return sts[i].CreatedAt.Before(sts[k].CreatedAt)
		}
		return sts[i].ID < sts[k].ID
	})
	writeJobJSON(w, http.StatusOK, JobListResponse{Jobs: sts})
}

// handleJob serves the per-job routes: /v1/jobs/{id} (status, cancel)
// and /v1/jobs/{id}/result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	switch {
	case id == "" || (sub != "" && sub != "result"):
		s.writeError(w, r, errorClass{http.StatusNotFound, CodeNotFound, 0, errors.New("unknown job route")})
	case sub == "result":
		if s.allowGetHead(w, r) {
			s.handleJobResult(w, r, id)
		}
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		j, ok := s.jobs.Get(id)
		if !ok {
			s.writeError(w, r, errorClass{http.StatusNotFound, CodeNotFound, 0, fmt.Errorf("no job %s", id)})
			return
		}
		writeJobJSON(w, http.StatusOK, j.Status())
	case r.Method == http.MethodDelete:
		j, ok := s.jobs.Cancel(id)
		if !ok {
			s.writeError(w, r, errorClass{http.StatusNotFound, CodeNotFound, 0, fmt.Errorf("no job %s", id)})
			return
		}
		writeJobJSON(w, http.StatusOK, j.Status())
	default:
		w.Header().Set("Allow", "GET, HEAD, DELETE")
		s.writeError(w, r, errorClass{http.StatusMethodNotAllowed, CodeMethodNotAllowed, 0,
			errors.New("GET, HEAD or DELETE required")})
	}
}

// handleJobResult serves a finished job's body — the exact bytes the
// synchronous endpoint would have returned — or maps its terminal error
// through the same taxonomy the synchronous path uses.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, r, errorClass{http.StatusNotFound, CodeNotFound, 0, fmt.Errorf("no job %s", id)})
		return
	}
	b, err, done := j.Result()
	switch {
	case !done:
		s.writeError(w, r, errorClass{http.StatusConflict, CodeNotReady, 1,
			fmt.Errorf("job %s is %s; result not ready", id, j.State())})
	case j.State() == jobs.StateCancelled:
		s.writeError(w, r, errorClass{http.StatusGone, CodeCancelled, 0, fmt.Errorf("job %s was cancelled", id)})
	case err != nil:
		// A job has no client deadline, and it counts into no request counter.
		s.writeError(w, r, s.advisoryErrorClass(context.Background(), err))
	default:
		writeJSON(w, b, "job")
	}
}

// jobsRetryAfter hints how long a client should wait when the job store
// is full of unfinished jobs: roughly one queued-jobs drain interval,
// bounded the same way the queue-based hint is.
func (s *Server) jobsRetryAfter() int {
	n := s.jobs.Count(jobs.StateQueued) + s.jobs.Count(jobs.StateRunning)
	return retryAfterSecs(n, int(n)+1)
}

// sniffKind infers the document kind from its shape: a sweep document
// is the only one with a top-level "base" object.
func sniffKind(spec []byte) string {
	var probe struct {
		Base json.RawMessage `json:"base"`
	}
	if json.Unmarshal(spec, &probe) == nil && len(probe.Base) > 0 {
		return kindSweep
	}
	return kindAdvise
}

// submitJobSpec validates one submission document and registers it with
// the job manager; it is the single entry point for both fresh POSTs and
// restart recovery (which passes the persisted checkpoints as resume).
func (s *Server) submitJobSpec(kind string, spec []byte, resume map[int]json.RawMessage) (*jobs.Job, bool, error) {
	for _, ep := range s.endpoints() {
		if ep.kind != kind {
			continue
		}
		req, err := ep.parse(bytes.NewReader(spec))
		if err != nil {
			return nil, false, &badSpecError{err}
		}
		return s.jobs.Submit(jobs.Request{
			Kind: kind, ID: req.fp, Spec: spec, Resume: resume,
			Run: s.runner(ep, req),
		})
	}
	return nil, false, &badSpecError{fmt.Errorf("unknown job kind %q (want %q or %q)", kind, kindAdvise, kindSweep)}
}

// runner executes a job through the synchronous route's leader path —
// response cache, schema interning and the shared evaluation semaphore
// included — so the job's result bytes match the synchronous response
// exactly. A finished job reports all of its scenarios done; those the
// run did not stream itself (an advisory, or anything answered from the
// response cache) are credited to the scenario counter here.
func (s *Server) runner(ep *endpoint, req *request) jobs.Runner {
	n := req.scenarios
	return func(ctx context.Context, j *jobs.Job) ([]byte, error) {
		j.Update(func(p *jobs.Progress) { p.ScenariosTotal = n })
		b, err := s.lead(ctx, ep, req, &stageTimes{}, j)
		if err != nil {
			return nil, err
		}
		var unreported int
		j.Update(func(p *jobs.Progress) {
			unreported = n - p.ScenariosDone
			p.ScenariosDone = n
		})
		j.AddScenarios(unreported)
		return b, nil
	}
}

// jobSweepOptions derives the job's sweep hooks: decoded resume
// checkpoints, progress streaming, and per-scenario checkpointing.
func jobSweepOptions(j *jobs.Job, opts *sweep.Options) {
	opts.Resume = decodeResume(j.ResumeCheckpoints())
	opts.OnScenario = func(p sweep.Progress) {
		j.Update(func(pr *jobs.Progress) {
			pr.ScenariosDone = p.Done
			pr.ScenariosTotal = p.Total
			if p.Resumed {
				pr.ScenariosResumed++
			}
			if p.Result != nil {
				pr.PruneEvaluated += p.Result.PruneStats.Evaluated
				pr.PruneSkipped += p.Result.PruneStats.Skipped
			}
		})
		if !p.Resumed {
			j.Checkpoint(p.Index, p.Outcome)
			j.AddScenarios(1)
		}
	}
}

// decodeResume turns persisted raw checkpoints into sweep Outcomes.
// Undecodable entries are dropped: the scenario is simply re-evaluated.
func decodeResume(raw map[int]json.RawMessage) map[int]sweep.Outcome {
	if len(raw) == 0 {
		return nil
	}
	out := make(map[int]sweep.Outcome, len(raw))
	for k, v := range raw {
		var o sweep.Outcome
		if err := json.Unmarshal(v, &o); err != nil {
			continue
		}
		out[k] = o
	}
	return out
}

// recoverJobs resubmits jobs a previous process left unfinished on disk,
// feeding their persisted checkpoints back as resume state so completed
// scenarios are replayed instead of re-evaluated.
func (s *Server) recoverJobs(dir string) {
	if dir == "" {
		return
	}
	pending, errs := jobs.LoadPending(dir)
	for _, err := range errs {
		s.logf("warlockd: job recovery: %v", err)
	}
	for _, p := range pending {
		if _, _, err := s.submitJobSpec(p.Kind, p.Spec, p.Resume); err != nil {
			s.logf("warlockd: job recovery: resubmit %s: %v", p.ID, err)
		}
	}
}

func writeJobJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(ensureTrailingNewline(b))
}
