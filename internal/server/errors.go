package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// Machine-readable error codes, one per failure class of the service.
// They extend the HTTP status taxonomy with the *reason*: three distinct
// conditions share 503, and two share cancellation semantics, so a code
// is what lets a client implement a correct retry policy. The wire shape
// is negotiated via the Accept header (see writeError); the codes are
// documented in the warlock package docs.
const (
	// CodeBadRequest: the document failed to parse or validate (400).
	CodeBadRequest = "bad_request"
	// CodeOversized: the request body exceeded the configured limit (413).
	CodeOversized = "oversized"
	// CodeUnfeasible: the advisory ran but no candidate was feasible (422).
	CodeUnfeasible = "unfeasible"
	// CodeDeadline: the request exceeded RequestTimeout; its evaluation
	// was cancelled (504).
	CodeDeadline = "deadline"
	// CodeClientGone: the client disconnected before the advisory
	// completed (408).
	CodeClientGone = "client_gone"
	// CodeShed: the evaluation queue was full; the request was rejected
	// without queueing (503 + Retry-After).
	CodeShed = "shed"
	// CodeQueueTimeout: the request waited QueueTimeout for an
	// evaluation slot without getting one (503 + Retry-After).
	CodeQueueTimeout = "queue_timeout"
	// CodeShutdown: the server is draining; the evaluation was cancelled
	// (503).
	CodeShutdown = "shutdown"
	// CodeRetry: a transient coalescing race cancelled the evaluation;
	// an immediate retry will succeed (503 + Retry-After).
	CodeRetry = "retry"
	// CodeMethodNotAllowed: wrong HTTP method for the route (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no job with the requested id (404).
	CodeNotFound = "not_found"
	// CodeNotReady: the job exists but has not finished; its result is
	// not available yet (409 + Retry-After).
	CodeNotReady = "not_ready"
	// CodeCancelled: the job was cancelled before completing (410).
	CodeCancelled = "cancelled"
	// CodeJobsFull: the job store is at capacity with every slot holding
	// an unfinished job (503 + Retry-After).
	CodeJobsFull = "jobs_full"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// maxRetryAfterSecs caps the computed Retry-After hint: past half a
// minute the guidance stops being about queue drain and starts being a
// de facto outage signal, which the 503 already is.
const maxRetryAfterSecs = 30

// retryAfterSecs maps current queue fullness to a backoff hint in whole
// seconds. An empty or unbounded queue keeps the historical 1s floor; a
// bounded queue scales the hint linearly with its fill fraction up to
// maxRetryAfterSecs at (or beyond) capacity, so the deeper the backlog a
// shed client observed, the longer it backs off — spreading the retry
// herd instead of synchronizing it 1s later.
func retryAfterSecs(depth int64, maxQueue int) int {
	if maxQueue <= 0 || depth <= 0 {
		return 1
	}
	if depth > int64(maxQueue) {
		depth = int64(maxQueue)
	}
	// Ceiling division: any non-empty queue rounds up to at least 1s.
	s := int((depth*maxRetryAfterSecs + int64(maxQueue) - 1) / int64(maxQueue))
	if s < 1 {
		s = 1
	}
	return s
}

// retryAfter reads the live queue depth and computes the current hint.
func (s *Server) retryAfter() int {
	return retryAfterSecs(s.queued.Load(), s.maxQueue)
}

// errorEnvelope is the structured error body sent to clients that accept
// application/json explicitly.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code           string `json:"code"`
	Message        string `json:"message"`
	RetryAfterSecs int    `json:"retry_after_seconds,omitempty"`
}

// wantsEnvelope reports whether the client opted into the structured
// error format by naming application/json (or a +json type) in Accept.
// Clients that send no Accept header — or the permissive */* that every
// pre-envelope client effectively sends — keep the legacy
// {"error": "message"} shape, so nothing existing breaks.
func wantsEnvelope(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "application/json" || strings.HasSuffix(mt, "+json") {
			return true
		}
	}
	return false
}

// errorClass is how one failure renders: HTTP status, error code,
// Retry-After hint in seconds (0 for none) and message.
type errorClass struct {
	status int
	code   string
	retry  int
	err    error
}

// writeError renders one error response: the legacy {"error": message}
// JSON object by default, or the structured envelope
// {"error":{"code","message","retry_after_seconds"}} when the client's
// Accept header names application/json. A retry hint > 0 additionally
// sets the Retry-After header (and the envelope field) so shed clients
// back off proportionally to the backlog they hit.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, c errorClass) int {
	w.Header().Set("Content-Type", "application/json")
	if c.retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(c.retry))
	}
	w.WriteHeader(c.status)
	if wantsEnvelope(r) {
		json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{
			Code:           c.code,
			Message:        c.err.Error(),
			RetryAfterSecs: c.retry,
		}})
	} else {
		json.NewEncoder(w).Encode(map[string]string{"error": c.err.Error()})
	}
	return c.status
}
