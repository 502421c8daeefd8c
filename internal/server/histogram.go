package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// histBounds are the latency bucket upper bounds in seconds, exponential
// from half a millisecond to ten seconds; an implicit +Inf bucket
// catches the rest. The range covers everything from a parse of a small
// document to a paper-scale advisory evaluation.
var histBounds = [14]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with lock-free
// observation: stage recording sits on the request hot path, so each
// observation is two atomic adds and one atomic increment.
type histogram struct {
	buckets [len(histBounds) + 1]atomic.Int64 // last bucket is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(histBounds) && s > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// write renders the histogram in the Prometheus text exposition shape
// (cumulative le buckets, then _sum and _count), under the given metric
// name with endpoint/stage labels.
func (h *histogram) write(w io.Writer, name, endpoint, stage string) {
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(histBounds) {
			le = fmt.Sprintf("%g", histBounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,stage=%q,le=%q} %d\n", name, endpoint, stage, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{endpoint=%q,stage=%q} %g\n", name, endpoint, stage,
		time.Duration(h.sumNs.Load()).Seconds())
	fmt.Fprintf(w, "%s_count{endpoint=%q,stage=%q} %d\n", name, endpoint, stage, h.count.Load())
}

// endpointStats is one advisory endpoint's stage latency histograms.
// parse/queue/evaluate/serialize split the leader's critical path; total
// is the full handler latency of every request (hits and coalesced
// waiters included).
type endpointStats struct {
	parse, queue, evaluate, serialize histogram
	total                             histogram
}

func (e *endpointStats) write(w io.Writer, metric, endpoint string) {
	for _, s := range []struct {
		stage string
		h     *histogram
	}{
		{"parse", &e.parse},
		{"queue", &e.queue},
		{"evaluate", &e.evaluate},
		{"serialize", &e.serialize},
		{"total", &e.total},
	} {
		s.h.write(w, metric, endpoint, s.stage)
	}
}

// stageTimes carries one request's stage durations from the evaluation
// path back to the handler for slow-request logging. Only the flight
// leader fills queue/evaluate/serialize; cache hits and coalesced
// waiters report zeros there (the work was not theirs).
type stageTimes struct {
	parse, queue, evaluate, serialize time.Duration
}
