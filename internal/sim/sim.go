// Package sim provides a discrete-event multi-disk I/O simulator. It
// replaces the parallel disk hardware of the paper's Shared Disk / Shared
// Everything environment with an executable substrate: queries become jobs
// whose physical I/O requests queue FIFO at per-disk servers, and the
// simulator measures actual response times, utilization and queueing
// effects. The analytical cost model is validated against it (experiment
// E7: max-of-expectation vs simulated expectation-of-max), and multi-user
// throughput behaviour (which the analytical model only proxies via total
// access cost) is measured directly (Poisson arrivals).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Request is one physical I/O batch against a disk: the simulator does not
// re-derive service times, it executes whatever the cost model priced.
type Request struct {
	// Disk index in [0, Disks).
	Disk int
	// Service is the device busy time of the request.
	Service time.Duration
}

// Job is one query execution: all its requests are issued at Arrival and
// processed FIFO per disk; the job completes when its last request does.
type Job struct {
	ID       int
	Arrival  time.Duration
	Requests []Request
}

// Metrics summarizes a simulation run.
type Metrics struct {
	// Jobs completed.
	Jobs int
	// MeanResponse, P95Response, MaxResponse over job response times
	// (completion − arrival).
	MeanResponse time.Duration
	P95Response  time.Duration
	MaxResponse  time.Duration
	// Makespan is the completion time of the last request.
	Makespan time.Duration
	// Utilization per disk: busy time / makespan.
	Utilization []float64
	// TotalBusy is the summed device busy time over all disks.
	TotalBusy time.Duration
}

// Errors returned by Run.
var (
	ErrBadDisks = errors.New("sim: number of disks must be positive")
	ErrBadJob   = errors.New("sim: invalid job")
)

// Run executes the jobs on `disks` FIFO servers and returns aggregate
// metrics plus the per-job response times (indexed like jobs).
//
// Scheduling semantics: requests enter their disk's queue at the job's
// arrival time; each disk serves its queue in (arrival, job ID, request
// order) order. This models intra-query parallelism across disks with
// sequential service per disk — the same structure the analytical response
// time model assumes, plus real queueing between concurrent jobs.
func Run(disks int, jobs []Job) (Metrics, []time.Duration, error) {
	if disks <= 0 {
		return Metrics{}, nil, fmt.Errorf("%w: %d", ErrBadDisks, disks)
	}
	type item struct {
		arrival time.Duration
		jobIdx  int
		seq     int
		service time.Duration
	}
	queues := make([][]item, disks)
	for ji := range jobs {
		j := &jobs[ji]
		if j.Arrival < 0 {
			return Metrics{}, nil, fmt.Errorf("%w: job %d arrival %v", ErrBadJob, j.ID, j.Arrival)
		}
		for ri, r := range j.Requests {
			if r.Disk < 0 || r.Disk >= disks {
				return Metrics{}, nil, fmt.Errorf("%w: job %d request %d disk %d", ErrBadJob, j.ID, ri, r.Disk)
			}
			if r.Service < 0 {
				return Metrics{}, nil, fmt.Errorf("%w: job %d request %d service %v", ErrBadJob, j.ID, ri, r.Service)
			}
			queues[r.Disk] = append(queues[r.Disk], item{arrival: j.Arrival, jobIdx: ji, seq: ri, service: r.Service})
		}
	}
	completion := make([]time.Duration, len(jobs))
	for i := range completion {
		completion[i] = jobs[i].Arrival // jobs with no requests finish instantly
	}
	busy := make([]time.Duration, disks)
	var makespan time.Duration
	for d := range queues {
		q := queues[d]
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].arrival != q[b].arrival {
				return q[a].arrival < q[b].arrival
			}
			if q[a].jobIdx != q[b].jobIdx {
				return q[a].jobIdx < q[b].jobIdx
			}
			return q[a].seq < q[b].seq
		})
		var free time.Duration
		for _, it := range q {
			start := it.arrival
			if free > start {
				start = free
			}
			finish := start + it.service
			free = finish
			busy[d] += it.service
			if finish > completion[it.jobIdx] {
				completion[it.jobIdx] = finish
			}
			if finish > makespan {
				makespan = finish
			}
		}
	}
	responses := make([]time.Duration, len(jobs))
	m := Metrics{Jobs: len(jobs), Utilization: make([]float64, disks)}
	var sum time.Duration
	for i := range jobs {
		r := completion[i] - jobs[i].Arrival
		responses[i] = r
		sum += r
		if r > m.MaxResponse {
			m.MaxResponse = r
		}
	}
	if len(jobs) > 0 {
		m.MeanResponse = sum / time.Duration(len(jobs))
		sorted := append([]time.Duration(nil), responses...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		idx := int(float64(len(sorted))*0.95) - 1
		if idx < 0 {
			idx = 0
		}
		m.P95Response = sorted[idx]
	}
	m.Makespan = makespan
	for d := range busy {
		m.TotalBusy += busy[d]
		if makespan > 0 {
			m.Utilization[d] = float64(busy[d]) / float64(makespan)
		}
	}
	return m, responses, nil
}

// PoissonArrivalsRand returns n arrival times with exponential
// inter-arrival times of mean 1/ratePerSec, drawn from rng: the caller
// owns the stream, so composed experiments can share or interleave
// sources deliberately instead of relying on seed arithmetic.
func PoissonArrivalsRand(n int, ratePerSec float64, rng *rand.Rand) ([]time.Duration, error) {
	if n < 0 || ratePerSec <= 0 {
		return nil, fmt.Errorf("%w: n=%d rate=%g", ErrBadJob, n, ratePerSec)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil random source", ErrBadJob)
	}
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / ratePerSec
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out, nil
}
