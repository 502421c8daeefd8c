package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between the closest ranks (an infinite rank stays infinite); 0 for an
// empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads printed here match a reader's
// own check. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Runtime metrics read around the measured phase.
const (
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmGCPauses = "/sched/pauses/total/gc:seconds"
	rmHeap     = "/memory/classes/heap/objects:bytes"
)

// runtimeSnapshot is the process-wide allocation and GC state at one
// instant.
type runtimeSnapshot struct {
	mallocs, totalAlloc uint64
	gcCycles            uint64
	gcPauseSec          float64
}

func readRuntime() runtimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmGCPauses}}
	metrics.Read(s)
	return runtimeSnapshot{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		gcCycles:   s[0].Value.Uint64(),
		gcPauseSec: histogramSum(s[1].Value.Float64Histogram()),
	}
}

// histogramSum estimates the total of a runtime/metrics histogram from
// its bucket midpoints (the lower edge for an unbounded bucket).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		switch {
		case math.IsInf(hi, 1):
			v = lo
		case math.IsInf(lo, -1):
			v = hi
		}
		sum += float64(c) * v
	}
	return sum
}

// heapSampler records the peak live heap while the measured phase runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: rmHeap}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak heap in MB.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}
