package rank

import (
	"container/heap"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
)

// costLess is the phase-1 total order: total I/O access cost, ties broken
// by response time, then by candidate key. The key is unique per
// candidate, so this is a strict total order and any insertion order
// yields the same ranking.
func costLess(a, b *costmodel.Evaluation) bool {
	if a.AccessCost != b.AccessCost {
		return a.AccessCost < b.AccessCost
	}
	if a.ResponseTime != b.ResponseTime {
		return a.ResponseTime < b.ResponseTime
	}
	return a.Frag.Key() < b.Frag.Key()
}

// respLess is the phase-2 total order over the leading set: response
// time, ties broken by access cost, then candidate key.
func respLess(a, b *costmodel.Evaluation) bool {
	if a.ResponseTime != b.ResponseTime {
		return a.ResponseTime < b.ResponseTime
	}
	if a.AccessCost != b.AccessCost {
		return a.AccessCost < b.AccessCost
	}
	return a.Frag.Key() < b.Frag.Key()
}

// leadSize reproduces the twofold heuristic's leading-set size for a pool
// of n candidates: X% of n (rounded up), floored by minLead, capped at n.
func leadSize(n int, pct float64, minLead int) int {
	lead := int(float64(n)*pct/100 + 0.999999)
	if lead < minLead {
		lead = minLead
	}
	if lead > n {
		lead = n
	}
	return lead
}

// Collector is the streaming half of the twofold ranking: a bounded
// worst-out heap that ingests evaluations one at a time — in any order —
// and produces exactly the ranking Rank computes from the full slice.
//
// The leading set of the heuristic is the top X% of the FINAL pool, whose
// size is unknown mid-stream; the collector therefore bounds its heap by
// the leading-set size of maxCandidates, an upper bound on how many
// evaluations will ever be added (e.g. fragment.EnumerationSize for a
// full enumeration, or the explicit candidate count). The collector
// itself retains O(bound) evaluations — with the default 10%/min-5
// options a 100k-candidate stream keeps 10k references instead of all
// of them — though callers that also record every evaluation elsewhere
// (core.Result does, for the analysis layer) still hold O(candidates)
// overall. maxCandidates <= 0 keeps every added evaluation (exact for
// any stream length, no memory bound).
type Collector struct {
	pct     float64
	minLead int
	topN    int
	reqCap  bool
	bound   int // max heap size; 0 = unbounded
	seen    int // pool size (evaluations added, after capacity filter)
	total   int // evaluations offered, including capacity-filtered ones
	h       evalHeap
	// cutoff is the published admission threshold: a snapshot of the
	// heap's worst retained tuple once the heap is full. It is written
	// only by Add (the pipeline serializes Add calls) and read
	// lock-free by the evaluation workers deciding whether a candidate's
	// lower bound can still beat the retained set — the atomic pointer
	// makes those cross-goroutine reads race-free.
	cutoff atomic.Pointer[Cutoff]
}

// Cutoff is a point-in-time admission threshold of a full collector
// heap: the phase-1 tuple (access cost, response time, candidate key) of
// the worst retained evaluation. Once the heap is full this tuple is
// monotone non-increasing under the phase-1 order — every later Add can
// only replace the worst with something better — so a candidate whose
// cost tuple is provably at or above ANY published cutoff can never
// enter the final retained set.
type Cutoff struct {
	AccessCost   time.Duration
	ResponseTime time.Duration
	Key          string
}

// Admits reports whether a candidate with the given admissible lower
// bounds on its cost pair could still enter the retained set: true
// unless the cutoff tuple is strictly below the bound tuple in the
// phase-1 order. The comparison is strict so a duplicate of the current
// worst retained candidate (equal tuple, equal key) is never skipped —
// it must be evaluated to keep results identical to the unpruned run.
func (c *Cutoff) Admits(lbCost, lbResp time.Duration, key string) bool {
	// !(cutoff < bound) in the (cost, resp, key) lexicographic order.
	if c.AccessCost != lbCost {
		return c.AccessCost > lbCost
	}
	if c.ResponseTime != lbResp {
		return c.ResponseTime > lbResp
	}
	return c.Key >= key
}

// NewCollector returns a streaming collector for the given ranking
// options. maxCandidates is the upper bound on Add calls (<= 0 for
// unbounded collection).
func NewCollector(opts Options, maxCandidates int) *Collector {
	pct := opts.LeadingPercent
	if pct <= 0 {
		pct = DefaultLeadingPercent
	}
	minLead := opts.MinLeading
	if minLead <= 0 {
		minLead = DefaultMinLeading
	}
	c := &Collector{pct: pct, minLead: minLead, topN: opts.TopN, reqCap: opts.RequireCapacity}
	if maxCandidates > 0 {
		// leadSize is non-decreasing in the pool size, so the leading set
		// of any final pool fits in leadSize(maxCandidates) slots: an
		// evaluation evicted here can never re-enter a later leading set.
		c.bound = leadSize(maxCandidates, pct, minLead)
		c.h = make(evalHeap, 0, c.bound+1)
	}
	return c
}

// Add ingests one evaluation. Order is irrelevant: the phase-1 comparator
// is a strict total order, so the surviving top set — and hence the final
// ranking — is identical for any permutation of Add calls.
func (c *Collector) Add(ev *costmodel.Evaluation) {
	c.total++
	if c.reqCap && !ev.CapacityOK {
		return
	}
	c.seen++
	heap.Push(&c.h, ev)
	if c.bound > 0 && len(c.h) > c.bound {
		heap.Pop(&c.h) // evict the current worst
	}
	if c.bound > 0 && len(c.h) == c.bound {
		worst := c.h[0]
		cut := Cutoff{AccessCost: worst.AccessCost, ResponseTime: worst.ResponseTime, Key: worst.Frag.Key()}
		if prev := c.cutoff.Load(); prev == nil || *prev != cut {
			c.cutoff.Store(&cut)
		}
	}
}

// AddSkipped records a candidate that was proven a loser by its lower
// bound and never evaluated. It still counts toward the pool size so the
// leading-set fraction — and hence Ranked — is identical to the run that
// evaluates everything. Only candidates the admission cutoff rejects may
// be recorded here; under RequireCapacity no candidate may be skipped at
// all (capacity is unknown without evaluation).
func (c *Collector) AddSkipped() {
	c.total++
	c.seen++
}

// Cutoff returns the latest published admission threshold. ok is false
// until the bounded heap first fills (or always, for unbounded
// collectors). Safe for concurrent use with serialized Add calls.
func (c *Collector) Cutoff() (Cutoff, bool) {
	if p := c.cutoff.Load(); p != nil {
		return *p, true
	}
	return Cutoff{}, false
}

// RetainedKeys returns the candidate keys currently retained by the
// bounded heap — the deterministic survivor set of the phase-1 order,
// independent of Add order and of how many provable losers were skipped.
func (c *Collector) RetainedKeys() map[string]bool {
	keys := make(map[string]bool, len(c.h))
	for _, ev := range c.h {
		keys[ev.Frag.Key()] = true
	}
	return keys
}

// Seen returns the pool size so far (added evaluations that passed the
// capacity filter).
func (c *Collector) Seen() int { return c.seen }

// Kept returns how many evaluations the bounded heap currently retains.
func (c *Collector) Kept() int { return len(c.h) }

// Ranked finalizes the twofold ranking over everything added so far:
// the retained candidates are exactly the pool's best by access cost, so
// their positions in cost order are the global cost ranks; the leading
// X% (of the true pool size) is then re-ranked by response time and
// truncated to TopN.
func (c *Collector) Ranked() ([]Ranked, error) {
	if c.seen == 0 {
		return nil, fmt.Errorf("%w (input %d, after capacity filter 0)", ErrNoCandidates, c.total)
	}
	pool := append([]*costmodel.Evaluation(nil), c.h...)
	sort.Slice(pool, func(i, j int) bool { return costLess(pool[i], pool[j]) })
	costRank := make(map[string]int, len(pool))
	for i, e := range pool {
		costRank[e.Frag.Key()] = i + 1
	}
	lead := leadSize(c.seen, c.pct, c.minLead)
	if lead > len(pool) {
		lead = len(pool) // unreachable when bound was sized from a true upper bound
	}
	leading := append([]*costmodel.Evaluation(nil), pool[:lead]...)
	sort.Slice(leading, func(i, j int) bool { return respLess(leading[i], leading[j]) })
	if c.topN > 0 && c.topN < len(leading) {
		leading = leading[:c.topN]
	}
	out := make([]Ranked, len(leading))
	for i, e := range leading {
		out[i] = Ranked{Eval: e, CostRank: costRank[e.Frag.Key()], ResponseRank: i + 1}
	}
	return out, nil
}

// evalHeap is a worst-at-root heap under the phase-1 order, so eviction
// drops the current worst retained candidate.
type evalHeap []*costmodel.Evaluation

func (h evalHeap) Len() int           { return len(h) }
func (h evalHeap) Less(i, j int) bool { return costLess(h[j], h[i]) }
func (h evalHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *evalHeap) Push(x any)        { *h = append(*h, x.(*costmodel.Evaluation)) }
func (h *evalHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
