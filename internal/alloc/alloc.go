// Package alloc implements WARLOCK's physical allocation schemes (paper
// §2): the logical round-robin scheme, which stores fact table and bitmap
// fragments on disk according to the logical order of the fragmentation
// dimensions, and the greedy size-based scheme used under notable data
// skew, which stores fragments ordered by decreasing size onto the least
// occupied disk at a time to keep disk occupancy balanced.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Scheme identifies an allocation strategy.
type Scheme int

const (
	// RoundRobin assigns fragment i (in logical order) to disk i mod D.
	RoundRobin Scheme = iota
	// GreedySize assigns fragments by decreasing size to the currently
	// least occupied disk.
	GreedySize
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case GreedySize:
		return "greedy-size"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Errors returned by this package.
var (
	ErrBadDisks     = errors.New("alloc: number of disks must be positive")
	ErrNoFragments  = errors.New("alloc: nothing to allocate")
	ErrNegativeSize = errors.New("alloc: fragment size must be non-negative")
)

// Placement is a computed disk allocation: the disk of every fragment (in
// logical fragment order) plus the resulting per-disk load.
type Placement struct {
	// Scheme that produced the placement.
	Scheme Scheme
	// Disks is the number of disks.
	Disks int
	// DiskOf[i] is the disk index of fragment i.
	DiskOf []int
	// Load[d] is the total pages assigned to disk d.
	Load []int64
}

// Allocate computes a placement of the given per-fragment page counts with
// the chosen scheme.
func Allocate(scheme Scheme, pages []int64, disks int) (*Placement, error) {
	if disks <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadDisks, disks)
	}
	if len(pages) == 0 {
		return nil, ErrNoFragments
	}
	for i, p := range pages {
		if p < 0 {
			return nil, fmt.Errorf("%w: fragment %d has %d pages", ErrNegativeSize, i, p)
		}
	}
	pl := &Placement{Scheme: scheme, Disks: disks, DiskOf: make([]int, len(pages)), Load: make([]int64, disks)}
	switch scheme {
	case RoundRobin:
		d := 0 // i % disks, by a wrapping counter
		for i, p := range pages {
			pl.DiskOf[i] = d
			pl.Load[d] += p
			if d++; d == disks {
				d = 0
			}
		}
	case GreedySize:
		greedy(pl, pages)
	default:
		return nil, fmt.Errorf("alloc: unknown scheme %d", int(scheme))
	}
	return pl, nil
}

func greedy(pl *Placement, pages []int64) {
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	// Decreasing size; ties broken by logical order for determinism.
	sort.Slice(order, func(a, b int) bool {
		if pages[order[a]] != pages[order[b]] {
			return pages[order[a]] > pages[order[b]]
		}
		return order[a] < order[b]
	})
	// idx is a binary min-heap of disks ordered by (load, disk index),
	// so ties go to the lowest index. Every load starts at zero, so the
	// identity order already is a heap.
	load := pl.Load
	idx := make([]int, pl.Disks)
	for d := range idx {
		idx[d] = d
	}
	for _, fi := range order {
		d := idx[0]
		pl.DiskOf[fi] = d
		load[d] += pages[fi]
		siftDown(idx, load)
	}
}

// siftDown restores the heap order of idx after the load of its root
// disk grew. It makes container/heap's comparisons — the smaller child
// by (load, index), then child against root — but carries the root in a
// local instead of swapping at every level.
func siftDown(idx []int, load []int64) {
	n := len(idx)
	d := idx[0]
	ld := load[d]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		c := idx[j]
		if j2 := j + 1; j2 < n {
			if c2 := idx[j2]; load[c2] < load[c] || load[c2] == load[c] && c2 < c {
				j, c = j2, c2
			}
		}
		if load[c] > ld || load[c] == ld && c > d {
			break
		}
		idx[i] = c
		i = j
	}
	idx[i] = d
}

// Choose applies WARLOCK's rule: round-robin normally, greedy size-based
// "under notable data skew", detected via the coefficient of variation of
// fragment sizes exceeding cvThreshold (a threshold of 0 means "always use
// the skew rule with the default cut of 0.1").
func Choose(pages []int64, disks int, cvThreshold float64) (*Placement, error) {
	if cvThreshold <= 0 {
		cvThreshold = DefaultSkewCV
	}
	if sizeCV(pages) > cvThreshold {
		return Allocate(GreedySize, pages, disks)
	}
	return Allocate(RoundRobin, pages, disks)
}

// DefaultSkewCV is the default fragment-size CV above which greedy
// allocation is selected.
const DefaultSkewCV = 0.1

func sizeCV(pages []int64) float64 {
	n := len(pages)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, p := range pages {
		sum += float64(p)
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, p := range pages {
		d := float64(p) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// OccStats summarizes disk occupancy balance of a placement.
type OccStats struct {
	// MinLoad/MaxLoad/AvgLoad are per-disk page loads.
	MinLoad int64
	MaxLoad int64
	AvgLoad float64
	// CV is the coefficient of variation of per-disk load.
	CV float64
	// Imbalance is MaxLoad/AvgLoad (1.0 = perfectly balanced); 0 when the
	// placement is empty.
	Imbalance float64
	// TotalPages over all disks.
	TotalPages int64
}

// Stats computes occupancy statistics.
func (p *Placement) Stats() OccStats {
	var st OccStats
	if len(p.Load) == 0 {
		return st
	}
	st.MinLoad = p.Load[0]
	st.MaxLoad = p.Load[0]
	var sum float64
	for _, l := range p.Load {
		if l < st.MinLoad {
			st.MinLoad = l
		}
		if l > st.MaxLoad {
			st.MaxLoad = l
		}
		sum += float64(l)
		st.TotalPages += l
	}
	st.AvgLoad = sum / float64(len(p.Load))
	if st.AvgLoad > 0 {
		var ss float64
		for _, l := range p.Load {
			d := float64(l) - st.AvgLoad
			ss += d * d
		}
		st.CV = math.Sqrt(ss/float64(len(p.Load))) / st.AvgLoad
		st.Imbalance = float64(st.MaxLoad) / st.AvgLoad
	}
	return st
}

// FitsCapacity reports whether every disk's load fits the per-disk
// capacity (in pages).
func (p *Placement) FitsCapacity(capacityPages int64) bool {
	for _, l := range p.Load {
		if l > capacityPages {
			return false
		}
	}
	return true
}
