package costmodel

import (
	"math"

	"repro/internal/fragment"
)

// This file is the size-class cost kernel: the per-(query class,
// size class) half of the evaluation hot path. Hierarchical
// fragmentation yields geometries where huge numbers of fragments share
// the exact (rows, pages) size pair — every uniform dimension collapses
// its whole value range into one class — and FragmentCost/Seconds depend
// on a fragment only through that pair. The kernel therefore prices each
// distinct size once (fragment.SizeClasses, built once per geometry and
// shared via the geometry cache) and the evaluator fans the per-class
// results back out over ClassOf. That turns the transcendental-heavy
// inner loop (Cardenas' formula, one math.Expm1 per fragment) from
// O(fragments) into O(distinct sizes); the formula's log1p(−p) is taken
// once per query class. The fold that sums the per-class results runs
// over the runs of equal size classes in logical fragment order: each
// placement-independent sum takes a run's addends in a few exact
// repeated additions (addN), and only the per-disk busy time is still
// added per fragment, so every accumulated float is bit-identical to the
// naive per-fragment loop (property-tested in kernel_test.go).
//
// The same dedup feeds all three pricing stages: evaluateClass (full
// model, through fragmentCost) and optimizeGranules (granule search over
// the representative average size, sharing the table's cached row sum,
// through FragmentCost) price sizes here, and lowerbound.go's admissible
// floor prices its single size, the one fact row, with the same
// touchProb form (LowerBound).
// The placement's inputs are priced per size class too: the co-located
// bitmap pages of one fragment (classBitmapPages) and the scheme's bitmap
// footprint (bitmap.IndexPages) are computed once per class, and only
// the fan-out of the allocation weights touches every fragment.
//
// The passes that still visit every fragment are the geometry build
// (sizing and classifying each fragment, then its Stats), the placement
// (weight fan-out, size CV and the allocator), the run-end scan
// (runEnds, once per candidate) and, in evaluateClass's fold, the
// per-disk busy add of each fragment. The hit-pattern walk in
// expectedMaxResponse visits every hit fragment of each pattern it
// evaluates. Under greedy placement it evaluates every pattern. Under
// round-robin placement it evaluates one pattern per group of disk
// relabelings (relabel.go) and adds the stored value once per pattern.

// sizeClassCost is the kernel's output for one (class, size class) pair:
// the raw fragment I/O plus every HitProb-weighted per-fragment addend of
// the evaluator's accumulation loop, precomputed with exactly the
// arithmetic the per-fragment loop used (same operand order, so the
// folded sums are bit-identical).
type sizeClassCost struct {
	io FragmentIO
	// tv is io.Seconds under the disk parameters: the fragment's service
	// time if hit.
	tv float64
	// sel = HitProb · rows · RowSel, the expected qualifying rows.
	sel float64
	// factIOs/factPages/bitmapIOs/bitmapPages are the HitProb-weighted io
	// counts.
	factIOs, factPages, bitmapIOs, bitmapPages float64
	// w = HitProb · tv, the fragment's expected busy-time contribution.
	w float64
}

// priceSizeClasses fills and returns the per-size-class cost table of one
// query class: FragmentCost and service time computed once per distinct
// (rows, pages) pair, with the class's log1p(−IndexedSel) taken once,
// plus the HitProb-weighted addends the accumulation loop folds per
// fragment. Zero-page classes stay all-zero, matching the naive loop's
// skip of empty fragments (adding +0.0 to the non-negative accumulators
// is a bitwise no-op). The table lives in the scratch and is overwritten
// by the next call.
func (e *Evaluator) priceSizeClasses(plan *ClassPlan, pageSize int, sz *fragment.SizeClasses, factGranule, bmGranule int, sc *Scratch) []sizeClassCost {
	k := sz.NumClasses()
	if cap(sc.cls) < k {
		sc.cls = make([]sizeClassCost, k)
	}
	cls := sc.cls[:k]
	hp := plan.HitProb
	lq := math.Log1p(-plan.IndexedSel)
	for c := range cls {
		// Fields are assigned in place: building a literal and copying
		// it costs a block copy per size class.
		k := &cls[c]
		if sz.Pages[c] == 0 {
			*k = sizeClassCost{}
			continue
		}
		rows := sz.Rows[c]
		k.io = fragmentCost(plan, pageSize, sz.Pages[c], rows, factGranule, bmGranule, lq)
		k.tv = k.io.Seconds(&e.cfg.Disk)
		k.sel = hp * rows * plan.RowSel
		k.factIOs = hp * k.io.FactIOs
		k.factPages = hp * k.io.FactPages
		k.bitmapIOs = hp * k.io.BitmapIOs
		k.bitmapPages = hp * k.io.BitmapPages
		k.w = hp * k.tv
	}
	return cls
}

// foldRunMin is the shortest run of equal size classes that evaluateClass
// folds with addN. addN pays two or three real adds plus some bit
// arithmetic per binade its sum crosses, so shorter runs are cheaper to
// fold one add at a time.
const foldRunMin = 16

// runEnds fills ends with the exclusive end of every maximal run of
// equal sz.ClassOf entries, in fragment order. sz.Runs sizes the buffer
// up front, so the appends never regrow it.
func runEnds(ends []int32, sz *fragment.SizeClasses) []int32 {
	ends = growInt32s(ends, sz.Runs)[:0]
	of := sz.ClassOf
	for v := 1; v < len(of); v++ {
		if of[v] != of[v-1] {
			ends = append(ends, int32(v))
		}
	}
	if len(of) > 0 {
		ends = append(ends, int32(len(of)))
	}
	return ends
}

// addN returns bit for bit what n sequential s += x return, for finite
// s, x >= 0, in a handful of real additions per binade the sum crosses
// instead of n.
//
// Under round-to-nearest-even, a partial sum t in the binade [2^e,
// 2^(e+1)) (the subnormals share the lowest normal binade's spacing) is
// a multiple of that binade's ulp u, so t + x rounds to t plus x rounded
// to a multiple d of u, the same for every t, as long as the result stays
// below 2^(e+1). A tie (x ≡ u/2 mod u) is the one exception: it rounds to
// the even neighbour, so the step depends on t's parity, but after one
// tie-rounded step inside the binade t is even and every later step is
// the same even multiple. Hence once three consecutive partial sums lie
// in one binade, the step between the last two repeats exactly while the
// sum stays at least one ulp below 2^(e+1). Bit patterns of non-negative
// floats are linear in value within a binade, so addN takes those steps
// in integer arithmetic on the bits and goes back to real adds at the
// binade's edge.
func addN(s, x float64, n int) float64 {
	same := false // the partial sum before s lies in s's binade
	for ; n > 0; n-- {
		t := s + x
		if t == s {
			return t // every further add returns t as well
		}
		bs, bt := math.Float64bits(s), math.Float64bits(t)
		switch {
		case binade(bt) != binade(bs):
			same = false
		case !same:
			same = true
		default:
			d := bt - bs
			last := (binade(bt)+1)<<52 - 1 // bits of the binade's largest float
			m := min(uint64(n-1), (last-bt)/d)
			t = math.Float64frombits(bt + m*d)
			n -= int(m)
		}
		s = t
	}
	return s
}

// binade numbers the uniform-spacing range of a non-negative float by its
// bit pattern: the exponent field, with the subnormals (field 0) joining
// the lowest normal binade (field 1), whose spacing they share.
func binade(bits uint64) uint64 { return max(bits>>52, 1) }
