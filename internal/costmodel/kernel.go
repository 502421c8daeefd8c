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
// once per query class. The remaining per-fragment work is a table
// lookup and a handful of additions, kept in exact logical fragment
// order so every accumulated float is bit-identical to the naive
// per-fragment loop (property-tested in kernel_test.go).
//
// The same dedup feeds all three pricing stages: evaluateClass (full
// model, through fragmentCost) and optimizeGranules (granule search over
// the representative average size, sharing the table's cached row sum,
// through FragmentCost) price sizes here, and lowerbound.go's admissible
// floor prices its single size, the one fact row, with the same
// touchProb form (boundState.perRowFloor).
// The placement's inputs are priced per size class too: the co-located
// bitmap pages of one fragment (classBitmapPages) and the scheme's bitmap
// footprint (bitmap.IndexPages) are computed once per class, and only
// the fan-out of the allocation weights touches every fragment.
//
// The passes that still visit every fragment are the geometry build
// (sizing and classifying each fragment, then its Stats), the placement
// (weight fan-out, size CV and the allocator) and the fold in
// evaluateClass. The hit-pattern walk in expectedMaxResponse visits
// every hit fragment of each pattern it evaluates. Under greedy
// placement it evaluates every pattern. Under round-robin placement it
// evaluates one pattern per group of disk relabelings (relabel.go) and
// adds the stored value once per pattern.

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
		if sz.Pages[c] == 0 {
			cls[c] = sizeClassCost{}
			continue
		}
		rows := sz.Rows[c]
		io := fragmentCost(plan, pageSize, sz.Pages[c], rows, factGranule, bmGranule, lq)
		tv := io.Seconds(&e.cfg.Disk)
		cls[c] = sizeClassCost{
			io:          io,
			tv:          tv,
			sel:         hp * rows * plan.RowSel,
			factIOs:     hp * io.FactIOs,
			factPages:   hp * io.FactPages,
			bitmapIOs:   hp * io.BitmapIOs,
			bitmapPages: hp * io.BitmapPages,
			w:           hp * tv,
		}
	}
	return cls
}
