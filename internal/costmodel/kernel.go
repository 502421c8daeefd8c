package costmodel

import (
	"sync"

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
// inner loop (Cardenas' formula is a math.Pow per fragment) from
// O(fragments) into O(distinct sizes); the remaining per-fragment work
// is a table lookup and a handful of additions, kept in exact logical
// fragment order so every accumulated float is bit-identical to the
// naive per-fragment loop (property-tested in kernel_test.go).
//
// The same dedup feeds all three pricing stages: evaluateClass (full
// model) and optimizeGranules (granule search over the representative
// average size, sharing the table's cached row sum) price sizes through
// FragmentCost here, and lowerbound.go's admissible floor memoizes its
// per-row service-time kernel across candidates (boundState.floorMemo) —
// one size, the single fact row, priced once per distinct selectivity.
// The placement's inputs are priced per size class too: the co-located
// bitmap pages of one fragment (classBitmapPages) and the scheme's bitmap
// footprint (bitmap.IndexPages) are computed once per class, and only
// the fan-out of the allocation weights touches every fragment.
//
// The passes that still visit every fragment are the geometry (sizes and
// the size-class table, built once per geometry), the placement (weight
// fan-out, size CV and the allocator), the fold in evaluateClass and the
// hit-pattern walk in expectedMaxResponse.

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

// shardMinClasses is the smallest per-goroutine share of the size-class
// pricing loop worth a borrowed worker: below it goroutine hand-off costs
// more than the math.Pow calls it parallelizes. Heavily skewed geometries
// (every fragment a distinct size) are the case that clears the bar.
const shardMinClasses = 2048

// Sharder coordinates intra-candidate parallelism with the pipeline's
// idle capacity. A pipeline worker Parks its token as it exits, once the
// candidate cursor has run dry; a worker still pricing a candidate with
// a huge size-class table borrows parked tokens and splits the kernel
// fill across that many extra goroutines. Tokens therefore track exited
// workers only: a running worker holds no parked token, so total running
// goroutines never exceed the worker count. A nil *Sharder disables
// sharing (every method is nil-safe), which is what single-worker
// pipelines use.
type Sharder struct {
	tokens chan struct{}
}

// NewSharder returns a sharder for a pool of `workers` evaluation
// goroutines, or nil when the pool cannot have idle capacity.
func NewSharder(workers int) *Sharder {
	if workers <= 1 {
		return nil
	}
	return &Sharder{tokens: make(chan struct{}, workers)}
}

// Park deposits the calling worker's CPU slot for borrowing. Call as the
// worker exits: an exited worker is permanently idle capacity.
func (s *Sharder) Park() {
	if s != nil {
		s.tokens <- struct{}{}
	}
}

// borrow takes up to max parked tokens without blocking and returns how
// many it got.
func (s *Sharder) borrow(max int) int {
	if s == nil || max <= 0 {
		return 0
	}
	n := 0
	for n < max {
		select {
		case <-s.tokens:
			n++
		default:
			return n
		}
	}
	return n
}

// release returns borrowed tokens. The channel's capacity is the worker
// count and outstanding parks+borrows never exceed it, so release cannot
// block.
func (s *Sharder) release(n int) {
	for i := 0; i < n; i++ {
		s.tokens <- struct{}{}
	}
}

// priceSizeClasses fills and returns the per-size-class cost table of one
// query class: FragmentCost and service time computed once per distinct
// (rows, pages) pair, plus the HitProb-weighted addends the accumulation
// loop folds per fragment. Zero-page classes stay all-zero, matching the
// naive loop's skip of empty fragments (adding +0.0 to the non-negative
// accumulators is a bitwise no-op).
//
// When the table is large enough and idle pipeline workers are parked on
// the scratch's Sharder, the fill is split into contiguous ranges across
// borrowed goroutines. Every slot is written by exactly one goroutine
// with inputs independent of the split, so the sharded fill is
// bit-identical to the serial one.
func (e *Evaluator) priceSizeClasses(plan *ClassPlan, pageSize int, sz *fragment.SizeClasses, factGranule, bmGranule int, sc *evalScratch) []sizeClassCost {
	k := sz.NumClasses()
	if cap(sc.cls) < k {
		sc.cls = make([]sizeClassCost, k)
	}
	cls := sc.cls[:k]
	fill := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if sz.Pages[c] == 0 {
				cls[c] = sizeClassCost{}
				continue
			}
			rows := sz.Rows[c]
			io := FragmentCost(plan, pageSize, sz.Pages[c], rows, factGranule, bmGranule)
			tv := io.Seconds(&e.cfg.Disk)
			hp := plan.HitProb
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
	}
	extra := 0
	if k >= 2*shardMinClasses {
		extra = sc.sharder.borrow(k/shardMinClasses - 1)
	}
	if extra == 0 {
		fill(0, k)
		return cls
	}
	parts := extra + 1
	stride := (k + parts - 1) / parts
	// A panic in any range — a borrowed goroutine's or the caller's own —
	// must neither crash the process (a panic on a bare goroutine is
	// unrecoverable) nor leak borrowed tokens: every range runs under
	// recover, the first panic value is kept, and once all ranges have
	// finished and the tokens are back the panic re-raises on the calling
	// goroutine, where the pipeline worker's per-candidate recover
	// isolates it.
	var (
		panicMu  sync.Mutex
		panicVal any
	)
	safeFill := func(lo, hi int) {
		defer func() {
			if p := recover(); p != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = p
				}
				panicMu.Unlock()
			}
		}()
		fill(lo, hi)
	}
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		lo := p * stride
		hi := min(lo+stride, k)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			safeFill(lo, hi)
		}()
	}
	safeFill(0, min(stride, k))
	wg.Wait()
	sc.sharder.release(extra)
	if panicVal != nil {
		panic(panicVal)
	}
	return cls
}
