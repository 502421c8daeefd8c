package costmodel

import "math/rand"

// Scratch is the evaluation working set of one goroutine. A pipeline
// worker creates one Scratch up front and threads it through
// EvaluateWith for every candidate it prices; plain Evaluate uses a fresh
// one per call. Nothing in it escapes into an Evaluation (per-class costs
// and disk profiles are still freshly allocated), so reuse cannot change
// results; the zeroing discipline is documented at each use site. A
// Scratch must not be used from two goroutines concurrently; results are
// bit-identical whether evaluations share a Scratch, use distinct ones,
// or go through plain Evaluate.
type Scratch struct {
	// cls is the size-class cost table of the class currently being
	// priced (see kernel.go); every entry is overwritten by
	// priceSizeClasses before use.
	cls []sizeClassCost
	// runs holds the exclusive end of every run of equal size classes of
	// the candidate's geometry (see runEnds); filled once per candidate
	// and shared by its classes' folds in evaluateClass.
	runs []int32
	// busy accumulates per-disk busy time in evaluateClass (zeroed per
	// class); rbusy is the hit-pattern enumeration's accumulator, kept
	// all-zero between patterns by the enumeration itself.
	busy, rbusy []float64
	// classBM holds the co-located bitmap pages of one fragment per size
	// class, and weights the per-fragment allocation weights fanned out
	// from it; both are overwritten for every candidate before use, and
	// the allocator reads weights without keeping it.
	classBM, weights []int64
	// touched lists the disks a pattern actually loaded (capacity =
	// disks, so appends never regrow it).
	touched []int
	// outs holds the per-dimension outcome sets of the class currently
	// being priced (pointers into the Evaluator's outcome cache).
	outs [][][]int
	// sets/idx/choice are the hit-pattern cursors, one entry per
	// fragmentation attribute.
	sets   [][]int
	idx    []int
	choice []int
	// groups holds the per-dimension relabeling groups of the class
	// currently being priced (views of the Evaluator's group memo),
	// and vals the value of each group combination; vals grows to the
	// largest group-combination count seen, at most maxResponseOutcomes,
	// and is overwritten before use.
	groups []outcomeGroups
	vals   []float64
	// order is the sort permutation of a group-memo build.
	order []int32
	// plans holds the candidate's per-class plans, in mix order; Dims
	// capacity is reused across candidates.
	plans []ClassPlan
	// rng replays the deterministic sampling fallback: re-seeded per
	// (candidate, class), it produces exactly the sequence a fresh
	// rand.New(rand.NewSource(seed)) would.
	rng *rand.Rand
}

// NewScratch returns an empty worker-lifetime scratch. Its argument is
// ignored; it remains only so existing callers passing nil compile.
func (e *Evaluator) NewScratch(_ any) *Scratch {
	return &Scratch{rng: rand.New(rand.NewSource(0))}
}

// Reset discards the scratch's buffers and replaces them with fresh
// ones. A panic during EvaluateWith may abandon the buffers mid-mutation
// (half-filled cost tables, dirty accumulators); a pipeline worker that
// recovers such a panic must Reset before pricing the next candidate so
// the poisoned state cannot leak into an unrelated evaluation.
func (s *Scratch) Reset() {
	*s = Scratch{rng: rand.New(rand.NewSource(0))}
}

// resize readies the scratch for a candidate with the given disk,
// attribute and class counts. rbusy is zeroed; busy/idx/choice are zeroed
// at their use sites; cls is sized by the kernel per class evaluation.
func (sc *Scratch) resize(disks, dims, classes int) {
	sc.busy = growFloats(sc.busy, disks)
	sc.rbusy = growFloats(sc.rbusy, disks)
	clear(sc.rbusy)
	if cap(sc.touched) < disks {
		sc.touched = make([]int, 0, disks)
	}
	if cap(sc.sets) < dims {
		sc.sets = make([][]int, dims)
	}
	sc.sets = sc.sets[:dims]
	if cap(sc.outs) < dims {
		sc.outs = make([][][]int, dims)
	}
	sc.outs = sc.outs[:dims]
	if cap(sc.groups) < dims {
		sc.groups = make([]outcomeGroups, dims)
	}
	sc.groups = sc.groups[:dims]
	sc.idx = growInts(sc.idx, dims)
	sc.choice = growInts(sc.choice, dims)
	if cap(sc.plans) < classes {
		sc.plans = make([]ClassPlan, classes)
	}
	sc.plans = sc.plans[:classes]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
