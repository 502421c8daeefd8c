package costmodel

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/schema"
)

// This file collapses the exact hit-pattern walk under round-robin
// placement (paper §2: logical round-robin, fragment i on disk i mod D).
//
// Two outcome sets S and S' of one fragmentation attribute are
// equivalent when they have the same length, S' is an elementwise
// translate S + t, and the attribute's shares match bit for bit position
// by position (share[S[j]] == share[S'[j]] for every j). Replacing S by
// S' in a hit pattern shifts every hit fragment id by t·stride, where
// stride is the product of the inner attributes' cardinalities. Under
// round-robin placement that relabels the disks one-to-one (d → d +
// t·stride mod D). Each hit fragment keeps its row count bit for bit (a
// fragment's rows are the product of its attribute shares, formed in
// attribute order), so it keeps its size class and its service time.
// Every disk therefore sums the same floats in the same order, and the
// pattern's max busy time is the same. Applying this one attribute at a
// time, every pattern has the value of the pattern made of its sets'
// group representatives, so the exact walk evaluates one pattern per
// combination of groups and still adds one value per pattern, in
// enumeration order: the result is bit-identical to evaluating every
// pattern. Greedy placement is not a translation, so it is never
// collapsed.

// outcomeGroups partitions one attribute's outcome sets into
// equivalence groups.
type outcomeGroups struct {
	// of[c] is the group of outcome set c; nil when all sets form one
	// group.
	of []int32
	// reps[k] is the lowest-index outcome set of group k.
	reps []int32
}

// singleGroup is the partition of a table whose sets are all
// equivalent, such as the one set of an unreferenced attribute.
var singleGroup = outcomeGroups{reps: []int32{0}}

// groupKey identifies one attribute's outcome groups: the attribute fixes
// the share vector, the outcome key the sets.
type groupKey struct {
	attr schema.AttrRef
	out  outcomeKey
}

// groupOutcomes partitions sets into equivalence groups by sorting their
// indices by signature (length, offsets from the first value, share bits)
// with ties broken by index; equal neighbours share a group, and each
// group's first index is its representative. A table whose sets are all
// equivalent to the first (the common case for uniform dimensions) is
// recognised by a linear pass and costs no allocation. order is a
// reusable buffer for the sort permutation, returned grown; of and reps
// share the one allocation the result keeps.
func groupOutcomes(sets [][]int, shares []float64, order []int32) (outcomeGroups, []int32) {
	if !slices.ContainsFunc(sets[1:], func(s []int) bool { return compareOutcomeSets(sets[0], s, shares) != 0 }) {
		return singleGroup, order
	}
	n := len(sets)
	order = growInt32s(order, n)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := compareOutcomeSets(sets[a], sets[b], shares); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	startsGroup := func(i int) bool {
		return i == 0 || compareOutcomeSets(sets[order[i-1]], sets[order[i]], shares) != 0
	}
	groups := 0
	for i := range order {
		if startsGroup(i) {
			groups++
		}
	}
	buf := make([]int32, n+groups)
	g := outcomeGroups{of: buf[:n:n], reps: buf[n : n : n+groups]}
	for i, c := range order {
		if startsGroup(i) {
			g.reps = append(g.reps, c)
		}
		g.of[c] = int32(len(g.reps) - 1)
	}
	return g, order
}

// compareOutcomeSets orders outcome sets by signature; it returns 0
// exactly when a and b are equivalent.
func compareOutcomeSets(a, b []int, shares []float64) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for j := range a {
		if c := cmp.Compare(a[j]-a[0], b[j]-b[0]); c != 0 {
			return c
		}
	}
	for j := range a {
		if c := cmp.Compare(math.Float64bits(shares[a[j]]), math.Float64bits(shares[b[j]])); c != 0 {
			return c
		}
	}
	return 0
}

// outcomeGroupsOf returns the memoized groups of one attribute's outcome
// sets (sets must be the memoized table of dp, shares the attribute's
// share vector; sc lends the build its sort buffer). Like dimOutcomeSets,
// lookups take the read lock and a miss builds under the write lock
// after a re-check, so the groups are built once per (attribute, outcome
// key) and Evaluator. Every geometry of the Evaluator carries the same
// share vector for an attribute, so the attribute stands in for the
// shares in the key.
func (e *Evaluator) outcomeGroupsOf(a schema.AttrRef, dp DimPlan, sets [][]int, shares []float64, sc *Scratch) outcomeGroups {
	if len(sets) == 1 {
		return singleGroup
	}
	key := groupKey{attr: a, out: dp.outcomeKey()}
	e.outMu.RLock()
	g, ok := e.groups[key]
	e.outMu.RUnlock()
	if ok {
		return g
	}
	e.outMu.Lock()
	defer e.outMu.Unlock()
	if g, ok := e.groups[key]; ok {
		return g
	}
	g, sc.order = groupOutcomes(sets, shares, sc.order)
	e.groups[key] = g
	return g
}
