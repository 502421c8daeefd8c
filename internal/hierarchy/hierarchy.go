// Package hierarchy materializes properly nested dimension hierarchies:
// every value of a level has exactly one parent at the level above, and
// the descendants of a value at any lower level form a contiguous index
// range. The nesting is what makes MDHF fragment elimination exact — a
// predicate at or above the fragmentation level selects whole fragments —
// so the executable storage engine (package storage) builds on this while
// the analytical cost model works with expected cardinality ratios.
//
// Parent assignment splits each level's value range into near-even
// contiguous groups per parent: parent(v at level l) = v·c_{l-1}/c_l.
// Composing these single-level maps top-down yields the ancestor chain of
// every bottom value.
package hierarchy

import (
	"errors"
	"fmt"
)

// ErrBadCards reports invalid level cardinalities.
var ErrBadCards = errors.New("hierarchy: invalid level cardinalities")

// Hierarchy is a nested multi-level hierarchy over integer value ids.
type Hierarchy struct {
	cards []int
}

// New builds a hierarchy from top-to-bottom level cardinalities
// (non-decreasing, positive).
func New(cards []int) (*Hierarchy, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("%w: no levels", ErrBadCards)
	}
	prev := 0
	for i, c := range cards {
		if c <= 0 {
			return nil, fmt.Errorf("%w: level %d cardinality %d", ErrBadCards, i, c)
		}
		if c < prev {
			return nil, fmt.Errorf("%w: level %d cardinality %d < %d", ErrBadCards, i, c, prev)
		}
		prev = c
	}
	return &Hierarchy{cards: append([]int(nil), cards...)}, nil
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.cards) }

// Cardinality returns the cardinality of a level.
func (h *Hierarchy) Cardinality(level int) int { return h.cards[level] }

// Bottom returns the index of the finest level.
func (h *Hierarchy) Bottom() int { return len(h.cards) - 1 }

// Parent returns the parent (at level-1) of value v at the given level.
// Parent of a level-0 value is itself.
func (h *Hierarchy) Parent(level, v int) int {
	if level <= 0 {
		return v
	}
	return v * h.cards[level-1] / h.cards[level]
}

// Ancestor returns the ancestor of value v (at fromLevel) at toLevel
// (toLevel <= fromLevel). Ancestor at the same level is v itself.
func (h *Hierarchy) Ancestor(fromLevel, v, toLevel int) int {
	for l := fromLevel; l > toLevel; l-- {
		v = h.Parent(l, v)
	}
	return v
}

// Children returns the contiguous child index range [lo, hi] of value v
// (at level) one level below. A leaf level has no children.
func (h *Hierarchy) Children(level, v int) (lo, hi int) {
	if level >= h.Bottom() {
		return v, v
	}
	cUp, cDown := h.cards[level], h.cards[level+1]
	// Children of v are {u : u·cUp/cDown == v}.
	lo = ceilDiv(v*cDown, cUp)
	hi = ceilDiv((v+1)*cDown, cUp) - 1
	return lo, hi
}

// Descendants returns the contiguous descendant index range [lo, hi] of
// value v (at fromLevel) at toLevel (toLevel >= fromLevel).
func (h *Hierarchy) Descendants(fromLevel, v, toLevel int) (lo, hi int) {
	lo, hi = v, v
	for l := fromLevel; l < toLevel; l++ {
		lo, _ = h.Children(l, lo)
		_, hi = h.Children(l, hi)
	}
	return lo, hi
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
