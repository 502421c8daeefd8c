package hierarchy

import (
	"errors"
	"testing"
	"testing/quick"
)

func apbProduct(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New([]int{4, 15, 75, 250, 605, 9000})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrBadCards) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := New([]int{4, 0}); !errors.Is(err, ErrBadCards) {
		t.Fatalf("zero: %v", err)
	}
	if _, err := New([]int{4, 2}); !errors.Is(err, ErrBadCards) {
		t.Fatalf("decreasing: %v", err)
	}
}

func TestBasics(t *testing.T) {
	h := apbProduct(t)
	if h.Levels() != 6 || h.Bottom() != 5 || h.Cardinality(4) != 605 {
		t.Fatalf("basics: %d %d %d", h.Levels(), h.Bottom(), h.Cardinality(4))
	}
}

func TestParentBounds(t *testing.T) {
	h := apbProduct(t)
	for l := 1; l < h.Levels(); l++ {
		prev := 0
		for v := 0; v < h.Cardinality(l); v++ {
			p := h.Parent(l, v)
			if p < 0 || p >= h.Cardinality(l-1) {
				t.Fatalf("parent out of range: level %d value %d parent %d", l, v, p)
			}
			if p < prev {
				t.Fatalf("parent not monotone at level %d value %d", l, v)
			}
			prev = p
		}
		// Last value's parent must be the last parent (surjectivity of the
		// proportional split).
		if h.Parent(l, h.Cardinality(l)-1) != h.Cardinality(l-1)-1 {
			t.Fatalf("level %d: last parent not last value", l)
		}
	}
	if h.Parent(0, 3) != 3 {
		t.Fatal("parent of top level should be identity")
	}
}

func TestEveryParentHasChildren(t *testing.T) {
	h := apbProduct(t)
	for l := 0; l < h.Bottom(); l++ {
		covered := 0
		for v := 0; v < h.Cardinality(l); v++ {
			lo, hi := h.Children(l, v)
			if hi < lo {
				t.Fatalf("level %d value %d has no children", l, v)
			}
			if lo != covered {
				t.Fatalf("level %d value %d children [%d,%d] leave gap at %d", l, v, lo, hi, covered)
			}
			covered = hi + 1
		}
		if covered != h.Cardinality(l+1) {
			t.Fatalf("level %d children cover %d of %d", l, covered, h.Cardinality(l+1))
		}
	}
	// Children at the bottom are the value itself.
	if lo, hi := h.Children(h.Bottom(), 42); lo != 42 || hi != 42 {
		t.Fatalf("bottom children = [%d,%d]", lo, hi)
	}
}

func TestAncestorDescendantsRoundTrip(t *testing.T) {
	h := apbProduct(t)
	for _, from := range []int{0, 2, 4} {
		to := h.Bottom()
		for v := 0; v < h.Cardinality(from); v++ {
			lo, hi := h.Descendants(from, v, to)
			if h.Ancestor(to, lo, from) != v || h.Ancestor(to, hi, from) != v {
				t.Fatalf("descendant range [%d,%d] of %d@%d has wrong ancestors", lo, hi, v, from)
			}
			if lo > 0 && h.Ancestor(to, lo-1, from) == v {
				t.Fatalf("value %d before range also descends from %d@%d", lo-1, v, from)
			}
			if hi < h.Cardinality(to)-1 && h.Ancestor(to, hi+1, from) == v {
				t.Fatalf("value %d after range also descends from %d@%d", hi+1, v, from)
			}
		}
	}
}

func TestDescendantCountsSum(t *testing.T) {
	h := apbProduct(t)
	for from := 0; from < h.Levels(); from++ {
		for to := from; to < h.Levels(); to++ {
			total := 0
			for v := 0; v < h.Cardinality(from); v++ {
				lo, hi := h.Descendants(from, v, to)
				total += hi - lo + 1
			}
			if total != h.Cardinality(to) {
				t.Fatalf("descendants %d->%d sum %d != %d", from, to, total, h.Cardinality(to))
			}
		}
	}
}

func TestDescendantCountsNearEven(t *testing.T) {
	h := apbProduct(t)
	// The proportional split keeps sibling subtree sizes within a factor
	// ~2 of the average across one level step.
	for l := 0; l < h.Bottom(); l++ {
		avg := float64(h.Cardinality(l+1)) / float64(h.Cardinality(l))
		for v := 0; v < h.Cardinality(l); v++ {
			lo, hi := h.Descendants(l, v, l+1)
			n := hi - lo + 1
			if float64(n) > 2*avg+1 || float64(n) < avg/2-1 {
				t.Fatalf("level %d value %d has %d children, avg %.2f", l, v, n, avg)
			}
		}
	}
}

// Property: ancestor composition is transitive — going bottom→mid→top
// equals bottom→top.
func TestAncestorTransitive(t *testing.T) {
	h := apbProduct(t)
	f := func(bRaw uint16, midRaw, topRaw uint8) bool {
		b := int(bRaw) % h.Cardinality(h.Bottom())
		mid := int(midRaw) % h.Levels()
		top := int(topRaw) % h.Levels()
		if top > mid {
			top, mid = mid, top
		}
		direct := h.Ancestor(h.Bottom(), b, top)
		viaMid := h.Ancestor(mid, h.Ancestor(h.Bottom(), b, mid), top)
		return direct == viaMid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bottom value always lies within the descendant range of its
// own ancestor, for every level pair.
func TestDescendantContainsSelf(t *testing.T) {
	h, err := New([]int{3, 7, 20, 99, 1000})
	if err != nil {
		t.Fatal(err)
	}
	f := func(bRaw uint16, lRaw uint8) bool {
		b := int(bRaw) % 1000
		l := int(lRaw) % 5
		a := h.Ancestor(h.Bottom(), b, l)
		lo, hi := h.Descendants(l, a, h.Bottom())
		return b >= lo && b <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
