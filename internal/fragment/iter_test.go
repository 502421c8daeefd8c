package fragment

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apb"
	"repro/internal/schema"
)

func TestEnumerationSize(t *testing.T) {
	s := apb.Schema(1_000_000)
	if got := EnumerationSize(s); got != 167 {
		t.Fatalf("EnumerationSize(APB-1) = %d, want 167", got)
	}
	if got := int64(len(Enumerate(s))); got != EnumerationSize(s) {
		t.Fatalf("Enumerate yields %d, EnumerationSize says %d", got, EnumerationSize(s))
	}
}

func TestEnumerateSeqMatchesEnumerate(t *testing.T) {
	s := apb.Schema(1_000_000)
	want := Enumerate(s)
	i := 0
	for f := range EnumerateSeq(s) {
		if i >= len(want) {
			t.Fatalf("sequence longer than slice (%d)", len(want))
		}
		if f.Key() != want[i].Key() {
			t.Fatalf("candidate %d: seq %s, slice %s", i, f.Key(), want[i].Key())
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("sequence yielded %d, slice has %d", i, len(want))
	}
}

func TestEnumerateSeqEarlyBreak(t *testing.T) {
	s := apb.Schema(1_000_000)
	n := 0
	for range EnumerateSeq(s) {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("early break consumed %d", n)
	}
}

func TestEnumerateFilteredSeqMatchesSlices(t *testing.T) {
	s := apb.Schema(1_000_000)
	th := Thresholds{MinAvgFragmentPages: 16, MaxFragments: 1 << 20}
	kept, excluded := EnumerateFiltered(s, th, 8192)
	if len(kept) == 0 || len(excluded) == 0 {
		t.Fatalf("expected both survivors (%d) and exclusions (%d)", len(kept), len(excluded))
	}
	var k, x int
	for f, v := range EnumerateFilteredSeq(s, th, 8192) {
		if v != nil {
			if x >= len(excluded) || v.Frag.Key() != excluded[x].Frag.Key() {
				t.Fatalf("exclusion %d mismatch", x)
			}
			if v.Frag != f {
				t.Fatalf("violation frag != yielded frag")
			}
			x++
			continue
		}
		if k >= len(kept) || f.Key() != kept[k].Key() {
			t.Fatalf("survivor %d mismatch", k)
		}
		k++
	}
	if k != len(kept) || x != len(excluded) {
		t.Fatalf("streamed %d/%d, slices %d/%d", k, x, len(kept), len(excluded))
	}
}

// TestKeyStoredAtConstruction: the key rendered once at construction
// equals the Sprintf/Join form it replaced, for every APB-1 candidate,
// whether it comes from enumeration, New or Parse.
func TestKeyStoredAtConstruction(t *testing.T) {
	s := apb.Schema(1_000_000)
	reference := func(f *Fragmentation) string {
		parts := make([]string, len(f.Attrs()))
		for i, a := range f.Attrs() {
			parts[i] = fmt.Sprintf("%d:%d", a.Dim, a.Level)
		}
		return strings.Join(parts, "|")
	}
	cands := Enumerate(s)
	for _, f := range cands {
		want := reference(f)
		if got := f.Key(); got != want {
			t.Fatalf("enumerated %s: Key %q, want %q", f.Name(s), got, want)
		}
		// New normalizes attribute order, so feed it the attributes
		// reversed; Parse goes through the "Dim.level" names.
		attrs := append([]schema.AttrRef(nil), f.Attrs()...)
		slices.Reverse(attrs)
		if got := MustNew(s, attrs...).Key(); got != want {
			t.Fatalf("New %s: Key %q, want %q", f.Name(s), got, want)
		}
		p, err := Parse(s, strings.Split(f.Name(s), " x ")...)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Key(); got != want {
			t.Fatalf("Parse %s: Key %q, want %q", f.Name(s), got, want)
		}
	}
	if len(cands) != 167 {
		t.Fatalf("checked %d candidates, want 167", len(cands))
	}
}
