// Package bitmap models the bitmap join indexes WARLOCK plans per
// fragmentation (paper §2/§3.2): standard bitmaps on low-cardinality
// dimension attributes and hierarchically encoded bitmaps on
// high-cardinality attributes, both working as bitmap join indexes
// (O'Neil/Graefe) to avoid costly fact table scans.
//
// Bitmap fragmentation exactly follows the fact table fragmentation to keep
// the relationship of indicator bits and fact table rows, so all sizing is
// expressed against a fragment.Geometry.
package bitmap

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Kind selects the physical bitmap representation of one attribute.
type Kind int

const (
	// Standard keeps one bit-slice per attribute value: cheap to read
	// (one slice per equality predicate) but storage grows linearly with
	// cardinality.
	Standard Kind = iota
	// HierEncoded keeps ⌈log2(cardinality)⌉ bit-slices encoding the value
	// hierarchically: storage grows logarithmically, but an equality
	// predicate must read every slice.
	HierEncoded
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Standard:
		return "standard"
	case HierEncoded:
		return "encoded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrBadConfig reports invalid scheme options.
var ErrBadConfig = errors.New("bitmap: invalid configuration")

// Index is one planned bitmap join index.
type Index struct {
	// Attr is the indexed dimension attribute.
	Attr schema.AttrRef
	// Kind is the chosen representation.
	Kind Kind
	// Slices is the number of stored bit-slices.
	Slices int
	// ReadSlices is the number of slices an equality predicate on the
	// attribute must read.
	ReadSlices int
}

// slicesFor computes stored/read slice counts for a cardinality and kind.
func slicesFor(card int, k Kind) (stored, read int) {
	switch k {
	case Standard:
		return card, 1
	case HierEncoded:
		n := bitsFor(card)
		return n, n
	default:
		return 0, 0
	}
}

// bitsFor returns ⌈log2(card)⌉, minimum 1.
func bitsFor(card int) int {
	if card <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(card))))
}

// Options controls bitmap scheme planning.
type Options struct {
	// CardinalityThreshold: attributes with cardinality <= threshold get
	// standard bitmaps, larger ones hierarchically encoded bitmaps.
	// Ignored when CostBased is true. Default 250 (DefaultThreshold).
	CardinalityThreshold int
	// CostBased selects the kind minimizing storage+read page cost per
	// attribute instead of the plain threshold rule.
	CostBased bool
	// Exclude lists attributes the DBA removed from the suggestion "to
	// limit space requirements" (§3.3).
	Exclude []schema.AttrRef
}

// DefaultThreshold is the default standard-vs-encoded cardinality cut.
const DefaultThreshold = 250

// Scheme is the bitmap index set WARLOCK suggests for one fragmentation.
type Scheme struct {
	Indexes []Index
}

// PlanScheme determines the bitmap scheme for a fragmentation and query
// mix: one index per workload-referenced attribute whose predicate is not
// already resolved by fragment elimination. A predicate on dimension d at
// level lq is resolved by the fragmentation when the fragmentation carries
// an attribute of d at level lf >= lq (the query value selects whole
// fragments); otherwise qualifying rows must be located inside fragments
// and a bitmap is planned.
func PlanScheme(s *schema.Star, f *fragment.Fragmentation, m *workload.Mix, opts Options) (*Scheme, error) {
	if opts.CardinalityThreshold < 0 {
		return nil, fmt.Errorf("%w: threshold %d", ErrBadConfig, opts.CardinalityThreshold)
	}
	threshold := opts.CardinalityThreshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	excluded := make(map[schema.AttrRef]bool, len(opts.Exclude))
	for _, a := range opts.Exclude {
		excluded[a] = true
	}
	need := map[schema.AttrRef]bool{}
	for _, c := range m.Classes {
		for _, p := range c.Predicates {
			if Resolved(f, p) || excluded[p] {
				continue
			}
			need[p] = true
		}
	}
	attrs := make([]schema.AttrRef, 0, len(need))
	for a := range need {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool {
		if attrs[i].Dim != attrs[j].Dim {
			return attrs[i].Dim < attrs[j].Dim
		}
		return attrs[i].Level < attrs[j].Level
	})
	sc := &Scheme{}
	for _, a := range attrs {
		card := s.Cardinality(a)
		kind := Standard
		if opts.CostBased {
			kind = cheaperKind(card)
		} else if card > threshold {
			kind = HierEncoded
		}
		stored, read := slicesFor(card, kind)
		sc.Indexes = append(sc.Indexes, Index{Attr: a, Kind: kind, Slices: stored, ReadSlices: read})
	}
	return sc, nil
}

// Resolved reports whether a predicate on attribute p is fully answered by
// fragment elimination under fragmentation f (no bitmap or in-fragment
// filtering needed): true iff f fragments p's dimension at a level at or
// below (finer than or equal to) the predicate level.
func Resolved(f *fragment.Fragmentation, p schema.AttrRef) bool {
	fa, ok := f.Attr(p.Dim)
	return ok && fa.Level >= p.Level
}

// cheaperKind picks the kind minimizing stored slices + read slices — the
// simplest total-cost proxy combining space and single-predicate read
// effort with equal weight.
func cheaperKind(card int) Kind {
	stdStored, stdRead := slicesFor(card, Standard)
	encStored, encRead := slicesFor(card, HierEncoded)
	if stdStored+stdRead <= encStored+encRead {
		return Standard
	}
	return HierEncoded
}

// Index lookup by attribute; second result false if the scheme holds no
// index for the attribute.
func (sc *Scheme) Index(a schema.AttrRef) (Index, bool) {
	for _, ix := range sc.Indexes {
		if ix.Attr == a {
			return ix, true
		}
	}
	return Index{}, false
}

// SliceBytesPerFragment returns the size in bytes of ONE bit-slice of one
// fragment holding `rows` fact rows.
func SliceBytesPerFragment(rows float64) int64 {
	return int64(math.Ceil(rows / 8))
}

// SlicePagesPerFragment returns the page count of one bit-slice of one
// fragment.
func SlicePagesPerFragment(rows float64, pageSize int) int64 {
	if pageSize <= 0 {
		return 0
	}
	b := SliceBytesPerFragment(rows)
	if b == 0 {
		return 0
	}
	return (b + int64(pageSize) - 1) / int64(pageSize)
}

// PackedPagesPerFragment returns the page count of `slices` bit-slices of
// one fragment when the slices are packed together (page-aligned per
// fragment, not per slice) — the storage and allocation footprint. Reads
// of a single slice still cost at least one page (SlicePagesPerFragment).
func PackedPagesPerFragment(rows float64, slices int, pageSize int) int64 {
	if pageSize <= 0 || slices <= 0 {
		return 0
	}
	b := SliceBytesPerFragment(rows) * int64(slices)
	if b == 0 {
		return 0
	}
	return (b + int64(pageSize) - 1) / int64(pageSize)
}

// IndexBytes returns the total storage of one index over all fragments of
// the geometry. A fragment's footprint depends only on its row count, so
// the sum runs over the geometry's size classes, each weighted by its
// fragment count; the terms are integers, so the total equals the
// per-fragment sum exactly.
func IndexBytes(ix Index, g *fragment.Geometry) int64 {
	sz := g.SizeClasses()
	var total int64
	for c, rows := range sz.Rows {
		total += sz.Count[c] * (SliceBytesPerFragment(rows) * int64(ix.Slices))
	}
	return total
}

// IndexPages returns the total page count of one index over all fragments,
// packing the index's slices per fragment — bitmap fragments are stored
// fragment-aligned like the fact table. Summed per size class, exactly as
// IndexBytes.
func IndexPages(ix Index, g *fragment.Geometry) int64 {
	sz := g.SizeClasses()
	var total int64
	for c, rows := range sz.Rows {
		total += sz.Count[c] * PackedPagesPerFragment(rows, ix.Slices, g.PageSize)
	}
	return total
}

// SchemeBytes returns the storage footprint of the whole scheme.
func (sc *Scheme) SchemeBytes(g *fragment.Geometry) int64 {
	var total int64
	for _, ix := range sc.Indexes {
		total += IndexBytes(ix, g)
	}
	return total
}

// SchemePages returns the page footprint of the whole scheme.
func (sc *Scheme) SchemePages(g *fragment.Geometry) int64 {
	var total int64
	for _, ix := range sc.Indexes {
		total += IndexPages(ix, g)
	}
	return total
}
