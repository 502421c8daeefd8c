// Package fragment implements MDHF, the multi-dimensional hierarchical
// range fragmentation strategy WARLOCK follows (Stöhr/Märtens/Rahm,
// VLDB 2000; paper §2).
//
// A fragmentation is defined by selecting a set of fragmentation attributes
// from the dimension attributes, at most one per dimension. All fact table
// rows corresponding to a single value combination of the fragmentation
// attributes are assigned to one fragment; one-dimensional fragmentations
// are the special case of a single attribute. WARLOCK limits the evaluation
// space to "point" fragmentations (attribute range size = 1, §3.2), which
// this package implements. Bitmap fragmentation exactly follows the fact
// table fragmentation, so fragment geometry computed here is shared by the
// bitmap and cost-model packages.
package fragment

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/skew"
)

// Errors returned by this package.
var (
	ErrDuplicateDim = errors.New("fragment: at most one fragmentation attribute per dimension")
	ErrEmpty        = errors.New("fragment: fragmentation needs at least one attribute")
	ErrTooMany      = errors.New("fragment: fragment count exceeds limit")
	ErrBadAttr      = errors.New("fragment: invalid attribute")
)

// Fragmentation is an MDHF point fragmentation: an ordered set of dimension
// attributes, at most one per dimension, sorted by dimension index. The
// logical order of fragments enumerates attribute values in row-major
// order with the LAST attribute varying fastest; this is the "logical order
// of the fragmentation dimensions" used by the round-robin allocation
// scheme (§2).
type Fragmentation struct {
	attrs []schema.AttrRef
	key   string // Key(), rendered once at construction
}

// newFragmentation wraps attributes already sorted by dimension index and
// renders the canonical key once.
func newFragmentation(attrs []schema.AttrRef) *Fragmentation {
	var b []byte
	for i, a := range attrs {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(a.Dim), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(a.Level), 10)
	}
	return &Fragmentation{attrs: attrs, key: string(b)}
}

// New builds a fragmentation from the given attributes, validating against
// the schema and normalizing attribute order by dimension index.
func New(s *schema.Star, attrs ...schema.AttrRef) (*Fragmentation, error) {
	if len(attrs) == 0 {
		return nil, ErrEmpty
	}
	cp := append([]schema.AttrRef(nil), attrs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Dim < cp[j].Dim })
	for i, a := range cp {
		if err := s.CheckAttr(a); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadAttr, err)
		}
		if i > 0 && cp[i-1].Dim == a.Dim {
			return nil, fmt.Errorf("%w (dimension %q)", ErrDuplicateDim, s.Dimensions[a.Dim].Name)
		}
	}
	return newFragmentation(cp), nil
}

// MustNew is New but panics on error; for statically known inputs.
func MustNew(s *schema.Star, attrs ...schema.AttrRef) *Fragmentation {
	f, err := New(s, attrs...)
	if err != nil {
		panic(err)
	}
	return f
}

// Parse builds a fragmentation from "Dim.level" paths such as
// ("Product.class", "Time.month").
func Parse(s *schema.Star, paths ...string) (*Fragmentation, error) {
	attrs := make([]schema.AttrRef, 0, len(paths))
	for _, p := range paths {
		a, err := s.Attr(p)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadAttr, err)
		}
		attrs = append(attrs, a)
	}
	return New(s, attrs...)
}

// Attrs returns the fragmentation attributes sorted by dimension index.
// The returned slice must not be modified.
func (f *Fragmentation) Attrs() []schema.AttrRef { return f.attrs }

// Dims returns the number of fragmentation dimensions (1 = one-dimensional
// fragmentation).
func (f *Fragmentation) Dims() int { return len(f.attrs) }

// Attr returns the fragmentation attribute on the given dimension, if any.
func (f *Fragmentation) Attr(dim int) (schema.AttrRef, bool) {
	for _, a := range f.attrs {
		if a.Dim == dim {
			return a, true
		}
	}
	return schema.AttrRef{}, false
}

// NumFragments returns the number of fragments: the product of the
// fragmentation attribute cardinalities.
func (f *Fragmentation) NumFragments(s *schema.Star) int64 {
	n := int64(1)
	for _, a := range f.attrs {
		n *= int64(s.Cardinality(a))
	}
	return n
}

// Name renders the fragmentation as "Product.class x Time.month".
func (f *Fragmentation) Name(s *schema.Star) string {
	parts := make([]string, len(f.attrs))
	for i, a := range f.attrs {
		parts[i] = s.AttrName(a)
	}
	return strings.Join(parts, " x ")
}

// Key returns a canonical comparable identity for the fragmentation,
// independent of the schema ("0:4|2:2" = dim 0 level 4, dim 2 level 2).
func (f *Fragmentation) Key() string { return f.key }

// FragmentID maps a value combination (one value index per fragmentation
// attribute, in Attrs() order) to the fragment's position in logical
// order.
func (f *Fragmentation) FragmentID(s *schema.Star, values []int) int64 {
	id := int64(0)
	for i, a := range f.attrs {
		id = id*int64(s.Cardinality(a)) + int64(values[i])
	}
	return id
}

// Geometry carries the fragment sizes of a fragmentation under a
// (possibly skewed) value distribution: the building block for bitmap
// sizing, cost prediction, and allocation. Sizes are stored once, as the
// size-class table; a geometry is fully built by NewGeometryFromShares and
// immutable afterwards, so it may be shared across goroutines (see
// costmodel.Cache).
type Geometry struct {
	Frag *Fragmentation
	// AttrShares holds, per fragmentation attribute (in Attrs() order),
	// the share of fact rows per attribute value, aggregated from the
	// dimension's bottom-level distribution.
	AttrShares [][]float64
	// TotalPages is the sum of all fragments' pages (>= the unfragmented
	// table's pages due to per-fragment rounding).
	TotalPages int64
	// PageSize used for the computation.
	PageSize int

	size  SizeClasses
	stats Stats
}

// SizeClasses is a geometry's record of fragment sizes: its fragments
// grouped into their distinct exact (rows, pages) pairs. Hierarchical
// fragmentation yields geometries where huge numbers of fragments share a
// size — a uniform dimension collapses to a single class — so
// per-fragment cost arithmetic that depends only on fragment size can be
// computed once per class and fanned back out over ClassOf (see
// costmodel's size-class kernel). Classes are numbered by first appearance
// in logical fragment order, which makes the table deterministic for a
// given geometry.
type SizeClasses struct {
	// ClassOf[v] is the size class of fragment v, in logical fragment
	// order. len == NumFragments.
	ClassOf []int32
	// Rows[c] and Pages[c] are the exact expected row count and page
	// count of every fragment in class c.
	Rows  []float64
	Pages []int64
	// Count[c] is the number of fragments in class c.
	Count []int64
	// Runs is the number of maximal runs of equal ClassOf entries, so
	// that a pass folding each run at once (costmodel's evaluateClass)
	// can size its run buffer up front.
	Runs int
	// SumRows is the sum of all fragments' rows, accumulated in logical
	// fragment order.
	SumRows float64
}

// NumClasses returns the number of distinct size classes.
func (sz *SizeClasses) NumClasses() int { return len(sz.Rows) }

// sizeKey identifies a size class; rows is compared by bit pattern.
type sizeKey struct {
	rows  uint64
	pages int64
}

// classifier builds a size-class table one fragment at a time, in
// logical fragment order.
type classifier struct {
	sz    *SizeClasses
	index map[sizeKey]int32
	prev  sizeKey
	c     int32 // class of the previous fragment; -1 before the first
}

func newClassifier(sz *SizeClasses, n int64) classifier {
	sz.ClassOf = make([]int32, 0, n)
	return classifier{sz: sz, index: make(map[sizeKey]int32, 64), c: -1}
}

// add appends the next fragment's size to the table. Neighbouring
// fragments usually share a size (the last attribute varies fastest, and
// a uniform one keeps the size), so a fragment equal to its predecessor
// reuses its class without hashing; any other fragment starts a new run.
func (b *classifier) add(rows float64, pages int64) {
	sz := b.sz
	sz.SumRows += rows
	k := sizeKey{rows: math.Float64bits(rows), pages: pages}
	if b.c < 0 || k != b.prev {
		var ok bool
		if b.c, ok = b.index[k]; !ok {
			b.c = int32(len(sz.Rows))
			b.index[k] = b.c
			sz.Rows = append(sz.Rows, rows)
			sz.Pages = append(sz.Pages, pages)
			sz.Count = append(sz.Count, 0)
		}
		b.prev = k
		sz.Runs++
	}
	sz.Count[b.c]++
	sz.ClassOf = append(sz.ClassOf, b.c)
}

// SizeClasses returns the geometry's size-class table. It is shared and
// must not be modified.
func (g *Geometry) SizeClasses() *SizeClasses { return &g.size }

// MaxFragmentsDefault bounds candidate materialization; fragmentations
// above the bound are normally excluded by thresholds first.
const MaxFragmentsDefault = 4 << 20

// NewGeometry computes the fragment sizes. Bottom-level skew of each
// dimension is taken from schema.Dimension.SkewTheta and aggregated to the
// fragmentation level with the given mapping. maxFragments <= 0 uses
// MaxFragmentsDefault.
func NewGeometry(s *schema.Star, f *Fragmentation, pageSize int, mapping skew.Mapping, maxFragments int64) (*Geometry, error) {
	shares := make([][]float64, len(f.attrs))
	for i, a := range f.attrs {
		up, err := AttrShares(s, a, mapping)
		if err != nil {
			return nil, err
		}
		shares[i] = up
	}
	return NewGeometryFromShares(s, f, pageSize, shares, maxFragments)
}

// AttrShares computes the per-value fact-row shares of one dimension
// attribute: the dimension's bottom-level skew distribution aggregated to
// the attribute's level with the given mapping. The result depends only on
// (schema, attribute, mapping), so callers evaluating many candidates may
// compute it once per attribute (see costmodel.Evaluator).
func AttrShares(s *schema.Star, a schema.AttrRef, mapping skew.Mapping) ([]float64, error) {
	d := &s.Dimensions[a.Dim]
	bottom, err := skew.Shares(d.Bottom().Cardinality, d.SkewTheta)
	if err != nil {
		return nil, err
	}
	return skew.Aggregate(bottom, s.Cardinality(a), mapping)
}

// NewGeometryFromShares is NewGeometry with the per-attribute share
// vectors (in Attrs() order) supplied by the caller; shares[i] must have
// one entry per value of attribute i. The slices are referenced, not
// copied — they must stay unmodified for the geometry's lifetime.
func NewGeometryFromShares(s *schema.Star, f *Fragmentation, pageSize int, shares [][]float64, maxFragments int64) (*Geometry, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("fragment: page size %d", pageSize)
	}
	if maxFragments <= 0 {
		maxFragments = MaxFragmentsDefault
	}
	n := f.NumFragments(s)
	if n > maxFragments {
		return nil, fmt.Errorf("%w: %d > %d (%s)", ErrTooMany, n, maxFragments, f.Name(s))
	}
	g := &Geometry{Frag: f, PageSize: pageSize, AttrShares: shares}
	b := newClassifier(&g.size, n)
	rowSize := float64(s.Fact.RowSize)
	totalRows := float64(s.Fact.Rows)
	combo := make([]int, len(f.attrs))
	for id := int64(0); id < n; id++ {
		share := 1.0
		for i := range combo {
			share *= shares[i][combo[i]]
		}
		rows := totalRows * share
		pages := int64(math.Ceil(rows * rowSize / float64(pageSize)))
		if pages < 1 && rows > 0 {
			pages = 1
		}
		b.add(rows, pages)
		g.TotalPages += pages
		// Advance the mixed-radix combination (last attribute fastest).
		for i := len(combo) - 1; i >= 0; i-- {
			combo[i]++
			if combo[i] < len(shares[i]) {
				break
			}
			combo[i] = 0
		}
	}
	g.stats = g.size.stats(g.TotalPages)
	return g, nil
}

// NumFragments returns the fragment count of the geometry.
func (g *Geometry) NumFragments() int64 { return int64(len(g.size.ClassOf)) }

// Stats summarises fragment sizes.
type Stats struct {
	Fragments          int64
	MinPages, MaxPages int64
	AvgPages           float64
	CV                 float64 // coefficient of variation of fragment pages
	TotalPages         int64
}

// Stats returns the size summary of the geometry, computed when it was
// built.
func (g *Geometry) Stats() Stats { return g.stats }

// stats summarises the table. The sums run per fragment in logical order,
// so AvgPages and CV round exactly as a pass over per-fragment pages does.
func (sz *SizeClasses) stats(totalPages int64) Stats {
	st := Stats{Fragments: int64(len(sz.ClassOf)), TotalPages: totalPages}
	if st.Fragments == 0 {
		return st
	}
	st.MinPages = slices.Min(sz.Pages)
	st.MaxPages = slices.Max(sz.Pages)
	var sum float64
	for _, c := range sz.ClassOf {
		sum += float64(sz.Pages[c])
	}
	st.AvgPages = sum / float64(st.Fragments)
	var ss float64
	for _, c := range sz.ClassOf {
		d := float64(sz.Pages[c]) - st.AvgPages
		ss += d * d
	}
	if st.AvgPages > 0 {
		st.CV = math.Sqrt(ss/float64(st.Fragments)) / st.AvgPages
	}
	return st
}

// Thresholds is the exclusion filter of WARLOCK's prediction layer (§3.2:
// "Additional thresholds are applied to exclude fragmentations that, for
// instance, cause fragment sizes to drop below the prefetching granule
// etc.").
type Thresholds struct {
	// MinAvgFragmentPages excludes fragmentations whose average fragment
	// is smaller than this (typically the prefetch granule). 0 disables.
	MinAvgFragmentPages int64
	// MaxFragments excludes fragmentations with more fragments. 0 uses
	// MaxFragmentsDefault.
	MaxFragments int64
	// MinFragments excludes fragmentations with fewer fragments than
	// needed to exploit the configured disks. 0 disables.
	MinFragments int64
	// MaxSizeCV excludes fragmentations whose fragment-size coefficient
	// of variation exceeds this bound (extreme skew). 0 disables.
	MaxSizeCV float64
}

// Violation describes why a candidate was excluded.
type Violation struct {
	Frag   *Fragmentation
	Reason string
}

// Check returns nil if the geometry passes all thresholds, or a Violation
// describing the first failed one.
func (t Thresholds) Check(g *Geometry) *Violation {
	st := g.Stats()
	maxF := t.MaxFragments
	if maxF == 0 {
		maxF = MaxFragmentsDefault
	}
	switch {
	case st.Fragments > maxF:
		return &Violation{Frag: g.Frag, Reason: fmt.Sprintf("fragments %d > max %d", st.Fragments, maxF)}
	case t.MinFragments > 0 && st.Fragments < t.MinFragments:
		return &Violation{Frag: g.Frag, Reason: fmt.Sprintf("fragments %d < min %d", st.Fragments, t.MinFragments)}
	case t.MinAvgFragmentPages > 0 && st.AvgPages < float64(t.MinAvgFragmentPages):
		return &Violation{Frag: g.Frag, Reason: fmt.Sprintf("avg fragment %.1f pages < prefetch granule %d", st.AvgPages, t.MinAvgFragmentPages)}
	case t.MaxSizeCV > 0 && st.CV > t.MaxSizeCV:
		return &Violation{Frag: g.Frag, Reason: fmt.Sprintf("fragment size CV %.2f > %.2f", st.CV, t.MaxSizeCV)}
	}
	return nil
}

// PreCheck cheaply rejects candidates before any geometry is materialized:
// fragment-count thresholds are checked exactly; the average-size threshold
// is checked against the raw (un-rounded) per-fragment average. Because
// page rounding only inflates the materialized average, any candidate that
// passes PreCheck also passes the size part of Check; borderline candidates
// within one page of the threshold may be pre-rejected early — a
// deliberate conservatism for a pre-filter.
func (t Thresholds) PreCheck(s *schema.Star, f *Fragmentation, pageSize int) *Violation {
	n := f.NumFragments(s)
	maxF := t.MaxFragments
	if maxF == 0 {
		maxF = MaxFragmentsDefault
	}
	if n > maxF {
		return &Violation{Frag: f, Reason: fmt.Sprintf("fragments %d > max %d", n, maxF)}
	}
	if t.MinFragments > 0 && n < t.MinFragments {
		return &Violation{Frag: f, Reason: fmt.Sprintf("fragments %d < min %d", n, t.MinFragments)}
	}
	if t.MinAvgFragmentPages > 0 && pageSize > 0 {
		avgPages := float64(s.Fact.Bytes()) / float64(pageSize) / float64(n)
		if avgPages < float64(t.MinAvgFragmentPages) {
			return &Violation{Frag: f, Reason: fmt.Sprintf("avg fragment %.1f pages < prefetch granule %d", avgPages, t.MinAvgFragmentPages)}
		}
	}
	return nil
}

// Enumerate generates every point fragmentation of the schema: all
// non-empty subsets of dimensions with one level chosen per selected
// dimension. The result is in deterministic order (lexicographic over the
// per-dimension level choice, where "no attribute on this dimension" sorts
// first). For the APB-1 schema this yields (6+1)(2+1)(3+1)(1+1)−1 = 167
// candidates. Enumerate materializes EnumerateSeq; streaming consumers
// should range over the sequence directly.
func Enumerate(s *schema.Star) []*Fragmentation {
	out := make([]*Fragmentation, 0, EnumerationSize(s))
	for f := range EnumerateSeq(s) {
		out = append(out, f)
	}
	return out
}

// EnumerateFiltered enumerates candidates and drops those failing
// Thresholds.PreCheck, returning survivors and violations. It materializes
// EnumerateFilteredSeq.
func EnumerateFiltered(s *schema.Star, t Thresholds, pageSize int) (kept []*Fragmentation, excluded []Violation) {
	for f, v := range EnumerateFilteredSeq(s, t, pageSize) {
		if v != nil {
			excluded = append(excluded, *v)
			continue
		}
		kept = append(kept, f)
	}
	return kept, excluded
}
