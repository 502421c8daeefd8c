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
	"sort"
	"strconv"
	"strings"
	"sync"

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
// order. Inverse of ValueCombo.
func (f *Fragmentation) FragmentID(s *schema.Star, values []int) int64 {
	id := int64(0)
	for i, a := range f.attrs {
		id = id*int64(s.Cardinality(a)) + int64(values[i])
	}
	return id
}

// ValueCombo returns the value combination of the fragment at the given
// logical position. Inverse of FragmentID.
func (f *Fragmentation) ValueCombo(s *schema.Star, id int64) []int {
	vals := make([]int, len(f.attrs))
	for i := len(f.attrs) - 1; i >= 0; i-- {
		c := int64(s.Cardinality(f.attrs[i]))
		vals[i] = int(id % c)
		id /= c
	}
	return vals
}

// Geometry carries the per-fragment size information of a fragmentation
// under a (possibly skewed) value distribution: the building block for
// bitmap sizing, cost prediction, and allocation.
type Geometry struct {
	Frag *Fragmentation
	// AttrShares holds, per fragmentation attribute (in Attrs() order),
	// the share of fact rows per attribute value, aggregated from the
	// dimension's bottom-level distribution.
	AttrShares [][]float64
	// Rows and Pages hold per-fragment expected row counts and page
	// counts in logical fragment order. len == NumFragments.
	Rows  []float64
	Pages []int64
	// TotalPages is the sum over Pages (>= the unfragmented table's pages
	// due to per-fragment rounding).
	TotalPages int64
	// PageSize used for the computation.
	PageSize int

	// sizeOnce/size lazily build the fragment size-class table; statsOnce/
	// stats cache the size summary. Both are derived views of Rows/Pages —
	// callers must not mutate those slices after first use (no caller does;
	// geometries are treated as immutable once built and shared across
	// evaluators via costmodel.Cache).
	sizeOnce  sync.Once
	size      *SizeClasses
	statsOnce sync.Once
	stats     Stats
}

// SizeClasses groups a geometry's fragments into its distinct exact
// (rows, pages) size pairs. Hierarchical fragmentation yields geometries
// where huge numbers of fragments share a size — a uniform dimension
// collapses to a single class — so per-fragment cost arithmetic that
// depends only on fragment size can be computed once per class and fanned
// back out over ClassOf (see costmodel's size-class kernel). Classes are
// numbered by first appearance in logical fragment order, which makes the
// table deterministic for a given geometry.
type SizeClasses struct {
	// ClassOf[v] is the size class of fragment v, in logical fragment
	// order. len == NumFragments.
	ClassOf []int32
	// Rows[c] and Pages[c] are the exact per-fragment size of class c —
	// bit-identical to the Geometry.Rows/Pages entries of every member.
	Rows  []float64
	Pages []int64
	// Count[c] is the number of fragments in class c.
	Count []int64
	// SumRows is the sum over Geometry.Rows in fragment order (the same
	// left-to-right accumulation a per-fragment pass produces, cached so
	// per-candidate consumers stop re-walking all fragments).
	SumRows float64
}

// NumClasses returns the number of distinct size classes.
func (sz *SizeClasses) NumClasses() int { return len(sz.Rows) }

// SizeClasses returns the geometry's size-class table, building it on
// first use (goroutine-safe; the table is immutable once built and shared
// by every evaluator holding the geometry).
func (g *Geometry) SizeClasses() *SizeClasses {
	g.sizeOnce.Do(func() {
		n := len(g.Pages)
		sz := &SizeClasses{ClassOf: make([]int32, n)}
		type sizeKey struct {
			rows  uint64 // math.Float64bits: exact bit-pattern identity
			pages int64
		}
		index := make(map[sizeKey]int32, 64)
		// Neighbouring fragments usually share a size (the last attribute
		// varies fastest, and a uniform one keeps the size), so a fragment
		// equal to its predecessor reuses its class without hashing.
		var prev sizeKey
		c := int32(-1)
		for v := 0; v < n; v++ {
			sz.SumRows += g.Rows[v]
			k := sizeKey{rows: math.Float64bits(g.Rows[v]), pages: g.Pages[v]}
			if c < 0 || k != prev {
				var ok bool
				if c, ok = index[k]; !ok {
					c = int32(len(sz.Rows))
					index[k] = c
					sz.Rows = append(sz.Rows, g.Rows[v])
					sz.Pages = append(sz.Pages, g.Pages[v])
					sz.Count = append(sz.Count, 0)
				}
				prev = k
			}
			sz.Count[c]++
			sz.ClassOf[v] = c
		}
		g.size = sz
	})
	return g.size
}

// MaxFragmentsDefault bounds candidate materialization; fragmentations
// above the bound are normally excluded by thresholds first.
const MaxFragmentsDefault = 4 << 20

// NewGeometry computes per-fragment sizes. Bottom-level skew of each
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
	g.Rows = make([]float64, n)
	g.Pages = make([]int64, n)
	rowSize := float64(s.Fact.RowSize)
	totalRows := float64(s.Fact.Rows)
	combo := make([]int, len(f.attrs))
	for id := int64(0); id < n; id++ {
		share := 1.0
		for i := range combo {
			share *= g.AttrShares[i][combo[i]]
		}
		rows := totalRows * share
		g.Rows[id] = rows
		pages := int64(math.Ceil(rows * rowSize / float64(pageSize)))
		if pages < 1 && rows > 0 {
			pages = 1
		}
		g.Pages[id] = pages
		g.TotalPages += pages
		// Advance the mixed-radix combination (last attribute fastest).
		for i := len(combo) - 1; i >= 0; i-- {
			combo[i]++
			if combo[i] < len(g.AttrShares[i]) {
				break
			}
			combo[i] = 0
		}
	}
	return g, nil
}

// NumFragments returns the fragment count of the geometry.
func (g *Geometry) NumFragments() int64 { return int64(len(g.Pages)) }

// Stats summarises fragment sizes.
type Stats struct {
	Fragments          int64
	MinPages, MaxPages int64
	AvgPages           float64
	CV                 float64 // coefficient of variation of fragment pages
	TotalPages         int64
}

// Stats computes the size summary of the geometry. The summary is
// computed once and cached: several pipeline stages (granule search,
// post-evaluation threshold check, analysis reports) each ask for it per
// candidate, and the O(fragments) pass is pure.
func (g *Geometry) Stats() Stats {
	g.statsOnce.Do(func() { g.stats = g.computeStats() })
	return g.stats
}

func (g *Geometry) computeStats() Stats {
	st := Stats{Fragments: g.NumFragments(), TotalPages: g.TotalPages}
	if st.Fragments == 0 {
		return st
	}
	st.MinPages = g.Pages[0]
	st.MaxPages = g.Pages[0]
	var sum float64
	for _, p := range g.Pages {
		if p < st.MinPages {
			st.MinPages = p
		}
		if p > st.MaxPages {
			st.MaxPages = p
		}
		sum += float64(p)
	}
	st.AvgPages = sum / float64(st.Fragments)
	var ss float64
	for _, p := range g.Pages {
		d := float64(p) - st.AvgPages
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
