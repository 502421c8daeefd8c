// Package workload models WARLOCK's weighted star-query mix (paper §3.1:
// "Similar to APB-1, several weighted query classes can be specified
// according to the subset of dimensions they access and their relative
// share of the workload").
//
// A query class is a multi-dimensional join-and-aggregation (star) query
// template: it references a subset of the dimensions, each at one hierarchy
// level, and selects a single attribute value per referenced level (point
// restriction). The class's weight is its relative share of the workload.
// Random instances of a class bind concrete values to the referenced
// attributes; under skew, values are drawn according to their data shares
// (hot data is queried proportionally more often) or uniformly, as
// configured.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/schema"
)

// Errors returned by validation.
var (
	ErrNoClasses      = errors.New("workload: mix has no query classes")
	ErrBadWeight      = errors.New("workload: class weight must be positive")
	ErrNoPredicates   = errors.New("workload: query class references no dimension")
	ErrDuplicateDim   = errors.New("workload: query class references a dimension twice")
	ErrUnknownAttr    = errors.New("workload: query class references unknown attribute")
	ErrDuplicateClass = errors.New("workload: duplicate class name")
)

// Class is one weighted star-query class.
type Class struct {
	// Name identifies the class in reports (e.g. "Q-PT" for a
	// product/time query).
	Name string
	// Predicates lists the referenced dimension attributes, at most one
	// per dimension. Each predicate selects exactly one value of the
	// attribute (point restriction, MDHF evaluation model).
	Predicates []schema.AttrRef
	// Weight is the relative share of the workload (any positive scale;
	// the mix normalizes).
	Weight float64
}

// Mix is a weighted set of query classes over one star schema.
type Mix struct {
	Classes []Class
}

// Validate checks the class against the schema.
func (c *Class) Validate(s *schema.Star) error {
	if strings.TrimSpace(c.Name) == "" {
		return fmt.Errorf("%w: class with empty name", ErrDuplicateClass)
	}
	if c.Weight <= 0 {
		return fmt.Errorf("%w (class %q: %g)", ErrBadWeight, c.Name, c.Weight)
	}
	if len(c.Predicates) == 0 {
		return fmt.Errorf("%w (class %q)", ErrNoPredicates, c.Name)
	}
	seen := make(map[int]bool, len(c.Predicates))
	for _, p := range c.Predicates {
		if err := s.CheckAttr(p); err != nil {
			return fmt.Errorf("%w (class %q): %v", ErrUnknownAttr, c.Name, err)
		}
		if seen[p.Dim] {
			return fmt.Errorf("%w (class %q, dimension %q)", ErrDuplicateDim, c.Name, s.Dimensions[p.Dim].Name)
		}
		seen[p.Dim] = true
	}
	return nil
}

// Predicate returns the class's predicate on the given dimension and
// whether one exists.
func (c *Class) Predicate(dim int) (schema.AttrRef, bool) {
	for _, p := range c.Predicates {
		if p.Dim == dim {
			return p, true
		}
	}
	return schema.AttrRef{}, false
}

// Describe renders the class as "Name(Dim.level & Dim.level, w=weight)".
func (c *Class) Describe(s *schema.Star) string {
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteByte('(')
	for i, p := range c.Predicates {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(s.AttrName(p))
	}
	fmt.Fprintf(&b, ", w=%g)", c.Weight)
	return b.String()
}

// Validate checks the whole mix against the schema.
func (m *Mix) Validate(s *schema.Star) error {
	if len(m.Classes) == 0 {
		return ErrNoClasses
	}
	names := make(map[string]bool, len(m.Classes))
	for i := range m.Classes {
		c := &m.Classes[i]
		if err := c.Validate(s); err != nil {
			return err
		}
		if names[c.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateClass, c.Name)
		}
		names[c.Name] = true
	}
	return nil
}

// TotalWeight returns the sum of all class weights.
func (m *Mix) TotalWeight() float64 {
	var t float64
	for _, c := range m.Classes {
		t += c.Weight
	}
	return t
}

// NormalizedWeights returns each class's share of the workload, in class
// order, summing to 1.
func (m *Mix) NormalizedWeights() []float64 {
	t := m.TotalWeight()
	out := make([]float64, len(m.Classes))
	if t == 0 {
		return out
	}
	for i, c := range m.Classes {
		out[i] = c.Weight / t
	}
	return out
}

// Class returns the class with the given name.
func (m *Mix) Class(name string) (*Class, error) {
	for i := range m.Classes {
		if m.Classes[i].Name == name {
			return &m.Classes[i], nil
		}
	}
	return nil, fmt.Errorf("workload: unknown class %q", name)
}

// ReferencedDims returns the sorted set of dimension indices referenced by
// any class in the mix. The advisor uses this to prioritize fragmentation
// candidates on query-relevant dimensions.
func (m *Mix) ReferencedDims() []int {
	set := map[int]bool{}
	for _, c := range m.Classes {
		for _, p := range c.Predicates {
			set[p.Dim] = true
		}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of the mix.
func (m *Mix) Clone() *Mix {
	n := &Mix{Classes: make([]Class, len(m.Classes))}
	for i, c := range m.Classes {
		nc := c
		nc.Predicates = append([]schema.AttrRef(nil), c.Predicates...)
		n.Classes[i] = nc
	}
	return n
}

// Scale multiplies the weight of the named class by factor, returning a
// new mix. Unknown names return an error. This supports WARLOCK's
// interactive fine tuning ("query load specifics ... can be interactively
// adapted", §3.3).
func (m *Mix) Scale(name string, factor float64) (*Mix, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("%w: factor %g", ErrBadWeight, factor)
	}
	n := m.Clone()
	c, err := n.Class(name)
	if err != nil {
		return nil, err
	}
	c.Weight *= factor
	return n, nil
}

// Instance is a concrete query: a class with one bound value index per
// predicate (parallel to Class.Predicates).
type Instance struct {
	Class  *Class
	Values []int
}

// Sampler draws random query instances from a mix: first a class according
// to the normalized weights, then one value per predicate. Value selection
// is uniform over the attribute's values; skew-aware selection is layered
// on by the simulator, which owns the data-share vectors.
type Sampler struct {
	mix     *Mix
	schema  *schema.Star
	cumW    []float64
	rng     *rand.Rand
	valueFn func(attr schema.AttrRef, u float64) int
}

// NewSampler creates a sampler with the given deterministic seed. valueFn
// may be nil, in which case values are drawn uniformly.
func NewSampler(s *schema.Star, m *Mix, seed int64, valueFn func(schema.AttrRef, float64) int) (*Sampler, error) {
	if err := m.Validate(s); err != nil {
		return nil, err
	}
	w := m.NormalizedWeights()
	cum := make([]float64, len(w))
	var run float64
	for i, x := range w {
		run += x
		cum[i] = run
	}
	cum[len(cum)-1] = 1
	return &Sampler{mix: m, schema: s, cumW: cum, rng: rand.New(rand.NewSource(seed)), valueFn: valueFn}, nil
}

// Draw returns the next random query instance.
func (sm *Sampler) Draw() Instance {
	u := sm.rng.Float64()
	ci := sort.SearchFloat64s(sm.cumW, u)
	if ci >= len(sm.mix.Classes) {
		ci = len(sm.mix.Classes) - 1
	}
	c := &sm.mix.Classes[ci]
	vals := make([]int, len(c.Predicates))
	for i, p := range c.Predicates {
		if sm.valueFn != nil {
			vals[i] = sm.valueFn(p, sm.rng.Float64())
		} else {
			vals[i] = sm.rng.Intn(sm.schema.Cardinality(p))
		}
	}
	return Instance{Class: c, Values: vals}
}
