// Package sweep implements WARLOCK's what-if scenario sweep engine. The
// paper's whole point is what-if physical design: its experiments are
// grids of scenarios (disk counts, query mixes, skew, prefetch granules)
// evaluated against one schema. A Grid declares the axes of variation
// over a base advisor input; Expand materializes the Cartesian product
// into concrete scenarios; Run advises every scenario exactly once,
// concurrently, through one shared costmodel.Cache, so attribute share
// vectors and candidate geometries — which depend on the schema but not
// on disks, prefetch, mix weights or allocation — are computed once per
// schema instead of once per scenario.
//
// Per-scenario results are bit-for-bit identical to independent
// core.Advise calls on the scenario's input; the sweep only removes
// repeated work and runs scenarios concurrently.
package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/workload"
)

// MixScale is one value of the query-mix reweighting axis: the named
// classes' weights are multiplied by the given factors (classes not
// listed keep their base weight). An empty Factors map reproduces the
// base mix — useful as the "base" row of a sensitivity sweep.
type MixScale struct {
	// Name labels the scenario ("boost-Q3").
	Name string
	// Factors maps class names to weight multipliers (> 0).
	Factors map[string]float64
}

// SkewSetting is one value of the data-skew axis: the named dimensions'
// Zipf theta is replaced (dimensions not listed keep their base theta).
// An empty Theta map reproduces the base schema.
type SkewSetting struct {
	// Name labels the scenario ("cust-hot").
	Name string
	// Theta maps dimension names to Zipf parameters in [0, 2].
	Theta map[string]float64
}

// Allocation axis values.
const (
	// AllocAuto applies WARLOCK's rule: round-robin, greedy size-based
	// under notable skew.
	AllocAuto = "auto"
	// AllocRoundRobin forces the logical round-robin scheme.
	AllocRoundRobin = "round-robin"
	// AllocGreedySize forces the greedy size-based scheme.
	AllocGreedySize = "greedy-size"
)

// Grid declares the axes of a what-if sweep over a base advisor input.
// Empty axes keep the base value; non-empty axes multiply: the scenario
// set is the Cartesian product of all non-empty axes, expanded in a
// fixed canonical order (rows, disks, prefetch, mix, skew, alloc — last
// axis fastest). A grid may expand to at most MaxScenarios scenarios.
type Grid struct {
	// Rows varies the fact table row count (> 0).
	Rows []int64
	// Disks varies the disk count (> 0).
	Disks []int
	// Prefetch varies the prefetch granule in pages, applied to both the
	// fact-table and the bitmap granule. 0 lets the advisor optimize.
	Prefetch []int
	// MixScales varies the query mix by reweighting classes.
	MixScales []MixScale
	// Skews varies per-dimension Zipf skew.
	Skews []SkewSetting
	// Allocs varies the allocation scheme: AllocAuto, AllocRoundRobin or
	// AllocGreedySize.
	Allocs []string
}

// MaxScenarios caps the scenarios one grid may expand to. It bounds the
// memory Expand allocates up front, whoever submits the grid.
const MaxScenarios = 4096

// Size returns the number of scenarios the grid expands to, saturating
// at math.MaxInt instead of overflowing.
func (g *Grid) Size() int {
	n := 1
	for _, l := range []int{
		len(g.Rows), len(g.Disks), len(g.Prefetch), len(g.MixScales),
		len(g.Skews), len(g.Allocs),
	} {
		if l > 0 {
			if n > math.MaxInt/l {
				return math.MaxInt
			}
			n *= l
		}
	}
	return n
}

// CheckSize reports an error when the grid expands to more than
// MaxScenarios scenarios.
func (g *Grid) CheckSize() error {
	if g.Size() > MaxScenarios {
		return fmt.Errorf("sweep: grid expands to more than %d scenarios", MaxScenarios)
	}
	return nil
}

// Scenario is one materialized grid point: a complete advisor input plus
// the axis values that produced it.
type Scenario struct {
	// Index is the scenario's position in canonical grid order.
	Index int
	// Name is the human-readable label ("disks=32 mix=boost-Q3"), or
	// "base" when every axis is empty.
	Name string
	// Input is the fully materialized advisor input. Scenarios sharing
	// unmodified axes share the base's schema and mix values.
	Input *core.Input

	// Axis values (zero / empty when the axis is not in the grid).
	Rows     int64
	Disks    int
	Prefetch int
	Mix      string
	Skew     string
	Alloc    string
}

// Expand materializes the grid into scenarios. Scenario inputs share the
// base's schema and mix pointers wherever the corresponding axis leaves
// them unchanged, which is what lets the shared evaluation cache hit
// across scenarios. The base input is not modified.
func Expand(base *core.Input, g *Grid) ([]Scenario, error) {
	if base == nil {
		return nil, fmt.Errorf("sweep: nil base input")
	}
	if g == nil {
		g = &Grid{}
	}
	if err := g.CheckSize(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: base input: %w", err)
	}
	for _, r := range g.Rows {
		if r <= 0 {
			return nil, fmt.Errorf("sweep: rows axis value %d must be positive", r)
		}
	}
	for _, d := range g.Disks {
		if d <= 0 {
			return nil, fmt.Errorf("sweep: disks axis value %d must be positive", d)
		}
	}
	for _, p := range g.Prefetch {
		if p < 0 {
			return nil, fmt.Errorf("sweep: prefetch axis value %d must be non-negative", p)
		}
	}

	rows := orBase(g.Rows, 0)
	disks := orBase(g.Disks, 0)
	prefetch := orBase(g.Prefetch, -1)
	mixes := g.MixScales
	if len(mixes) == 0 {
		mixes = []MixScale{{}}
	}
	skews := g.Skews
	if len(skews) == 0 {
		skews = []SkewSetting{{}}
	}
	allocs := g.Allocs
	if len(allocs) == 0 {
		allocs = []string{""}
	}

	// Materialize each (rows, skew) schema and each mix once, so every
	// scenario along the other axes shares the pointer (cache identity).
	schemas := make([][]*schema.Star, len(rows))
	for ri, r := range rows {
		schemas[ri] = make([]*schema.Star, len(skews))
		for si, sk := range skews {
			s, err := applySchema(base.Schema, r, sk)
			if err != nil {
				return nil, err
			}
			schemas[ri][si] = s
		}
	}
	mixVals := make([]*workload.Mix, len(mixes))
	for mi, ms := range mixes {
		m, err := applyMix(base.Mix, ms)
		if err != nil {
			return nil, err
		}
		mixVals[mi] = m
	}
	allocVals := make([]*alloc.Scheme, len(allocs))
	for ai, a := range allocs {
		sc, err := parseAlloc(a)
		if err != nil {
			return nil, err
		}
		allocVals[ai] = sc
	}

	scens := make([]Scenario, 0, g.Size())
	for ri, r := range rows {
		for _, d := range disks {
			for _, pf := range prefetch {
				for mi := range mixes {
					for si := range skews {
						for ai := range allocs {
							in := *base
							in.Schema = schemas[ri][si]
							in.Mix = mixVals[mi]
							if d > 0 {
								in.Disk.Disks = d
							}
							if pf >= 0 {
								in.Disk.PrefetchPages = pf
								in.Disk.BitmapPrefetchPages = pf
							}
							if allocs[ai] != "" {
								in.AllocScheme = allocVals[ai]
							}
							sc := Scenario{
								Index:    len(scens),
								Input:    &in,
								Rows:     r,
								Disks:    d,
								Prefetch: pf,
								Mix:      mixes[mi].Name,
								Skew:     skews[si].Name,
								Alloc:    allocs[ai],
							}
							sc.Name = scenarioName(&sc, g)
							scens = append(scens, sc)
						}
					}
				}
			}
		}
	}
	return scens, nil
}

// orBase returns the axis values, or a one-element slice holding the
// "keep base" sentinel when the axis is empty.
func orBase[T int | int64](axis []T, sentinel T) []T {
	if len(axis) == 0 {
		return []T{sentinel}
	}
	return axis
}

// applySchema clones the base schema when the rows or skew axis modifies
// it; unmodified combinations return the base pointer itself.
func applySchema(base *schema.Star, rows int64, sk SkewSetting) (*schema.Star, error) {
	if rows <= 0 && len(sk.Theta) == 0 {
		return base, nil
	}
	s := cloneStar(base)
	if rows > 0 {
		s.Fact.Rows = rows
	}
	for name, theta := range sk.Theta {
		dim, _, err := s.Dimension(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: skew %q: %w", sk.Name, err)
		}
		dim.SkewTheta = theta
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: skew %q: %w", sk.Name, err)
	}
	return s, nil
}

// cloneStar deep-copies a star schema.
func cloneStar(s *schema.Star) *schema.Star {
	n := &schema.Star{Name: s.Name, Fact: s.Fact}
	n.Dimensions = make([]schema.Dimension, len(s.Dimensions))
	for i, d := range s.Dimensions {
		nd := d
		nd.Levels = append([]schema.Level(nil), d.Levels...)
		n.Dimensions[i] = nd
	}
	return n
}

// applyMix clones and reweights the base mix; an empty factor set returns
// the base pointer itself.
func applyMix(base *workload.Mix, ms MixScale) (*workload.Mix, error) {
	if len(ms.Factors) == 0 {
		return base, nil
	}
	m := base
	// Apply factors in deterministic (sorted) order; Scale clones.
	names := make([]string, 0, len(ms.Factors))
	for name := range ms.Factors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var err error
		m, err = m.Scale(name, ms.Factors[name])
		if err != nil {
			return nil, fmt.Errorf("sweep: mix %q: %w", ms.Name, err)
		}
	}
	return m, nil
}

// parseAlloc maps an allocation axis value to the scheme override.
func parseAlloc(v string) (*alloc.Scheme, error) {
	switch v {
	case "", AllocAuto:
		return nil, nil
	case AllocRoundRobin:
		sc := alloc.RoundRobin
		return &sc, nil
	case AllocGreedySize:
		sc := alloc.GreedySize
		return &sc, nil
	default:
		return nil, fmt.Errorf("sweep: unknown allocation scheme %q (want %q, %q or %q)",
			v, AllocAuto, AllocRoundRobin, AllocGreedySize)
	}
}

// scenarioName renders the axis values present in the grid.
func scenarioName(sc *Scenario, g *Grid) string {
	var parts []string
	if len(g.Rows) > 0 {
		parts = append(parts, fmt.Sprintf("rows=%d", sc.Rows))
	}
	if len(g.Disks) > 0 {
		parts = append(parts, fmt.Sprintf("disks=%d", sc.Disks))
	}
	if len(g.Prefetch) > 0 {
		if sc.Prefetch == 0 {
			parts = append(parts, "prefetch=auto")
		} else {
			parts = append(parts, fmt.Sprintf("prefetch=%d", sc.Prefetch))
		}
	}
	if len(g.MixScales) > 0 {
		name := sc.Mix
		if name == "" {
			name = "base"
		}
		parts = append(parts, "mix="+name)
	}
	if len(g.Skews) > 0 {
		name := sc.Skew
		if name == "" {
			name = "base"
		}
		parts = append(parts, "skew="+name)
	}
	if len(g.Allocs) > 0 {
		parts = append(parts, "alloc="+sc.Alloc)
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, " ")
}
