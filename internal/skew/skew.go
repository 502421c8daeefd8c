// Package skew provides the Zipf-like value-frequency distributions WARLOCK
// uses to model data skew (paper §3.1: "Data skew may be incorporated at the
// bottom level of each dimension by specifying a zipf-like data
// distribution") and the machinery to aggregate bottom-level shares up a
// dimension hierarchy.
//
// A share vector assigns each attribute value v_k a fraction share[k] of the
// fact rows referencing that value, with sum(share) == 1. Under Zipf skew
// with parameter theta, share[k] ∝ 1/(k+1)^theta; theta == 0 degenerates to
// the uniform distribution. theta around 0.86 corresponds to the classical
// "80-20" rule often cited for warehouse data.
package skew

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadParams is returned for invalid distribution parameters.
var ErrBadParams = errors.New("skew: invalid parameters")

// Shares returns the Zipf-like share vector for n values with parameter
// theta. The vector is sorted by decreasing share (value 0 is the hottest),
// sums to 1 (up to floating-point error), and has length n.
func Shares(n int, theta float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	if theta < 0 {
		return nil, fmt.Errorf("%w: theta=%g", ErrBadParams, theta)
	}
	out := make([]float64, n)
	if theta == 0 {
		u := 1.0 / float64(n)
		for i := range out {
			out[i] = u
		}
		return out, nil
	}
	var sum float64
	for i := 0; i < n; i++ {
		out[i] = 1.0 / math.Pow(float64(i+1), theta)
		sum += out[i]
	}
	inv := 1.0 / sum
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// MustShares is Shares but panics on invalid parameters. Intended for
// statically known arguments (presets, tests).
func MustShares(n int, theta float64) []float64 {
	s, err := Shares(n, theta)
	if err != nil {
		panic(err)
	}
	return s
}

// Uniform returns the uniform share vector of length n.
func Uniform(n int) []float64 { return MustShares(n, 0) }

// AggregateUp folds a bottom-level share vector into the share vector of a
// coarser level with the given cardinality. Bottom value k is assigned to
// parent k % parentCard, which interleaves hot and cold values across
// parents the way WARLOCK's hierarchy model distributes skewed leaves. The
// result sums to the same total as the input.
//
// AggregateUp returns an error if parentCard is not positive or exceeds the
// number of bottom values.
func AggregateUp(bottom []float64, parentCard int) ([]float64, error) {
	if parentCard <= 0 {
		return nil, fmt.Errorf("%w: parentCard=%d", ErrBadParams, parentCard)
	}
	if parentCard > len(bottom) {
		return nil, fmt.Errorf("%w: parentCard=%d > len(bottom)=%d", ErrBadParams, parentCard, len(bottom))
	}
	out := make([]float64, parentCard)
	for k, s := range bottom {
		out[k%parentCard] += s
	}
	return out, nil
}

// AggregateUpContiguous folds a bottom-level share vector into a coarser
// level assigning contiguous runs of bottom values to each parent (value k
// maps to parent k*parentCard/len(bottom)). This is the worst case for
// skew: the hot head of the Zipf distribution lands on few parents. WARLOCK
// exposes both mappings so the DBA can model either clustered or
// interleaved dimension encodings.
func AggregateUpContiguous(bottom []float64, parentCard int) ([]float64, error) {
	if parentCard <= 0 {
		return nil, fmt.Errorf("%w: parentCard=%d", ErrBadParams, parentCard)
	}
	if parentCard > len(bottom) {
		return nil, fmt.Errorf("%w: parentCard=%d > len(bottom)=%d", ErrBadParams, parentCard, len(bottom))
	}
	out := make([]float64, parentCard)
	n := len(bottom)
	for k, s := range bottom {
		out[k*parentCard/n] += s
	}
	return out, nil
}

// Mapping selects how bottom-level values are distributed over parents when
// aggregating shares up a hierarchy.
type Mapping int

const (
	// Interleaved maps bottom value k to parent k % parentCard
	// (round-robin), spreading hot values across parents.
	Interleaved Mapping = iota
	// Contiguous maps contiguous runs of bottom values to each parent,
	// concentrating the hot head of the distribution.
	Contiguous
)

// String implements fmt.Stringer.
func (m Mapping) String() string {
	switch m {
	case Interleaved:
		return "interleaved"
	case Contiguous:
		return "contiguous"
	default:
		return fmt.Sprintf("Mapping(%d)", int(m))
	}
}

// Aggregate folds bottom into parentCard shares using the selected mapping.
func Aggregate(bottom []float64, parentCard int, m Mapping) ([]float64, error) {
	switch m {
	case Interleaved:
		return AggregateUp(bottom, parentCard)
	case Contiguous:
		return AggregateUpContiguous(bottom, parentCard)
	default:
		return nil, fmt.Errorf("%w: mapping %d", ErrBadParams, int(m))
	}
}

// CV returns the coefficient of variation (stddev/mean) of the share
// vector. CV == 0 for uniform data; it grows with skew. WARLOCK's advisor
// switches from round-robin to greedy size-based allocation when the
// fragment-size CV exceeds a threshold ("under notable data skew").
func CV(shares []float64) float64 {
	n := len(shares)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, s := range shares {
		d := s - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// Sum returns the total of a share vector (should be ≈1 for a valid
// distribution; exposed for validation and tests).
func Sum(shares []float64) float64 {
	var s float64
	for _, v := range shares {
		s += v
	}
	return s
}

// Sampler draws value indices according to a share vector using inverse
// transform sampling over the cumulative distribution. It is deterministic
// given the caller's random source and is used by the simulator to draw
// query predicate values and fact row placements.
type Sampler struct {
	cum []float64
}

// NewSampler builds a sampler for the given share vector.
func NewSampler(shares []float64) (*Sampler, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("%w: empty share vector", ErrBadParams)
	}
	cum := make([]float64, len(shares))
	var run float64
	for i, s := range shares {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("%w: share[%d]=%g", ErrBadParams, i, s)
		}
		run += s
		cum[i] = run
	}
	if run <= 0 {
		return nil, fmt.Errorf("%w: shares sum to %g", ErrBadParams, run)
	}
	// Normalize in place so callers may pass unnormalized weights.
	inv := 1.0 / run
	for i := range cum {
		cum[i] *= inv
	}
	cum[len(cum)-1] = 1 // guard against FP undershoot
	return &Sampler{cum: cum}, nil
}

// N returns the number of values the sampler draws from.
func (s *Sampler) N() int { return len(s.cum) }

// Index maps a uniform random u in [0,1) to a value index.
func (s *Sampler) Index(u float64) int {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return sort.SearchFloat64s(s.cum, u)
}
