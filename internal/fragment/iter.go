package fragment

import (
	"iter"

	"repro/internal/schema"
)

// EnumerationSize returns the number of point fragmentations EnumerateSeq
// yields for the schema: the product over dimensions of (levels+1), minus
// the empty selection. For the APB-1 schema this is
// (6+1)(2+1)(3+1)(1+1)−1 = 167. The count is cheap (no candidate is
// materialized) and bounds streaming consumers such as the rank collector.
func EnumerationSize(s *schema.Star) int64 {
	n := int64(1)
	for i := range s.Dimensions {
		n *= int64(len(s.Dimensions[i].Levels) + 1)
	}
	return n - 1
}

// EnumerateSeq lazily generates every point fragmentation of the schema:
// all non-empty subsets of dimensions with one level chosen per selected
// dimension, in deterministic order (lexicographic over the per-dimension
// level choice, where "no attribute on this dimension" sorts first).
// Candidates are produced one at a time, so consumers may stop early or
// stream them through a pipeline without materializing the full space.
func EnumerateSeq(s *schema.Star) iter.Seq[*Fragmentation] {
	return func(yield func(*Fragmentation) bool) {
		nd := len(s.Dimensions)
		choice := make([]int, nd) // 0 = dimension unused, k>0 = level k-1
		for {
			// Build the candidate for the current choice vector.
			var attrs []schema.AttrRef
			for d, c := range choice {
				if c > 0 {
					attrs = append(attrs, schema.AttrRef{Dim: d, Level: c - 1})
				}
			}
			if len(attrs) > 0 && !yield(newFragmentation(attrs)) {
				return
			}
			// Advance the mixed-radix choice vector.
			i := nd - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] <= len(s.Dimensions[i].Levels) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
}

// EnumerateFilteredSeq streams every point fragmentation of the schema
// together with its Thresholds.PreCheck verdict: survivors are yielded
// with a nil Violation, excluded candidates with the Violation describing
// the failed threshold. The order matches EnumerateSeq.
func EnumerateFilteredSeq(s *schema.Star, t Thresholds, pageSize int) iter.Seq2[*Fragmentation, *Violation] {
	return func(yield func(*Fragmentation, *Violation) bool) {
		for f := range EnumerateSeq(s) {
			if !yield(f, t.PreCheck(s, f, pageSize)) {
				return
			}
		}
	}
}
