// Package costmodel implements WARLOCK's analytical I/O cost model
// (paper §3.2, after Stöhr's BTW 2001 model): it predicts, per
// fragmentation candidate and query class, the number of accessed
// fragments and pages, the number of physical I/Os for bitmap and fact
// table access, the total I/O access cost (device busy time, the
// throughput metric) and the I/O response time (max per-disk load, the
// parallelism metric).
//
// # Model
//
// Star queries select one value per referenced dimension attribute (point
// restrictions, the MDHF evaluation model). For a fragmentation attribute
// on dimension d at level lf and a query predicate on d at level lq:
//
//   - lq <= lf (predicate at or above the fragmentation level): the
//     selected value covers cf/cq fragment values; every row of a hit
//     fragment satisfies the predicate (fragment elimination).
//   - lq > lf (predicate below the fragmentation level): exactly one
//     fragment value is hit per dimension; within it, a fraction cf/cq of
//     the rows qualifies.
//   - Predicates on dimensions without a fragmentation attribute qualify a
//     1/cq fraction of rows inside every fragment.
//
// Qualifying rows inside a hit fragment are located via the planned bitmap
// join indexes; pages are fetched in prefetch granules, and the expected
// number of touched granules follows Cardenas' formula at granule
// granularity: G·(1−(1−1/G)^k) for k qualifying rows over G granules.
// Predicates whose bitmap index was excluded by the DBA cannot prune pages
// and degrade the fragment access towards a scan of the hit fragments.
//
// Response time is the expectation (over the uniform choice of predicate
// values) of the maximum per-disk busy time. The expectation is computed
// exactly by enumerating the distinct hit patterns of the class when their
// number is tractable, and by deterministic seeded sampling otherwise; the
// discrete-event simulator (experiment E7) validates both paths. Under
// round-robin placement, the exact path evaluates one pattern per group
// of patterns that are disk relabelings of each other (same-length
// translated outcome sets with bit-equal shares, see relabel.go) and adds
// that value once per pattern in enumeration order, so the result is
// bit-identical to evaluating every pattern. Greedy placement is not a
// relabeling and is never collapsed. The exact/sampled choice counts
// every pattern.
package costmodel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/disk"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
	"repro/internal/workload"
)

// ErrBadInput reports invalid model inputs.
var ErrBadInput = errors.New("costmodel: invalid input")

// Config bundles everything the model needs beyond the candidate itself.
type Config struct {
	Schema *schema.Star
	Mix    *workload.Mix
	Disk   disk.Params
	// Mapping selects how skewed bottom-level shares aggregate to coarser
	// levels (see package skew). Default Interleaved.
	Mapping skew.Mapping
	// Bitmap planning options (threshold, exclusions).
	Bitmap bitmap.Options
	// AllocScheme forces an allocation scheme; nil (default) applies
	// WARLOCK's rule (round-robin, greedy under notable skew).
	AllocScheme *alloc.Scheme
	// SkewCVThreshold is the fragment-size CV above which greedy
	// allocation is chosen; <= 0 uses alloc.DefaultSkewCV.
	SkewCVThreshold float64
	// MaxFragments bounds candidate materialization; <= 0 uses
	// fragment.MaxFragmentsDefault.
	MaxFragments int64
	// Cache optionally shares candidate-independent evaluation state
	// (attribute share vectors, candidate geometries) across Evaluators,
	// keyed by schema identity. Nil disables sharing. Results are
	// bit-for-bit identical with and without a cache; only repeated work
	// is skipped. The sweep engine sets it for all scenarios of one run.
	Cache *Cache
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Schema == nil || c.Mix == nil {
		return fmt.Errorf("%w: schema and mix are required", ErrBadInput)
	}
	if err := c.Schema.Validate(); err != nil {
		return err
	}
	if err := c.Mix.Validate(c.Schema); err != nil {
		return err
	}
	return c.Disk.Validate()
}

// ClassCost is the predicted I/O behaviour of one query class under one
// fragmentation candidate — the rows of the "query analysis" panel
// (paper Fig. 2).
type ClassCost struct {
	// Class is the evaluated query class.
	Class *workload.Class
	// Weight is the class's normalized share of the workload.
	Weight float64
	// HitProb is the probability that any given fragment is hit.
	HitProb float64
	// FragmentsHit is the expected number of accessed fragments.
	FragmentsHit float64
	// SelectedRows is the expected number of qualifying fact rows.
	SelectedRows float64
	// FactPages is the expected number of fact pages transferred.
	FactPages float64
	// FactIOs is the expected number of physical fact-table I/Os.
	FactIOs float64
	// BitmapPages is the expected number of bitmap pages transferred.
	BitmapPages float64
	// BitmapIOs is the expected number of physical bitmap I/Os.
	BitmapIOs float64
	// AccessCost is the expected total device busy time of one query of
	// this class (all disks, bitmap + fact).
	AccessCost time.Duration
	// ResponseTime is the expected intra-query response time: the
	// expectation of the maximum per-disk busy time under the
	// candidate's allocation.
	ResponseTime time.Duration
	// ResponseExact reports whether ResponseTime was computed by exact
	// enumeration of hit patterns (vs deterministic sampling).
	ResponseExact bool
	// DiskBusy is the expected busy time per disk (the disk access
	// profile of the class, paper §3.3).
	DiskBusy []time.Duration
}

// Evaluation is the full prediction for one fragmentation candidate.
type Evaluation struct {
	Frag      *fragment.Fragmentation
	Geometry  *fragment.Geometry
	Scheme    *bitmap.Scheme
	Placement *alloc.Placement
	// FactPrefetch and BitmapPrefetch are the granules used (configured
	// or advisor-optimized), in pages.
	FactPrefetch   int
	BitmapPrefetch int
	// PerClass holds one entry per mix class, in mix order.
	PerClass []ClassCost
	// AccessCost is the workload-weighted total I/O access cost.
	AccessCost time.Duration
	// ResponseTime is the workload-weighted response time.
	ResponseTime time.Duration
	// BitmapPagesTotal is the storage footprint of the bitmap scheme.
	BitmapPagesTotal int64
	// CapacityOK reports whether fact + bitmap pages fit the disks.
	CapacityOK bool
}

// Evaluate runs the full model for one candidate. Callers pricing many
// candidates against the same configuration should build one Evaluator and
// reuse it; this convenience wrapper rebuilds the shared state every call.
func Evaluate(cfg *Config, f *fragment.Fragmentation) (*Evaluation, error) {
	e, err := NewEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(f)
}

// DimCase classifies how one fragmentation attribute interacts with a
// query class's predicate on the same dimension.
type DimCase int

const (
	// Unreferenced: the class has no predicate on the dimension; every
	// fragment value is hit.
	Unreferenced DimCase = iota
	// CoarserEq: the predicate is at or above the fragmentation level;
	// the selected value covers FragCard/QueryCard fragment values and
	// every row of a hit fragment qualifies (fragment elimination).
	CoarserEq
	// Finer: the predicate is below the fragmentation level; exactly one
	// fragment value is hit, and FragCard/QueryCard of its rows qualify.
	Finer
)

// DimPlan is the per-fragmentation-attribute interaction of a class.
type DimPlan struct {
	Case DimCase
	// FragCard is the cardinality of the fragmentation attribute,
	// QueryCard the predicate attribute's (0 when Unreferenced).
	FragCard  int
	QueryCard int
}

// ClassPlan is the pre-derived interaction of one query class with one
// fragmentation and bitmap scheme. It is shared by the analytical model
// and the discrete-event simulator so both price fragments identically.
type ClassPlan struct {
	Class *workload.Class
	// Dims has one entry per fragmentation attribute, in Attrs() order.
	Dims []DimPlan
	// HitProb is the probability any given fragment is hit.
	HitProb float64
	// RowSel is the fraction of a hit fragment's rows qualifying overall.
	RowSel float64
	// IndexedSel is the part of RowSel the available bitmaps can prune
	// fact pages with (1 = no pruning possible, hit fragments scanned).
	IndexedSel float64
	// ReadSlices is the number of bitmap slices read per hit fragment.
	ReadSlices int
}

// PlanClass derives the interaction of a class with a fragmentation:
// per-attribute behaviour plus the residual selectivity from predicates on
// non-fragmentation dimensions, split by bitmap availability.
func PlanClass(s *schema.Star, f *fragment.Fragmentation, scheme *bitmap.Scheme, c *workload.Class) ClassPlan {
	var plan ClassPlan
	planClassInto(&plan, s, f, scheme, c)
	return plan
}

// planClassInto is PlanClass writing into an existing plan, reusing its
// Dims capacity — the evaluator's scratch-backed hot path derives every
// class plan of a candidate without allocating.
func planClassInto(plan *ClassPlan, s *schema.Star, f *fragment.Fragmentation, scheme *bitmap.Scheme, c *workload.Class) {
	attrs := f.Attrs()
	dims := plan.Dims
	if cap(dims) < len(attrs) {
		dims = make([]DimPlan, len(attrs))
	}
	*plan = ClassPlan{Class: c, Dims: dims[:len(attrs)], HitProb: 1, RowSel: 1, IndexedSel: 1, ReadSlices: 0}
	for i, a := range attrs {
		dp := DimPlan{Case: Unreferenced, FragCard: s.Cardinality(a)}
		if p, ok := c.Predicate(a.Dim); ok {
			dp.QueryCard = s.Cardinality(p)
			cf := float64(dp.FragCard)
			cq := float64(dp.QueryCard)
			if p.Level <= a.Level {
				dp.Case = CoarserEq
				plan.HitProb *= 1 / cq
			} else {
				// Finer: each query value hits its one ancestor fragment
				// value. A fragment value with n children is hit with
				// probability n/cq, and a hit qualifies 1/n of its rows;
				// the plan uses 1/cf and cf/cq for every value. Exact
				// when cf divides cq. Otherwise n is ⌊cq/cf⌋ or ⌈cq/cf⌉,
				// so n/cq is within 1/cq of 1/cf, and both factors are
				// off by a relative error below cf/cq. Their product is
				// 1/cq either way, so expected qualifying rows are exact.
				// On APB-1 (24M rows, 64 disks, no pruning) exact weights
				// move E[max] of the affected (candidate, class) pairs by
				// median 0 and at most 0.64%.
				dp.Case = Finer
				plan.HitProb *= 1 / cf
				sel := cf / cq
				plan.RowSel *= sel
				if _, ok := scheme.Index(p); ok {
					plan.IndexedSel *= sel
				}
			}
		}
		plan.Dims[i] = dp
	}
	for _, p := range c.Predicates {
		if _, onFrag := f.Attr(p.Dim); onFrag {
			continue
		}
		sel := 1 / float64(s.Cardinality(p))
		plan.RowSel *= sel
		if _, ok := scheme.Index(p); ok {
			plan.IndexedSel *= sel
		}
	}
	for _, p := range c.Predicates {
		if bitmap.Resolved(f, p) {
			continue
		}
		if ix, ok := scheme.Index(p); ok {
			plan.ReadSlices += ix.ReadSlices
		}
	}
}

// FragmentIO is the predicted physical I/O of accessing one hit fragment.
type FragmentIO struct {
	FactIOs, FactPages     float64
	BitmapIOs, BitmapPages float64
}

// FragmentCost prices the access to one hit fragment of `pages` pages and
// `rows` rows under the plan's selectivities and the given prefetch
// granules.
func FragmentCost(plan *ClassPlan, pageSize int, pages int64, rows float64, factGranule, bmGranule int) FragmentIO {
	return fragmentCost(plan, pageSize, pages, rows, factGranule, bmGranule, math.Log1p(-plan.IndexedSel))
}

// fragmentCost is FragmentCost with lq = math.Log1p(−plan.IndexedSel)
// supplied by the caller, so the size-class kernel takes the logarithm
// once per class rather than once per size class.
func fragmentCost(plan *ClassPlan, pageSize int, pages int64, rows float64, factGranule, bmGranule int, lq float64) FragmentIO {
	var io FragmentIO
	if pages <= 0 {
		return io
	}
	if plan.IndexedSel >= 1 {
		io.FactIOs = math.Ceil(float64(pages) / float64(factGranule))
		io.FactPages = float64(pages)
	} else {
		gran := int64(factGranule)
		G := float64((pages + gran - 1) / gran)
		touched := granulesTouched(G, rows, plan.IndexedSel, lq)
		io.FactIOs = touched
		io.FactPages = touched * float64(gran)
		if io.FactPages > float64(pages) {
			io.FactPages = float64(pages)
		}
	}
	if plan.ReadSlices > 0 {
		slicePages := bitmap.SlicePagesPerFragment(rows, pageSize)
		if slicePages > 0 {
			perSliceIOs := math.Ceil(float64(slicePages) / float64(bmGranule))
			io.BitmapIOs = perSliceIOs * float64(plan.ReadSlices)
			io.BitmapPages = float64(slicePages) * float64(plan.ReadSlices)
		}
	}
	return io
}

// Seconds converts the I/O counts into device busy time under the disk
// parameters.
func (io FragmentIO) Seconds(d *disk.Params) float64 {
	pos := d.Positioning().Seconds()
	xfer := d.PageTransfer().Seconds()
	return (io.FactIOs+io.BitmapIOs)*pos + (io.FactPages+io.BitmapPages)*xfer
}

// Bounds for the exact hit-pattern enumeration; beyond them the response
// expectation falls back to deterministic seeded sampling.
const (
	maxResponseOutcomes = 8192
	maxResponseWork     = 1 << 22
	responseSamples     = 256
)

// Outcomes returns, per fragmentation attribute, the distinct equally
// likely hit sets the class's predicate induces on that attribute's
// values, following the configured hierarchy mapping. It is exported for
// the simulator tests, which cross-check the enumeration against sampled
// concrete queries.
func Outcomes(plan *ClassPlan, mapping skew.Mapping) [][][]int {
	out := make([][][]int, len(plan.Dims))
	for i, dp := range plan.Dims {
		out[i] = dimOutcomes(dp, mapping)
	}
	return out
}

// dimOutcomes builds one fragmentation attribute's outcome sets in
// O(FragCard): each fragment value is appended to the set of its
// ancestor, so every set lists its values in ascending order and a query
// value without fragment values keeps a nil set. All sets of a table are
// carved from one array, so a build allocates a fixed handful of slices
// however many sets it has. The result depends only on (Case, FragCard,
// QueryCard) and the mapping, so the Evaluator memoizes it per key
// (dimOutcomeSets); the returned slices are treated as read-only by
// every consumer.
func dimOutcomes(dp DimPlan, mapping skew.Mapping) [][]int {
	switch dp.Case {
	case CoarserEq:
		// Size every set first, so the appends below fill the carved
		// slices in place.
		count := make([]int, dp.QueryCard)
		for v := 0; v < dp.FragCard; v++ {
			count[Ancestor(v, dp.FragCard, dp.QueryCard, mapping)]++
		}
		vals := make([]int, dp.FragCard)
		sets := make([][]int, dp.QueryCard)
		off := 0
		for w, n := range count {
			if n > 0 {
				sets[w] = vals[off : off : off+n]
				off += n
			}
		}
		for v := 0; v < dp.FragCard; v++ {
			w := Ancestor(v, dp.FragCard, dp.QueryCard, mapping)
			sets[w] = append(sets[w], v)
		}
		return sets
	case Finer:
		// Every query value maps to one fragment value; grouping the
		// cq values by their ancestor yields cf outcomes, enumerated as
		// equally likely (1/cf each). That is exact when FragCard
		// divides QueryCard. Otherwise a fragment value with n children
		// has probability n/cq with n = ⌊cq/cf⌋ or ⌈cq/cf⌉, within
		// 1/cq of 1/cf (the bound and its measured effect are stated
		// at planClassInto's Finer case).
		sets := make([][]int, dp.FragCard)
		vals := make([]int, dp.FragCard)
		for v := range vals {
			vals[v] = v
			sets[v] = vals[v : v+1 : v+1]
		}
		return sets
	default: // Unreferenced
		all := make([]int, dp.FragCard)
		for v := range all {
			all[v] = v
		}
		return [][]int{all}
	}
}

// dimOutcomeSets returns the memoized outcome sets of one dimension plan.
// Hot-path lookups take the read lock only; a miss builds the table under
// the write lock after a re-check, so concurrent misses on one key build
// it once and every caller sees one canonical (read-only) table per key.
func (e *Evaluator) dimOutcomeSets(dp DimPlan) [][]int {
	key := dp.outcomeKey()
	e.outMu.RLock()
	sets, ok := e.outcomes[key]
	e.outMu.RUnlock()
	if ok {
		return sets
	}
	e.outMu.Lock()
	defer e.outMu.Unlock()
	if sets, ok := e.outcomes[key]; ok {
		return sets
	}
	sets = dimOutcomes(dp, e.cfg.Mapping)
	e.outcomes[key] = sets
	return sets
}

// Ancestor maps a value at a fine level (cardinality fineCard) to its
// ancestor at a coarse level (cardinality coarseCard), consistently with
// the skew aggregation mappings (package skew): interleaved folds by
// modulo, contiguous by proportional ranges.
func Ancestor(v, fineCard, coarseCard int, m skew.Mapping) int {
	if coarseCard >= fineCard {
		return v % coarseCard
	}
	if m == skew.Contiguous {
		return v * coarseCard / fineCard
	}
	return v % coarseCard
}

// expectedMaxResponse computes E[max_disk busy] over the class's equally
// likely hit patterns: exactly when the outcome space is tractable,
// otherwise by deterministic sampling seeded with sampleSeed (derived
// from the candidate and class, see SampleSeed — never from the clock).
// Returns seconds and whether the result is exact. Per-fragment service
// times come from the size-class table (cls indexed through the
// geometry's ClassOf); the per-dimension outcome sets come from the
// evaluator's memo. Under round-robin placement the exact path evaluates
// one pattern per combination of relabeling groups (relabel.go). sc
// supplies the reused cursor/accumulator buffers; sc.rbusy must be
// all-zero on entry (the pattern evaluation restores the zeros it
// overwrites).
func (e *Evaluator) expectedMaxResponse(plan *ClassPlan, g *fragment.Geometry, pl *alloc.Placement, cls []sizeClassCost, sampleSeed int64, sc *Scratch) (float64, bool) {
	sz := g.SizeClasses()
	outcomes := sc.outs[:len(plan.Dims)]
	for i, dp := range plan.Dims {
		outcomes[i] = e.dimOutcomeSets(dp)
	}
	combos := 1
	hitsPerCombo := 1
	for _, sets := range outcomes {
		combos *= len(sets)
		if len(sets) > 0 {
			hitsPerCombo *= len(sets[0])
		}
		if combos > maxResponseOutcomes {
			break
		}
	}
	busy := sc.rbusy[:pl.Disks]
	touched := sc.touched[:0]
	sets := sc.sets[:len(outcomes)]
	idx := sc.idx[:len(outcomes)]
	evalPattern := func(choice []int) float64 {
		// Enumerate the Cartesian product of the chosen hit sets in
		// logical fragment order: an odometer over the outer dimensions
		// carries the fragment-id prefix, and the innermost dimension's
		// values are added to it directly. Without fragmentation
		// attributes the single fragment 0 is hit.
		for i, c := range choice {
			sets[i] = outcomes[i][c]
		}
		inner, outer, innerCard := noAttrHits, sets, int64(1)
		if n := len(sets); n > 0 {
			inner, outer, innerCard = sets[n-1], sets[:n-1], int64(plan.Dims[n-1].FragCard)
		}
		clear(idx)
		for {
			var base int64
			for i, s := range outer {
				base = base*int64(plan.Dims[i].FragCard) + int64(s[idx[i]])
			}
			base *= innerCard
			for _, v := range inner {
				fid := base + int64(v)
				d := pl.DiskOf[fid]
				tv := cls[sz.ClassOf[fid]].tv
				if busy[d] == 0 && tv > 0 {
					touched = append(touched, d)
				}
				busy[d] += tv
			}
			i := len(outer) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(outer[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
		var mx float64
		for _, d := range touched {
			if busy[d] > mx {
				mx = busy[d]
			}
			busy[d] = 0
		}
		touched = touched[:0]
		return mx
	}

	choice := sc.choice[:len(outcomes)]
	clear(choice)
	// The exact/sampled choice counts every pattern, collapsed or not.
	if combos <= maxResponseOutcomes && combos*hitsPerCombo <= maxResponseWork {
		// Under round-robin placement, vals[k] holds the value of group
		// combination k (mixed radix over the per-dimension group ids),
		// evaluated once on the groups' representatives. It is used only
		// when some dimension collapses.
		groups := sc.groups[:len(outcomes)]
		var vals []float64
		if pl.Scheme == alloc.RoundRobin {
			n := 1
			for i, dp := range plan.Dims {
				groups[i] = e.outcomeGroupsOf(g.Frag.Attrs()[i], dp, outcomes[i], g.AttrShares[i], sc)
				n *= len(groups[i].reps)
			}
			if n < combos {
				sc.vals = growFloats(sc.vals, n)
				vals = sc.vals
				for k := range vals {
					r := k
					for i := len(groups) - 1; i >= 0; i-- {
						reps := groups[i].reps
						choice[i] = int(reps[r%len(reps)])
						r /= len(reps)
					}
					vals[k] = evalPattern(choice)
				}
				clear(choice)
			}
		}
		// Exact: enumerate every outcome combination, adding one value per
		// pattern in enumeration order.
		var sum float64
		count := 0
		for {
			if vals != nil {
				k := 0
				for i, c := range choice {
					if of := groups[i].of; of != nil {
						k = k*len(groups[i].reps) + int(of[c])
					}
				}
				sum += vals[k]
			} else {
				sum += evalPattern(choice)
			}
			count++
			i := len(choice) - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < len(outcomes[i]) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
		return sum / float64(count), true
	}
	// Sampling fallback with a deterministic per-(candidate, class) seed:
	// re-seeding the scratch's source replays exactly the sequence a fresh
	// rand.New(rand.NewSource(seed)) would produce.
	sc.rng.Seed(sampleSeed)
	var sum float64
	for s := 0; s < responseSamples; s++ {
		for i := range choice {
			choice[i] = sc.rng.Intn(len(outcomes[i]))
		}
		sum += evalPattern(choice)
	}
	return sum / responseSamples, false
}

// noAttrHits is the hit set of a candidate without fragmentation
// attributes: its single fragment, id 0.
var noAttrHits = []int{0}

// granulesTouched returns the expected number of granules holding at
// least one qualifying row when a fragment of `rows` rows spread evenly
// over G granules is filtered with per-row qualification probability p:
//
//	G · (1 − (1−p)^(rows/G))
//
// This is the probability form of the Cardenas estimate. Unlike the
// count form G(1−(1−1/G)^k) with k = rows·p, it stays correct when the
// expected qualifying count is below one — e.g. a single-granule fragment
// probed by a highly selective conjunction is touched with probability
// 1−(1−p)^rows ≈ rows·p, not with certainty (bug found by the executed-
// layout validation, experiment E11).
//
// lq must be math.Log1p(−p); callers pricing many sizes under one p
// compute it once. The estimate is G·touchProb(rows/G, lq), which never
// rounds 1−p and does not cancel when p·rows/G is small. Against a
// 256-bit math/big reference over 4,096 cases (p log-uniform in
// [1e-7, 0.1], integer rows/G in [1, 1e6]) its relative error is at most
// 2.5e-16, where G·(1 − math.Pow(1−p, rows/G)) is off by up to 7.0e-10;
// TestGranulesTouchedAccuracy and FuzzGranulesTouched bound it by 1e-15.
func granulesTouched(G, rows, p, lq float64) float64 {
	if G <= 0 || rows <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return G
	}
	t := G * touchProb(rows/G, lq)
	if t > G {
		t = G
	}
	if t < 0 {
		t = 0
	}
	return t
}

// touchProb returns 1 − (1−p)^y, the probability that at least one of y
// independent rows qualifies, given lq = math.Log1p(−p). It is computed
// as −expm1(y·lq): one exponential instead of a math.Pow, and free of
// the cancellation of 1 − Pow(1−p, y) when p·y is small.
func touchProb(y, lq float64) float64 {
	return -math.Expm1(y * lq)
}

// PrefetchCap bounds the advisor-chosen prefetch granule in pages (a
// 2 MiB prefetch buffer at 8 KiB pages) — larger fixed values may still be
// configured explicitly.
const PrefetchCap = 256

// classBitmapPages writes into dst, grown as needed, the co-located
// bitmap pages of one fragment of each size class: every index's slices
// packed per fragment.
func classBitmapPages(dst []int64, sz *fragment.SizeClasses, scheme *bitmap.Scheme, pageSize int) []int64 {
	dst = growInt64s(dst, sz.NumClasses())
	for c, rows := range sz.Rows {
		var p int64
		for _, ix := range scheme.Indexes {
			p += bitmap.PackedPagesPerFragment(rows, ix.Slices, pageSize)
		}
		dst[c] = p
	}
	return dst
}

// allocationPages writes into dst, grown as needed, the per-fragment
// allocation weight: fact pages plus the co-located bitmap pages of the
// fragment's size class (bm, from classBitmapPages).
func allocationPages(dst, bm []int64, g *fragment.Geometry) []int64 {
	sz := g.SizeClasses()
	dst = growInt64s(dst, len(sz.ClassOf))
	for v, c := range sz.ClassOf {
		dst[v] = sz.Pages[c] + bm[c]
	}
	return dst
}

// AllocationPages exposes the per-fragment allocation weight of an
// evaluation (fact + co-located bitmap pages), used by multi-fact-table
// co-allocation. The slice is freshly allocated.
func AllocationPages(ev *Evaluation) []int64 {
	g := ev.Geometry
	bm := classBitmapPages(nil, g.SizeClasses(), ev.Scheme, g.PageSize)
	return allocationPages(nil, bm, g)
}
