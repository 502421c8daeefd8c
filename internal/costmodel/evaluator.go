package costmodel

import (
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Evaluator is the reusable per-(schema, mix, disk) half of the cost
// model: it validates the configuration once and computes everything
// that does not depend on the fragmentation candidate — normalized
// class weights eagerly, the skew-aggregated share vector of each
// dimension attribute memoized on first use. A single Evaluator prices
// many candidates, and one Evaluator may be used from any number of
// goroutines concurrently. Its only shared mutable state is memoized:
// share vectors are built under sync.OnceValues (or the shared Cache),
// outcome tables and their relabeling groups under outMu, and the
// lower-bound tables under boundOnce; every memoized value is read-only
// once built. Sampling is deterministically seeded, so every Evaluate
// call prices a candidate identically whatever runs beside it.
type Evaluator struct {
	cfg *Config
	// weights are the normalized class weights, in mix order.
	weights []float64
	// shares[d][l] lazily computes (once, goroutine-safe) the per-value
	// fact-row share vector of attribute (dim d, level l) under the
	// configured mapping. Laziness keeps single-candidate evaluations as
	// cheap as before the Evaluator existed; the pipeline amortizes each
	// attribute's computation across every candidate using it. The
	// resulting slices are read-only; geometries reference, never copy.
	// When cfg.Cache is set the closures live in the cache, shared with
	// every other Evaluator on the same schema and mapping.
	shares [][]func() ([]float64, error)
	// capacityPages is the disk pool's total page capacity.
	capacityPages int64
	// outMu/outcomes memoize the per-dimension hit-outcome sets of the
	// response-time expectation. The sets depend only on (DimCase,
	// FragCard, QueryCard) under the evaluator's fixed mapping, so a
	// handful of distinct tables serve every (candidate, class) pair. A
	// build is O(fragCard), so the memo saves allocation rather than
	// compute: without it every class of every candidate would rebuild
	// its tables. On the paper-scale advisory (APB-1, 24M rows, 64 disks;
	// bench workload cli-apb1, 2-vCPU Xeon), when a build still allocated
	// one slice per set, bypassing it raised allocations from 30.6k to
	// 120.2k and 14.2 to 19.5 MB per advisory and the p50 from 70 to 77
	// ms. The cached sets
	// are read-only; the map is read under RLock on the hot path, so
	// lookups stay allocation-free.
	outMu    sync.RWMutex
	outcomes map[outcomeKey][][]int
	// groups memoizes, per (attribute, outcome table), the relabeling
	// groups of the table's sets under the attribute's shares (see
	// relabel.go); guarded by outMu and read-only once built.
	groups map[groupKey]outcomeGroups
	// boundStateHolder carries the lazily built LowerBound tables.
	boundStateHolder
}

// outcomeKey identifies one dimension's outcome-set table.
type outcomeKey struct {
	kase                DimCase
	fragCard, queryCard int
}

func (dp DimPlan) outcomeKey() outcomeKey {
	return outcomeKey{kase: dp.Case, fragCard: dp.FragCard, queryCard: dp.QueryCard}
}

// NewEvaluator validates the configuration and precomputes the shared
// evaluation state.
func NewEvaluator(cfg *Config) (*Evaluator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		cfg:           cfg,
		weights:       cfg.Mix.NormalizedWeights(),
		capacityPages: cfg.Disk.CapacityBytes / int64(cfg.Disk.PageSize),
		outcomes:      make(map[outcomeKey][][]int),
		groups:        make(map[groupKey]outcomeGroups),
	}
	e.shares = make([][]func() ([]float64, error), len(cfg.Schema.Dimensions))
	for d := range cfg.Schema.Dimensions {
		dim := &cfg.Schema.Dimensions[d]
		e.shares[d] = make([]func() ([]float64, error), len(dim.Levels))
		for l := range dim.Levels {
			a := schema.AttrRef{Dim: d, Level: l}
			// Capture only what the computation reads: these closures
			// are installed eagerly but may never run, and a cached,
			// never-invoked closure would otherwise pin this Evaluator's
			// whole Config (mix, disk params) for the cache lifetime.
			s, mapping := cfg.Schema, cfg.Mapping
			compute := func() ([]float64, error) {
				return fragment.AttrShares(s, a, mapping)
			}
			if cfg.Cache != nil {
				e.shares[d][l] = cfg.Cache.shareFn(
					sharesCacheKey{schema: cfg.Schema, mapping: cfg.Mapping, attr: a}, compute)
			} else {
				e.shares[d][l] = sync.OnceValues(compute)
			}
		}
	}
	return e, nil
}

// Config returns the configuration the evaluator was built from.
func (e *Evaluator) Config() *Config { return e.cfg }

// Geometry computes the candidate's fragment geometry from the
// precomputed share vectors. With a shared Cache configured, the geometry
// of each (schema, mapping, page size, candidate) combination is computed
// once and reused by every Evaluator sharing the cache — geometries do
// not depend on the query mix, the disk count or the prefetch granules,
// so what-if scenarios varying only those reuse them directly.
func (e *Evaluator) Geometry(f *fragment.Fragmentation) (*fragment.Geometry, error) {
	if c := e.cfg.Cache; c != nil {
		key := geomCacheKey{
			schema:   e.cfg.Schema,
			mapping:  e.cfg.Mapping,
			pageSize: e.cfg.Disk.PageSize,
			maxFrag:  e.cfg.MaxFragments,
			frag:     f.Key(),
		}
		return c.geomFn(key, func() (*fragment.Geometry, error) { return e.geometry(f) })()
	}
	return e.geometry(f)
}

func (e *Evaluator) geometry(f *fragment.Fragmentation) (*fragment.Geometry, error) {
	attrs := f.Attrs()
	shares := make([][]float64, len(attrs))
	for i, a := range attrs {
		up, err := e.shares[a.Dim][a.Level]()
		if err != nil {
			return nil, err
		}
		shares[i] = up
	}
	return fragment.NewGeometryFromShares(e.cfg.Schema, f, e.cfg.Disk.PageSize, shares, e.cfg.MaxFragments)
}

// Evaluate runs the full model for one candidate. It is goroutine-safe:
// concurrent evaluations of different (or identical) candidates on the
// same Evaluator produce identical results to sequential ones. Each call
// allocates its working set; callers pricing long candidate streams from
// dedicated worker goroutines should use EvaluateWith with a
// worker-owned Scratch instead.
func (e *Evaluator) Evaluate(f *fragment.Fragmentation) (*Evaluation, error) {
	return e.EvaluateWith(e.NewScratch(nil), f)
}

// EvaluateWith is Evaluate using a worker-owned Scratch (see NewScratch):
// identical results, and the buffers are reused across calls. The
// Scratch must not be shared between goroutines concurrently.
func (e *Evaluator) EvaluateWith(sc *Scratch, f *fragment.Fragmentation) (*Evaluation, error) {
	sc.resize(e.cfg.Disk.Disks, len(f.Attrs()), len(e.cfg.Mix.Classes))
	return e.evaluate(f, sc)
}

func (e *Evaluator) evaluate(f *fragment.Fragmentation, sc *Scratch) (*Evaluation, error) {
	g, err := e.Geometry(f)
	if err != nil {
		return nil, err
	}
	scheme, err := bitmap.PlanScheme(e.cfg.Schema, f, e.cfg.Mix, e.cfg.Bitmap)
	if err != nil {
		return nil, err
	}
	return e.evaluateWithGeometry(f, g, scheme, sc)
}

func (e *Evaluator) evaluateWithGeometry(f *fragment.Fragmentation, g *fragment.Geometry, scheme *bitmap.Scheme, sc *Scratch) (*Evaluation, error) {
	cfg := e.cfg
	ev := &Evaluation{Frag: f, Geometry: g, Scheme: scheme}
	ev.BitmapPagesTotal = scheme.SchemePages(g)

	// Allocation weight: fact pages + co-located bitmap pages per fragment
	// (bitmap fragmentation exactly follows the fact table fragmentation;
	// each index's slices are packed per fragment). The bitmap pages are
	// priced once per size class and fanned out into the scratch; the
	// allocator does not keep the weights.
	sc.classBM = classBitmapPages(sc.classBM, g.SizeClasses(), scheme, g.PageSize)
	sc.weights = allocationPages(sc.weights, sc.classBM, g)
	var pl *alloc.Placement
	var err error
	if cfg.AllocScheme != nil {
		pl, err = alloc.Allocate(*cfg.AllocScheme, sc.weights, cfg.Disk.Disks)
	} else {
		pl, err = alloc.Choose(sc.weights, cfg.Disk.Disks, cfg.SkewCVThreshold)
	}
	if err != nil {
		return nil, err
	}
	ev.Placement = pl
	ev.CapacityOK = pl.FitsCapacity(e.capacityPages)

	// Class plans are derived once into the scratch and shared by the
	// granule search and the per-class pricing below.
	for i := range cfg.Mix.Classes {
		planClassInto(&sc.plans[i], cfg.Schema, f, scheme, &cfg.Mix.Classes[i])
	}

	// Prefetch granules: configured values win; otherwise the advisor
	// searches for the granules minimizing the weighted access cost
	// ("WARLOCK offers the choice to set a fixed value or to determine
	// itself optimal values for fact tables and bitmaps", §3.1).
	factSuggest, bmSuggest := e.optimizeGranules(g, sc.plans)
	ev.FactPrefetch = cfg.Disk.EffectivePrefetch(factSuggest)
	ev.BitmapPrefetch = cfg.Disk.EffectiveBitmapPrefetch(bmSuggest)

	ev.PerClass = make([]ClassCost, len(cfg.Mix.Classes))
	sc.runs = runEnds(sc.runs, g.SizeClasses())
	for i := range cfg.Mix.Classes {
		cc := e.evaluateClass(f, g, pl, &sc.plans[i], ev.FactPrefetch, ev.BitmapPrefetch, sc)
		cc.Weight = e.weights[i]
		ev.PerClass[i] = cc
		ev.AccessCost += time.Duration(float64(cc.AccessCost) * cc.Weight)
		ev.ResponseTime += time.Duration(float64(cc.ResponseTime) * cc.Weight)
	}
	return ev, nil
}

// evaluateClass computes the ClassCost of one class. sc.runs must hold
// the run ends of g's size classes (runEnds).
func (e *Evaluator) evaluateClass(f *fragment.Fragmentation, g *fragment.Geometry, pl *alloc.Placement, plan *ClassPlan, factGranule, bmGranule int, sc *Scratch) ClassCost {
	c := plan.Class
	cc := ClassCost{Class: c, DiskBusy: make([]time.Duration, pl.Disks)}
	cc.HitProb = plan.HitProb
	n := g.NumFragments()
	cc.FragmentsHit = plan.HitProb * float64(n)

	// Size-class kernel: FragmentCost/Seconds once per distinct
	// (rows, pages) pair, then a fold of the precomputed addends in exact
	// logical fragment order — same values, same summation order,
	// bit-identical to the naive per-fragment loop (zero-page classes
	// contribute +0.0, a bitwise no-op on the non-negative accumulators;
	// cf. kernel_test.go). The fold goes one run of equal size classes at
	// a time: a run adds the same addend to each placement-independent
	// sum, which addN does in a few real adds (runs of foldRunMin or
	// more), while each fragment's busy time still goes to its own disk,
	// one add per fragment in fragment order.
	sz := g.SizeClasses()
	cls := e.priceSizeClasses(plan, g.PageSize, sz, factGranule, bmGranule, sc)
	busy := sc.busy[:pl.Disks]
	clear(busy)
	var totalBusy float64
	start := 0
	for _, end := range sc.runs {
		k := &cls[sz.ClassOf[start]]
		if run := int(end) - start; run >= foldRunMin {
			cc.SelectedRows = addN(cc.SelectedRows, k.sel, run)
			cc.FactIOs = addN(cc.FactIOs, k.factIOs, run)
			cc.FactPages = addN(cc.FactPages, k.factPages, run)
			cc.BitmapIOs = addN(cc.BitmapIOs, k.bitmapIOs, run)
			cc.BitmapPages = addN(cc.BitmapPages, k.bitmapPages, run)
			totalBusy = addN(totalBusy, k.w, run)
		} else {
			for range run {
				cc.SelectedRows += k.sel
				cc.FactIOs += k.factIOs
				cc.FactPages += k.factPages
				cc.BitmapIOs += k.bitmapIOs
				cc.BitmapPages += k.bitmapPages
				totalBusy += k.w
			}
		}
		for _, d := range pl.DiskOf[start:end] {
			busy[d] += k.w
		}
		start = int(end)
	}
	for d, bz := range busy {
		cc.DiskBusy[d] = time.Duration(bz * float64(time.Second))
	}
	cc.AccessCost = time.Duration(totalBusy * float64(time.Second))
	resp, exact := e.expectedMaxResponse(plan, g, pl, cls, SampleSeed(f, c), sc)
	cc.ResponseTime = time.Duration(resp * float64(time.Second))
	cc.ResponseExact = exact
	return cc
}

// optimizeGranules searches the power-of-two granules up to PrefetchCap
// for the fact-table and bitmap granules minimizing the workload-weighted
// access cost on a representative (average-size) fragment. Fact and bitmap
// costs are independent, so the two searches are separable. plans holds
// the candidate's pre-derived class plans, in mix order.
func (e *Evaluator) optimizeGranules(g *fragment.Geometry, plans []ClassPlan) (factG, bmG int) {
	cfg := e.cfg
	st := g.Stats()
	avgP := int64(st.AvgPages + 0.5)
	if avgP < 1 {
		avgP = 1
	}
	// The representative fragment's average row count comes from the
	// size-class table's cached fragment-order row sum — the same
	// accumulation the per-fragment loop performed.
	var avgR float64
	if n := g.NumFragments(); n > 0 {
		avgR = g.SizeClasses().SumRows / float64(n)
	}
	// One FragmentCost per (granule, class) prices both searches: the fact
	// and bitmap partial costs are independent projections of the same io
	// breakdown, so the two argmins share the kernel work. Granules are
	// scanned in the same ascending order with the same strict-< update as
	// the former independent searches — identical picks.
	factBest, factCost := 1, math.Inf(1)
	bmBest, bmCost := 1, math.Inf(1)
	for gr := 1; gr <= PrefetchCap; gr *= 2 {
		var factTotal, bmTotal float64
		for i := range plans {
			io := FragmentCost(&plans[i], g.PageSize, avgP, avgR, gr, gr)
			w := e.weights[i] * plans[i].HitProb
			factPart := FragmentIO{FactIOs: io.FactIOs, FactPages: io.FactPages}
			bmPart := FragmentIO{BitmapIOs: io.BitmapIOs, BitmapPages: io.BitmapPages}
			factTotal += w * factPart.Seconds(&cfg.Disk)
			bmTotal += w * bmPart.Seconds(&cfg.Disk)
		}
		if factTotal < factCost {
			factBest, factCost = gr, factTotal
		}
		if bmTotal < bmCost {
			bmBest, bmCost = gr, bmTotal
		}
	}
	return factBest, bmBest
}

// SampleSeed derives the deterministic seed of the response-time sampling
// fallback for one (candidate, class) pair: an FNV-1a hash of the
// fragmentation key and the class name. Seeds never come from the clock
// or the global rand source, so repeated runs, parallel runs, and
// standalone Evaluate calls all price a candidate identically.
func SampleSeed(f *fragment.Fragmentation, c *workload.Class) int64 {
	h := fnv.New64a()
	h.Write([]byte(f.Key()))
	h.Write([]byte{0})
	h.Write([]byte(c.Name))
	return int64(h.Sum64())
}
