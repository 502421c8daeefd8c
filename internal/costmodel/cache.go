package costmodel

import (
	"sync"

	"repro/internal/fragment"
	"repro/internal/schema"
	"repro/internal/skew"
)

// Cache shares candidate-independent cost-model state across many
// Evaluators: the skew-aggregated share vector of each dimension attribute
// (depends only on schema and mapping) and the fragment geometry of each
// candidate (depends on schema, mapping, page size and the fragment
// bound, but not on the query mix, the disk count, the prefetch granules
// or the allocation scheme). A what-if sweep evaluating one schema under
// many disk counts or query-mix reweightings therefore computes every
// geometry once instead of once per scenario.
//
// Entries are keyed by schema pointer identity: two scenarios share
// cached state only when they literally share the *schema.Star value, so
// a stale hit is impossible as long as schemas are not mutated after
// first use (the advisor never mutates its inputs). All methods are
// goroutine-safe; concurrent scenario pipelines may share one Cache.
// Every cached value is computed by exactly the code path an uncached
// Evaluator runs, so results are bit-for-bit identical with and without
// a Cache. A geometry is complete when its compute returns and is never
// written again, so readers need only the Once that publishes it.
//
// The cache never evicts: it is meant to be scoped to one sweep (the
// sweep engine creates a fresh Cache per Run). A cache held across many
// unrelated schemas accumulates an entry set per schema; create a new
// one per batch of related work instead.
type Cache struct {
	mu     sync.Mutex
	shares map[sharesCacheKey]func() ([]float64, error)
	geoms  map[geomCacheKey]func() (*fragment.Geometry, error)
}

type sharesCacheKey struct {
	schema  *schema.Star
	mapping skew.Mapping
	attr    schema.AttrRef
}

type geomCacheKey struct {
	schema   *schema.Star
	mapping  skew.Mapping
	pageSize int
	maxFrag  int64
	frag     string // fragment.Fragmentation.Key()
}

// NewCache returns an empty shared evaluation-state cache.
func NewCache() *Cache {
	return &Cache{
		shares: make(map[sharesCacheKey]func() ([]float64, error)),
		geoms:  make(map[geomCacheKey]func() (*fragment.Geometry, error)),
	}
}

// shareFn returns the memoized share-vector computation for one attribute.
// The first caller installs the compute closure wrapped in a Once; later
// callers (from any Evaluator sharing the schema) reuse it.
func (c *Cache) shareFn(key sharesCacheKey, compute func() ([]float64, error)) func() ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn, ok := c.shares[key]; ok {
		return fn
	}
	fn := sync.OnceValues(compute)
	c.shares[key] = fn
	return fn
}

// geomFn returns the memoized geometry computation for one candidate.
func (c *Cache) geomFn(key geomCacheKey, compute func() (*fragment.Geometry, error)) func() (*fragment.Geometry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn, ok := c.geoms[key]; ok {
		return fn
	}
	fn := sync.OnceValues(compute)
	c.geoms[key] = fn
	return fn
}

// Geometries reports how many distinct candidate geometries the cache
// currently holds (hit-rate introspection for sweeps and tests).
func (c *Cache) Geometries() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.geoms)
}

// Shares reports how many distinct attribute share vectors the cache
// currently holds. Together with Geometries it lets long-lived holders
// (the advisory service keeps one Cache per schema identity) bound a
// cache's growth by swapping in a fresh one.
func (c *Cache) Shares() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shares)
}
