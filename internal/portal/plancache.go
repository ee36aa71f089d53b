package portal

// The Portal's compiled-plan cache. Preparing a cross-match query is
// itself a federated operation: parse, validate, decompose, and one
// count-star performance query per mandatory archive — a full SOAP
// round-trip fan-out before the chain even starts. Interactive clients
// re-submit the same query text constantly (page reloads, polling
// tools), so the Portal keeps the resulting core.Prepared keyed by the
// query's canonical form and replays it, skipping everything up to and
// including the count-star probes on a hit.
//
// Like the LIKE-pattern cache in internal/eval, the cache is bounded by
// two generations of at most its configured size: when the current
// generation fills it becomes the previous one, and entries still in
// use are promoted back on their next hit. The portal accepts arbitrary
// query streams, so an unbounded map keyed by query text would grow
// forever under unique queries.
//
// Invalidation is by key construction, not by scanning: the key salts
// the canonical SQL with the portal's catalog version (bumped on every
// registration) and its planning options, so a schema change or an
// option change simply stops matching the old entries, which then age
// out through generation rotation. A stale hit is impossible; a stale
// entry merely occupies space for at most two rotations.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skyquery/internal/core"
)

// DefaultPlanCacheSize is the per-generation entry bound used when
// Config.PlanCacheSize is zero. Two generations are live at once, so at
// most twice this many plans are retained.
const DefaultPlanCacheSize = 256

// planCache is a bounded two-generation cache of prepared queries.
type planCache struct {
	size int

	mu   sync.RWMutex
	cur  map[string]*core.Prepared
	prev map[string]*core.Prepared

	hits   atomic.Int64
	misses atomic.Int64
}

// newPlanCache builds a cache with the given per-generation size;
// size == 0 means DefaultPlanCacheSize, negative disables caching
// entirely (returns nil — a nil *planCache never hits).
func newPlanCache(size int) *planCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	return &planCache{size: size}
}

// get looks up a prepared query, promoting previous-generation hits.
func (c *planCache) get(key string) (*core.Prepared, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	prep, hit := c.cur[key]
	c.mu.RUnlock()
	if hit {
		c.hits.Add(1)
		return prep, true
	}
	c.mu.Lock()
	if prep, ok := c.cur[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return prep, true
	}
	if prep, ok := c.prev[key]; ok {
		c.insertLocked(key, prep)
		c.mu.Unlock()
		c.hits.Add(1)
		return prep, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// put stores a freshly prepared query. A concurrent duplicate prepare
// is harmless: last writer wins, both values are equivalent.
func (c *planCache) put(key string, prep *core.Prepared) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.insertLocked(key, prep)
	c.mu.Unlock()
}

func (c *planCache) insertLocked(key string, prep *core.Prepared) {
	if c.cur == nil {
		c.cur = make(map[string]*core.Prepared, c.size)
	}
	if len(c.cur) >= c.size {
		c.prev = c.cur
		c.cur = make(map[string]*core.Prepared, c.size)
	}
	c.cur[key] = prep
}

// entries reports the number of retained plans across both generations.
func (c *planCache) entries() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cur) + len(c.prev)
}

// PlanCacheStats is a snapshot of the plan cache's counters.
type PlanCacheStats struct {
	// Hits and Misses count lookups; disabled caches report zero for
	// both (every query is prepared fresh without consulting a cache).
	Hits, Misses int64
	// Entries is the number of plans currently retained.
	Entries int
}

// PlanCacheStats reports the Portal's plan-cache counters.
func (p *Portal) PlanCacheStats() PlanCacheStats {
	if p.plans == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Hits:    p.plans.hits.Load(),
		Misses:  p.plans.misses.Load(),
		Entries: p.plans.entries(),
	}
}

// planSalt folds everything besides the query text that a prepared plan
// depends on into a key suffix: the catalog version (schema or
// membership changes re-plan) and the planning options written into
// every plan. Differing salts can never share an entry.
func (p *Portal) planSalt() string {
	return fmt.Sprintf("v%d|c%d|p%d|m%t|o%t",
		p.catalogVersion.Load(), p.cfg.ChunkRows, p.cfg.Parallelism, p.cfg.IncludeMatchColumns,
		p.cfg.CountProbeOrder)
}
