package core

import (
	"container/list"
	"sort"
	"sync"

	"redshift/internal/plan"
	"redshift/internal/sql"
)

// lruCache is the bounded LRU behind both serving-path caches: the plan
// cache (cost 1 per entry, budget = entry count) and the result cache
// (cost = approximate result bytes, budget = Config.ResultCacheBytes).
// Entries carry their own version keys; staleness is detected lazily at
// lookup by the caller (version mismatch → Invalidate), never by scanning
// the cache on writes — a mutation costs nothing until the query repeats.
//
// A nil *lruCache is a disabled cache: every method is nil-receiver safe
// and Get always misses.
type lruCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions, invalidations int64
}

// lruEntry is one cached artifact.
type lruEntry struct {
	key  string
	val  any
	cost int64
}

// cacheStats is a point-in-time snapshot for system tables and metrics.
type cacheStats struct {
	Hits, Misses, Evictions, Invalidations int64
	Entries, Used, Budget                  int64
}

// newLRUCache builds a cache with the given budget; budget <= 0 returns
// nil (disabled).
func newLRUCache(budget int64) *lruCache {
	if budget <= 0 {
		return nil
	}
	return &lruCache{budget: budget, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the entry under key, promoting it to most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Peek returns the entry under key without promoting it or counting a
// hit/miss — a side-effect-free probe for routing decisions.
func (c *lruCache) Peek(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// Put inserts or replaces the entry under key, evicting from the LRU tail
// until the budget holds. An entry costing more than the whole budget is
// silently not cached.
func (c *lruCache) Put(key string, val any, cost int64) {
	if c == nil || cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.used += cost - ent.cost
		ent.val, ent.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, cost: cost})
		c.used += cost
	}
	for c.used > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evictions++
	}
}

// Invalidate removes the entry under key (a version-mismatch discard, not
// an eviction — counted separately so stv_*_cache distinguishes pressure
// from staleness).
func (c *lruCache) Invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
		c.invalidations++
	}
}

// Clear drops everything — catalog adoption (restore) replaces the version
// space wholesale, so every key is suspect.
func (c *lruCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(len(c.items))
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.used = 0
	c.invalidations += n
}

func (c *lruCache) removeLocked(el *list.Element) {
	ent := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.used -= ent.cost
}

// Stats snapshots the counters; the zero value is returned for a disabled
// cache.
func (c *lruCache) Stats() cacheStats {
	if c == nil {
		return cacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Entries: int64(len(c.items)), Used: c.used, Budget: c.budget,
	}
}

// tableVersion pins one referenced table's data version at artifact-build
// time; an artifact is valid only while every pinned version still matches
// the catalog.
type tableVersion struct {
	id  int64
	ver int64
}

// planEntry is a cached bound plan plus its invalidation key: the global
// catalog version (any DDL moves it) and the referenced tables' data
// versions (COPY/INSERT/DELETE/VACUUM/ANALYZE move those — ANALYZE matters
// because the plan embeds cardinality estimates from the stats it saw).
type planEntry struct {
	p          *plan.Plan
	catVersion int64
	tables     []tableVersion
}

// resultEntry is a cached query result plus the data versions of every
// table it read, captured before the executing query took its snapshot —
// so a version-matched hit can never be staler than executing again.
type resultEntry struct {
	res    *Result
	tables []tableVersion
}

// Budget returns the cache's byte (or entry) budget; 0 when disabled.
func (c *lruCache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// versionsMatch reports whether every pinned table data version still
// matches the live catalog — the lazy invalidation check both caches share.
func (db *Database) versionsMatch(tvs []tableVersion) bool {
	for _, tv := range tvs {
		if db.cat.DataVersion(tv.id) != tv.ver {
			return false
		}
	}
	return true
}

// captureTableVersions pins the current data version of every table a plan
// references, sorted by table id (deterministic, deduplicated — a
// self-join references one version, not two).
func (db *Database) captureTableVersions(p *plan.Plan) []tableVersion {
	out := make([]tableVersion, 0, len(p.Tables))
	for _, t := range p.Tables {
		id := t.Def.ID
		dup := false
		for _, tv := range out {
			if tv.id == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, tableVersion{id: id, ver: db.cat.DataVersion(id)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// planFor is stage 3 of the lifecycle: bind/plan with reuse. A cached plan
// is returned only while the global catalog version AND every referenced
// table's data version match what it was built under — DDL moves the
// former, data mutations and ANALYZE move the latter (a plan embeds
// cardinality estimates from the statistics it saw, so stale stats must
// invalidate it). The returned plan is immutable after build and shared
// across concurrent queries, its lowered physical tree (plan.Physical)
// included; per-run state (snapshot, visible segments, operator instances)
// is derived fresh each execution.
func (db *Database) planFor(sel *sql.Select, norm string) (*plan.Plan, bool, error) {
	catVer := db.cat.Version()
	if v, ok := db.planCache.Get(norm); ok {
		ent := v.(*planEntry)
		if ent.catVersion == catVer && db.versionsMatch(ent.tables) {
			return ent.p, true, nil
		}
		db.planCache.Invalidate(norm)
	}
	p, err := plan.BuildWith(db.cat, sel, db.cfg.Plan)
	if err != nil {
		return nil, false, err
	}
	db.planCache.Put(norm, &planEntry{p: p, catVersion: catVer, tables: db.captureTableVersions(p)}, 1)
	return p, false, nil
}

// resultCacheable gates the result cache: it needs the cache enabled, the
// session opted in, a data-plane query (leader-only SELECTs are cheaper
// than a lookup; system tables change without version bumps), and only
// deterministic functions.
func (db *Database) resultCacheable(sess *Session, sel *sql.Select) bool {
	if db.resultCache == nil || sess.resultCacheOff.Load() {
		return false
	}
	if sel.From == nil || isSystemTable(sel.From.Table) {
		return false
	}
	for _, j := range sel.Joins {
		if isSystemTable(j.Table.Table) {
			return false
		}
	}
	return deterministicSelect(sel)
}

// deterministicSelect walks every expression position of a SELECT and
// rejects the statement if any function is non-deterministic.
func deterministicSelect(s *sql.Select) bool {
	exprs := make([]sql.Expr, 0, len(s.Items)+len(s.Joins)+len(s.GroupBy)+len(s.OrderBy)+2)
	for _, it := range s.Items {
		exprs = append(exprs, it.Expr) // nil for *
	}
	for _, j := range s.Joins {
		exprs = append(exprs, j.On)
	}
	exprs = append(exprs, s.Where, s.Having)
	exprs = append(exprs, s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if !deterministicExpr(e) {
			return false
		}
	}
	return true
}

func deterministicExpr(e sql.Expr) bool {
	return sql.Walk(e, func(x sql.Expr) bool {
		call, ok := x.(*sql.FuncCall)
		return !ok || call.Name.Deterministic()
	})
}

// resultLookup serves a stored result if its version key still matches; a
// mismatch deletes the entry (lazy invalidation — mutations never scan the
// cache). The hit shares the stored schema and rows (callers treat results
// as read-only) under a fresh header with zeroed stats and Cached set.
func (db *Database) resultLookup(norm string) (*Result, bool) {
	v, ok := db.resultCache.Get(norm)
	if !ok {
		return nil, false
	}
	ent := v.(*resultEntry)
	if !db.versionsMatch(ent.tables) {
		db.resultCache.Invalidate(norm)
		return nil, false
	}
	return &Result{Schema: ent.res.Schema, Rows: ent.res.Rows, Cached: true}, true
}

// resultStore caches a completed result under the version key captured
// before the query took its snapshot. Oversized results (more than a
// quarter of the budget) are not stored — one giant result must not wipe
// the working set.
func (db *Database) resultStore(norm string, res *Result, tables []tableVersion) {
	cost := estimateResultBytes(res)
	if budget := db.resultCache.Budget(); budget == 0 || cost > budget/4 {
		return
	}
	stored := &Result{Schema: res.Schema, Rows: res.Rows}
	db.resultCache.Put(norm, &resultEntry{res: stored, tables: tables}, cost)
}

// estimateResultBytes approximates a result's resident size for the
// cache's byte accounting.
func estimateResultBytes(res *Result) int64 {
	var n int64 = 128 // header + schema
	for _, row := range res.Rows {
		n += 24 * int64(len(row))
		for _, v := range row {
			n += int64(len(v.S))
		}
	}
	return n
}
