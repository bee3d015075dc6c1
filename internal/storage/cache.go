package storage

import (
	"container/list"
	"sync"
	"sync/atomic"

	"redshift/internal/types"
)

// BlockCache is a node-level, byte-budgeted cache of decoded column
// vectors, keyed by BlockID. Blocks are immutable values once sealed
// (content-hash pinned), so a decoded vector stays valid across
// Evict/Fill page-fault cycles, and a BlockID is never given to a second
// block: segments are numbered by the xid that wrote them (DESIGN.md
// "Commit protocol"). InvalidateTable therefore reclaims memory — the
// entries of superseded or dropped segments — rather than coherence.
//
// Invalidation is also epoch-fenced, a second line of defence should a
// writer ever reuse an identity: InvalidateTable bumps the table's epoch,
// and readers carry the epoch they sampled BEFORE resolving their visible
// segments. A scan that started against pre-invalidation segments fails
// the epoch check on both Get and Put — it is neither served another
// generation's vector nor re-inserts an old decode afterwards.
//
// Eviction is LRU over a byte budget. All methods are safe for
// concurrent use by slice goroutines, and nil-receiver safe so a
// disabled cache is simply a nil pointer.
type BlockCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[BlockID]*list.Element
	lru     *list.List // front = most recently used
	// epochs counts invalidations per table; missing = 0.
	epochs map[int64]uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one cached decoded block.
type cacheEntry struct {
	id    BlockID
	v     *types.Vector
	size  int64
	epoch uint64
}

// NewBlockCache returns a cache bounded to budget bytes of decoded
// vector payload. A non-positive budget returns nil (disabled).
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	return &BlockCache{
		budget:  budget,
		entries: map[BlockID]*list.Element{},
		lru:     list.New(),
		epochs:  map[int64]uint64{},
	}
}

// Epoch returns the table's current invalidation epoch. Readers sample it
// BEFORE resolving their visible segments and pass it to Get/Put — the
// ordering guarantees a reader holding pre-invalidation segments also
// holds a pre-invalidation epoch.
func (c *BlockCache) Epoch(tableID int64) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	e := c.epochs[tableID]
	c.mu.Unlock()
	return e
}

// Get returns the cached decoded vector for id, provided the caller's
// sampled epoch is still the block identity's current one. Callers must
// treat the vector as immutable.
func (c *BlockCache) Get(id BlockID, epoch uint64) (*types.Vector, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[id]
	if !ok || el.Value.(*cacheEntry).epoch != epoch {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	v := el.Value.(*cacheEntry).v
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put caches a decoded vector, evicting least-recently-used entries
// until the byte budget holds. Vectors larger than the whole budget are
// not cached, and a Put whose sampled epoch is no longer the table's
// current one is dropped — its block belongs to a segment that has since
// been superseded. The caller must not mutate v after Put.
func (c *BlockCache) Put(id BlockID, v *types.Vector, epoch uint64) {
	if c == nil || v == nil {
		return
	}
	size := v.ByteSize()
	if size > c.budget {
		return
	}
	c.mu.Lock()
	if epoch != c.epochs[id.Table] {
		c.mu.Unlock()
		return
	}
	if el, ok := c.entries[id]; ok {
		// Same ID and epoch ⇒ same immutable content; refresh recency.
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[id] = c.lru.PushFront(&cacheEntry{id: id, v: v, size: size, epoch: epoch})
	c.bytes += size
	for c.bytes > c.budget {
		c.evictOldestLocked()
	}
	c.mu.Unlock()
}

// evictOldestLocked drops the LRU entry; c.mu must be held.
func (c *BlockCache) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.id)
	c.bytes -= e.size
	c.evictions.Add(1)
}

// InvalidateTable drops every cached block of one table and bumps its
// epoch — DROP TABLE, TRUNCATE and VACUUM leave entries nobody will ask
// for again, and the epoch bump fences out readers whose scans started
// before the rewrite (their Gets and Puts no longer match).
func (c *BlockCache) InvalidateTable(tableID int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.epochs[tableID]++
	for id, el := range c.entries {
		if id.Table != tableID {
			continue
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, id)
		c.bytes -= e.size
	}
	c.mu.Unlock()
}

// Clear empties the cache (benchmarks use it to measure cold scans).
// Counters are kept: clearing changes residency, not history.
func (c *BlockCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = map[BlockID]*list.Element{}
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Budget    int64
	Entries   int64
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *BlockCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes,
		Budget:    c.budget,
		Entries:   int64(c.lru.Len()),
	}
	c.mu.Unlock()
	return s
}
