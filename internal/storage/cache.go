package storage

import (
	"container/heap"
	"sync"

	"redshift/internal/types"
)

// Cache is a budgeted map that keeps what is expensive to rebuild per unit
// of budget it occupies (GreedyDual-Size). It is the one cache structure of
// the engine: the block cache below, and core's plan and result caches.
//
// Every entry is put with a size, charged against the budget, and a cost:
// the nanoseconds it took to produce. Its priority is clock + cost/size, set
// when it is put and again on every hit; making room evicts the lowest
// priority (least recently touched among equals) and advances the clock to
// it, so everything still resident has aged by that much and an expensive
// entry nobody asks for again leaves too: an entry of density D is out
// within D/d + 1 turnovers of the budget, d being the lowest density among
// the entries still arriving. Entries of one density are evicted in exactly
// least-recently-used order.
//
// A hit only rewrites its entry's rank; the eviction queue is ordered on the
// rank each entry had when it was last filed, and the eviction loop re-files
// a popped entry whose rank has moved since instead of evicting it. Ranks
// only grow — the clock never goes back and every touch takes a fresh
// sequence number — so a filed rank is never above the current one, and the
// entry finally evicted is exactly the one a queue re-sorted on every hit
// would evict: its current rank is its filed rank, which is the lowest filed
// rank, which no other entry's current rank is below.
//
// All methods are safe for concurrent use, and nil-receiver safe so a
// disabled cache is simply a nil pointer.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	costNs  int64 // summed cost of the resident entries
	entries map[K]*cacheEntry[K, V]
	queue   evictionQueue[K, V]
	clock   float64 // priority of the last entry evicted for room
	touches uint64  // orders entries of equal priority

	hits, misses, evictions, invalidations, savedNs int64
}

// rank is an entry's place in eviction order: lowest priority first, least
// recently touched among equals. No two entries share a rank.
type rank struct {
	priority float64
	touched  uint64
}

func (a rank) less(b rank) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.touched < b.touched
}

// cacheEntry is one cached value. now is its rank as of its last use; filed
// is the rank the eviction queue orders it by, never above now.
type cacheEntry[K comparable, V any] struct {
	key        K
	v          V
	size       int64
	costNs     int64
	now, filed rank
	idx        int // position in the eviction queue
}

// evictionQueue is a min-heap of the resident entries on their filed ranks.
type evictionQueue[K comparable, V any] []*cacheEntry[K, V]

func (q evictionQueue[K, V]) Len() int           { return len(q) }
func (q evictionQueue[K, V]) Less(i, j int) bool { return q[i].filed.less(q[j].filed) }
func (q evictionQueue[K, V]) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *evictionQueue[K, V]) Push(x any) {
	e := x.(*cacheEntry[K, V])
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *evictionQueue[K, V]) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// NewCache returns a cache bounded to budget; a non-positive budget returns
// nil (disabled).
func NewCache[K comparable, V any](budget int64) *Cache[K, V] {
	if budget <= 0 {
		return nil
	}
	return &Cache[K, V]{budget: budget, entries: map[K]*cacheEntry[K, V]{}}
}

// touchLocked ranks e as used now; c.mu must be held.
func (c *Cache[K, V]) touchLocked(e *cacheEntry[K, V]) {
	c.touches++
	e.now = rank{c.clock + float64(e.costNs)/float64(e.size), c.touches}
}

// Get returns the value under key and counts a hit, whose saving is the
// entry's recorded cost, or a miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var v V
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return v, false
	}
	c.touchLocked(e)
	c.hits++
	c.savedNs += e.costNs
	return e.v, true
}

// Peek returns the value under key without touching it or counting a hit or
// miss: a side-effect-free probe.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	var v V
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.v, true
	}
	return v, false
}

// Put caches v under key — replacing what was there — at size units of the
// budget and costNs nanoseconds to rebuild, evicting the entries cheapest to
// rebuild per unit until it fits. A value with no size, or larger than the
// whole budget, is not cached.
func (c *Cache[K, V]) Put(key K, v V, size, costNs int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.putLocked(key, v, size, costNs)
	c.mu.Unlock()
}

// putLocked is Put; c.mu must be held.
func (c *Cache[K, V]) putLocked(key K, v V, size, costNs int64) {
	if size <= 0 || size > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		heap.Remove(&c.queue, old.idx)
		c.dropLocked(old)
	}
	for c.bytes+size > c.budget {
		e := c.queue[0]
		if e.filed != e.now {
			e.filed = e.now // touched since it was filed: file it where it now belongs
			heap.Fix(&c.queue, 0)
			continue
		}
		heap.Pop(&c.queue)
		c.clock = e.now.priority
		c.dropLocked(e)
		c.evictions++
	}
	e := &cacheEntry[K, V]{key: key, v: v, size: size, costNs: costNs}
	c.touchLocked(e)
	e.filed = e.now
	heap.Push(&c.queue, e)
	c.entries[key] = e
	c.bytes += size
	c.costNs += costNs
}

// dropLocked forgets an entry already out of the queue; c.mu must be held.
func (c *Cache[K, V]) dropLocked(e *cacheEntry[K, V]) {
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.costNs -= e.costNs
}

// Invalidate removes the entry under key: a discard for staleness, counted
// apart from evictions so the stats tell pressure from staleness.
func (c *Cache[K, V]) Invalidate(key K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		heap.Remove(&c.queue, e.idx)
		c.dropLocked(e)
		c.invalidations++
	}
	c.mu.Unlock()
}

// DropIf invalidates every entry whose key drop reports true. drop runs
// under the cache's lock and must not call the cache.
func (c *Cache[K, V]) DropIf(drop func(K) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.dropIfLocked(drop)
	c.mu.Unlock()
}

// dropIfLocked is DropIf; c.mu must be held.
func (c *Cache[K, V]) dropIfLocked(drop func(K) bool) {
	kept := c.queue[:0]
	for _, e := range c.queue {
		if drop(e.key) {
			c.dropLocked(e)
			c.invalidations++
			continue
		}
		e.idx = len(kept)
		kept = append(kept, e)
	}
	clear(c.queue[len(kept):])
	c.queue = kept
	heap.Init(&c.queue)
}

// Clear invalidates everything. Counters are kept: clearing changes
// residency, not history.
func (c *Cache[K, V]) Clear() {
	c.DropIf(func(K) bool { return true })
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Bytes is the budget the resident entries occupy: bytes for the block
	// and result caches, entries for the plan cache.
	Bytes   int64
	Budget  int64
	Entries int64
	// SavedNs sums the recorded cost of every hit: the rebuild time the
	// cache has avoided. ResidentCostNs is what rebuilding everything
	// resident would cost.
	SavedNs        int64
	ResidentCostNs int64
	// Invalidations counts entries dropped as stale rather than for room.
	Invalidations int64
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache[K, V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		Bytes:          c.bytes,
		Budget:         c.budget,
		Entries:        int64(len(c.entries)),
		SavedNs:        c.savedNs,
		ResidentCostNs: c.costNs,
		Invalidations:  c.invalidations,
	}
}

// BlockCache is a node-level, byte-budgeted Cache of decoded column
// vectors, keyed by BlockID and priced by the nanoseconds the scan spent
// decoding each. Blocks are immutable values once sealed (content-hash
// pinned), so a decoded vector stays valid across Evict/Fill page-fault
// cycles, and a BlockID is never given to a second block: segments are
// numbered by the xid that wrote them (DESIGN.md "Commit protocol").
// InvalidateTable therefore reclaims memory — the entries of superseded or
// dropped segments — rather than coherence.
//
// Invalidation is also epoch-fenced, a second line of defence should a
// writer ever reuse an identity: InvalidateTable bumps the table's epoch,
// and readers carry the epoch they sampled BEFORE resolving their visible
// segments. The epoch is part of the key, so a scan that started against
// pre-invalidation segments misses on Get, and its Put is dropped — it is
// neither served another generation's vector nor re-inserts an old decode
// afterwards.
type BlockCache struct {
	c *Cache[blockKey, *types.Vector]
	// epochs counts invalidations per table; missing = 0. Guarded by c.mu,
	// so a Put checks its epoch and inserts under one lock.
	epochs map[int64]uint64
}

type blockKey struct {
	id    BlockID
	epoch uint64
}

// NewBlockCache returns a cache bounded to budget bytes of decoded
// vector payload. A non-positive budget returns nil (disabled).
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	return &BlockCache{c: NewCache[blockKey, *types.Vector](budget), epochs: map[int64]uint64{}}
}

// cache is the underlying Cache: nil when b is.
func (b *BlockCache) cache() *Cache[blockKey, *types.Vector] {
	if b == nil {
		return nil
	}
	return b.c
}

// Epoch returns the table's current invalidation epoch. Readers sample it
// BEFORE resolving their visible segments and pass it to Get/Put — the
// ordering guarantees a reader holding pre-invalidation segments also
// holds a pre-invalidation epoch.
func (b *BlockCache) Epoch(tableID int64) uint64 {
	if b == nil {
		return 0
	}
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return b.epochs[tableID]
}

// Get returns the cached decoded vector for id, provided the caller's
// sampled epoch is still the block identity's current one. Callers must
// treat the vector as immutable.
func (b *BlockCache) Get(id BlockID, epoch uint64) (*types.Vector, bool) {
	return b.cache().Get(blockKey{id, epoch})
}

// Put is PutCost for a caller that did not time the decode: one nanosecond
// per byte, the uniform density under which eviction is least recently used.
func (b *BlockCache) Put(id BlockID, v *types.Vector, epoch uint64) {
	if v != nil {
		b.PutCost(id, v, epoch, v.ByteSize())
	}
}

// PutCost caches a decoded vector that took costNs nanoseconds to produce.
// A Put whose sampled epoch is no longer the table's current one is dropped
// — its block belongs to a segment that has since been superseded. The
// caller must not mutate v after PutCost.
func (b *BlockCache) PutCost(id BlockID, v *types.Vector, epoch uint64, costNs int64) {
	if b == nil || v == nil {
		return
	}
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	if epoch == b.epochs[id.Table] {
		b.c.putLocked(blockKey{id, epoch}, v, v.ByteSize(), costNs)
	}
}

// InvalidateTable drops every cached block of one table and bumps its
// epoch — DROP TABLE, TRUNCATE and VACUUM leave entries nobody will ask
// for again, and the epoch bump fences out readers whose scans started
// before the rewrite (their Gets and Puts no longer match).
func (b *BlockCache) InvalidateTable(tableID int64) {
	if b == nil {
		return
	}
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	b.epochs[tableID]++
	b.c.dropIfLocked(func(k blockKey) bool { return k.id.Table == tableID })
}

// Clear empties the cache (benchmarks use it to measure cold scans).
func (b *BlockCache) Clear() { b.cache().Clear() }

// Stats snapshots the counters. A nil cache reports zeros.
func (b *BlockCache) Stats() CacheStats { return b.cache().Stats() }
