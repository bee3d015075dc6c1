package storage

import (
	"container/heap"
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
// Eviction keeps what is expensive to rebuild per byte it occupies
// (GreedyDual-Size). The policy's one input is the cost PutCost is handed:
// the nanoseconds the scan just spent decoding the block. An entry's
// priority is clock + cost/size, set when it is inserted and again on every
// hit; making room evicts the lowest priority (least recently touched among
// equals) and advances the clock to it, so everything still resident has
// aged by that much and an expensive block nobody asks for again leaves
// too: an entry of density D is out within D/d + 1 turnovers of the budget,
// d being the lowest density among the blocks still arriving. Blocks of one
// density are evicted in exactly least-recently-used order.
//
// All methods are safe for concurrent use by slice goroutines, and
// nil-receiver safe so a disabled cache is simply a nil pointer.
type BlockCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	costNs  int64 // summed cost of the resident entries
	entries map[BlockID]*cacheEntry
	queue   evictionQueue
	clock   float64 // priority of the last entry evicted for room
	touches uint64  // orders entries of equal priority
	// epochs counts invalidations per table; missing = 0.
	epochs map[int64]uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	savedNs   atomic.Int64
}

// cacheEntry is one cached decoded block.
type cacheEntry struct {
	id     BlockID
	v      *types.Vector
	size   int64
	costNs int64
	epoch  uint64

	priority float64
	touched  uint64
	idx      int // position in the eviction queue
}

// evictionQueue is a min-heap of the resident entries: the next victim first.
type evictionQueue []*cacheEntry

func (q evictionQueue) Len() int { return len(q) }
func (q evictionQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].touched < q[j].touched
}
func (q evictionQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *evictionQueue) Push(x any) {
	e := x.(*cacheEntry)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *evictionQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// NewBlockCache returns a cache bounded to budget bytes of decoded
// vector payload. A non-positive budget returns nil (disabled).
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	return &BlockCache{
		budget:  budget,
		entries: map[BlockID]*cacheEntry{},
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

// touchLocked gives e the priority of an entry used now; c.mu must be held.
func (c *BlockCache) touchLocked(e *cacheEntry) {
	c.touches++
	e.touched = c.touches
	e.priority = c.clock + float64(e.costNs)/float64(e.size)
}

// Get returns the cached decoded vector for id, provided the caller's
// sampled epoch is still the block identity's current one. Callers must
// treat the vector as immutable.
func (c *BlockCache) Get(id BlockID, epoch uint64) (*types.Vector, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok || e.epoch != epoch {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.touchLocked(e)
	heap.Fix(&c.queue, e.idx)
	v, saved := e.v, e.costNs
	c.mu.Unlock()
	c.hits.Add(1)
	c.savedNs.Add(saved)
	return v, true
}

// Put is PutCost for a caller that did not time the decode: one nanosecond
// per byte, the uniform density under which eviction is least recently used.
func (c *BlockCache) Put(id BlockID, v *types.Vector, epoch uint64) {
	if v != nil {
		c.PutCost(id, v, epoch, v.ByteSize())
	}
}

// PutCost caches a decoded vector that took costNs nanoseconds to produce,
// evicting the entries cheapest to rebuild per byte until it fits. Vectors
// larger than the whole budget are not cached, and a Put whose sampled
// epoch is no longer the table's current one is dropped — its block
// belongs to a segment that has since been superseded. The caller must not
// mutate v after PutCost.
func (c *BlockCache) PutCost(id BlockID, v *types.Vector, epoch uint64, costNs int64) {
	if c == nil || v == nil {
		return
	}
	size := v.ByteSize()
	if size <= 0 || size > c.budget { // no bytes, no cost per byte
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epochs[id.Table] {
		return
	}
	if e, ok := c.entries[id]; ok {
		// Same ID and epoch ⇒ same immutable content; count it a use.
		c.touchLocked(e)
		heap.Fix(&c.queue, e.idx)
		return
	}
	for c.bytes+size > c.budget {
		victim := heap.Pop(&c.queue).(*cacheEntry)
		c.clock = victim.priority
		c.dropLocked(victim)
		c.evictions.Add(1)
	}
	e := &cacheEntry{id: id, v: v, size: size, costNs: costNs, epoch: epoch}
	c.touchLocked(e)
	heap.Push(&c.queue, e)
	c.entries[id] = e
	c.bytes += size
	c.costNs += costNs
}

// dropLocked forgets an entry already out of the queue; c.mu must be held.
func (c *BlockCache) dropLocked(e *cacheEntry) {
	delete(c.entries, e.id)
	c.bytes -= e.size
	c.costNs -= e.costNs
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
	kept := c.queue[:0]
	for _, e := range c.queue {
		if e.id.Table == tableID {
			c.dropLocked(e)
			continue
		}
		e.idx = len(kept)
		kept = append(kept, e)
	}
	clear(c.queue[len(kept):])
	c.queue = kept
	heap.Init(&c.queue)
	c.mu.Unlock()
}

// Clear empties the cache (benchmarks use it to measure cold scans).
// Counters are kept: clearing changes residency, not history.
func (c *BlockCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = map[BlockID]*cacheEntry{}
	c.queue = nil
	c.bytes, c.costNs = 0, 0
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
	// SavedNs sums the recorded cost of every hit: the decode time the
	// cache has avoided. ResidentCostNs is what rebuilding everything
	// resident would cost.
	SavedNs        int64
	ResidentCostNs int64
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *BlockCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Bytes:          c.bytes,
		Budget:         c.budget,
		Entries:        int64(len(c.queue)),
		SavedNs:        c.savedNs.Load(),
		ResidentCostNs: c.costNs,
	}
	c.mu.Unlock()
	return s
}
