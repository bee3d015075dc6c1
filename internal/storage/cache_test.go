package storage

import (
	"container/heap"
	"container/list"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"redshift/internal/types"
)

func cacheVec(n int) *types.Vector {
	v := types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		v.Append(types.NewInt(int64(i)))
	}
	return v
}

func cacheID(table int64, idx int32) BlockID {
	return BlockID{Table: table, Slice: 0, Segment: 0, Column: 0, Index: idx}
}

func TestBlockCacheGetPut(t *testing.T) {
	c := NewBlockCache(1 << 20)
	id := cacheID(1, 0)
	if _, ok := c.Get(id, c.Epoch(1)); ok {
		t.Fatal("hit on empty cache")
	}
	v := cacheVec(8)
	c.Put(id, v, c.Epoch(1))
	got, ok := c.Get(id, c.Epoch(1))
	if !ok || got != v {
		t.Fatalf("Get = %v, %v; want the cached vector", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != v.ByteSize() {
		t.Errorf("stats = %+v", s)
	}
	// A duplicate Put of the same immutable block is a no-op.
	c.Put(id, cacheVec(8), c.Epoch(1))
	if s2 := c.Stats(); s2.Entries != 1 || s2.Bytes != v.ByteSize() {
		t.Errorf("duplicate Put changed residency: %+v", s2)
	}
}

func TestBlockCacheLRUEviction(t *testing.T) {
	one := cacheVec(16).ByteSize()
	c := NewBlockCache(3 * one)
	for i := int32(0); i < 3; i++ {
		c.Put(cacheID(1, i), cacheVec(16), 0)
	}
	// Touch block 0 so block 1 becomes the LRU victim.
	if _, ok := c.Get(cacheID(1, 0), 0); !ok {
		t.Fatal("block 0 missing before eviction")
	}
	c.Put(cacheID(1, 3), cacheVec(16), 0)
	if _, ok := c.Get(cacheID(1, 1), 0); ok {
		t.Error("LRU entry survived over-budget Put")
	}
	for _, idx := range []int32{0, 2, 3} {
		if _, ok := c.Get(cacheID(1, idx), 0); !ok {
			t.Errorf("block %d evicted out of LRU order", idx)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Bytes != 3*one || s.Bytes > s.Budget {
		t.Errorf("stats = %+v", s)
	}
	// A vector larger than the whole budget is never cached.
	big := cacheVec(1024)
	if big.ByteSize() <= c.Stats().Budget {
		t.Fatal("test vector not oversized")
	}
	c.Put(cacheID(1, 9), big, 0)
	if _, ok := c.Get(cacheID(1, 9), 0); ok {
		t.Error("oversized vector was cached")
	}
}

func TestBlockCacheInvalidateTable(t *testing.T) {
	c := NewBlockCache(1 << 20)
	c.Put(cacheID(1, 0), cacheVec(8), 0)
	c.Put(cacheID(1, 1), cacheVec(8), 0)
	c.Put(cacheID(2, 0), cacheVec(8), 0)
	c.InvalidateTable(1)
	if _, ok := c.Get(cacheID(1, 0), c.Epoch(1)); ok {
		t.Error("table 1 block survived invalidation")
	}
	if _, ok := c.Get(cacheID(2, 0), c.Epoch(2)); !ok {
		t.Error("table 2 block lost to table 1 invalidation")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Errorf("entries = %d, want 1", s.Entries)
	}
	c.Clear()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("Clear left %+v", s)
	}
}

// TestBlockCacheEpochFence proves the stale-reader fence: a reader that
// sampled its epoch before an invalidation can neither hit nor poison
// block identities the rewrite reused.
func TestBlockCacheEpochFence(t *testing.T) {
	c := NewBlockCache(1 << 20)
	staleEpoch := c.Epoch(1)
	c.InvalidateTable(1) // the VACUUM rewrite, concurrent with the reader

	// The stale reader's Put of an old decode under the reused identity is
	// dropped...
	c.Put(cacheID(1, 0), cacheVec(8), staleEpoch)
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("stale Put was cached: %+v", s)
	}

	// ...so a fresh reader decodes the new content and caches it,
	fresh := c.Epoch(1)
	newVec := cacheVec(16)
	c.Put(cacheID(1, 0), newVec, fresh)
	if got, ok := c.Get(cacheID(1, 0), fresh); !ok || got != newVec {
		t.Fatalf("fresh Get = %v, %v; want the new vector", got, ok)
	}

	// ...and the stale reader misses rather than seeing the new identity's
	// content for its old snapshot.
	if _, ok := c.Get(cacheID(1, 0), staleEpoch); ok {
		t.Error("stale reader was served a post-rewrite vector")
	}
}

func TestBlockCacheNilDisabled(t *testing.T) {
	c := NewBlockCache(-1)
	if c != nil {
		t.Fatal("negative budget should disable the cache")
	}
	// Every method must be a safe no-op on the nil receiver.
	c.Put(cacheID(1, 0), cacheVec(4), 0)
	if _, ok := c.Get(cacheID(1, 0), 0); ok {
		t.Error("nil cache returned a hit")
	}
	if c.Epoch(1) != 0 {
		t.Error("nil cache epoch != 0")
	}
	c.InvalidateTable(1)
	c.Clear()
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

// TestBlockCacheConcurrent hammers the cache from many goroutines the way
// concurrent slice scans do; run under -race it proves the locking.
func TestBlockCacheConcurrent(t *testing.T) {
	one := cacheVec(16).ByteSize()
	c := NewBlockCache(8 * one) // small budget forces constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				table := int64(1 + i%3)
				id := cacheID(table, int32(i%32))
				epoch := c.Epoch(table)
				if v, ok := c.Get(id, epoch); ok {
					if v.Len() != 16 {
						panic(fmt.Sprintf("corrupt cached vector: len %d", v.Len()))
					}
					continue
				}
				c.PutCost(id, cacheVec(16), epoch, int64(1+(g+i)%7)*1000)
				if i%64 == 0 {
					c.InvalidateTable(table)
				}
			}
		}(g)
	}
	wg.Wait()
	checkCacheInvariants(t, c)
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

// checkCacheInvariants holds the block cache's books to each other.
func checkCacheInvariants(t *testing.T, b *BlockCache) {
	t.Helper()
	checkInvariants(t, b.c)
}

// checkInvariants holds a cache's books to each other: the budget, the byte
// and cost totals, one queue slot per entry at the index the entry records,
// no entry filed above its current rank, and the heap order on filed ranks
// the next eviction relies on.
func checkInvariants[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytes > c.budget {
		t.Fatalf("cache over budget: %d > %d", c.bytes, c.budget)
	}
	if len(c.queue) != len(c.entries) {
		t.Fatalf("%d queued, %d entries", len(c.queue), len(c.entries))
	}
	var bytes, cost int64
	for i, e := range c.queue {
		if e.idx != i || c.entries[e.key] != e {
			t.Fatalf("queue[%d] = %v with idx %d, entries has %p", i, e.key, e.idx, c.entries[e.key])
		}
		if e.now.less(e.filed) {
			t.Fatalf("queue[%d] is filed at %v, above its current rank %v", i, e.filed, e.now)
		}
		if i > 0 && c.queue.Less(i, (i-1)/2) {
			t.Fatalf("queue[%d] sorts before its parent", i)
		}
		bytes += e.size
		cost += e.costNs
	}
	if bytes != c.bytes || cost != c.costNs {
		t.Fatalf("books say %d bytes / %d ns, entries sum to %d / %d", c.bytes, c.costNs, bytes, cost)
	}
}

// resident reports whether id is cached under its table's current epoch.
func (b *BlockCache) resident(id BlockID) bool {
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	return b.c.entries[blockKey{id, b.epochs[id.Table]}] != nil
}

// TestBlockCacheEqualDensityIsLRU: with every block costing the same per
// byte, the policy is the least-recently-used one it replaced — checked step
// by step against a container/list model over a random Put/Get script with
// blocks of five sizes.
func TestBlockCacheEqualDensityIsLRU(t *testing.T) {
	const budget = 4096
	c := NewBlockCache(budget)
	type modelEntry struct {
		id   BlockID
		size int64
	}
	lru, where, held := list.New(), map[BlockID]*list.Element{}, int64(0)
	rng := rand.New(rand.NewSource(27))
	for step := 0; step < 2000; step++ {
		id := cacheID(1, int32(rng.Intn(64)))
		if rng.Intn(3) == 0 {
			_, hit := c.Get(id, 0)
			el, want := where[id]
			if hit != want {
				t.Fatalf("step %d: Get(%v) hit = %v, the LRU model says %v", step, id, hit, want)
			}
			if want {
				lru.MoveToFront(el)
			}
			continue
		}
		v := cacheVec(8 * (1 + int(id.Index)%5)) // one size per id: the same block every time
		size := v.ByteSize()
		c.PutCost(id, v, 0, 3*size)
		if el, ok := where[id]; ok {
			lru.MoveToFront(el)
		} else {
			for held+size > budget {
				victim := lru.Remove(lru.Back()).(modelEntry)
				delete(where, victim.id)
				held -= victim.size
			}
			where[id] = lru.PushFront(modelEntry{id, size})
			held += size
		}
		for i := int32(0); i < 64; i++ {
			if _, want := where[cacheID(1, i)]; c.resident(cacheID(1, i)) != want {
				t.Fatalf("step %d: block %d resident = %v, the LRU model says %v", step, i, !want, want)
			}
		}
		checkCacheInvariants(t, c)
	}
	if s := c.Stats(); s.Evictions < 100 || s.Hits < 100 {
		t.Errorf("the script barely exercised the policy: %+v", s)
	}
}

// TestBlockCacheKeepsExpensiveBlocks: a column of small blocks that cost 15x
// as much per byte to rebuild survives a flood of cheap blocks four times the
// budget — which would have flushed it from an LRU four times over — and is
// then served entirely from the cache.
func TestBlockCacheKeepsExpensiveBlocks(t *testing.T) {
	one := cacheVec(16).ByteSize()
	c := NewBlockCache(100 * one)
	for i := int32(0); i < 10; i++ {
		c.PutCost(cacheID(1, i), cacheVec(16), 0, 15*one)
	}
	for i := int32(0); i < 400; i++ {
		c.PutCost(cacheID(2, i), cacheVec(16), 0, one)
	}
	before := c.Stats()
	for i := int32(0); i < 10; i++ {
		if _, ok := c.Get(cacheID(1, i), 0); !ok {
			t.Errorf("expensive block %d was evicted by the cheap flood", i)
		}
	}
	after := c.Stats()
	if before.Evictions != 310 || after.Entries != 100 {
		t.Errorf("evictions = %d, entries = %d; want 310 cheap blocks evicted and a full cache", before.Evictions, after.Entries)
	}
	if got := after.SavedNs - before.SavedNs; got != 10*15*one {
		t.Errorf("SavedNs rose by %d over ten hits that cost %d each", got, 15*one)
	}
	if want := 10*15*one + 90*one; after.ResidentCostNs != want {
		t.Errorf("ResidentCostNs = %d, want %d", after.ResidentCostNs, want)
	}
	checkCacheInvariants(t, c)
}

// TestBlockCacheOutlierAgesOut is the bound DESIGN.md states: a block whose
// recorded cost is 100x the going rate per byte (one descheduled decode) and
// that nobody asks for again is protected for a while, and is out within
// 100 + 1 turnovers of the budget.
func TestBlockCacheOutlierAgesOut(t *testing.T) {
	const perTurnover = 50
	one := cacheVec(16).ByteSize()
	c := NewBlockCache(perTurnover * one)
	outlier := cacheID(1, 0)
	c.PutCost(outlier, cacheVec(16), 0, 100*one)
	turnovers := 0
	for next := int32(0); c.resident(outlier); turnovers++ {
		if turnovers > 101 {
			t.Fatalf("the outlier is still resident after %d turnovers", turnovers)
		}
		for i := 0; i < perTurnover; i++ {
			c.PutCost(cacheID(2, next), cacheVec(16), 0, one)
			next++
		}
	}
	t.Logf("the 100x outlier was evicted in turnover %d", turnovers)
	if turnovers < 50 {
		t.Errorf("a 100x block lasted only %d turnovers: the policy is not weighing cost", turnovers)
	}
	checkCacheInvariants(t, c)
}

// TestBlockCacheInvariantsUnderAnyInterleaving drives every mutating method
// in random order with random costs and sizes and checks the books after
// each call.
func TestBlockCacheInvariantsUnderAnyInterleaving(t *testing.T) {
	c := NewBlockCache(2048)
	rng := rand.New(rand.NewSource(20260928))
	for step := 0; step < 5000; step++ {
		table := int64(1 + rng.Intn(3))
		id := cacheID(table, int32(rng.Intn(40)))
		switch op := rng.Intn(100); {
		case op < 55:
			c.PutCost(id, cacheVec(1+rng.Intn(48)), c.Epoch(table), int64(rng.Intn(100_000)))
		case op < 95:
			c.Get(id, c.Epoch(table))
		case op < 99:
			c.InvalidateTable(table)
		default:
			c.Clear()
		}
		checkCacheInvariants(t, c)
	}
	if s := c.Stats(); s.Evictions == 0 || s.Hits == 0 {
		t.Errorf("the script barely exercised the cache: %+v", s)
	}
}

// BenchmarkBlockCacheGet times the hit path — the map lookup and the new
// rank, under the one mutex — over 3000 resident entries, from one goroutine
// on one processor and from every processor at once. Budget: 250 ns
// uncontended.
func BenchmarkBlockCacheGet(b *testing.B) {
	const resident = 3000
	c := NewBlockCache(1 << 30)
	for i := int32(0); i < resident; i++ {
		c.Put(cacheID(1, i), cacheVec(16), 0)
	}
	get := func(i int) {
		if _, ok := c.Get(cacheID(1, int32(i*7919%resident)), 0); !ok {
			panic("miss on a resident block")
		}
	}
	b.Run("procs=1", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i := 0; i < b.N; i++ {
			get(i)
		}
	})
	b.Run(fmt.Sprintf("procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				get(int(next.Add(1)))
			}
		})
	})
}

// eagerCache is the policy as the block cache ran it before hits stopped
// re-filing their entries: every touch re-sorts the queue (heap.Fix). It is
// the reference the lazy Cache must evict like, entry for entry.
type eagerCache struct {
	budget, bytes int64
	clock         float64
	touches       uint64
	entries       map[int]*eagerEntry
	queue         eagerQueue
	evicted       []int // keys, in eviction order
}

type eagerEntry struct {
	key        int
	size, cost int64
	rank       rank
	idx        int
}

type eagerQueue []*eagerEntry

func (q eagerQueue) Len() int           { return len(q) }
func (q eagerQueue) Less(i, j int) bool { return q[i].rank.less(q[j].rank) }
func (q eagerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *eagerQueue) Push(x any) {
	e := x.(*eagerEntry)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eagerQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (c *eagerCache) touch(e *eagerEntry) {
	c.touches++
	e.rank = rank{c.clock + float64(e.cost)/float64(e.size), c.touches}
}

func (c *eagerCache) get(key int) {
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		heap.Fix(&c.queue, e.idx)
	}
}

func (c *eagerCache) put(key int, size, cost int64) {
	if size <= 0 || size > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.remove(old)
	}
	for c.bytes+size > c.budget {
		e := heap.Pop(&c.queue).(*eagerEntry)
		c.clock = e.rank.priority
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evicted = append(c.evicted, e.key)
	}
	e := &eagerEntry{key: key, size: size, cost: cost}
	c.touch(e)
	heap.Push(&c.queue, e)
	c.entries[key] = e
	c.bytes += size
}

func (c *eagerCache) remove(e *eagerEntry) {
	heap.Remove(&c.queue, e.idx)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

func (c *eagerCache) dropIf(drop func(int) bool) {
	for k, e := range c.entries {
		if drop(k) {
			c.remove(e)
		}
	}
}

// TestCacheMatchesEagerReference: over random Put / Get / Invalidate /
// DropIf / Clear scripts with mixed sizes and costs, the lazy queue evicts
// exactly the entries the eager one does, in the same order, and every
// resident entry holds the same rank in both.
func TestCacheMatchesEagerReference(t *testing.T) {
	for _, seed := range []int64{1, 32, 20261015} {
		const budget = 1024
		lazy := NewCache[int, int](budget)
		ref := &eagerCache{budget: budget, entries: map[int]*eagerEntry{}}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 5000; step++ {
			key := rng.Intn(80)
			switch op := rng.Intn(1000); {
			case op < 500:
				before := map[int]rank{}
				for k, e := range lazy.entries {
					before[k] = e.now
				}
				evicted := len(ref.evicted)
				size := int64(1 + rng.Intn(64))
				cost := []int64{size, 10 * size, 100 * size, rng.Int63n(100_000)}[rng.Intn(4)]
				lazy.Put(key, key, size, cost)
				ref.put(key, size, cost)
				// The lazy victims in the order they went: each was the
				// lowest-ranked entry left, so in rank order.
				var victims []int
				for k := range before {
					if _, ok := lazy.entries[k]; !ok && k != key {
						victims = append(victims, k)
					}
				}
				sort.Slice(victims, func(i, j int) bool { return before[victims[i]].less(before[victims[j]]) })
				if want := ref.evicted[evicted:]; fmt.Sprint(victims) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: lazy evicted %v, eager %v", seed, step, victims, want)
				}
			case op < 920:
				lazy.Get(key)
				ref.get(key)
			case op < 988:
				lazy.Invalidate(key)
				if e, ok := ref.entries[key]; ok {
					ref.remove(e)
				}
			case op < 998:
				m, r := 2+rng.Intn(5), rng.Intn(2)
				drop := func(k int) bool { return k%m == r }
				lazy.DropIf(drop)
				ref.dropIf(drop)
			default:
				lazy.Clear()
				ref.dropIf(func(int) bool { return true })
			}
			if len(lazy.entries) != len(ref.entries) || lazy.clock != ref.clock || lazy.bytes != ref.bytes {
				t.Fatalf("seed %d step %d: lazy holds %d entries, %d bytes at clock %v; eager %d, %d at %v",
					seed, step, len(lazy.entries), lazy.bytes, lazy.clock, len(ref.entries), ref.bytes, ref.clock)
			}
			for k, e := range ref.entries {
				if got, ok := lazy.entries[k]; !ok || got.now != e.rank {
					t.Fatalf("seed %d step %d: key %d ranks %v lazily, %v eagerly", seed, step, k, got, e.rank)
				}
			}
			checkInvariants(t, lazy)
		}
		if s := lazy.Stats(); s.Evictions < 500 || s.Hits < 500 || s.Invalidations < 100 {
			t.Errorf("seed %d: the script barely exercised the cache: %+v", seed, s)
		}
	}
}

// TestCacheServePointReplay replays a serve_point-shaped statement trace
// through a result-sized cache twice — priced by each result's fixed rebuild
// time, and at one uniform density, which is least-recently-used — and holds
// the rebuild time the priced cache saves to no less than what LRU saves.
// The trace: hot dashboard repeats, cheap to rebuild; one-shot point
// lookups, small and dense; one-shot LIMIT 2000 fetches, large and sparse;
// and one expensive join that repeats every hundred-odd statements.
func TestCacheServePointReplay(t *testing.T) {
	type kind struct {
		share      int // per mille of statements
		keys       int // distinct statements; 0 = every one new
		size, cost int64
	}
	kinds := []kind{
		{share: 778, keys: 64, size: 300, cost: 100_000},     // hot
		{share: 200, size: 400, cost: 150_000},               // point
		{share: 15, size: 12 << 10, cost: 2_000_000},         // fetch
		{share: 7, keys: 1, size: 4 << 10, cost: 40_000_000}, // join
	}
	replay := func(priced bool) (saved int64, hits int) {
		c := NewCache[string, int](64 << 10)
		rng := rand.New(rand.NewSource(20260925))
		for stmt := 0; stmt < 20_000; stmt++ {
			k, pick := kinds[0], rng.Intn(1000)
			for i := 0; pick >= kinds[i].share; i++ {
				pick -= kinds[i].share
				k = kinds[i+1]
			}
			key := fmt.Sprintf("%d/%d", k.size, stmt)
			if k.keys > 0 {
				key = fmt.Sprintf("%d/%d", k.size, rng.Intn(k.keys))
			}
			if _, ok := c.Get(key); ok {
				saved += k.cost
				hits++
				continue
			}
			cost := k.size // LRU: one density for all
			if priced {
				cost = k.cost
			}
			c.Put(key, 0, k.size, cost)
		}
		return saved, hits
	}
	gds, gdsHits := replay(true)
	lru, lruHits := replay(false)
	t.Logf("rebuild time saved: priced %.0f ms in %d hits, LRU %.0f ms in %d hits", float64(gds)/1e6, gdsHits, float64(lru)/1e6, lruHits)
	if gds < lru {
		t.Errorf("pricing by rebuild time saved %d ns, less than LRU's %d", gds, lru)
	}
}

// TestCacheConcurrent drives every method of a small cache from several
// goroutines at once; under -race it proves a hit's rank rewrite, the
// eviction loop's re-filing and the invalidations share one lock.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int, int](512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := rng.Intn(64)
				switch op := rng.Intn(100); {
				case op < 45:
					if v, ok := c.Get(key); ok && v != key {
						panic(fmt.Sprintf("key %d holds %d", key, v))
					}
				case op < 50:
					c.Peek(key)
				case op < 90:
					c.Put(key, key, int64(1+rng.Intn(32)), rng.Int63n(10_000))
				case op < 97:
					c.Invalidate(key)
				case op < 99:
					c.DropIf(func(k int) bool { return k%7 == g%7 })
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	checkInvariants(t, c)
	if s := c.Stats(); s.Hits == 0 || s.Evictions == 0 {
		t.Errorf("no traffic recorded: %+v", s)
	}
}
