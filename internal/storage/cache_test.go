package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"runtime"
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

// checkCacheInvariants holds the cache's books to each other: the budget, the
// byte and cost totals, one queue slot per entry at the index the entry
// records, and the heap order the next eviction relies on.
func checkCacheInvariants(t *testing.T, c *BlockCache) {
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
		if e.idx != i || c.entries[e.id] != e {
			t.Fatalf("queue[%d] = %v with idx %d, entries has %p", i, e.id, e.idx, c.entries[e.id])
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

func (c *BlockCache) resident(id BlockID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[id] != nil
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

// BenchmarkBlockCacheGet times the hit path — the map lookup and the
// heap.Fix that re-files the entry, both under the one mutex — over 3000
// resident entries, from one goroutine on one processor and from every
// processor at once. The entries share one density, the case in which every
// hit sifts its entry from wherever it was to a leaf. Budget: 250 ns
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
