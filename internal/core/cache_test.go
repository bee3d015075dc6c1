package core

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
)

// TestCountStarMetadataOnly is the regression test for the forced-decode
// bug: a bare COUNT(*) used to decode column 0 of every block; it is now
// answered from block metadata with zero blocks read.
func TestCountStarMetadataOnly(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
		if res.Rows[0][0].I != 1000 {
			t.Fatalf("count = %v, want 1000", res.Rows[0][0])
		}
		if res.Stats.BlocksRead != 0 {
			t.Errorf("COUNT(*) read %d blocks, want 0", res.Stats.BlocksRead)
		}
		if res.Stats.RowsScanned != 1000 {
			t.Errorf("RowsScanned = %d, want 1000", res.Stats.RowsScanned)
		}
		// With a filter the scan is real again.
		res = mustExec(t, db, `SELECT COUNT(*) FROM sales WHERE qty >= 1`)
		if res.Rows[0][0].I != 1000 || res.Stats.BlocksRead == 0 {
			t.Errorf("filtered count = %v blocks = %d", res.Rows[0][0], res.Stats.BlocksRead)
		}
	})
}

func TestBlockCacheWarmsAcrossQueries(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	// The repeat run must actually scan (that's what warms the block
	// cache); keep the result cache out of the way.
	mustExec(t, db, `SET result_cache TO off`)
	const q = `SELECT SUM(qty) AS s, MAX(region) AS r FROM sales`

	cold := mustExec(t, db, q)
	cs := db.BlockCache().Stats()
	if cs.Misses == 0 || cs.Hits != 0 {
		t.Fatalf("cold stats = %+v", cs)
	}
	coldRows := fmt.Sprint(cold.Rows)

	warm := mustExec(t, db, q)
	ws := db.BlockCache().Stats()
	if ws.Hits == 0 {
		t.Errorf("warm run hit nothing: %+v", ws)
	}
	if ws.Misses != cs.Misses {
		t.Errorf("warm run missed: %d -> %d", cs.Misses, ws.Misses)
	}
	if got := fmt.Sprint(warm.Rows); got != coldRows {
		t.Errorf("cached result differs: %s vs %s", got, coldRows)
	}

	// The counters surface through the system table…
	res := mustExec(t, db, `SELECT hits, misses, bytes_cached, budget_bytes FROM stv_block_cache`)
	if len(res.Rows) != 1 {
		t.Fatalf("stv_block_cache rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != ws.Hits || res.Rows[0][1].I != ws.Misses {
		t.Errorf("stv_block_cache = %v, cache = %+v", res.Rows[0], ws)
	}
	if res.Rows[0][2].I == 0 || res.Rows[0][3].I != 64<<20 {
		t.Errorf("bytes/budget = %d/%d", res.Rows[0][2].I, res.Rows[0][3].I)
	}
	// …and through /metrics.
	if got := renderedMetric(t, db, "block_cache_hits"); got != ws.Hits {
		t.Errorf("block_cache_hits gauge = %d, want %d", got, ws.Hits)
	}

	// The decode time the scans measured is the cost the cache holds, what
	// the warm run's hits are credited with saving, and what EXPLAIN ANALYZE
	// shows per slice.
	if ws.ResidentCostNs <= 0 || ws.SavedNs <= 0 || ws.SavedNs > ws.ResidentCostNs {
		t.Errorf("resident cost %d ns, saved %d ns: want 0 < saved <= resident after one warm pass", ws.ResidentCostNs, ws.SavedNs)
	}
	res = mustExec(t, db, `SELECT entries, saved_ms, resident_cost_ms FROM stv_block_cache`)
	if got, want := res.Rows[0][2].F, float64(ws.ResidentCostNs)/1e6; res.Rows[0][0].I != ws.Entries || res.Rows[0][1].F <= 0 || got != want {
		t.Errorf("stv_block_cache = %v, cache = %+v", res.Rows[0], ws)
	}
	if e, c := renderedMetric(t, db, "block_cache_entries"), renderedMetric(t, db, "block_cache_resident_cost_ns"); e != ws.Entries || c != ws.ResidentCostNs || renderedMetric(t, db, "block_cache_saved_ns") <= 0 {
		t.Errorf("gauges: entries %d, resident cost %d ns; cache = %+v", e, c, ws)
	}
	plan := mustExec(t, db, `EXPLAIN ANALYZE SELECT SUM(product_id) FROM sales`)
	if text := fmt.Sprint(plan.Rows); !strings.Contains(text, "decode_us=") {
		t.Errorf("EXPLAIN ANALYZE shows no decode_us on its scan slices:\n%s", text)
	}
}

// renderedMetric reads one `name value` line of what /metrics serves: the
// cache gauges are evaluated when the registry is rendered.
func renderedMetric(t *testing.T, db *Database, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(db.Telemetry().Render(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s in /metrics", name)
	return 0
}

// TestBlockCacheCoherence covers the DDL paths that reuse block identities
// with new content: the cache must never serve stale decodes.
func TestBlockCacheCoherence(t *testing.T) {
	db := openDB(t, 0)
	load := func(vals string) {
		mustExec(t, db, `CREATE TABLE kv (k BIGINT, v BIGINT)`)
		mustExec(t, db, `INSERT INTO kv VALUES `+vals)
	}
	load(`(1, 10), (2, 20)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 30 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}

	// DROP + recreate with different contents.
	mustExec(t, db, `DROP TABLE kv`)
	load(`(1, 100), (2, 200)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 300 {
		t.Errorf("post-recreate sum = %v, want 300 (stale cache?)", res.Rows[0][0])
	}

	// TRUNCATE + refill.
	mustExec(t, db, `TRUNCATE kv`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 7)`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 7 {
		t.Errorf("post-truncate sum = %v, want 7", res.Rows[0][0])
	}

	// VACUUM rebuilds segments reusing block identities; cached decodes of
	// the pre-vacuum blocks must not leak into post-vacuum reads.
	mustExec(t, db, `INSERT INTO kv VALUES (2, 8), (3, 9)`)
	mustExec(t, db, `SELECT SUM(v) FROM kv`) // warm the cache
	mustExec(t, db, `VACUUM kv`)
	if res := mustExec(t, db, `SELECT SUM(v) FROM kv`); res.Rows[0][0].I != 24 {
		t.Errorf("post-vacuum sum = %v, want 24", res.Rows[0][0])
	}
}

// TestBlockCacheIdenticalResults asserts bit-identical output with the
// cache off, on, and on at a quarter of what the queries read — where the
// eviction policy runs on every scan — in both execution modes, warm and cold.
func TestBlockCacheIdenticalResults(t *testing.T) {
	queries := []string{
		`SELECT ts, qty, region FROM sales WHERE ts BETWEEN 10100 AND 10120 ORDER BY ts`,
		`SELECT region, SUM(qty) AS q FROM sales GROUP BY region ORDER BY region`,
		`SELECT COUNT(*) FROM sales WHERE qty = 3`,
	}
	var want []string
	for _, mode := range []exec.Mode{exec.Compiled, exec.Interpreted} {
		budgets := []int64{-1, 1 << 20}
		for i := 0; i < len(budgets); i++ {
			budget := budgets[i]
			db, err := Open(Config{
				Cluster:         cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
				Mode:            mode,
				DataStore:       s3sim.New(),
				BlockCacheBytes: budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			seedSales(t, db)
			var got []string
			for _, q := range queries {
				for pass := 0; pass < 2; pass++ { // cold then warm
					got = append(got, fmt.Sprint(mustExec(t, db, q).Rows))
				}
			}
			switch cs := db.BlockCache().Stats(); {
			case budget == 1<<20: // holds everything: a third round at a quarter of that
				budgets = append(budgets, cs.Bytes/4)
			case budget > 0 && (cs.Evictions == 0 || cs.Hits == 0 || cs.Bytes > cs.Budget):
				t.Errorf("mode=%v budget=%d: the quarter-size cache did not both evict and hit: %+v", mode, budget, cs)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("mode=%v budget=%d result %d:\n got %s\nwant %s",
						mode, budget, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockCacheConcurrentQueries drives the same warm-up race the slice
// goroutines create in production; meaningful under -race.
func TestBlockCacheConcurrentQueries(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := db.Execute(`SELECT SUM(qty) AS s FROM sales WHERE ts >= 10000`)
				if err != nil {
					errs[g] = err
					return
				}
				if res.Rows[0][0].I != 3000 {
					errs[g] = fmt.Errorf("sum = %v", res.Rows[0][0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := db.BlockCache().Stats(); s.Bytes > s.Budget {
		t.Errorf("cache over budget: %+v", s)
	}
}

// TestResultCacheBytesAreResident: what stv_result_cache reports cached is
// what its entries hold — within [0.5×, 2×] of the heap a few hundred
// one-row, one-column results add, measured after a GC.
func TestResultCacheBytesAreResident(t *testing.T) {
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		DataStore:        s3sim.New(),
		PlanCacheEntries: -1, // only the results grow the heap
		QueryLogSize:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	mustExec(t, db, `SELECT SUM(qty) FROM sales WHERE ts < 20000`) // warms the block cache
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cached := func() int64 { return mustExec(t, db, `SELECT bytes_cached FROM stv_result_cache`).Rows[0][0].I }
	c0, h0 := cached(), heap()
	const n = 400
	for i := 0; i < n; i++ {
		q := fmt.Sprintf(`SELECT SUM(qty) FROM sales WHERE ts < %d`, 10001+i)
		mustExec(t, db, q) // first sight: not stored
		mustExec(t, db, q)
	}
	h1, c1 := heap(), cached()
	grew, charged := h1-h0, c1-c0
	t.Logf("%d results: heap grew %d B (%d a result), the cache charged %d B (%d a result)", n, grew, grew/n, charged, charged/n)
	if ratio := float64(charged) / float64(grew); ratio < 0.5 || ratio > 2 {
		t.Errorf("the result cache charges %.2f× the heap its entries hold", ratio)
	}
}

// TestResultCacheAdmitsOnSecondSight pins admission. A result is stored the
// second time its key runs and served the third; a key that runs once is
// never stored, and each such run counts in result_cache_declined_total. A
// key whose entry a write made stale is stored again on its very next run,
// and EXECUTE shares its key with the SELECT text it was prepared from. An
// 8 KiB budget leaves the ghost one slot, so every other key run in between
// overwrites what it remembers.
func TestResultCacheAdmitsOnSecondSight(t *testing.T) {
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		DataStore:        s3sim.New(),
		ResultCacheBytes: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	run := func(q string, wantCached bool, wantEntries, wantDeclined int64) {
		t.Helper()
		res := mustExec(t, db, q)
		entries := db.resultCache.Stats().Entries
		declined := renderedMetric(t, db, "result_cache_declined_total")
		if res.Cached != wantCached || entries != wantEntries || declined != wantDeclined {
			t.Fatalf("%s: cached %v, %d entries, %d declined; want %v, %d, %d",
				q, res.Cached, entries, declined, wantCached, wantEntries, wantDeclined)
		}
	}
	const q = `SELECT region, SUM(qty) FROM sales GROUP BY region ORDER BY region`
	run(q, false, 0, 1)
	run(q, false, 1, 1)
	run(q, true, 1, 1)

	const once = `SELECT COUNT(*) FROM sales WHERE qty > 3`
	run(once, false, 1, 2)

	mustExec(t, db, `INSERT INTO sales (ts, product_id, qty, region) VALUES (99999, 1, 5, 'us')`)
	run(q, false, 1, 2)
	run(q, true, 1, 2)

	mustExec(t, db, `PREPARE byregion AS SELECT COUNT(*) FROM sales WHERE region = 'eu'`)
	run(`EXECUTE byregion`, false, 1, 3)
	run(`SELECT COUNT(*) FROM sales WHERE region = 'eu'`, false, 2, 3)
	run(`EXECUTE byregion`, true, 2, 3)

	// Sessions share the ghost: four of them run eight keys at once, and
	// every answer, stored, served or declined, is the uncached one.
	want := make([]int64, 8)
	for k := range want {
		want[k] = mustExec(t, db, fmt.Sprintf(`SELECT COUNT(*) FROM sales WHERE qty > %d`, k)).Rows[0][0].I
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 48 && errs[g] == nil; i++ {
				k := (i + g) % len(want)
				res, err := sess.Execute(fmt.Sprintf(`SELECT COUNT(*) FROM sales WHERE qty > %d`, k))
				if err == nil && res.Rows[0][0].I != want[k] {
					err = fmt.Errorf("qty > %d: %v, want %d (cached %v)", k, res.Rows[0][0], want[k], res.Cached)
				}
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	assertQuiescent(t, db)
}

// TestResultCacheKeepsExpensiveResults: a spilling join's result outlives a
// flood of cheap point-lookup results as large as the whole budget — the
// flood that flushes it from a least-recently-used cache — because the
// cache prices a result by the execution time it would take to rebuild. A
// flood of keys that run once stores nothing at all: a result is admitted
// on its key's second sight, so every flood key runs twice.
func TestResultCacheKeepsExpensiveResults(t *testing.T) {
	const budget = 16 << 10
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		DataStore:        s3sim.New(),
		ResultCacheBytes: budget,
		SpillDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSpillWide(t, db, 6000)
	mustExec(t, db, `SET work_mem TO '16KB'`)
	const join = `SELECT a.grp, SUM(b.val) AS s FROM wide a JOIN wide b ON a.id = b.id GROUP BY a.grp ORDER BY a.grp`
	mustExec(t, db, join) // first sight: not stored
	mustExec(t, db, join)
	if rec := db.qlog.Records(); rec[len(rec)-1].SpillBytes == 0 {
		t.Fatal("the join did not spill")
	}
	before := db.resultCache.Stats()
	point := func(i int) { mustExec(t, db, fmt.Sprintf(`SELECT val FROM wide WHERE id = %d`, i)) }
	for i := 0; int64(i)*64 < budget; i++ {
		point(3000 + i)
	}
	if s := db.resultCache.Stats(); s.Entries != before.Entries || s.Bytes != before.Bytes {
		t.Fatalf("a flood of one-shot keys was stored: %+v -> %+v", before, s)
	}
	point(0)
	point(0)
	one := db.resultCache.Stats().Bytes - before.Bytes
	if one == 0 {
		t.Fatal("a point lookup run twice was not stored")
	}
	for i := 1; int64(i)*one < budget; i++ {
		point(i)
		point(i)
	}
	if s := db.resultCache.Stats(); s.Evictions == 0 {
		t.Fatalf("the flood evicted nothing: %+v", s)
	}
	if !mustExec(t, db, join).Cached {
		t.Errorf("the join's result was evicted by %d bytes of point lookups", budget)
	}
}
