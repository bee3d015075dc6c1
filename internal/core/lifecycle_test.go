package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
)

func TestPrepareExecuteDeallocate(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)

	mustExec(t, db, `PREPARE top_regions AS SELECT region, SUM(qty) FROM sales GROUP BY region ORDER BY region`)
	r1 := mustExec(t, db, `EXECUTE top_regions`)
	if len(r1.Rows) != 2 {
		t.Fatalf("EXECUTE rows = %v", r1.Rows)
	}
	mustExec(t, db, `EXECUTE top_regions`) // second sight: stored
	r2 := mustExec(t, db, `EXECUTE top_regions`)
	if fmt.Sprint(r1.Rows) != fmt.Sprint(r2.Rows) {
		t.Fatalf("EXECUTE not stable: %v vs %v", r1.Rows, r2.Rows)
	}
	if !r2.Cached {
		t.Errorf("repeat EXECUTE should be a result-cache hit")
	}
	// EXECUTE runs under the text PREPARE rendered, which is the key any
	// spelling of the statement normalizes to.
	if r3 := mustExec(t, db, `select region, sum(qty) from sales group by (region) order by region`); !r3.Cached {
		t.Errorf("the ad-hoc spelling of a prepared statement missed the entry EXECUTE stored")
	}

	// Duplicate names are rejected; deallocate frees the name.
	if _, err := db.Execute(`PREPARE top_regions AS SELECT 1`); err == nil {
		t.Error("duplicate PREPARE succeeded")
	}
	mustExec(t, db, `DEALLOCATE top_regions`)
	if _, err := db.Execute(`EXECUTE top_regions`); err == nil {
		t.Error("EXECUTE after DEALLOCATE succeeded")
	}
	if _, err := db.Execute(`DEALLOCATE top_regions`); err == nil {
		t.Error("double DEALLOCATE succeeded")
	}

	// PREPARE binds eagerly: a missing table fails at PREPARE time.
	if _, err := db.Execute(`PREPARE bad AS SELECT x FROM no_such_table`); err == nil {
		t.Error("PREPARE against missing table succeeded")
	}

	mustExec(t, db, `PREPARE a AS SELECT COUNT(*) FROM sales`)
	mustExec(t, db, `PREPARE b AS SELECT COUNT(*) FROM products`)
	mustExec(t, db, `DEALLOCATE ALL`)
	if _, err := db.Execute(`EXECUTE a`); err == nil {
		t.Error("EXECUTE a after DEALLOCATE ALL succeeded")
	}
}

func TestResultCacheHitZeroExecution(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	const q = `SELECT region, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`

	cold := mustExec(t, db, q)
	if cold.Cached {
		t.Fatal("cold run claims to be cached")
	}
	mustExec(t, db, q) // second sight: stored
	wlmBefore := defaultQueueStats(t, db).TotalRun
	warm := mustExec(t, db, q)
	if !warm.Cached {
		t.Fatal("repeat run missed the result cache")
	}
	// The acceptance bar: zero operator execution. No blocks, no rows, no
	// WLM slot ever acquired.
	if warm.Stats.BlocksRead != 0 || warm.Stats.RowsScanned != 0 {
		t.Errorf("cache hit touched storage: %+v", warm.Stats)
	}
	if got := defaultQueueStats(t, db).TotalRun; got != wlmBefore {
		t.Errorf("cache hit acquired a WLM slot: %d -> %d", wlmBefore, got)
	}
	if fmt.Sprint(cold.Rows) != fmt.Sprint(warm.Rows) {
		t.Errorf("cached rows differ: %v vs %v", warm.Rows, cold.Rows)
	}

	// Lexical noise normalizes away: a differently-spelled equivalent
	// statement hits the same entry.
	noisy := mustExec(t, db, "select region, sum(qty) as total from sales -- dashboards\n group by region order by region")
	if !noisy.Cached {
		t.Error("normalized-equivalent statement missed the cache")
	}

	// stv_result_cache sees the traffic.
	rc := mustExec(t, db, `SELECT hits, entries FROM stv_result_cache`)
	if rc.Rows[0][0].I == 0 || rc.Rows[0][1].I == 0 {
		t.Errorf("stv_result_cache = %v", rc.Rows)
	}
	pc := mustExec(t, db, `SELECT entries FROM stv_plan_cache`)
	if pc.Rows[0][0].I == 0 {
		t.Errorf("stv_plan_cache = %v", pc.Rows)
	}
}

func TestResultCacheInvalidatedByMutation(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	const q = `SELECT COUNT(*) FROM sales WHERE qty >= 1`

	first := mustExec(t, db, q)
	mustExec(t, db, q) // second sight: stored
	if hit := mustExec(t, db, q); !hit.Cached {
		t.Fatal("repeat missed")
	}
	mustExec(t, db, `INSERT INTO sales (ts, product_id, qty, region) VALUES (99999, 1, 5, 'us')`)
	after := mustExec(t, db, q)
	if after.Cached {
		t.Fatal("stale result served after INSERT")
	}
	if after.Rows[0][0].I != first.Rows[0][0].I+1 {
		t.Fatalf("count = %v, want %v+1", after.Rows[0][0], first.Rows[0][0])
	}
	// And the refreshed entry serves again.
	if again := mustExec(t, db, q); !again.Cached || again.Rows[0][0].I != after.Rows[0][0].I {
		t.Fatalf("refreshed entry wrong: cached=%v rows=%v", again.Cached, again.Rows)
	}
}

func TestPlanCacheInvalidatedByDDLAndAnalyze(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	// Result-cache hits return before planning; turn the result cache off so
	// every run exercises the plan cache.
	mustExec(t, db, `SET result_cache TO off`)
	const q = `SELECT COUNT(*) FROM sales`

	mustExec(t, db, q)
	mustExec(t, db, q)
	pc := db.planCache.Stats()
	if pc.Hits == 0 {
		t.Fatalf("no plan reuse: %+v", pc)
	}

	// Unrelated DDL moves the global catalog version: next run rebuilds.
	mustExec(t, db, `CREATE TABLE scratch (x BIGINT)`)
	mustExec(t, db, q)
	pc2 := db.planCache.Stats()
	if pc2.Invalidations != pc.Invalidations+1 {
		t.Errorf("DDL did not invalidate the plan: %+v -> %+v", pc, pc2)
	}

	// ANALYZE bumps the table's data version: stale statistics must not
	// keep steering cached plans.
	mustExec(t, db, q)
	pc3 := db.planCache.Stats()
	mustExec(t, db, `ANALYZE sales`)
	mustExec(t, db, q)
	if got := db.planCache.Stats(); got.Invalidations != pc3.Invalidations+1 {
		t.Errorf("ANALYZE did not invalidate the plan: %+v -> %+v", pc3, got)
	}
}

// TestPlanCacheSharesOneLoweredTree: concurrent executions (and EXPLAINs) of
// one cached plan all run off the physical tree BuildWith lowered — nothing
// writes to it (run under -race), every run answers alike, and EXPLAIN prints
// what it printed before.
func TestPlanCacheSharesOneLoweredTree(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `SET result_cache TO off`)
	const q = `SELECT p.category, SUM(s.qty) AS n FROM sales s JOIN products p ON s.product_id = p.id
		WHERE s.qty > 1 GROUP BY p.category ORDER BY n DESC, p.category LIMIT 3`
	explain := func() string { return fmt.Sprint(mustExec(t, db, `EXPLAIN `+q).Rows) }
	wantPlan, want := explain(), fmt.Sprint(mustExec(t, db, q).Rows)
	hits := db.planCache.Stats().Hits

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5 && errs[g] == nil; i++ {
				stmt := q
				if g == 0 {
					stmt = `EXPLAIN ANALYZE ` + q
				}
				res, err := db.Execute(stmt)
				if err == nil && g > 0 && fmt.Sprint(res.Rows) != want {
					err = fmt.Errorf("rows = %v, want %s", res.Rows, want)
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
	if got := db.planCache.Stats().Hits; got < hits+25 {
		t.Errorf("plan cache hits %d -> %d: the runs did not share a plan", hits, got)
	}
	if got := explain(); got != wantPlan {
		t.Errorf("EXPLAIN changed:\n%s\nwas:\n%s", got, wantPlan)
	}
	assertQuiescent(t, db)
}

func TestResultCacheBypasses(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)

	// System tables change without version bumps — never cached.
	mustExec(t, db, `SELECT COUNT(*) FROM stl_query`)
	if res := mustExec(t, db, `SELECT COUNT(*) FROM stl_query`); res.Cached {
		t.Error("system-table query served from result cache")
	}

	// SET result_cache TO off is the session escape hatch, and turning it
	// back on restores hits.
	mustExec(t, db, `SET result_cache TO off`)
	mustExec(t, db, `SELECT COUNT(*) FROM products`)
	if res := mustExec(t, db, `SELECT COUNT(*) FROM products`); res.Cached {
		t.Error("SET result_cache TO off ignored")
	}
	mustExec(t, db, `SET result_cache TO on`)
	mustExec(t, db, `SELECT COUNT(*) FROM products`)
	mustExec(t, db, `SELECT COUNT(*) FROM products`) // second sight: stored
	if res := mustExec(t, db, `SELECT COUNT(*) FROM products`); !res.Cached {
		t.Error("result cache did not resume after SET result_cache TO on")
	}
}

func TestExplainAnalyzeReportsCacheHit(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	const q = `EXPLAIN ANALYZE SELECT COUNT(*) FROM sales`

	cold := mustExec(t, db, q)
	if cold.Cached {
		t.Fatal("cold EXPLAIN ANALYZE claims cached")
	}
	mustExec(t, db, q) // second sight: stored
	warm := mustExec(t, db, q)
	if !warm.Cached {
		t.Fatal("warm EXPLAIN ANALYZE missed the cache")
	}
	if len(warm.Rows) != 1 || warm.Rows[0][0].S != "cache: result hit" {
		t.Errorf("EXPLAIN ANALYZE hit output = %v", warm.Rows)
	}
}

// TestSessionIsolation is the regression test for per-connection state
// leaking across sessions: prepared statements and SET variables belong to
// one session and must be invisible to every other.
func TestSessionIsolation(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()

	// Prepared statements are session-local.
	if _, err := s1.Execute(`PREPARE q AS SELECT COUNT(*) FROM sales`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute(`EXECUTE q`); err == nil {
		t.Error("session 2 sees session 1's prepared statement")
	}
	// Same name is free in the other session.
	if _, err := s2.Execute(`PREPARE q AS SELECT COUNT(*) FROM products`); err != nil {
		t.Errorf("session 2 blocked from reusing a name: %v", err)
	}
	r1, err := s1.Execute(`EXECUTE q`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Execute(`EXECUTE q`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != 1000 || r2.Rows[0][0].I != 20 {
		t.Errorf("sessions crossed prepared statements: %v / %v", r1.Rows, r2.Rows)
	}

	// SET variables are session-local, interleaved writes don't bleed.
	if _, err := s1.Execute(`SET statement_timeout TO 250`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute(`SET result_cache TO off`); err != nil {
		t.Fatal(err)
	}
	if got := s2.StatementTimeout(); got != 0 {
		t.Errorf("session 2 inherited session 1's timeout: %v", got)
	}
	if s1.resultCacheOff.Load() {
		t.Error("session 1 inherited session 2's result_cache off")
	}
	if db.StatementTimeout() != 0 {
		t.Error("default session inherited a session's timeout")
	}
	// Session 1 still gets cache hits; session 2 opted out.
	s1.Execute(`SELECT COUNT(*) FROM sales`)
	hit, err := s1.Execute(`SELECT COUNT(*) FROM sales`)
	if err != nil || !hit.Cached {
		t.Errorf("opted-in session missed: cached=%v err=%v", hit != nil && hit.Cached, err)
	}
	miss, err := s2.Execute(`SELECT COUNT(*) FROM sales`)
	if err != nil || miss.Cached {
		t.Errorf("opted-out session hit the cache")
	}
}

// TestMutationInterleavedTwinBattery is the correctness battery the issue
// demands: a cached database and an uncached twin execute the same
// statement stream; every SELECT runs twice on the cached side (cold, then
// cache-eligible) and must stay bit-identical to the twin across
// COPY/INSERT/TRUNCATE/VACUUM/ANALYZE/DDL mutations. A stale hit is a hard
// failure.
func TestMutationInterleavedTwinBattery(t *testing.T) {
	open := func(resultCache int64, planCache int) *Database {
		db, err := Open(Config{
			Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
			Mode:             exec.Compiled,
			DataStore:        s3sim.New(),
			ResultCacheBytes: resultCache,
			PlanCacheEntries: planCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	cached := open(0, 0)     // defaults: both caches on
	uncached := open(-1, -1) // twin: no caches at all
	seedSales(t, cached)
	seedSales(t, uncached)

	mutate := func(stmts ...string) {
		t.Helper()
		for _, q := range stmts {
			mustExec(t, cached, q)
			mustExec(t, uncached, q)
		}
	}
	selects := []string{
		`SELECT COUNT(*) FROM sales`,
		`SELECT region, SUM(qty) AS s, COUNT(*) FROM sales GROUP BY region ORDER BY region`,
		`SELECT ts, qty FROM sales WHERE ts BETWEEN 10000 AND 10010 ORDER BY ts, qty`,
		`SELECT p.category, SUM(s.qty) FROM sales s JOIN products p ON s.product_id = p.id GROUP BY p.category ORDER BY p.category`,
		`SELECT MIN(price), MAX(price) FROM products`,
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range selects {
			want := mustExec(t, uncached, q)
			cold := mustExec(t, cached, q)
			warm := mustExec(t, cached, q)
			wantR := fmt.Sprint(want.Rows)
			if got := fmt.Sprint(cold.Rows); got != wantR {
				t.Fatalf("%s: cold diverged for %q:\n got  %s\n want %s", stage, q, got, wantR)
			}
			if got := fmt.Sprint(warm.Rows); got != wantR {
				t.Fatalf("%s: cache-eligible repeat diverged for %q (stale hit):\n got  %s\n want %s", stage, q, got, wantR)
			}
			if len(warm.Schema.Columns) != len(want.Schema.Columns) {
				t.Fatalf("%s: schema diverged for %q", stage, q)
			}
			for i := range warm.Schema.Columns {
				if warm.Schema.Columns[i] != want.Schema.Columns[i] {
					t.Fatalf("%s: schema col %d diverged for %q", stage, i, q)
				}
			}
		}
	}

	check("seeded")

	// Data mutations.
	var extra strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&extra, "%d|%d|%d|%s\n", 20000+i, i%20, 1+i%7, []string{"us", "eu", "ap"}[i%3])
	}
	cached.cfg.DataStore.Put("lake/sales2/s.csv", []byte(extra.String()))
	uncached.cfg.DataStore.Put("lake/sales2/s.csv", []byte(extra.String()))
	mutate(`COPY sales FROM 's3://lake/sales2/'`)
	check("after COPY")

	mutate(`INSERT INTO sales (ts, product_id, qty, region) VALUES (30000, 3, 9, 'us'), (30001, 4, 2, 'eu')`)
	check("after INSERT")

	mutate(`ANALYZE`)
	check("after ANALYZE")

	mutate(`VACUUM sales`)
	check("after VACUUM")

	// The dialect's DELETE: truncate and reload a smaller products set.
	var prods strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&prods, "%d|%s|%g\n", i, []string{"books", "music"}[i%2], float64(5+i))
	}
	cached.cfg.DataStore.Put("lake/products2/p.csv", []byte(prods.String()))
	uncached.cfg.DataStore.Put("lake/products2/p.csv", []byte(prods.String()))
	mutate(`TRUNCATE products`, `COPY products FROM 's3://lake/products2/'`)
	check("after TRUNCATE+reload")

	// DDL: drop and recreate a queried table (fresh table id), plus
	// unrelated DDL that only moves the global catalog version.
	mutate(
		`DROP TABLE sales`,
		`CREATE TABLE sales (ts BIGINT NOT NULL, product_id BIGINT, qty BIGINT, region VARCHAR(16)) DISTSTYLE KEY DISTKEY(product_id) COMPOUND SORTKEY(ts)`,
		`COPY sales FROM 's3://lake/sales2/'`,
		`CREATE TABLE unrelated (x BIGINT)`,
		`DROP TABLE unrelated`,
	)
	check("after DDL cycle")

	// Nothing on the twin was ever served from a cache.
	if s := uncached.resultCache.Stats(); s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("uncached twin has cache traffic: %+v", s)
	}
}

// TestResultCacheEviction pins the byte budget: results bigger than a
// quarter of the budget are never stored, and filling the cache evicts
// without breaking correctness.
func TestResultCacheEviction(t *testing.T) {
	db, err := Open(Config{
		Cluster:          cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 64},
		Mode:             exec.Compiled,
		DataStore:        s3sim.New(),
		ResultCacheBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)

	// The full scan's result (1000 rows) exceeds budget/4: not stored.
	mustExec(t, db, `SELECT ts, qty, region FROM sales ORDER BY ts`)
	if res := mustExec(t, db, `SELECT ts, qty, region FROM sales ORDER BY ts`); res.Cached {
		t.Error("oversized result was cached")
	}

	// Many small distinct results overflow the budget and evict. Each runs
	// twice: a result is admitted on its key's second sight.
	for i := 0; i < 64; i++ {
		for range 2 {
			mustExec(t, db, fmt.Sprintf(`SELECT COUNT(*) FROM sales WHERE qty = %d`, i%8))
		}
		for range 2 {
			mustExec(t, db, fmt.Sprintf(`SELECT SUM(qty) FROM sales WHERE ts < %d`, 10000+i))
		}
	}
	s := db.resultCache.Stats()
	if s.Bytes > 4096 {
		t.Errorf("cache over budget: %+v", s)
	}
	if s.Evictions == 0 {
		t.Errorf("no evictions under pressure: %+v", s)
	}
	// Still correct after churn.
	r := mustExec(t, db, `SELECT COUNT(*) FROM sales WHERE qty = 1`)
	if r.Rows[0][0].I == 0 {
		t.Errorf("post-churn result wrong: %v", r.Rows)
	}
}
