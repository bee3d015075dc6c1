package core

import (
	"fmt"
	"strings"
	"testing"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
	"redshift/internal/types"
)

// openDB builds a 2-node × 2-slice database with a small block size so
// zone-map pruning is exercised even on small tables.
func openDB(t *testing.T, mode exec.Mode) *Database {
	t.Helper()
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		Mode:      mode,
		DataStore: s3sim.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *Database, query string) *Result {
	t.Helper()
	res, err := db.Execute(query)
	if err != nil {
		t.Fatalf("Execute(%q): %v", query, err)
	}
	return res
}

// seedSales creates and populates the standard test schema.
func seedSales(t *testing.T, db *Database) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE products (
		id BIGINT NOT NULL, category VARCHAR(32), price DOUBLE PRECISION
	) DISTSTYLE KEY DISTKEY(id)`)
	mustExec(t, db, `CREATE TABLE sales (
		ts BIGINT NOT NULL, product_id BIGINT, qty BIGINT, region VARCHAR(16)
	) DISTSTYLE KEY DISTKEY(product_id) COMPOUND SORTKEY(ts)`)

	var prods, sales strings.Builder
	cats := []string{"books", "music", "toys"}
	regions := []string{"us", "eu"}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&prods, "%d|%s|%g\n", i, cats[i%3], float64(10+i))
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sales, "%d|%d|%d|%s\n", 10000+i, i%20, 1+i%5, regions[i%2])
	}
	store := db.cfg.DataStore
	store.Put("lake/products/p.csv", []byte(prods.String()))
	store.Put("lake/sales/s.csv", []byte(sales.String()))
	mustExec(t, db, `COPY products FROM 's3://lake/products/'`)
	mustExec(t, db, `COPY sales FROM 's3://lake/sales/'`)
}

// bothModes runs the subtest against both engines.
func bothModes(t *testing.T, fn func(t *testing.T, db *Database)) {
	for _, mode := range []exec.Mode{exec.Compiled, exec.Interpreted} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openDB(t, mode)
			seedSales(t, db)
			fn(t, db)
		})
	}
}

func TestEndToEndScanFilterProject(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT ts, qty * 2 AS dbl FROM sales WHERE ts BETWEEN 10000 AND 10004 ORDER BY ts`)
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		if res.Rows[0][0].I != 10000 || res.Rows[0][1].I != 2 {
			t.Errorf("row0 = %v", res.Rows[0])
		}
		if res.Rows[4][0].I != 10004 {
			t.Errorf("row4 = %v", res.Rows[4])
		}
		if res.Schema.Columns[1].Name != "dbl" {
			t.Errorf("schema = %+v", res.Schema)
		}
	})
}

func TestEndToEndZoneMapPruning(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT COUNT(*) FROM sales WHERE ts < 10010`)
		if res.Rows[0][0].I != 10 {
			t.Fatalf("count = %v", res.Rows[0][0])
		}
		if res.Stats.BlocksSkipped == 0 {
			t.Errorf("no blocks skipped despite sorted data: %+v", res.Stats)
		}
	})
}

func TestEndToEndCollocatedJoin(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		before := db.Cluster().NetBytes()
		res := mustExec(t, db, `
			SELECT p.category, SUM(s.qty) AS total
			FROM sales s JOIN products p ON s.product_id = p.id
			GROUP BY p.category ORDER BY total DESC`)
		if len(res.Rows) != 3 {
			t.Fatalf("rows = %v", res.Rows)
		}
		// 1000 sales, qty cycle 1..5 → total qty = sum over i of 1+i%5 = 3000.
		var total int64
		for _, r := range res.Rows {
			total += r[1].I
		}
		if total != 3000 {
			t.Errorf("sum of qty = %d", total)
		}
		// Collocated join must move almost nothing (only final results and
		// partial agg states).
		moved := db.Cluster().NetBytes() - before
		if moved > 10_000 {
			t.Errorf("collocated join moved %d bytes", moved)
		}
	})
}

func TestEndToEndJoinCorrectness(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `
			SELECT s.ts, p.price FROM sales s JOIN products p ON s.product_id = p.id
			WHERE s.ts = 10007`)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		// sale 7 → product 7 → price 17.
		if res.Rows[0][1].F != 17 {
			t.Errorf("price = %v", res.Rows[0][1])
		}
	})
}

func TestEndToEndLeftJoin(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `INSERT INTO sales (ts, product_id, qty, region) VALUES (99999, 555, 1, 'us')`)
		res := mustExec(t, db, `
			SELECT s.ts, p.id FROM sales s LEFT JOIN products p ON s.product_id = p.id
			WHERE s.ts = 99999`)
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		if !res.Rows[0][1].Null {
			t.Errorf("unmatched right side = %v, want NULL", res.Rows[0][1])
		}
	})
}

func TestEndToEndAggregates(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `
			SELECT region, COUNT(*) AS n, AVG(qty) AS avg_qty, MIN(ts), MAX(ts),
			       COUNT(DISTINCT product_id), APPROXIMATE COUNT(DISTINCT ts)
			FROM sales GROUP BY region ORDER BY region`)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %v", res.Rows)
		}
		eu, us := res.Rows[0], res.Rows[1]
		if eu[0].S != "eu" || us[0].S != "us" {
			t.Fatalf("regions = %v %v", eu[0], us[0])
		}
		if eu[1].I != 500 || us[1].I != 500 {
			t.Errorf("counts = %v %v", eu[1], us[1])
		}
		if eu[5].I != 10 || us[5].I != 10 { // product_id cycle 0..19 split by parity
			t.Errorf("distinct products = %v %v", eu[5], us[5])
		}
		// HLL estimate of 500 distinct ts within 8%.
		for _, r := range res.Rows {
			est := r[6].I
			if est < 460 || est > 540 {
				t.Errorf("approx distinct ts = %d, want ≈500", est)
			}
		}
	})
}

func TestEndToEndHavingAndLimit(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `
			SELECT product_id, SUM(qty) AS total FROM sales
			GROUP BY product_id HAVING SUM(qty) > 100
			ORDER BY total DESC, product_id LIMIT 3`)
		if len(res.Rows) != 3 {
			t.Fatalf("rows = %v", res.Rows)
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][1].I > res.Rows[i-1][1].I {
				t.Errorf("not sorted desc: %v", res.Rows)
			}
		}
	})
}

func TestEndToEndScalarAggregate(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT COUNT(*), SUM(qty) FROM sales`)
		if len(res.Rows) != 1 || res.Rows[0][0].I != 1000 || res.Rows[0][1].I != 3000 {
			t.Fatalf("scalar agg = %v", res.Rows)
		}
		// Empty input still yields one row.
		res = mustExec(t, db, `SELECT COUNT(*), MAX(qty) FROM sales WHERE ts < 0`)
		if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].Null {
			t.Fatalf("empty scalar agg = %v", res.Rows)
		}
	})
}

func TestEndToEndDistinct(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `SELECT DISTINCT region FROM sales ORDER BY region`)
		if len(res.Rows) != 2 || res.Rows[0][0].S != "eu" || res.Rows[1][0].S != "us" {
			t.Fatalf("distinct = %v", res.Rows)
		}
	})
}

func TestEndToEndInsertAndSnapshot(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `INSERT INTO products (id, category, price) VALUES (100, 'new', 1.5), (101, NULL, 2.5)`)
		res := mustExec(t, db, `SELECT category, price FROM products WHERE id = 101`)
		if len(res.Rows) != 1 || !res.Rows[0][0].Null || res.Rows[0][1].F != 2.5 {
			t.Fatalf("inserted row = %v", res.Rows)
		}
		res = mustExec(t, db, `SELECT COUNT(*) FROM products`)
		if res.Rows[0][0].I != 22 {
			t.Errorf("count = %v", res.Rows[0][0])
		}
	})
}

func TestEndToEndVacuumMergesRuns(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		// Add a second sorted run out of order.
		mustExec(t, db, `INSERT INTO sales (ts, product_id, qty, region) VALUES (5, 1, 1, 'us'), (6, 2, 1, 'eu')`)
		stats, _ := db.Catalog().Stats(mustTable(t, db, "sales"))
		if stats.UnsortedRows == 0 {
			t.Fatal("second run should count as unsorted")
		}
		mustExec(t, db, `VACUUM sales`)
		stats, _ = db.Catalog().Stats(mustTable(t, db, "sales"))
		if stats.UnsortedRows != 0 {
			t.Errorf("unsorted after vacuum = %d", stats.UnsortedRows)
		}
		// Data intact and one segment per slice.
		res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
		if res.Rows[0][0].I != 1002 {
			t.Errorf("count after vacuum = %v", res.Rows[0][0])
		}
		res = mustExec(t, db, `SELECT ts FROM sales ORDER BY ts LIMIT 1`)
		if res.Rows[0][0].I != 5 {
			t.Errorf("min ts = %v", res.Rows[0][0])
		}
	})
}

func mustTable(t *testing.T, db *Database, name string) int64 {
	t.Helper()
	def, err := db.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return def.ID
}

func TestEndToEndTruncateAndDrop(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `TRUNCATE sales`)
		res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
		if res.Rows[0][0].I != 0 {
			t.Errorf("count after truncate = %v", res.Rows[0][0])
		}
		mustExec(t, db, `DROP TABLE sales`)
		if _, err := db.Execute(`SELECT * FROM sales`); err == nil {
			t.Error("query after drop succeeded")
		}
		mustExec(t, db, `DROP TABLE IF EXISTS sales`)
	})
}

func TestEndToEndExplain(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `EXPLAIN SELECT p.category, COUNT(*) FROM sales s JOIN products p ON s.product_id = p.id GROUP BY p.category`)
		text := ""
		for _, r := range res.Rows {
			text += r[0].S + "\n"
		}
		if !strings.Contains(text, "DS_DIST_NONE") {
			t.Errorf("EXPLAIN missing collocated join:\n%s", text)
		}
	})
}

func TestEndToEndAnalyze(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `ANALYZE sales`)
		stats, _ := db.Catalog().Stats(mustTable(t, db, "sales"))
		if stats.Rows != 1000 || stats.Cols[0].Min.I != 10000 {
			t.Errorf("analyzed stats = %+v", stats)
		}
		res := mustExec(t, db, `ANALYZE COMPRESSION sales`)
		if len(res.Rows) == 0 {
			t.Error("ANALYZE COMPRESSION returned nothing")
		}
	})
}

func TestEndToEndCaseAndFunctions(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `
			SELECT UPPER(region) AS r,
			       CASE WHEN qty >= 4 THEN 'big' ELSE 'small' END AS size,
			       COUNT(*)
			FROM sales GROUP BY UPPER(region), CASE WHEN qty >= 4 THEN 'big' ELSE 'small' END
			ORDER BY r, size`)
		if len(res.Rows) != 4 {
			t.Fatalf("rows = %v", res.Rows)
		}
		if res.Rows[0][0].S != "EU" || res.Rows[0][1].S != "big" {
			t.Errorf("row0 = %v", res.Rows[0])
		}
	})
}

func TestQueryDuringNodeFailure(t *testing.T) {
	// "making media failures transparent": fail a node, queries keep
	// answering by failing over to secondary replicas.
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	// The post-failure run must re-execute (failover is what's under
	// test), not be served from the result cache.
	mustExec(t, db, `SET result_cache TO off`)
	before := mustExec(t, db, `SELECT COUNT(*), SUM(qty) FROM sales`)

	db.Cluster().FailNode(1)
	after := mustExec(t, db, `SELECT COUNT(*), SUM(qty) FROM sales`)
	if !types.Equal(before.Rows[0][0], after.Rows[0][0]) || !types.Equal(before.Rows[0][1], after.Rows[0][1]) {
		t.Fatalf("results changed after node failure: %v vs %v", before.Rows, after.Rows)
	}
	if after.Stats.NetBytes == 0 {
		t.Error("failover should have moved replica bytes")
	}
}

func TestShuffleJoinMatchesCollocated(t *testing.T) {
	// The same join computed under EVEN distribution (shuffle) must equal
	// the KEY-distributed (collocated) answer — the A5 correctness leg.
	run := func(diststyle string) []types.Row {
		db := openDB(t, exec.Compiled)
		mustExec(t, db, `CREATE TABLE l (k BIGINT, v BIGINT) `+diststyle)
		mustExec(t, db, `CREATE TABLE r (k BIGINT, w BIGINT) `+diststyle)
		var lb, rb strings.Builder
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&lb, "%d|%d\n", i%100, i)
		}
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&rb, "%d|%d\n", i, i*10)
		}
		db.cfg.DataStore.Put("l/1.csv", []byte(lb.String()))
		db.cfg.DataStore.Put("r/1.csv", []byte(rb.String()))
		mustExec(t, db, `COPY l FROM 'l/'`)
		mustExec(t, db, `COPY r FROM 'r/'`)
		// Force r to look big so EVEN goes to shuffle, not broadcast.
		db.cfg.Plan.BroadcastRows = 1
		res := mustExec(t, db, `SELECT l.k, SUM(l.v + r.w) AS s FROM l JOIN r ON l.k = r.k GROUP BY l.k ORDER BY l.k`)
		return res.Rows
	}
	collocated := run("DISTSTYLE KEY DISTKEY(k)")
	shuffled := run("DISTSTYLE EVEN")
	if len(collocated) != len(shuffled) || len(collocated) != 100 {
		t.Fatalf("row counts: %d vs %d", len(collocated), len(shuffled))
	}
	for i := range collocated {
		for c := range collocated[i] {
			if !types.Equal(collocated[i][c], shuffled[i][c]) {
				t.Fatalf("row %d differs: %v vs %v", i, collocated[i], shuffled[i])
			}
		}
	}
}

func TestDistStyleAllBroadcastFree(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE f (k BIGINT, v BIGINT) DISTSTYLE EVEN`)
	mustExec(t, db, `CREATE TABLE d (k BIGINT, name VARCHAR(8)) DISTSTYLE ALL`)
	var fb, dbuf strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&fb, "%d|%d\n", i%10, i)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&dbuf, "%d|n%d\n", i, i)
	}
	db.cfg.DataStore.Put("f/1.csv", []byte(fb.String()))
	db.cfg.DataStore.Put("d/1.csv", []byte(dbuf.String()))
	mustExec(t, db, `COPY f FROM 'f/'`)
	mustExec(t, db, `COPY d FROM 'd/'`)

	before := db.Cluster().NetBytes()
	res := mustExec(t, db, `SELECT d.name, COUNT(*) FROM f JOIN d ON f.k = d.k GROUP BY d.name`)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	moved := db.Cluster().NetBytes() - before
	if moved > 5_000 {
		t.Errorf("DISTSTYLE ALL join moved %d bytes; the copy is already local", moved)
	}
}

func TestInsertErrors(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR(8))`)
	cases := []string{
		`INSERT INTO t (a) VALUES (1, 2)`,
		`INSERT INTO t (nope) VALUES (1)`,
		`INSERT INTO t VALUES ('str', 'b')`,
		`INSERT INTO nosuch VALUES (1)`,
		`INSERT INTO t VALUES (NULL, 'b')`, // NOT NULL violated
	}
	for _, q := range cases {
		if _, err := db.Execute(q); err == nil {
			t.Errorf("%q accepted", q)
		}
	}
	// Negation looks at its operand: NULL stays NULL, a string is an error.
	mustExec(t, db, `CREATE TABLE n (k BIGINT, v BIGINT, f DOUBLE PRECISION)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, -NULL, -NULL), (2, -7, -2.5)`)
	neg := mustExec(t, db, `SELECT k, v, f FROM n ORDER BY k`)
	if r := neg.Rows[0]; !r[1].Null || !r[2].Null {
		t.Errorf("-NULL stored as %v, want NULLs", r)
	}
	if r := neg.Rows[1]; r[1].I != -7 || r[2].F != -2.5 {
		t.Errorf("negated literals stored as %v", r)
	}
	if _, err := db.Execute(`INSERT INTO n VALUES (3, -'x', 0)`); err == nil || !strings.Contains(err.Error(), "VALUES must be literals") {
		t.Errorf("-'x' in VALUES: err = %v", err)
	}
	// Date coercion from string literal.
	mustExec(t, db, `CREATE TABLE d (day DATE)`)
	mustExec(t, db, `INSERT INTO d VALUES ('2015-05-31')`)
	res := mustExec(t, db, `SELECT day FROM d`)
	if res.Rows[0][0].String() != "2015-05-31" {
		t.Errorf("date = %v", res.Rows[0][0])
	}
}

func TestCreateTableVariants(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE a (x BIGINT)`)
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS a (x BIGINT)`)
	if _, err := db.Execute(`CREATE TABLE a (x BIGINT)`); err == nil {
		t.Error("duplicate CREATE accepted")
	}
	if _, err := db.Execute(`CREATE TABLE b (x BIGINT) DISTSTYLE KEY`); err == nil {
		t.Error("KEY without DISTKEY accepted")
	}
	if _, err := db.Execute(`CREATE TABLE b (x BIGINT) DISTKEY(nope)`); err == nil {
		t.Error("bad DISTKEY accepted")
	}
	if _, err := db.Execute(`CREATE TABLE b (x BIGINT) SORTKEY(nope)`); err == nil {
		t.Error("bad SORTKEY accepted")
	}
	mustExec(t, db, `CREATE TABLE c (x BIGINT, y BIGINT) INTERLEAVED SORTKEY(x, y)`)
}

func TestResultStatsPopulated(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	res := mustExec(t, db, `SELECT COUNT(*) FROM sales WHERE ts > 10500`)
	if res.Stats.RowsScanned == 0 || res.Stats.ExecTime == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestDistAllBaseTableNotDuplicated(t *testing.T) {
	// Scanning a DISTSTYLE ALL table directly must return logical rows
	// once, not once per node copy.
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE dims (id BIGINT, name VARCHAR(8)) DISTSTYLE ALL`)
	mustExec(t, db, `INSERT INTO dims VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM dims`)
	if res.Rows[0][0].I != 3 {
		t.Errorf("COUNT over ALL table = %v, want 3", res.Rows[0][0])
	}
	res = mustExec(t, db, `SELECT id FROM dims ORDER BY id`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Joining FROM the ALL table also counts each row once.
	mustExec(t, db, `CREATE TABLE facts (id BIGINT, v BIGINT) DISTSTYLE EVEN`)
	mustExec(t, db, `INSERT INTO facts VALUES (1, 10), (1, 20), (2, 30)`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM dims d JOIN facts f ON d.id = f.id`)
	if res.Rows[0][0].I != 3 {
		t.Errorf("join from ALL base = %v, want 3", res.Rows[0][0])
	}
}

func TestAutoMaintainVacuumsDegradedTables(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	// Create many small sorted runs: each INSERT is its own run.
	for i := 0; i < 6; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO sales VALUES (%d, 1, 1, 'us')`, 20000+i))
	}
	stats, _ := db.Catalog().Stats(mustTable(t, db, "sales"))
	if stats.UnsortedRows == 0 {
		t.Fatal("inserts should count as unsorted")
	}
	report, err := db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range report.Vacuumed {
		if name == "sales" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sales not vacuumed: %+v", report)
	}
	stats, _ = db.Catalog().Stats(mustTable(t, db, "sales"))
	if stats.UnsortedRows != 0 {
		t.Errorf("unsorted after auto-vacuum = %d", stats.UnsortedRows)
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 1006 {
		t.Errorf("rows after auto-vacuum = %v", res.Rows[0][0])
	}
	// A second pass has nothing to do.
	report, err = db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Vacuumed) != 0 {
		t.Errorf("idempotence broken: %+v", report)
	}
}

func TestAutoMaintainDefersUnderLoad(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	tx := db.Txns().Begin()
	report, err := db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Deferred {
		t.Error("maintenance should defer while transactions are active")
	}
	db.Txns().Abort(tx)
	report, _ = db.AutoMaintain(DefaultMaintenancePolicy())
	if report.Deferred {
		t.Error("maintenance still deferred after load cleared")
	}
}

func TestAutoMaintainAnalyzesStatlessTables(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	// Load with STATUPDATE OFF so stats stay empty.
	db.cfg.DataStore.Put("t/a.csv", []byte("1\n2\n3\n"))
	mustExec(t, db, `COPY t FROM 't/' STATUPDATE OFF`)
	stats, _ := db.Catalog().Stats(mustTable(t, db, "t"))
	if stats.Rows != 0 {
		t.Fatal("precondition: stats should be empty")
	}
	report, err := db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Analyzed) != 1 || report.Analyzed[0] != "t" {
		t.Fatalf("report = %+v", report)
	}
	stats, _ = db.Catalog().Stats(mustTable(t, db, "t"))
	if stats.Rows != 3 {
		t.Errorf("analyzed rows = %d", stats.Rows)
	}
}

func TestVacuumDoesNotDisturbOlderSnapshots(t *testing.T) {
	// Hold a transaction (old snapshot) across a VACUUM: the superseded
	// segments must survive until the transaction finishes.
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `INSERT INTO sales VALUES (5, 1, 1, 'us')`)

	held := db.Txns().Begin()
	mustExec(t, db, `VACUUM sales`)
	// The old segments are retained for the held snapshot...
	tableID := mustTable(t, db, "sales")
	oldSegs := db.Cluster().VisibleSegments(0, tableID, held.Snapshot)
	newSegs := db.Cluster().VisibleSegments(0, tableID, db.Txns().CurrentXid())
	if len(oldSegs) == 0 {
		t.Fatal("held snapshot lost its segments during VACUUM")
	}
	if len(newSegs) > 1 {
		t.Fatalf("post-vacuum snapshot sees %d segments on slice 0", len(newSegs))
	}
	db.Txns().Abort(held)
	// After the holder finishes, the next vacuum pass may prune; data
	// remains correct either way.
	res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 1001 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestLeaderLocalSelect(t *testing.T) {
	db := openDB(t, exec.Compiled)
	res := mustExec(t, db, `SELECT 1, 2 + 3 AS five, UPPER('hi') AS greeting`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].I != 1 || r[1].I != 5 || r[2].S != "HI" {
		t.Errorf("row = %v", r)
	}
	if res.Schema.Columns[1].Name != "five" {
		t.Errorf("schema = %+v", res.Schema)
	}
	if _, err := db.Execute(`SELECT x`); err == nil {
		t.Error("column ref without FROM accepted")
	}
	if _, err := db.Execute(`SELECT * `); err == nil {
		t.Error("star without FROM accepted")
	}
	res = mustExec(t, db, `SELECT 1 LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 returned rows")
	}
	// WHERE filters the one candidate row: false and NULL drop it.
	for q, want := range map[string]int{
		`SELECT 1 WHERE 1 = 0`:         0,
		`SELECT 1 WHERE NULL = 1`:      0,
		`SELECT 1 WHERE 1 = 1`:         1,
		`SELECT 1 WHERE 1 = 1 LIMIT 0`: 0,
	} {
		if res = mustExec(t, db, q); len(res.Rows) != want {
			t.Errorf("%s returned %d rows, want %d", q, len(res.Rows), want)
		}
	}
	if _, err := db.Execute(`SELECT 1 WHERE 2 + 3`); err == nil {
		t.Error("non-boolean WHERE without FROM accepted")
	}
	if _, err := db.Execute(`SELECT 1 WHERE x = 1`); err == nil {
		t.Error("column ref in WHERE without FROM accepted")
	}
}

func TestEndToEndDateFunctions(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE ev (day DATE, at TIMESTAMP)`)
		mustExec(t, db, `INSERT INTO ev VALUES
			('2014-03-15', '2014-03-15 13:45:30'),
			('2014-03-20', '2014-03-20 08:00:00'),
			('2015-01-02', '2015-01-02 23:59:59')`)
		res := mustExec(t, db, `
			SELECT YEAR(day) AS y, MONTH(day) AS m, COUNT(*)
			FROM ev GROUP BY YEAR(day), MONTH(day) ORDER BY y, m`)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %v", res.Rows)
		}
		if res.Rows[0][0].I != 2014 || res.Rows[0][1].I != 3 || res.Rows[0][2].I != 2 {
			t.Errorf("group 2014-03 = %v", res.Rows[0])
		}
		res = mustExec(t, db, `SELECT DATE_TRUNC('month', at) FROM ev WHERE YEAR(at) = 2015`)
		if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].String(), "2015-01-01 00:00:00") {
			t.Errorf("date_trunc = %v", res.Rows)
		}
		res = mustExec(t, db, `SELECT COUNT(*) FROM ev WHERE day BETWEEN DATE '2014-01-01' AND DATE '2014-12-31'`)
		if res.Rows[0][0].I != 2 {
			t.Errorf("date range count = %v", res.Rows[0][0])
		}
		res = mustExec(t, db, `SELECT COALESCE(NULL, day) AS d FROM ev ORDER BY d LIMIT 1`)
		if res.Rows[0][0].String() != "2014-03-15" {
			t.Errorf("coalesce = %v", res.Rows[0][0])
		}
	})
}

func TestHavingBetweenAndScalarOverGroups(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `
			SELECT UPPER(region) AS r, COUNT(*) AS n
			FROM sales GROUP BY region
			HAVING COUNT(*) BETWEEN 1 AND 10000 AND UPPER(region) LIKE 'E%'
			ORDER BY r`)
		if len(res.Rows) != 1 || res.Rows[0][0].S != "EU" || res.Rows[0][1].I != 500 {
			t.Fatalf("rows = %v", res.Rows)
		}
		res = mustExec(t, db, `
			SELECT region FROM sales GROUP BY region
			HAVING COUNT(*) IN (500, 501) ORDER BY region`)
		if len(res.Rows) != 2 {
			t.Fatalf("IN over aggregate = %v", res.Rows)
		}
	})
}
