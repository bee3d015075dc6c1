package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"redshift/internal/exec"
)

// explainText flattens an EXPLAIN result to one string.
func explainText(t *testing.T, db *Database, query string) string {
	t.Helper()
	res := mustExec(t, db, query)
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].S)
		b.WriteByte('\n')
	}
	return b.String()
}

// Regression: EXPLAIN over a system table must bind against the transient
// system catalog, exactly like the SELECT it describes (the persistent
// catalog has no stl_/stv_ definitions).
func TestExplainSystemTable(t *testing.T) {
	db := openDB(t, exec.Compiled)
	out := explainText(t, db, `EXPLAIN SELECT * FROM stl_query`)
	if !strings.Contains(out, "Seq Scan on stl_query") {
		t.Fatalf("EXPLAIN stl_query missing scan node:\n%s", out)
	}
	out = explainText(t, db, `EXPLAIN SELECT slice, blocks_read FROM stv_slice_stats WHERE slice = 0`)
	if !strings.Contains(out, "Seq Scan on stv_slice_stats") {
		t.Fatalf("EXPLAIN stv_slice_stats missing scan node:\n%s", out)
	}
}

// EXPLAIN renders the lowered physical dataflow: partial/final operator
// split, data-movement (network) nodes, and cardinality annotations.
func TestExplainPhysicalTree(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `ANALYZE sales`)

	out := explainText(t, db, `
		EXPLAIN SELECT p.category, SUM(s.qty) AS total
		FROM sales s JOIN products p ON s.product_id = p.id
		GROUP BY p.category ORDER BY total DESC LIMIT 2`)
	for _, want := range []string{
		"XN Limit (rows=2)",
		"XN Merge (order by: total desc)",
		"XN HashAggregate",
		"XN Partial HashAggregate",
		"Hash Join DS_DIST_NONE",
		"Seq Scan on sales",
		"Seq Scan on products",
		"(rows=1000 width=4)", // ANALYZEd base-scan cardinality annotation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}

	// Force the misaligned join to shuffle both sides.
	db.cfg.Plan.BroadcastRows = 1
	const misaligned = `SELECT s.ts FROM sales s JOIN products p ON s.qty = p.id
		ORDER BY s.ts LIMIT 3`
	out = explainText(t, db, `EXPLAIN `+misaligned)
	if n := strings.Count(out, "XN Network (Shuffle: "); n != 2 {
		t.Errorf("want 2 shuffle network nodes, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		"Hash Join DS_DIST_BOTH",
		"XN SliceTopN (order by: ts asc; limit 3)",
		"XN Network (Gather)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	// And run it: the probe side re-sources itself through the exchange.
	res := mustExec(t, db, misaligned)
	if len(res.Rows) != 3 || res.Rows[0][0].I != 10000 || res.Rows[2][0].I != 10002 {
		t.Errorf("shuffled join rows = %v", res.Rows)
	}
	if res.Stats.NetBytes == 0 {
		t.Error("shuffle moved zero bytes")
	}
}

// seedWide loads a table big enough that each slice scans many blocks.
func seedWide(t *testing.T, db *Database, rows int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE wide (
		id BIGINT NOT NULL, grp BIGINT, val BIGINT
	) DISTSTYLE KEY DISTKEY(id)`)
	var data strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&data, "%d|%d|%d\n", i, i%7, i%100)
	}
	db.cfg.DataStore.Put("lake/wide/w.csv", []byte(data.String()))
	mustExec(t, db, `COPY wide FROM 's3://lake/wide/'`)
}

// The streaming executor's peak live-batch count must be bounded by
// O(slices × pipeline depth), not by the number of batches the scan
// produces — the whole point of the fused per-slice dataflow.
func TestBatchesInFlightHighWater(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedWide(t, db, 20000) // BlockCap 64 → ≈312 scan batches across 4 slices

	res := mustExec(t, db, `SELECT grp, SUM(val) AS total FROM wide GROUP BY grp ORDER BY grp`)
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	scanBatches := int64(20000 / 64) // lower bound on batches the scan emitted
	peak := db.metrics.Gauge("exec_batches_in_flight_peak").Value()
	if peak < 1 {
		t.Fatalf("peak in-flight batches = %d, want >= 1", peak)
	}
	// 4 slices × a pipeline a few operators deep, each holding at most one
	// outstanding batch: far below the ~312 batches a materializing
	// executor would hold live at the stage barrier.
	const bound = 48
	if peak > bound {
		t.Errorf("peak in-flight batches = %d, want <= %d (slices × depth)", peak, bound)
	}
	if peak >= scanBatches/2 {
		t.Errorf("peak %d not clearly below scan batch count %d: intermediates look materialized", peak, scanBatches)
	}
	assertQuiescent(t, db)
}

// Concurrent SELECTs drive many per-slice pipelines (and their exchange
// goroutines) at once; run under -race via `make race`.
func TestConcurrentStreamingSelects(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)

	queries := []struct {
		sql  string
		rows int
	}{
		{`SELECT p.category, SUM(s.qty) AS total FROM sales s JOIN products p ON s.product_id = p.id GROUP BY p.category ORDER BY total DESC`, 3},
		{`SELECT ts FROM sales ORDER BY ts LIMIT 10`, 10},
		{`SELECT DISTINCT region FROM sales ORDER BY region`, 2},
		{`SELECT s.ts FROM sales s JOIN products p ON s.qty = p.id ORDER BY s.ts LIMIT 5`, 5},
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				q := queries[(w+rep)%len(queries)]
				res, err := db.Execute(q.sql)
				if err != nil {
					errs[w] = err
					return
				}
				if len(res.Rows) != q.rows {
					errs[w] = fmt.Errorf("%s: got %d rows, want %d", q.sql, len(res.Rows), q.rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
