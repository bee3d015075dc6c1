package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"redshift/internal/telemetry"
)

// sliceSpanSum parses an EXPLAIN ANALYZE rendering and returns how many
// per-slice spans carry one numeric attribute and the attribute's sum
// across them (scan slices carry blocks_read; agg slices carry groups).
func sliceSpanSum(t *testing.T, res *Result, attr string) (count int, sum int64) {
	t.Helper()
	for _, row := range res.Rows {
		line := strings.TrimLeft(row[0].S, " ")
		if !strings.HasPrefix(line, "slice ") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, attr+"="); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("bad attr in %q: %v", line, err)
				}
				count++
				sum += n
			}
		}
	}
	return count, sum
}

func TestExplainAnalyzeSpanTree(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		res := mustExec(t, db, `EXPLAIN ANALYZE SELECT p.category, sum(s.qty) AS total
			FROM sales s JOIN products p ON s.product_id = p.id
			GROUP BY p.category ORDER BY total DESC`)
		if res.Stats.BlocksRead == 0 {
			t.Fatal("query read no blocks")
		}
		text := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			text = append(text, row[0].S)
		}
		rendered := strings.Join(text, "\n")
		for _, want := range []string{"query (", "plan (", "scan sales", "join products", "partial-agg", "leader-merge", "finalize"} {
			if !strings.Contains(rendered, want) {
				t.Errorf("rendering missing %q:\n%s", want, rendered)
			}
		}
		// Both scans (base + collocated build side) run on every slice.
		nslices := db.Cluster().NumSlices()
		count, blocks := sliceSpanSum(t, res, "blocks_read")
		if count != 2*nslices {
			t.Errorf("scan slice spans = %d, want %d:\n%s", count, 2*nslices, rendered)
		}
		// The per-slice scan spans account every block the query read.
		if blocks != res.Stats.BlocksRead {
			t.Errorf("slice spans sum to %d blocks, stats say %d:\n%s", blocks, res.Stats.BlocksRead, rendered)
		}
	})
}

// TestLeaderSpanTimesAreExclusive pins the one meaning of a node's time in
// an EXPLAIN ANALYZE tree: its own work, children excluded, at the leader as
// on the slices. Over 24k groups the merge dominates the HAVING pass that
// consumes its output, so an inclusive having (= merge + filter) could never
// come in below leader-merge; and nodes that exclude each other cannot add
// up to more than the query they ran in.
func TestLeaderSpanTimesAreExclusive(t *testing.T) {
	db := openDB(t, 0)
	mustExec(t, db, `CREATE TABLE g (k BIGINT NOT NULL, v BIGINT) DISTSTYLE EVEN`)
	for lo := 0; lo < 24000; lo += 4000 {
		var vals strings.Builder
		for k := lo; k < lo+4000; k++ {
			fmt.Fprintf(&vals, "(%d, %d),", k, k%7)
		}
		mustExec(t, db, `INSERT INTO g VALUES `+strings.TrimSuffix(vals.String(), ","))
	}
	res, err := db.NewSession().Execute(`SELECT k, COUNT(*) AS n, SUM(v) AS s FROM g GROUP BY k HAVING COUNT(*) > 0 ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Trace
	if len(res.Rows) != 24000 {
		t.Fatalf("rows = %d, want 24000", len(res.Rows))
	}
	nodes := map[string]*telemetry.Span{}
	for _, sp := range trace.Children() {
		nodes[sp.Name()] = sp
	}
	var leader time.Duration
	for _, name := range []string{"leader-merge", "having", "project", "finalize"} {
		sp := nodes[name]
		if sp == nil {
			t.Fatalf("no %s span:\n%s", name, trace.Render())
		}
		leader += sp.Duration()
	}
	if h, m := nodes["having"].Duration(), nodes["leader-merge"].Duration(); h >= m {
		t.Errorf("having took %v, leader-merge %v: having includes its child\n%s", h, m, trace.Render())
	}
	if leader > trace.Duration() {
		t.Errorf("leader nodes sum to %v, more than the query's %v\n%s", leader, trace.Duration(), trace.Render())
	}
}

func TestExplainAnalyzeRejects(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	for _, q := range []string{
		`EXPLAIN ANALYZE SELECT 1`,                    // no FROM: nothing to trace
		`SELECT querytxt FROM missing_sys`,            // unknown table still errors
		`EXPLAIN ANALYZE SELECT query FROM stl_query`, // system tables are leader-only
	} {
		if _, err := db.Execute(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestStlQuery(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	// The filter keeps this a real scan: a bare COUNT(*) is now answered
	// from block metadata and would log blocks_read = 0.
	mustExec(t, db, `SELECT count(*) AS n FROM sales WHERE qty >= 0`)
	mustExec(t, db, `SELECT sum(qty) AS q FROM sales WHERE region = 'us'`)
	if _, err := db.Execute(`SELECT missing_col FROM sales`); err == nil {
		t.Fatal("bad query accepted")
	}

	// seedSales' two COPYs are rows 1 and 2: writes are logged like reads.
	res := mustExec(t, db, `SELECT query, querytxt, queue_ms, plan_ms, exec_ms, rows, blocks_read, aborted
		FROM stl_query WHERE querytxt LIKE 'SELECT%' ORDER BY query`)
	if len(res.Rows) != 3 {
		t.Fatalf("stl_query SELECT rows = %d, want 3 (2 ok + 1 aborted)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(i+3) {
			t.Errorf("row %d id = %d", i, row[0].I)
		}
		if row[2].F < 0 || row[3].F < 0 || row[4].F < 0 {
			t.Errorf("row %d has negative times: %v", i, row)
		}
	}
	first := res.Rows[0]
	if !strings.Contains(first[1].S, "COUNT") && !strings.Contains(strings.ToUpper(first[1].S), "COUNT") {
		t.Errorf("querytxt = %q", first[1].S)
	}
	if first[3].F <= 0 && first[4].F <= 0 {
		t.Errorf("first query has zero plan and exec time: plan=%g exec=%g", first[3].F, first[4].F)
	}
	if first[5].I != 1 {
		t.Errorf("count(*) result rows = %d", first[5].I)
	}
	if first[6].I == 0 {
		t.Error("count(*) read no blocks")
	}
	aborted := res.Rows[2]
	if aborted[7].I != 1 {
		t.Errorf("failed query not marked aborted: %v", aborted)
	}
	if res.Rows[0][7].I != 0 || res.Rows[1][7].I != 0 {
		t.Error("successful query marked aborted")
	}

	// Filters and aggregates work on system tables.
	agg := mustExec(t, db, `SELECT count(*) AS n FROM stl_query WHERE aborted = 0 AND querytxt LIKE 'SELECT%'`)
	if agg.Rows[0][0].I != 2 {
		t.Errorf("aborted=0 count = %d", agg.Rows[0][0].I)
	}

	// System queries are not themselves logged, and no network traffic is
	// attributed to them.
	netBefore := db.Cluster().NetBytes()
	again := mustExec(t, db, `SELECT count(*) AS n FROM stl_query`)
	if again.Rows[0][0].I != 5 {
		t.Errorf("stl_query grew from reading it: %d", again.Rows[0][0].I)
	}
	if db.Cluster().NetBytes() != netBefore {
		t.Error("system query accounted network traffic")
	}
}

func TestStvSliceStats(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	mustExec(t, db, `SELECT sum(qty) AS n FROM sales`)
	res := mustExec(t, db, `SELECT slice, node, scans, blocks_read, rows_read FROM stv_slice_stats ORDER BY slice`)
	if len(res.Rows) != db.Cluster().NumSlices() {
		t.Fatalf("rows = %d, want one per slice", len(res.Rows))
	}
	var totalBlocks, totalRows int64
	for i, row := range res.Rows {
		if row[0].I != int64(i) {
			t.Errorf("row %d slice = %d", i, row[0].I)
		}
		wantNode := int64(i) / int64(db.Cluster().Config().SlicesPerNode)
		if row[1].I != wantNode {
			t.Errorf("slice %d node = %d, want %d", i, row[1].I, wantNode)
		}
		if row[2].I == 0 {
			t.Errorf("slice %d never scanned", i)
		}
		totalBlocks += row[3].I
		totalRows += row[4].I
	}
	if totalBlocks == 0 || totalRows < 1000 {
		t.Errorf("totals: blocks=%d rows=%d", totalBlocks, totalRows)
	}
}

func TestQueryMetricsRegistry(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	mustExec(t, db, `SELECT sum(qty) AS n FROM sales`)
	db.Execute(`SELECT nope FROM sales`)

	// seedSales' two COPYs count: query_total is every logged statement.
	m := db.Telemetry()
	if got := m.Counter("query_total").Value(); got != 4 {
		t.Errorf("query_total = %d", got)
	}
	if got := m.Counter("query_errors_total").Value(); got != 1 {
		t.Errorf("query_errors_total = %d", got)
	}
	if m.Counter("query_blocks_read_total").Value() == 0 {
		t.Error("no blocks counted")
	}
	if m.Counter("net_replication_bytes_total").Value() == 0 {
		t.Error("COPY replication not counted by kind")
	}
	if m.Histogram("query_seconds").Count() != 3 {
		t.Errorf("query_seconds count = %d", m.Histogram("query_seconds").Count())
	}
	out := m.Render()
	for _, want := range []string{"query_total 4", "wlm_queries_total", "query_seconds_count 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestQueryLogRecordsTrace(t *testing.T) {
	db := openDB(t, 0)
	seedSales(t, db)
	start := time.Now()
	mustExec(t, db, `SELECT sum(qty) AS n FROM sales`)
	recs := db.QueryLog().Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want seedSales' two COPYs and the SELECT", len(recs))
	}
	r := recs[2]
	if r.Trace == nil || r.Trace.Name() != "query" {
		t.Fatal("trace missing from query record")
	}
	if r.Start.Before(start.Add(-time.Second)) || r.End.Before(r.Start) {
		t.Errorf("bad times: start=%v end=%v", r.Start, r.End)
	}
	if r.BlocksRead == 0 || r.Rows != 1 {
		t.Errorf("record = %+v", r)
	}
}

func TestDateTruncWeekQuarterEndToEnd(t *testing.T) {
	bothModes(t, func(t *testing.T, db *Database) {
		mustExec(t, db, `CREATE TABLE events (id BIGINT, at TIMESTAMP)`)
		mustExec(t, db, `INSERT INTO events VALUES (1, '2026-01-01 13:45:07'), (2, '2025-11-15 00:00:00')`)
		res := mustExec(t, db, `SELECT id, date_trunc('week', at) AS w, date_trunc('quarter', at) AS q FROM events ORDER BY id`)
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		wantW := time.Date(2025, 12, 29, 0, 0, 0, 0, time.UTC).UnixMicro()
		wantQ := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
		if res.Rows[0][1].I != wantW || res.Rows[0][2].I != wantQ {
			t.Errorf("row 1: week=%d quarter=%d", res.Rows[0][1].I, res.Rows[0][2].I)
		}
		wantQ2 := time.Date(2025, 10, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
		if res.Rows[1][2].I != wantQ2 {
			t.Errorf("row 2 quarter = %d, want %d", res.Rows[1][2].I, wantQ2)
		}
	})
}
