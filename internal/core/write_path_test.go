package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
)

// writeBenchDB opens a 2×2-slice database holding the measured benchmark's
// fact table, empty.
func writeBenchDB(tb testing.TB) *Database {
	tb.Helper()
	db, err := Open(Config{Cluster: cluster.Config{Nodes: 2, SlicesPerNode: 2}, DataStore: s3sim.New()})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Execute(`CREATE TABLE fact (
		f_order BIGINT NOT NULL, f_date DATE NOT NULL, f_cust BIGINT, f_prod BIGINT, f_store BIGINT,
		f_qty BIGINT, f_price DOUBLE PRECISION, f_status VARCHAR(12), f_note VARCHAR(32)
	) DISTSTYLE KEY DISTKEY(f_order) COMPOUND SORTKEY(f_date)`); err != nil {
		tb.Fatal(err)
	}
	return db
}

// The forms factRow renders a fact row in: a delimited line, a JSON record,
// a VALUES tuple.
const (
	factLine   = "%d|2014-%02d-%02d|%d|%d|%d|%d|%.2f|%s|tag%d-%x\n"
	factJSON   = `{"f_order": %d, "f_date": "2014-%02d-%02d", "f_cust": %d, "f_prod": %d, "f_store": %d, "f_qty": %d, "f_price": %.2f, "f_status": %q, "f_note": "tag%d-%x"}` + "\n"
	factValues = "(%d, '2014-%02d-%02d', %d, %d, %d, %d, %.2f, '%s', 'tag%d-%x')"
)

// factRow renders fact row i of n, dates ascending with i.
func factRow(i, n int, layout string) string {
	statuses := []string{"open", "shipped", "returned", "cancelled", "pending"}
	day := i * 336 / n
	return fmt.Sprintf(layout, i/2, 1+day/28, 1+day%28, i*7919%50021, i*31%5003, i%200, 1+i%40,
		float64(1+i*13%4000)*0.25, statuses[i%len(statuses)], 10+i%64, uint64(i)*0x9e3779b97f4a7c15)
}

// putFact writes n fact rows, dealt over eight objects under lake/fact/, as
// delimited text ("csv"), JSON records or gzipped delimited text, and
// returns the COPY that loads them.
func putFact(tb testing.TB, db *Database, n int, format string) (copySQL string) {
	tb.Helper()
	layout, clause := factLine, map[string]string{"json": " FORMAT JSON", "gzip": " GZIP"}[format]
	if format == "json" {
		layout = factJSON
	}
	parts := make([]bytes.Buffer, 8)
	for i := 0; i < n; i++ {
		parts[i%8].WriteString(factRow(i, n, layout))
	}
	for i := range parts {
		data := parts[i].Bytes()
		if format == "gzip" {
			var z bytes.Buffer
			w := gzip.NewWriter(&z)
			w.Write(data)
			w.Close()
			data = z.Bytes()
		}
		if err := db.cfg.DataStore.Put(fmt.Sprintf("lake/fact/part%02d", i), data); err != nil {
			tb.Fatal(err)
		}
	}
	return `COPY fact FROM 's3://lake/fact/'` + clause
}

// copyFact loads n fact rows from eight delimited objects.
func copyFact(tb testing.TB, db *Database, n int) {
	tb.Helper()
	mustExecTB(tb, db, putFact(tb, db, n, "csv"))
}

func mustExecTB(tb testing.TB, db *Database, query string) {
	tb.Helper()
	if _, err := db.Execute(query); err != nil {
		tb.Fatalf("Execute(%.40q): %v", query, err)
	}
}

// insertFact parses an INSERT of rows fact rows.
func insertFact(tb testing.TB, rows int) sql.Statement {
	tb.Helper()
	tuples := make([]string, rows)
	for i := range tuples {
		tuples[i] = factRow(i, rows, factValues)
	}
	stmt, err := sql.Parse("INSERT INTO fact VALUES " + strings.Join(tuples, ", "))
	if err != nil {
		tb.Fatal(err)
	}
	return stmt
}

// measured runs fn and returns what it allocated.
func measured(tb testing.TB, fn func() error) (mallocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// reportPerRow reports a benchmark's rows/s, allocs/row and B/row.
func reportPerRow(b *testing.B, rows int, mallocs, bytes uint64) {
	n := float64(b.N) * float64(rows)
	b.ReportMetric(n/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(mallocs)/n, "allocs/row")
	b.ReportMetric(float64(bytes)/n, "B/row")
}

// BenchmarkCopy loads 100 000 fact rows from eight objects into an empty
// table.
func BenchmarkCopy(b *testing.B) {
	const rows = 100_000
	for _, format := range []string{"csv", "json", "gzip"} {
		b.Run(format, func(b *testing.B) {
			var mallocs, bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := writeBenchDB(b)
				copySQL := putFact(b, db, rows, format)
				b.StartTimer()
				m, n := measured(b, func() error { _, err := db.Execute(copySQL); return err })
				mallocs, bytes = mallocs+m, bytes+n
			}
			reportPerRow(b, rows, mallocs, bytes)
		})
	}
}

// BenchmarkInsert runs one parsed INSERT … VALUES of 1, 50 and 1000 rows,
// the trickle loader's statement, into a table that already holds a load.
func BenchmarkInsert(b *testing.B) {
	for _, rows := range []int{1, 50, 1000} {
		b.Run(fmt.Sprint(rows), func(b *testing.B) {
			db := writeBenchDB(b)
			copyFact(b, db, 20_000)
			stmt := insertFact(b, rows)
			var mallocs, bytes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, n := measured(b, func() error { _, err := db.ExecuteStmt(stmt); return err })
				mallocs, bytes = mallocs+m, bytes+n
			}
			reportPerRow(b, rows, mallocs, bytes)
		})
	}
}

// BenchmarkVacuum rewrites a table of one large sorted run and eight
// 50-row runs: what the trickle loader leaves the automatic VACUUM.
func BenchmarkVacuum(b *testing.B) {
	const rows = 50_000
	stmt := insertFact(b, 50)
	var mallocs, bytes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := writeBenchDB(b)
		copyFact(b, db, rows)
		for j := 0; j < 8; j++ {
			if _, err := db.ExecuteStmt(stmt); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		m, n := measured(b, func() error { _, err := db.Execute("VACUUM fact"); return err })
		mallocs, bytes = mallocs+m, bytes+n
	}
	reportPerRow(b, rows+8*50, mallocs, bytes)
}

// BenchmarkAnalyze recomputes the statistics of a 100 000-row table one COPY
// loaded, one run per slice, and of the table 64 INSERTs of 200 rows leave:
// 64 small runs per slice, the trickle loader's shape.
func BenchmarkAnalyze(b *testing.B) {
	for _, shape := range []struct {
		name          string
		rows, inserts int
	}{{"1run", 100_000, 0}, {"64runs", 200, 64}} {
		b.Run(shape.name, func(b *testing.B) {
			db := writeBenchDB(b)
			rows := shape.rows
			if shape.inserts == 0 {
				copyFact(b, db, rows)
			} else {
				stmt := insertFact(b, rows)
				for i := 0; i < shape.inserts; i++ {
					if _, err := db.ExecuteStmt(stmt); err != nil {
						b.Fatal(err)
					}
				}
				rows *= shape.inserts
			}
			var mallocs, bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, n := measured(b, func() error { _, err := db.Execute("ANALYZE fact"); return err })
				mallocs, bytes = mallocs+m, bytes+n
			}
			reportPerRow(b, rows, mallocs, bytes)
		})
	}
}

// TestWritePathAllocationBudget: the statements of the write path allocate
// per column vector and per block, not per row. A delimited COPY made 2.04
// allocations a row and ANALYZE 1.01 when both moved boxed rows; and the
// trickle loader's 50-row INSERT must not pay for the bulk path: it made
// insertAllocsBefore allocations then (BenchmarkInsert/50 at that commit,
// 11.15 a row).
func TestWritePathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const rows = 50_000
	db := writeBenchDB(t)
	copySQL := putFact(t, db, rows, "csv")
	mallocs, _ := measured(t, func() error { _, err := db.Execute(copySQL); return err })
	if perRow := float64(mallocs) / rows; perRow > 0.1 {
		t.Errorf("COPY made %.3f allocations a row (%d for %d rows), budget 0.1", perRow, mallocs, rows)
	}
	mallocs, _ = measured(t, func() error { _, err := db.Execute("ANALYZE fact"); return err })
	if perRow := float64(mallocs) / rows; perRow > 0.1 {
		t.Errorf("ANALYZE made %.3f allocations a row (%d for %d rows), budget 0.1", perRow, mallocs, rows)
	}
	stmt := insertFact(t, 50)
	const insertAllocsBefore, runs = 557, 20
	mallocs, _ = measured(t, func() error {
		for i := 0; i < runs; i++ {
			if _, err := db.ExecuteStmt(stmt); err != nil {
				return err
			}
		}
		return nil
	})
	if mallocs/runs > insertAllocsBefore {
		t.Errorf("a 50-row INSERT made %d allocations, %d with the row writer", mallocs/runs, insertAllocsBefore)
	}
}

// A COPY that fails in several of its eight objects names the lowest one,
// leaves no worker parsing behind it, nothing held and nothing loaded — and
// the next COPY of good objects goes through.
func TestFailedCopyLeavesNothingBehind(t *testing.T) {
	db := writeBenchDB(t)
	copySQL := putFact(t, db, 40_000, "csv")
	good := func(i int) string { return fmt.Sprintf("lake/fact/part%02d", i) }
	keep, err := db.cfg.DataStore.Get(good(2))
	if err != nil {
		t.Fatal(err)
	}
	db.cfg.DataStore.Put(good(2), append(append([]byte{}, keep...), "7|2014-01-01|x\n"...))
	for _, i := range []int{3, 5, 7} {
		db.cfg.DataStore.Put(good(i), []byte("not a row\n"))
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := db.Execute(copySQL)
		if err == nil || !strings.Contains(err.Error(), "part02: line 5001:") {
			t.Fatalf("COPY error = %v, want part02's line 5001", err)
		}
		if err := db.Quiescent(); err != nil {
			t.Fatal(err)
		}
		// A worker that has reported in may still be on its way out; none
		// may still be reading.
		gets := db.cfg.DataStore.Stats().Gets
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before || db.cfg.DataStore.Stats().Gets != gets {
			t.Fatalf("%d goroutines after the failed COPY (%d before), %d objects fetched after it",
				n, before, db.cfg.DataStore.Stats().Gets-gets)
		}
	}
	if res := mustExec(t, db, "SELECT COUNT(*) FROM fact"); res.Rows[0][0].I != 0 {
		t.Errorf("failed COPYs loaded %d rows", res.Rows[0][0].I)
	}
	copyFact(t, db, 1000)
	if res := mustExec(t, db, "SELECT COUNT(*) FROM fact"); res.Rows[0][0].I != 1000 {
		t.Errorf("COPY after the failures loaded %d rows", res.Rows[0][0].I)
	}
}

// Every statement of the write path reports where its time went: child
// spans of its query span, each with rows and bytes, that fit inside it;
// and loads count into /metrics.
func TestWriteStatementsRecordPhases(t *testing.T) {
	db := writeBenchDB(t)
	copySQL := putFact(t, db, 5000, "csv")
	phases := func(res *Result) string {
		t.Helper()
		var names []string
		for _, sp := range res.Trace.Children() {
			names = append(names, sp.Name())
			if sp.Attr("rows") <= 0 || (sp.Name() != "stats" && sp.Name() != "parse" && sp.Attr("bytes") <= 0) {
				t.Errorf("%s: %s has rows=%d bytes=%d", res.Message, sp.Name(), sp.Attr("rows"), sp.Attr("bytes"))
			}
			if sp.Duration() > res.Trace.Duration() {
				t.Errorf("%s: %s took %v of the statement's %v", res.Message, sp.Name(), sp.Duration(), res.Trace.Duration())
			}
		}
		return strings.Join(names, " ")
	}
	for _, step := range []struct{ sql, want string }{
		{copySQL, "parse distribute+sort encode replicate stats"},
		{"INSERT INTO fact VALUES " + factRow(1, 2, factValues), "parse distribute+sort encode replicate stats"},
		{"VACUUM fact", "distribute+sort encode replicate"},
		{"ANALYZE fact", "stats"},
	} {
		if got := phases(mustExec(t, db, step.sql)); got != step.want {
			t.Errorf("%.12s: phases %q, want %q", step.sql, got, step.want)
		}
	}
	metrics := db.metrics.Render()
	for _, want := range []string{"load_rows_total 5001\n", "load_seconds_total ", "load_bytes_total "} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if db.metrics.Counter("load_bytes_total").Value() <= 0 {
		t.Error("load_bytes_total is zero after a COPY")
	}
}
