package redshift

import (
	"fmt"
	"strings"
	"testing"
)

// launch builds a small warehouse with multi-block tables.
func launch(t *testing.T, opts Options) *Warehouse {
	t.Helper()
	if opts.BlockCap == 0 {
		opts.BlockCap = 64
	}
	w, err := Launch(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// assertQuiescent checks that the warehouse's database is at rest: every
// exit path of every statement so far returned its slot, memory, batches,
// scratch files, read view and superseded segments (core.Database.Quiescent).
func assertQuiescent(t *testing.T, w *Warehouse) {
	t.Helper()
	if err := w.DB().Quiescent(); err != nil {
		t.Error(err)
	}
}

func seedEvents(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	w.MustExecute(`CREATE TABLE events (
		ts BIGINT NOT NULL, user_id BIGINT, kind VARCHAR(16), amount DOUBLE PRECISION
	) DISTSTYLE KEY DISTKEY(user_id) COMPOUND SORTKEY(ts)`)
	var b strings.Builder
	kinds := []string{"view", "click", "buy"}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d|%d|%s|%g\n", 1000+i, i%100, kinds[i%3], float64(i%50)/2)
	}
	if err := w.PutObject("lake/events/part0.csv", []byte(b.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY events FROM 's3://lake/events/'`)
}

func TestQuickstartLifecycle(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 1000)

	res := w.MustExecute(`SELECT kind, COUNT(*) AS n, SUM(amount) AS total
		FROM events GROUP BY kind ORDER BY kind`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	var n int64
	for _, r := range res.Rows {
		n += r[1].I
	}
	if n != 1000 {
		t.Errorf("total = %d", n)
	}
}

func TestBackupRestoreLifecycle(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 500)
	before := w.MustExecute(`SELECT COUNT(*), SUM(amount) FROM events`).Rows[0]

	id, stats, err := w.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksUploaded == 0 {
		t.Fatal("nothing uploaded")
	}
	if got := w.Backups(); len(got) != 1 || got[0] != id {
		t.Errorf("Backups = %v", got)
	}

	// Friday-delete / Monday-restore (§2.3): new cluster, different size.
	if err := w.Restore(id, 1); err != nil {
		t.Fatal(err)
	}
	if w.Nodes() != 1 {
		t.Errorf("restored nodes = %d", w.Nodes())
	}
	// Streaming restore: query before any background fetch completes.
	after := w.MustExecute(`SELECT COUNT(*), SUM(amount) FROM events`).Rows[0]
	if after[0].I != before[0].I || after[1].F != before[1].F {
		t.Fatalf("restored data differs: %v vs %v", after, before)
	}
	// Finish the background fetch; second run must be identical.
	if _, err := w.FinishRestore(4); err != nil {
		t.Fatal(err)
	}
	again := w.MustExecute(`SELECT COUNT(*), SUM(amount) FROM events`).Rows[0]
	if again[0].I != before[0].I {
		t.Error("data changed after background restore")
	}
}

// TestAnalyzeCompressionDuringStreamingRestore: between Restore and
// FinishRestore most blocks are still in S3; ANALYZE COMPRESSION page-faults
// the ones it samples like every other reader, instead of skipping them.
func TestAnalyzeCompressionDuringStreamingRestore(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 500)
	want := rowsString(w.MustExecute(`ANALYZE COMPRESSION events`).Rows)
	if want == "" {
		t.Fatal("ANALYZE COMPRESSION returned nothing on the source")
	}
	id, _, err := w.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Restore(id, 2); err != nil {
		t.Fatal(err)
	}
	if got := rowsString(w.MustExecute(`ANALYZE COMPRESSION events`).Rows); got != want {
		t.Errorf("ANALYZE COMPRESSION before FinishRestore:\n%swant:\n%s", got, want)
	}
}

func TestIncrementalBackupSharesBlocks(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 300)
	_, s1, err := w.Backup()
	if err != nil {
		t.Fatal(err)
	}
	// Append a little and back up again: only new blocks upload.
	w.MustExecute(`INSERT INTO events VALUES (99999, 1, 'click', 0.5)`)
	_, s2, err := w.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if s2.BlocksUploaded >= s1.BlocksUploaded {
		t.Errorf("second backup uploaded %d blocks vs first %d; should be incremental", s2.BlocksUploaded, s1.BlocksUploaded)
	}
	// GC after deleting the first backup keeps shared blocks.
	first := w.Backups()[0]
	if err := w.DeleteBackup(first); err != nil {
		t.Fatal(err)
	}
	if _, err := w.GCBackups(); err != nil {
		t.Fatal(err)
	}
	second := w.Backups()[0]
	if err := w.Restore(second, 2); err != nil {
		t.Fatalf("restore after GC: %v", err)
	}
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 301 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestDisasterRecoveryRegion(t *testing.T) {
	w := launch(t, Options{Nodes: 2, DisasterRecovery: true})
	seedEvents(t, w, 200)
	id, _, err := w.Backup()
	if err != nil {
		t.Fatal(err)
	}
	// Burn down the primary backup region.
	for _, key := range w.backupS3.List("") {
		w.backupS3.Drop(key)
	}
	if err := w.Restore(id, 2); err != nil {
		t.Fatalf("DR restore: %v", err)
	}
	if _, err := w.FinishRestore(2); err != nil {
		t.Fatal(err)
	}
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestResizeLifecycle(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 400)
	stats, err := w.Resize(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromNodes != 2 || stats.ToNodes != 4 || stats.Rows != 400 {
		t.Errorf("stats = %+v", stats)
	}
	if w.Nodes() != 4 {
		t.Errorf("nodes = %d", w.Nodes())
	}
	res := w.MustExecute(`SELECT COUNT(*) FROM events WHERE kind = 'buy'`)
	if res.Rows[0][0].I != 133 { // i%3==2 for i in [0,400)
		t.Errorf("post-resize count = %v", res.Rows[0][0])
	}
}

func TestNodeFailureAndReplacement(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedEvents(t, w, 600)
	before := w.MustExecute(`SELECT SUM(amount) FROM events`).Rows[0][0]

	w.FailNode(1)
	during := w.MustExecute(`SELECT SUM(amount) FROM events`).Rows[0][0]
	if during.F != before.F {
		t.Fatalf("answer changed during failure: %v vs %v", during, before)
	}
	blocks, bytes, err := w.ReplaceNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if blocks == 0 || bytes == 0 {
		t.Errorf("replacement rebuilt %d blocks / %d bytes", blocks, bytes)
	}
	after := w.MustExecute(`SELECT SUM(amount) FROM events`).Rows[0][0]
	if after.F != before.F {
		t.Errorf("answer changed after replacement")
	}
}

func TestInterpretedEngineOption(t *testing.T) {
	w := launch(t, Options{Nodes: 1, Interpreted: true})
	seedEvents(t, w, 100)
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 100 {
		t.Errorf("interpreted count = %v", res.Rows[0][0])
	}
}

// TestGuardedErrorsBothEngines: an operand that can raise is evaluated only
// on the rows its guard — the left of AND/OR, a CASE condition — leaves
// undecided, on the compiled engine as on the interpreted one; unguarded, it
// fails the statement on both.
func TestGuardedErrorsBothEngines(t *testing.T) {
	cases := []struct{ query, want string }{
		{`SELECT x FROM t WHERE y <> 0 AND x / y > 2 ORDER BY x`, "[9 10]"},
		{`SELECT x FROM t WHERE y = 0 OR x / y > 2 ORDER BY x`, "[5 9 10]"},
		{`SELECT CASE WHEN y <> 0 THEN x / y ELSE 0 END AS v FROM t WHERE x < 11 ORDER BY v`, "[0 3 5]"},
		// A NULL guard decides nothing under AND, everything it is not under OR.
		{`SELECT x FROM t WHERE y <> 0 AND x % y = 0 ORDER BY x`, "[9 10]"},
		{`SELECT x FROM t WHERE (y IS NULL OR y <> 0) AND COALESCE(x / y, 7) > 4 ORDER BY x`, "[10 11]"},
		{`SELECT x FROM t WHERE y IS NOT NULL AND (y = 0 OR x / y > 4) ORDER BY x`, "[5 10]"},
		// Nested: a CASE inside a guarded conjunct, a guard inside a CASE.
		{`SELECT x FROM t WHERE x > 5 AND CASE WHEN y > 2 THEN x / (y - 2) > 8 ELSE y = 2 END ORDER BY x`, "[9 10]"},
		{`SELECT CASE WHEN y = 0 THEN -1 WHEN y <> 0 AND 20 / y > 7 THEN 20 / y END AS v FROM t ORDER BY v`, "[NULL NULL -1 10]"},
		// The guard excludes every row: the operand is never evaluated.
		{`SELECT COUNT(*) FROM t WHERE x > 100 AND x / 0 > 1`, "[0]"},
		{`SELECT x FROM t WHERE y = 0 AND x / y > 1`, ""},
		// Integer and float branches in one CASE.
		{`SELECT CASE WHEN y <> 0 THEN 1 ELSE 2.5 END AS v FROM t ORDER BY v`, "[1.0 1.0 2.5 2.5]"},
		{`SELECT x FROM t WHERE CASE WHEN y <> 0 THEN x ELSE 0.5 END > 9.5 ORDER BY x`, "[10]"},
		{`SELECT x / y FROM t`, ""},
		{`SELECT x FROM t WHERE x / y > 2 AND y <> 0`, ""},
		{`SELECT x FROM t WHERE x > 100 OR x / 0 > 1`, ""},
	}
	for _, interpreted := range []bool{false, true} {
		w := launch(t, Options{Nodes: 1, Interpreted: interpreted})
		w.MustExecute(`CREATE TABLE t (x BIGINT, y BIGINT)`)
		w.MustExecute(`INSERT INTO t VALUES (5, 0), (9, 3), (10, 2), (11, NULL)`)
		for _, c := range cases {
			res, err := w.Execute(c.query)
			switch {
			case c.want == "" && (err == nil || !strings.Contains(err.Error(), "division by zero")):
				t.Errorf("interpreted=%v %s: error = %v, want division by zero", interpreted, c.query, err)
			case c.want != "" && err != nil:
				t.Errorf("interpreted=%v %s: %v", interpreted, c.query, err)
			case c.want != "":
				var got []string
				for _, r := range res.Rows {
					got = append(got, r[0].String())
				}
				if fmt.Sprint(got) != c.want {
					t.Errorf("interpreted=%v %s = %v, want %s", interpreted, c.query, got, c.want)
				}
			}
		}
		assertQuiescent(t, w)
	}
}

func TestLaunchDefaults(t *testing.T) {
	w, err := Launch(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Nodes() != 2 {
		t.Errorf("default nodes = %d", w.Nodes())
	}
	if _, err := w.Execute(`SELECT 1`); err == nil {
		t.Log("leader-only SELECT unsupported by design (documented)")
	}
}

func TestMustExecutePanics(t *testing.T) {
	w := launch(t, Options{Nodes: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("MustExecute did not panic")
		}
	}()
	w.MustExecute(`SELECT * FROM missing`)
}

// TestArchitectureTopology is the F3 check from DESIGN.md: the structural
// claims of Figure 3 hold — a leader endpoint over compute nodes sliced per
// core, synchronous in-cluster replication, and S3 beneath everything as
// the third replica and backup target.
func TestArchitectureTopology(t *testing.T) {
	w := launch(t, Options{Nodes: 3, SlicesPerNode: 4})
	cl := w.DB().Cluster()
	if cl.NumNodes() != 3 || cl.NumSlices() != 12 {
		t.Fatalf("topology = %d nodes / %d slices", cl.NumNodes(), cl.NumSlices())
	}
	// Slices partition nodes evenly (one per "core").
	for i := 0; i < cl.NumSlices(); i++ {
		if cl.Slice(i).Node.ID != i/4 {
			t.Fatalf("slice %d on node %d", i, cl.Slice(i).Node.ID)
		}
	}
	// The leader accepts SQL and coordinates: a leader-only query touches
	// no compute node.
	res := w.MustExecute(`SELECT 1`)
	if res.Stats.RowsScanned != 0 || res.Rows[0][0].I != 1 {
		t.Fatalf("leader-local query = %+v", res)
	}
	// Writes replicate synchronously inside the cluster...
	w.MustExecute(`CREATE TABLE t (a BIGINT)`)
	w.MustExecute(`INSERT INTO t VALUES (1), (2), (3)`)
	if cl.NetBytes() == 0 {
		t.Fatal("no replication traffic for a write")
	}
	// ...and S3 sits beneath as the backup/restore layer.
	if _, _, err := w.Backup(); err != nil {
		t.Fatal(err)
	}
	if w.BackupStore().NumObjects() == 0 {
		t.Fatal("backup produced no S3 objects")
	}
}
