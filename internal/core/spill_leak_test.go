package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
)

// openSpillDB builds a memory-governed database whose every query runs
// under grant bytes and spills into dir. perRead > 0 adds latency to each
// primary block read so in-flight queries are slow enough to abort
// mid-spill deterministically.
func openSpillDB(t *testing.T, grant int64, dir string, perRead time.Duration) *Database {
	t.Helper()
	cfg := Config{
		Cluster:         cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16},
		Mode:            exec.Compiled,
		DataStore:       s3sim.New(),
		BlockCacheBytes: -1,
		QuerySlots:      1,
		WLMSlotMemBytes: grant,
		SpillDir:        dir,
	}
	if perRead > 0 {
		inj := faults.NewInjector(&faults.Plan{Seed: 7, Sites: map[string]faults.Rule{
			faults.SitePrimaryRead: {Latency: perRead, LatencyProb: 1},
		}})
		inj.SetEnabled(true)
		cfg.Faults = inj
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// seedSpillWide loads a table whose GROUP BY id has one group per row, so
// hash aggregation outgrows a KiB-scale grant almost immediately.
func seedSpillWide(t *testing.T, db *Database, rows int) {
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

// TestSpillSuccessReleasesEverything: governed queries that spill on every
// blocking operator still drain clean — memory, batches and scratch files.
func TestSpillSuccessReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	db := openSpillDB(t, 16<<10, dir, 0)
	seedSpillWide(t, db, 6000)

	for _, q := range []string{
		`SELECT id, SUM(val) AS total FROM wide GROUP BY id ORDER BY id`,
		`SELECT a.id, b.val FROM wide a JOIN wide b ON a.id = b.id ORDER BY a.id`,
		`SELECT id, grp, val FROM wide ORDER BY val, id`,
	} {
		res := mustExec(t, db, q)
		if len(res.Rows) != 6000 {
			t.Fatalf("%s: rows = %d, want 6000", q, len(res.Rows))
		}
	}
	if n := db.metrics.Counter("spill_bytes_total").Value(); n == 0 {
		t.Fatal("battery never spilled — grant too generous for the test to mean anything")
	}
	if n := db.metrics.Counter("spilled_queries_total").Value(); n < 3 {
		t.Errorf("spilled_queries_total = %d, want >= 3", n)
	}
	assertQuiescent(t, db)
}

// spilled reports a query whose spill bytes have actually hit disk.
func spilled(q inflight) bool { return q.spill.Bytes() > 0 }

// abortMidSpill starts a slow query, waits until it is demonstrably under
// way — ready(its memory snapshot) — then aborts it via abort(). Returns the
// query error.
func abortMidSpill(t *testing.T, db *Database, query string, ready func(inflight) bool, abort func(qid int64)) error {
	t.Helper()
	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := db.Execute(query)
		done <- outcome{err}
	}()

	// Wait for the query to demonstrably spill (live scratch-dir bytes via
	// the stv_query_memory snapshot), then pull the plug while its
	// operators still hold scratch files open.
	deadline := time.Now().Add(60 * time.Second)
	var target int64
	for target == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never got under way")
		}
		for _, q := range db.runningQueries() {
			if q.mem != nil && ready(q) {
				target = q.id
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	abort(target)
	select {
	case o := <-done:
		return o.err
	case <-time.After(30 * time.Second):
		t.Fatal("aborted query never returned")
		return nil
	}
}

// TestSpillCancelMidSpillCleansUp: CANCEL lands while spill files are
// open and partially written; the query unwinds, deletes its scratch dir,
// returns its memory and frees its WLM slot. A partition's rows reach disk a
// BatchSize-row frame at a time, so a slice must scan some 8×BatchSize rows
// before its first byte is written: 40000 rows put that four fifths into
// the scan.
func TestSpillCancelMidSpillCleansUp(t *testing.T) {
	dir := t.TempDir()
	db := openSpillDB(t, 8<<10, dir, 200*time.Microsecond)
	seedSpillWide(t, db, 40000)

	err := abortMidSpill(t, db, `SELECT id, SUM(val) AS total FROM wide GROUP BY id ORDER BY id`, spilled, func(qid int64) { db.Cancel(qid) })
	if err == nil {
		t.Fatal("cancelled mid-spill query returned a result")
	}
	var sawCancelled bool
	for _, r := range db.QueryLog().Records() {
		if r.State == "cancelled" {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Error("no stl_query record in state 'cancelled'")
	}

	// The slot and scratch space are free for the next statement.
	db.inj.SetEnabled(false)
	res := mustExec(t, db, `SELECT COUNT(*) FROM wide`)
	if res.Rows[0][0].I != 40000 {
		t.Errorf("post-cancel count = %d, want 40000", res.Rows[0][0].I)
	}
	assertQuiescent(t, db)
}

// TestSpillCancelMidLeaderSortCleansUp: CANCEL lands while the leader's
// pipeline is sorting. The query has no join, aggregate or LIMIT, so the
// slices only gather and the first spilled byte is the leader's first run —
// written a few hundred rows into a 40000-row sort, with most gathered
// batches still parked. The cancel must retire exactly those: the ones the
// merge already handed to the pipeline were released there.
func TestSpillCancelMidLeaderSortCleansUp(t *testing.T) {
	dir := t.TempDir()
	db := openSpillDB(t, 8<<10, dir, 0)
	seedSpillWide(t, db, 40000)

	err := abortMidSpill(t, db, `SELECT id, grp, val FROM wide ORDER BY val, id`, spilled, func(qid int64) { db.Cancel(qid) })
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("query cancelled mid-leader-sort returned err = %v", err)
	}
	assertQuiescent(t, db)
	res := mustExec(t, db, `SELECT id FROM wide ORDER BY id LIMIT 3`)
	if len(res.Rows) != 3 || res.Rows[2][0].I != 2 {
		t.Errorf("post-cancel rows = %v", res.Rows)
	}
	assertQuiescent(t, db)
}

// TestSpillDistinctIsCharged: the slice-local DISTINCT's seen-sets — each
// worker's pre-sieve and the ordered tail — grow inside the query's grant, as
// the leader's does (a Deduper cannot spill, so the charge is forced): a
// 50000-distinct-row SELECT DISTINCT shows mem_peak on partial-distinct at
// one worker a slice and at four, and everything charged comes back after the
// statement and after a cancel that lands while the sets are growing.
func TestSpillDistinctIsCharged(t *testing.T) {
	db := openSpillDB(t, 1<<20, t.TempDir(), 50*time.Microsecond)
	seedSpillWide(t, db, 50000)
	mustExec(t, db, `SET result_cache TO off`)
	const query = `SELECT DISTINCT id, grp, val FROM wide`

	for _, dop := range []int{1, 4} {
		mustExec(t, db, fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
		res := mustExec(t, db, `EXPLAIN ANALYZE `+query)
		var line string
		for _, r := range res.Rows {
			if l := strings.TrimSpace(r[0].S); strings.HasPrefix(l, "partial-distinct ") {
				line = l
			}
		}
		if !strings.Contains(line, "rows=50000") || !strings.Contains(line, "mem_peak=") {
			t.Errorf("dop=%d: partial-distinct line = %q, want rows=50000 and a mem_peak", dop, line)
		}
		assertQuiescent(t, db)
	}

	charged := func(q inflight) bool { return q.mem.Used() > 64<<10 }
	err := abortMidSpill(t, db, query, charged, func(qid int64) { db.Cancel(qid) })
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("query cancelled mid-DISTINCT returned err = %v", err)
	}
	assertQuiescent(t, db)
}

// TestSpillTimeoutMidSpillCleansUp: same invariants when the abort comes
// from statement_timeout expiring rather than an explicit CANCEL. The query
// is a slice-local sort whose limit no slice reaches, so each slice writes a
// run per BatchSize rows it scans. One worker a slice reads 312 blocks of the
// one column at 5ms or more apiece and cannot finish inside the second; its
// first run is due after 64 of them, a third of a second in, which leaves
// each sleep 10ms to overrun by.
func TestSpillTimeoutMidSpillCleansUp(t *testing.T) {
	dir := t.TempDir()
	db := openSpillDB(t, 8<<10, dir, 5*time.Millisecond)
	seedSpillWide(t, db, 20000)

	mustExec(t, db, `SET max_parallel_workers TO 1`)
	mustExec(t, db, `SET statement_timeout TO 1000`)
	_, err := db.Execute(`SELECT id FROM wide ORDER BY id LIMIT 1000000`)
	if err == nil {
		t.Fatal("slow spilling query beat a 1s statement_timeout")
	}
	if !strings.Contains(err.Error(), "statement timeout") {
		t.Errorf("error %q does not name the timeout", err)
	}
	if db.metrics.Counter("spill_bytes_total").Value() == 0 {
		t.Error("query timed out before spilling — shrink the grant or slow the reads")
	}

	mustExec(t, db, `SET statement_timeout TO 0`)
	db.inj.SetEnabled(false)
	res := mustExec(t, db, `SELECT COUNT(*) FROM wide`)
	if res.Rows[0][0].I != 20000 {
		t.Errorf("post-timeout count = %d, want 20000", res.Rows[0][0].I)
	}
	assertQuiescent(t, db)
}

// TestStvQueryMemoryVisibility: an in-flight governed query is observable
// through stv_query_memory with its grant, and the row disappears once it
// finishes.
func TestStvQueryMemoryVisibility(t *testing.T) {
	dir := t.TempDir()
	db := openSpillDB(t, 32<<10, dir, 200*time.Microsecond)
	seedSpillWide(t, db, 8000)

	done := make(chan struct{})
	go func() {
		defer close(done)
		db.Execute(`SELECT id, SUM(val) AS total FROM wide GROUP BY id ORDER BY id`)
	}()

	deadline := time.Now().Add(60 * time.Second)
	var saw bool
	for !saw && time.Now().Before(deadline) {
		res, err := db.Execute(`SELECT query, grant_bytes, used_bytes, spill_bytes FROM stv_query_memory`)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if r[1].I != 32<<10 {
				t.Errorf("grant_bytes = %d, want %d", r[1].I, 32<<10)
			}
			saw = true
		}
		time.Sleep(time.Millisecond)
	}
	if !saw {
		t.Error("running governed query never appeared in stv_query_memory")
	}
	<-done

	res := mustExec(t, db, `SELECT COUNT(*) FROM stv_query_memory`)
	if n := res.Rows[0][0].I; n != 0 {
		t.Errorf("stv_query_memory rows after completion = %d, want 0", n)
	}
	assertQuiescent(t, db)
}
