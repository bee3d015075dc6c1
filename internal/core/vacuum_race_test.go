package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"redshift/internal/cluster"
	"redshift/internal/s3sim"
)

// TestVacuumConcurrentScanCacheCoherence is the regression for the block
// cache poisoning race the workload replayer exposed: VACUUM rebuilds a
// table's slices into fresh segments that REUSE block identities, and a
// scan that resolved its visible segments before the rewrite could
// re-insert a stale decode into the cache after InvalidateTable had
// already run — every later scan of the rewritten block then read a
// wrong-length (wrong-content) vector and the vectorized filter panicked
// with an index out of range. The cache's per-table epoch fence kills
// both directions (stale hits and stale puts); this test hammers the
// exact interleaving.
func TestVacuumConcurrentScanCacheCoherence(t *testing.T) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 32},
		DataStore: s3sim.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE churn (id BIGINT NOT NULL, v BIGINT) DISTSTYLE KEY DISTKEY(id)`)
	insert := func(base, n int) {
		var b strings.Builder
		b.WriteString(`INSERT INTO churn VALUES `)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", base+i, i%7)
		}
		mustExec(t, db, b.String())
	}
	// Several differently-sized batches: multiple segments whose block row
	// counts change when VACUUM merges them — the shape mismatch that made
	// poisoned cache entries panic rather than silently corrupt.
	for i := 0; i < 4; i++ {
		insert(i*1000, 40+i*17)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Distinct predicates defeat the result cache: every scan
				// really decodes (or cache-hits) blocks.
				q := fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM churn WHERE v <> %d`, (g*31+i)%100+10)
				if _, err := db.Execute(q); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 12; i++ {
		insert(10000+i*1000, 30+i*11)
		if _, err := db.Execute(`VACUUM churn`); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent scan failed during VACUUM churn: %v", err)
	}

	// The final state answers correctly from a coherent cache.
	res := mustExec(t, db, `SELECT COUNT(*) FROM churn`)
	var want int64
	for i := 0; i < 4; i++ {
		want += int64(40 + i*17)
	}
	for i := 0; i < 12; i++ {
		want += int64(30 + i*11)
	}
	if got := res.Rows[0][0].I; got != want {
		t.Errorf("post-churn COUNT(*) = %d, want %d", got, want)
	}
}

// TestVacuumKeepsRowsPublishedPastAStalledWriter is the regression for
// VACUUM dropping rows committed beside it: an INSERT that published under
// an xid later than a still-unpublished writer's (on any table) is outside
// the contiguous-prefix snapshot, yet VACUUM superseded its segments along
// with the ones it had merged — 8 of these 24 rows were gone for good.
func TestVacuumKeepsRowsPublishedPastAStalledWriter(t *testing.T) {
	db := openDB(t, 0)
	mustExec(t, db, `CREATE TABLE b (x BIGINT) SORTKEY(x)`)
	mustExec(t, db, `INSERT INTO b VALUES (9), (2), (7), (1), (8), (3), (12), (11)`)
	mustExec(t, db, `INSERT INTO b VALUES (19), (22), (17), (21), (18), (23), (32), (31)`)
	txm := db.Txns()
	stalled := txm.Begin()
	if _, err := txm.Reserve(stalled); err != nil { // a writer on another table reserves its xid and stalls
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO b VALUES (4), (5), (6), (40), (41), (42), (43), (44)`)
	mustExec(t, db, `VACUUM b`)
	txm.Abort(stalled)
	res := mustExec(t, db, `SELECT COUNT(*), MIN(x), MAX(x) FROM b`)
	if got := fmt.Sprint(res.Rows[0]); got != "24|1|44" {
		t.Errorf("COUNT, MIN, MAX after VACUUM = %s, want 24|1|44", got)
	}
}
