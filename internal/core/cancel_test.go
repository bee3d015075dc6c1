package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
)

// openSlowDB builds a database whose primary reads each sleep, so queries
// are slow enough to cancel deterministically. The block cache is disabled
// so every scan pays the injected latency.
func openSlowDB(t *testing.T, perRead time.Duration) *Database {
	t.Helper()
	inj := faults.NewInjector(&faults.Plan{Seed: 7, Sites: map[string]faults.Rule{
		faults.SitePrimaryRead: {Latency: perRead, LatencyProb: 1},
	}})
	inj.SetEnabled(true)
	db, err := Open(Config{
		Cluster:         cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16},
		Mode:            exec.Compiled,
		DataStore:       s3sim.New(),
		BlockCacheBytes: -1,
		Faults:          inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestStatementTimeoutAbortsQuery(t *testing.T) {
	db := openSlowDB(t, 2*time.Millisecond)
	seedSales(t, db)

	mustExec(t, db, `SET statement_timeout TO 5`)
	_, err := db.Execute(`SELECT SUM(qty) FROM sales WHERE qty >= 0`)
	if err == nil {
		t.Fatal("slow query beat a 5ms statement_timeout")
	}
	if !strings.Contains(err.Error(), "statement timeout") {
		t.Errorf("error %q does not name the timeout", err)
	}
	mustExec(t, db, `SET statement_timeout TO 0`)
	if _, err := db.Execute(`SELECT SUM(qty) FROM sales WHERE qty >= 0`); err != nil {
		t.Fatalf("query failed with timeout disabled: %v", err)
	}

	recs := db.QueryLog().Records()
	var sawTimeout bool
	for _, r := range recs {
		if r.State == "timeout" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Error("no stl_query record in state 'timeout'")
	}
	assertQuiescent(t, db)
}

func TestContextCancelAbortsQuery(t *testing.T) {
	db := openSlowDB(t, 2*time.Millisecond)
	seedSales(t, db)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := db.ExecuteContext(ctx, `SELECT SUM(qty) FROM sales WHERE qty >= 0`)
	if err == nil {
		t.Fatal("cancelled query returned a result")
	}
	assertQuiescent(t, db)
}

// The satellite scenario: N readers hammered by M cancellers under -race.
// Every query must either succeed or abort cleanly, cancelled runs must be
// logged in state 'cancelled', and nothing may leak.
func TestConcurrentCancellationStorm(t *testing.T) {
	db := openSlowDB(t, time.Millisecond)
	seedSales(t, db)

	const readers, queriesEach, cancellers = 4, 6, 2
	var cancelled atomic.Int64
	var readerWG, cancelWG sync.WaitGroup
	stop := make(chan struct{})

	for m := 0; m < cancellers; m++ {
		cancelWG.Add(1)
		go func() {
			defer cancelWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rq := range db.runningQueries() {
					if db.Cancel(rq.id) {
						cancelled.Add(1)
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	errs := make([][]error, readers)
	for n := 0; n < readers; n++ {
		readerWG.Add(1)
		go func(n int) {
			defer readerWG.Done()
			for i := 0; i < queriesEach; i++ {
				_, err := db.Execute(`SELECT region, SUM(qty) FROM sales WHERE qty >= 0 GROUP BY region`)
				errs[n] = append(errs[n], err)
			}
		}(n)
	}

	// Join the readers first (with a hang backstop), then stop the cancellers.
	done := make(chan struct{})
	go func() {
		readerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation storm did not drain in 30s (hang?)")
	}
	close(stop)
	cancelWG.Wait()

	var sawCancelled int
	for n := range errs {
		for _, err := range errs[n] {
			if err == nil {
				continue
			}
			if !strings.Contains(err.Error(), "cancelled on user request") {
				t.Errorf("unexpected query error: %v", err)
			}
			sawCancelled++
		}
	}
	if cancelled.Load() > 0 && sawCancelled == 0 {
		t.Error("cancels were delivered but no query reported a cancelled error")
	}

	var logged int
	for _, r := range db.QueryLog().Records() {
		if r.State == "cancelled" {
			logged++
		}
	}
	if sawCancelled > 0 && logged == 0 {
		t.Error("no stl_query record in state 'cancelled'")
	}
	// Clean unwinding: no leaked WLM slots, read views or batches.
	assertQuiescent(t, db)

	// The database is still healthy: a fault-free query runs to completion.
	res := mustExec(t, db, `SELECT COUNT(*) FROM sales`)
	if res.Rows[0][0].I != 1000 {
		t.Errorf("post-storm count = %d, want 1000", res.Rows[0][0].I)
	}
}

func TestCancelUnknownQuery(t *testing.T) {
	db := openDB(t, exec.Compiled)
	if db.Cancel(9999) {
		t.Error("Cancel(9999) reported success with nothing running")
	}
	if _, err := db.Execute(`CANCEL 9999`); err == nil {
		t.Error("CANCEL of unknown query id succeeded")
	}
}

func TestSetStatementOptions(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `SET statement_timeout TO 250`)
	if got := db.StatementTimeout(); got != 250*time.Millisecond {
		t.Errorf("statement_timeout = %v, want 250ms", got)
	}
	if _, err := db.Execute(`SET statement_timeout TO -1`); err == nil {
		t.Error("negative timeout accepted")
	}
	// No fault plan configured: the toggle must say so.
	if _, err := db.Execute(`SET fault_injection TO on`); err == nil {
		t.Error("fault_injection toggled without a configured plan")
	}
	if _, err := db.Execute(`SET bogus_option TO 1`); err == nil {
		t.Error("unknown option accepted")
	}

	inj := faults.NewInjector(&faults.Plan{Seed: 1})
	db2, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 1},
		Mode:      exec.Compiled,
		DataStore: s3sim.New(),
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, `SET fault_injection TO off`)
	if inj.Enabled() {
		t.Error("injector still enabled after SET ... off")
	}
	mustExec(t, db2, `SET fault_injection TO on`)
	if !inj.Enabled() {
		t.Error("injector not enabled after SET ... on")
	}
}

// stv_faults, stv_inflight and stv_node_health answer through plain SQL.
func TestFaultSystemTables(t *testing.T) {
	inj := faults.NewInjector(&faults.Plan{Seed: 9, Sites: map[string]faults.Rule{
		faults.SitePrimaryRead: {Prob: 0.5},
	}})
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 1, BlockCap: 16},
		Mode:      exec.Compiled,
		DataStore: s3sim.New(),
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT name, prob FROM stv_faults`)
	found := false
	for _, row := range res.Rows {
		if row[0].S == faults.SitePrimaryRead {
			found = true
			if row[1].F != 0.5 {
				t.Errorf("stv_faults prob = %v, want 0.5", row[1].F)
			}
		}
	}
	if !found {
		t.Errorf("stv_faults does not list %s", faults.SitePrimaryRead)
	}

	res = mustExec(t, db, `SELECT node, quarantined FROM stv_node_health ORDER BY node`)
	if len(res.Rows) != 2 {
		t.Fatalf("stv_node_health rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].I != 0 {
			t.Errorf("node %d unexpectedly quarantined", row[0].I)
		}
	}

	res = mustExec(t, db, `SELECT COUNT(*) FROM stv_inflight`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("stv_inflight = %d rows while idle, want 0", res.Rows[0][0].I)
	}
}

// stl_query's state column distinguishes success from error.
func TestQueryStateLogged(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `SELECT COUNT(*) FROM sales`)
	if _, err := db.Execute(`SELECT missing_col FROM sales`); err == nil {
		t.Fatal("bad query succeeded")
	}
	res := mustExec(t, db, `SELECT state, COUNT(*) FROM stl_query WHERE querytxt LIKE 'SELECT%' GROUP BY state ORDER BY state`)
	states := map[string]int64{}
	for _, row := range res.Rows {
		states[row[0].S] = row[1].I
	}
	if states["success"] == 0 {
		t.Error("no successful query logged")
	}
	if states["error"] == 0 {
		t.Error("failed query not logged in state 'error'")
	}
}
