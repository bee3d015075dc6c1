package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/s3sim"
)

func TestWLMLimitsConcurrency(t *testing.T) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 64},
		DataStore: s3sim.New(),
		WLMQueues: []QueueSpec{{Name: DefaultQueueName, Slots: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	// Identical concurrent SELECTs would race the result cache, and a hit
	// skips WLM admission — TotalQueries would undercount.
	mustExec(t, db, `SET result_cache TO off`)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.Execute(`SELECT product_id, SUM(qty) FROM sales GROUP BY product_id`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	stats := defaultQueueStats(t, db)
	if stats.PeakActive > 2 {
		t.Errorf("peak concurrent queries = %d, slots = 2", stats.PeakActive)
	}
	if stats.TotalRun < 16 {
		t.Errorf("total queries = %d", stats.TotalRun)
	}
	if stats.Active != 0 || stats.Queued != 0 {
		t.Errorf("counters not drained: %+v", stats)
	}
}

func TestWLMQueueWaitReported(t *testing.T) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 64},
		DataStore: s3sim.New(),
		WLMQueues: []QueueSpec{{Name: DefaultQueueName, Slots: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedSales(t, db)
	// Occupy the only slot so the query below must queue. (Since planning
	// moved ahead of admission, a query racing other fast queries may never
	// actually wait — holding the slot makes the contention deterministic.)
	held, err := db.wlm.AcquireQueueCtx(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := db.Execute(`SELECT COUNT(*) FROM sales WHERE qty > 1`)
		done <- outcome{res, err}
	}()
	waitUntil(t, "the query queues behind the held slot", func() bool {
		depth, _ := db.QueuePressure()
		return depth == 1
	})
	db.wlm.ReleaseTicket(held)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.QueueWait <= 0 {
		t.Errorf("query queued behind a held slot reported QueueWait = %v", out.res.Stats.QueueWait)
	}
	if out.res.Stats.Queue != DefaultQueueName {
		t.Errorf("queue = %q, want %q", out.res.Stats.Queue, DefaultQueueName)
	}
}

func TestWLMUnlimitedByDefault(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `SET result_cache TO off`) // a cache hit skips WLM admission
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Execute(`SELECT COUNT(*) FROM sales`)
		}()
	}
	wg.Wait()
	stats := defaultQueueStats(t, db)
	if stats.TotalRun != 8 {
		t.Errorf("total = %d", stats.TotalRun)
	}
	if stats.TotalWait != 0 {
		t.Errorf("unlimited WLM accumulated wait %v", stats.TotalWait)
	}
}

func TestWLMAdminStatementsBypassQueue(t *testing.T) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 64},
		DataStore: s3sim.New(),
		WLMQueues: []QueueSpec{{Name: DefaultQueueName, Slots: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the only slot with a held acquire, then run DDL + INSERT:
	// they must not block behind the queue.
	held, err := db.wlm.AcquireQueueCtx(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.wlm.ReleaseTicket(held)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustExec(t, db, `CREATE TABLE free (a BIGINT)`)
		mustExec(t, db, `INSERT INTO free VALUES (1)`)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("admin statements blocked behind the WLM queue")
	}
}

// defaultQueueStats is the default queue's row of the WLM's QueueStats.
func defaultQueueStats(t *testing.T, db *Database) WLMQueueStats {
	t.Helper()
	for _, q := range db.WLMQueueStats() {
		if q.Name == DefaultQueueName {
			return q
		}
	}
	t.Fatal("no default WLM queue")
	return WLMQueueStats{}
}
