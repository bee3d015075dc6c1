package redshift

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// chaosSeed picks the fault schedule for the chaos suite. CI pins it via
// CHAOS_SEED for reproducibility; a failure report always includes the seed
// so the exact schedule can be replayed locally:
//
//	CHAOS_SEED=<seed> go test -race -run TestChaos .
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed = %d (replay with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// seedChaosTables loads a fact table plus a joinable dimension so the
// battery exercises scans, shuffles/broadcasts and aggregation.
func seedChaosTables(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	seedEvents(t, w, n)
	w.MustExecute(`CREATE TABLE users (
		id BIGINT NOT NULL, segment VARCHAR(16)
	) DISTSTYLE KEY DISTKEY(id)`)
	var b strings.Builder
	segs := []string{"free", "pro", "enterprise"}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d|%s\n", i, segs[i%3])
	}
	if err := w.PutObject("lake/users/part0.csv", []byte(b.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY users FROM 's3://lake/users/'`)
}

// chaosBattery is the query set both warehouses run; every query orders its
// output so results compare row for row.
var chaosBattery = []string{
	`SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events GROUP BY kind ORDER BY kind`,
	`SELECT user_id, SUM(amount) AS total FROM events WHERE kind = 'buy' GROUP BY user_id ORDER BY user_id`,
	`SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`,
	`SELECT COUNT(*), SUM(amount), MIN(ts), MAX(ts) FROM events WHERE amount >= 5`,
}

func rowsString(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestChaosFaultMaskingMatchesFaultFree is the headline §2.1 claim: with
// ~every read path seeing injected errors and latency spikes, the retry /
// failover / backup tiers mask everything and the battery returns results
// identical to a fault-free twin.
func TestChaosFaultMaskingMatchesFaultFree(t *testing.T) {
	seed := chaosSeed(t)

	clean := launch(t, Options{Nodes: 2})
	seedChaosTables(t, clean, 1000)

	chaos := launch(t, Options{
		Nodes: 2,
		// No decoded-block cache: every scan re-decodes, so every round of
		// the battery keeps exercising the faulty read paths.
		BlockCacheBytes: -1,
		FaultPlan: &FaultPlan{
			Seed: seed,
			Sites: map[string]FaultRule{
				// Primary-read failures force the failover path: secondary
				// replica first, S3 backup tier last. The slow reads are what
				// guarantees latency spikes: the other sites fire a handful of
				// times per run, every block read passes this one.
				"storage.read.primary": {Prob: 0.05, Err: "injected disk error",
					Latency: 50 * time.Microsecond, LatencyProb: 0.05},
				// Secondary fetches fail too — retried with backoff, falling
				// through to the backup tier when they keep failing.
				"cluster.fetch.secondary": {Prob: 0.3, Err: "injected link error",
					Latency: 200 * time.Microsecond, LatencyProb: 0.2},
				// The object tiers and exchange only get latency spikes:
				// slow, never wrong.
				"s3.backup.get":      {Latency: 300 * time.Microsecond, LatencyProb: 0.3},
				"exec.exchange.send": {Latency: 100 * time.Microsecond, LatencyProb: 0.1},
			},
		},
	})
	seedChaosTables(t, chaos, 1000)
	// A backup gives the S3 tier real content to serve when both injected
	// failures line up on the same block.
	if _, _, err := chaos.Backup(); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	want := make([]string, len(chaosBattery))
	for i, q := range chaosBattery {
		want[i] = rowsString(clean.MustExecute(q).Rows)
	}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for i, q := range chaosBattery {
			res, err := chaos.Execute(q)
			if err != nil {
				t.Fatalf("seed %d round %d query %d failed under faults: %v", seed, round, i, err)
			}
			if got := rowsString(res.Rows); got != want[i] {
				t.Errorf("seed %d round %d query %d diverged under faults:\ngot:\n%swant:\n%s",
					seed, round, i, got, want[i])
			}
			assertQuiescent(t, chaos)
		}
	}

	// The faults were actually exercised, not silently skipped.
	var injected, delayed int64
	for _, s := range chaos.Faults().Snapshot() {
		injected += s.Injected
		delayed += s.Delayed
	}
	if injected == 0 {
		t.Errorf("seed %d: no faults injected — the schedule never fired", seed)
	}
	if delayed == 0 {
		t.Errorf("seed %d: no latency spikes delivered", seed)
	}
	t.Logf("masked %d injected errors and %d latency spikes", injected, delayed)

	// Goroutines settle back — generous slack for runtime/test goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Errorf("goroutines grew from %d to %d — worker leak?", before, after)
	}
}

// TestChaosAllReplicasDownFailsCleanly: when every copy of a block is gone
// (both nodes down, no backup), a query must return one descriptive error —
// never hang, panic or leak.
func TestChaosAllReplicasDownFailsCleanly(t *testing.T) {
	w := launch(t, Options{Nodes: 2, BlockCacheBytes: -1})
	seedEvents(t, w, 500)

	w.FailNode(0)
	w.FailNode(1)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.Execute(`SELECT SUM(amount) FROM events`)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("query over a fully dead cluster returned rows")
		}
		if !strings.Contains(o.err.Error(), "no replica available") {
			t.Errorf("error %q does not name the exhausted replica chain", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query hung with all replicas down")
	}
	assertQuiescent(t, w)
}

// TestChaosTimeoutUnderFaultLatency: injected latency pushes the battery
// past a short statement_timeout; the query dies with the timeout error, is
// logged as such, and the warehouse stays healthy for the next statement.
func TestChaosTimeoutUnderFaultLatency(t *testing.T) {
	seed := chaosSeed(t)
	w := launch(t, Options{
		Nodes:           2,
		BlockCacheBytes: -1,
		FaultPlan: &FaultPlan{
			Seed: seed,
			Sites: map[string]FaultRule{
				"storage.read.primary": {Latency: 2 * time.Millisecond, LatencyProb: 1},
			},
		},
	})
	// The timeout goes on after the load: statement_timeout bounds writes
	// too, and a COPY under the race detector does not fit in 5ms.
	seedEvents(t, w, 1000)
	w.MustExecute(`SET statement_timeout TO 5`)

	_, err := w.Execute(`SELECT user_id, SUM(amount) FROM events GROUP BY user_id ORDER BY user_id`)
	if err == nil {
		t.Fatal("slow query beat a 5ms statement_timeout")
	}
	if !strings.Contains(err.Error(), "statement timeout") {
		t.Errorf("error %q does not name the timeout", err)
	}
	// Recovery: lift the timeout over the wire-visible SET and rerun.
	w.MustExecute(`SET statement_timeout TO 0`)
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 1000 {
		t.Errorf("post-timeout count = %d, want 1000", res.Rows[0][0].I)
	}
	assertQuiescent(t, w)
}
