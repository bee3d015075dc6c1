package redshift

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// parallelBattery is the twin suite for morsel-driven execution: the spill
// battery (joins, high-cardinality aggregation, full sorts, DISTINCT) plus
// parallel-sensitive extras — a TopN whose sort key has heavy ties (LIMIT
// cuts mid-tie, so any instability in the per-worker partial sort shows up
// as different ts values), a selective filter, a grand aggregate, and a join
// on neither table's distribution key. The battery's warehouses launch with
// BroadcastRows: 1, which leaves the collocated joins alone and makes that
// last one DS_DIST_BOTH: the plan is cut at the probe shuffle into a
// pre-shuffle pipeline (which may fan out) and a post-shuffle one (which
// reads an exchange and cannot). Every query is fully determined, so
// one-worker and parallel runs must match byte for byte.
var parallelBattery = append(append([]string{}, spillBattery...),
	`SELECT kind, ts FROM events ORDER BY kind LIMIT 100`,
	`SELECT user_id, SUM(amount) AS total FROM events WHERE kind = 'buy'
		GROUP BY user_id ORDER BY user_id`,
	`SELECT COUNT(*), SUM(amount), MIN(ts), MAX(ts) FROM events WHERE amount >= 5`,
	distBothQuery,
)

const distBothQuery = `SELECT e.ts, e.kind, u.segment FROM events e JOIN users u ON e.ts = u.id
	ORDER BY e.ts`

// TestParallelTwinMatchesSerial is the headline invariant: the battery run
// at the automatic worker count (one, on tables this small) and pinned to
// 1, 2 and 4 workers returns bit-identical rows — workers change where the
// work happens, never what it computes.
// Two extra tiers rerun the dop=4 battery under a 64 KiB work_mem (every
// blocking operator spills mid-parallelism) and under the chaos fault plan
// (every worker's scan path sees injected errors and latency spikes).
func TestParallelTwinMatchesSerial(t *testing.T) {
	seed := spillSeed(t)
	const nEvents, nUsers = 8000, 2000

	w := launch(t, Options{Nodes: 2, BroadcastRows: 1})
	seedSpillTables(t, w, seed, nEvents, nUsers)
	// The twin repeats must actually execute, not replay cached rows.
	w.MustExecute(`SET result_cache TO off`)
	if out := rowsString(w.MustExecute(`EXPLAIN ` + distBothQuery).Rows); !strings.Contains(out, "DS_DIST_BOTH") {
		t.Fatalf("battery's shuffle join is not DS_DIST_BOTH:\n%s", out)
	}

	want := make([]string, len(parallelBattery))
	for i, q := range parallelBattery {
		want[i] = rowsString(w.MustExecute(q).Rows)
		if want[i] == "" {
			t.Fatalf("serial reference query %d returned no rows", i)
		}
	}
	// The tables sit far below the auto-DOP row threshold, so the reference
	// battery must have run serially.
	if n := w.Metrics().Counter("morsels_dispatched_total").Value(); n != 0 {
		t.Fatalf("reference battery dispatched %d morsels — auto DOP engaged on a small table", n)
	}

	for _, dop := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
			before := w.Metrics().Counter("morsels_dispatched_total").Value()
			for i, q := range parallelBattery {
				res, err := w.Execute(q)
				if err != nil {
					t.Fatalf("seed %d dop %d query %d failed: %v", seed, dop, i, err)
				}
				if got := rowsString(res.Rows); got != want[i] {
					t.Errorf("seed %d dop %d query %d diverged from serial run:\ngot:\n%swant:\n%s",
						seed, dop, i, got, want[i])
				}
				assertQuiescent(t, w)
			}
			if after := w.Metrics().Counter("morsels_dispatched_total").Value(); (after != before) != (dop > 1) {
				t.Errorf("dop %d battery dispatched %d morsels to workers — fan-out must engage exactly when dop > 1",
					dop, after-before)
			}
		})
	}

	// The forced DOP is surfaced on the base-scan span.
	ex := w.MustExecute(`EXPLAIN ANALYZE ` + parallelBattery[0])
	if out := rowsString(ex.Rows); !strings.Contains(out, "dop=4") {
		t.Errorf("EXPLAIN ANALYZE does not surface dop=4:\n%s", out)
	}
	if n := w.Metrics().Gauge("exec_parallel_workers").Value(); n != 0 {
		t.Errorf("exec_parallel_workers = %d after batteries finished, want 0", n)
	}
	w.MustExecute(`SET max_parallel_workers TO default`)

	t.Run("workMem64KiB", func(t *testing.T) {
		dir := t.TempDir()
		ws := launch(t, Options{Nodes: 2, SpillDir: dir, BroadcastRows: 1})
		seedSpillTables(t, ws, seed, nEvents, nUsers)
		ws.MustExecute(`SET result_cache TO off`)
		ws.MustExecute(`SET work_mem TO '64KB'`)
		ws.MustExecute(`SET max_parallel_workers TO 4`)
		for i, q := range parallelBattery {
			res, err := ws.Execute(q)
			if err != nil {
				t.Fatalf("seed %d spill-tier query %d failed: %v", seed, i, err)
			}
			if got := rowsString(res.Rows); got != want[i] {
				t.Errorf("seed %d spill-tier query %d diverged at dop=4:\ngot:\n%swant:\n%s",
					seed, i, got, want[i])
			}
			assertQuiescent(t, ws)
		}
		if n := ws.Metrics().Counter("spill_bytes_total").Value(); n == 0 {
			t.Error("64KB work_mem never spilled under dop=4 — the governed parallel path was not exercised")
		}
	})

	t.Run("chaosFaults", func(t *testing.T) {
		cseed := chaosSeed(t)
		wc := launch(t, Options{
			Nodes:         2,
			BroadcastRows: 1,
			// No decoded-block cache: every morsel re-decodes, so every
			// round keeps exercising the faulty read paths.
			BlockCacheBytes: -1,
			FaultPlan: &FaultPlan{
				Seed: cseed,
				Sites: map[string]FaultRule{
					"storage.read.primary": {Prob: 0.05, Err: "injected disk error"},
					"cluster.fetch.secondary": {Prob: 0.3, Err: "injected link error",
						Latency: 200 * time.Microsecond, LatencyProb: 0.2},
					"s3.backup.get":      {Latency: 300 * time.Microsecond, LatencyProb: 0.3},
					"exec.exchange.send": {Latency: 100 * time.Microsecond, LatencyProb: 0.1},
				},
			},
		})
		seedSpillTables(t, wc, seed, nEvents, nUsers)
		if _, _, err := wc.Backup(); err != nil {
			t.Fatal(err)
		}
		wc.MustExecute(`SET result_cache TO off`)
		wc.MustExecute(`SET max_parallel_workers TO 4`)
		const rounds = 2
		for round := 0; round < rounds; round++ {
			for i, q := range parallelBattery {
				res, err := wc.Execute(q)
				if err != nil {
					t.Fatalf("seed %d round %d query %d failed under faults at dop=4: %v",
						cseed, round, i, err)
				}
				if got := rowsString(res.Rows); got != want[i] {
					t.Errorf("seed %d round %d query %d diverged under faults at dop=4:\ngot:\n%swant:\n%s",
						cseed, round, i, got, want[i])
				}
				assertQuiescent(t, wc)
			}
		}
		var injected int64
		for _, s := range wc.Faults().Snapshot() {
			injected += s.Injected
		}
		if injected == 0 {
			t.Errorf("seed %d: no faults injected — the schedule never fired", cseed)
		}
	})
}

// pruningBattery pins a DISTSTYLE KEY column with = and IN: such a scan runs
// only on the slices that own the values, so every cluster shape must return
// what one slice does. fk's DOUBLE key holds -0 beside 0, one key to the
// placement hash; a NULL item in an IN list pins nothing, and = NULL pins
// nothing at all.
var pruningBattery = []string{
	`SELECT ts, kind, amount FROM events WHERE user_id = 17 ORDER BY ts`,
	`SELECT ts, user_id FROM events WHERE user_id IN (3, 17, 2500, NULL) ORDER BY ts`,
	`SELECT COUNT(*), SUM(amount) FROM events WHERE user_id IN (5, 6, 7, 8, 9, 10, 11, 12)`,
	`SELECT ts FROM events WHERE user_id = 17 AND ts BETWEEN 100 AND 4000 ORDER BY ts`,
	`SELECT e.ts, u.segment FROM events e JOIN users u ON e.user_id = u.id WHERE e.user_id = 42 ORDER BY e.ts`,
	`SELECT u.id, COUNT(*) FROM events e JOIN users u ON e.user_id = u.id WHERE u.id IN (7, 70, 700)
		GROUP BY u.id ORDER BY u.id`,
	`SELECT COUNT(*) FROM events WHERE user_id = NULL`,
	`SELECT k, v FROM fk WHERE k = 0.0 ORDER BY v`,
	`SELECT k, v FROM fk WHERE k IN (0.0, 1.5, NULL) ORDER BY v`,
	`SELECT COUNT(*) FROM fk WHERE k = 2.5`,
}

// TestParallelTwinDistKeyPruning runs pruningBattery at 1x1, 2x2 and 3x2
// (nodes x slices per node), one worker and four: every shape returns what
// the one-slice cluster returns, and EXPLAIN ANALYZE shows that a multi-slice
// cluster scanned one slice for an = and every slice for = NULL.
func TestParallelTwinDistKeyPruning(t *testing.T) {
	seed := spillSeed(t)
	var want []string
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 2}} {
		nodes, spn := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", nodes, spn), func(t *testing.T) {
			w := launch(t, Options{Nodes: nodes, SlicesPerNode: spn})
			seedSpillTables(t, w, seed, 4000, 1000)
			w.MustExecute(`CREATE TABLE fk (k DOUBLE PRECISION, v BIGINT) DISTSTYLE KEY DISTKEY(k) COMPOUND SORTKEY(k)`)
			var fk strings.Builder
			for i := 0; i < 300; i++ {
				k := fmt.Sprint(float64(i%12) / 2)
				if i%12 == 0 && i%24 != 0 {
					k = "-0.0"
				}
				fmt.Fprintf(&fk, "%s|%d\n", k, i)
			}
			if err := w.PutObject("lake/fk/part0.csv", []byte(fk.String())); err != nil {
				t.Fatal(err)
			}
			w.MustExecute(`COPY fk FROM 's3://lake/fk/'`)
			w.MustExecute(`SET result_cache TO off`)
			for _, dop := range []int{1, 4} {
				w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
				for i, q := range pruningBattery {
					got := rowsString(w.MustExecute(q).Rows)
					if want == nil || len(want) < len(pruningBattery) {
						want = append(want, got)
						continue
					}
					if got != want[i] {
						t.Errorf("seed %d %dx%d dop %d query %d diverged from 1x1:\n%s\ngot:\n%swant:\n%s",
							seed, nodes, spn, dop, i, q, got, want[i])
					}
				}
				assertQuiescent(t, w)
			}
			slices := nodes * spn
			for q, scanned := range map[string]int{pruningBattery[0]: 1, pruningBattery[6]: slices} {
				out := rowsString(w.MustExecute(`EXPLAIN ANALYZE ` + q).Rows)
				if tag := fmt.Sprintf("slices_scanned=%d slices=%d", scanned, slices); !strings.Contains(out, tag) {
					t.Errorf("%dx%d: EXPLAIN ANALYZE %s lacks %q:\n%s", nodes, spn, q, tag, out)
				}
			}
		})
	}
	if want[7] == "" || !strings.Contains(want[7], "-0") {
		t.Errorf("k = 0.0 did not find the stored -0:\n%s", want[7])
	}
}

// TestParallelCancelStorm hammers the morsel workers with concurrent
// sessions, mid-query cancellations and injected read faults, all under a
// spill-forcing work_mem. Whatever mix of success and abort comes out, the
// warehouse must not leak: no tracked memory, no in-flight batches, no
// live workers, no WLM slots, no scratch directories.
func TestParallelCancelStorm(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{
		Nodes:           2,
		BlockCacheBytes: -1,
		SpillDir:        dir,
		FaultPlan: &FaultPlan{
			Seed: seed,
			Sites: map[string]FaultRule{
				// Errors are masked by failover; latency stretches queries so
				// cancellations land mid-morsel instead of before the first scan.
				"storage.read.primary": {Prob: 0.02, Err: "injected disk error",
					Latency: 200 * time.Microsecond, LatencyProb: 0.5},
				"cluster.fetch.secondary": {Latency: 200 * time.Microsecond, LatencyProb: 0.5},
			},
		},
	})
	seedSpillTables(t, w, seed, 4000, 1000)

	queries := []string{
		parallelBattery[0], // high-cardinality aggregation
		parallelBattery[1], // join + aggregation
		parallelBattery[3], // full-table sort
	}
	const readers, queriesEach = 4, 8
	var wg sync.WaitGroup
	errc := make(chan error, readers*queriesEach)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := w.NewSession()
			defer s.Close()
			for _, set := range []string{
				`SET max_parallel_workers TO 4`,
				`SET result_cache TO off`,
				`SET work_mem TO '256KB'`,
			} {
				if _, err := s.Execute(set); err != nil {
					errc <- err
					return
				}
			}
			for i := 0; i < queriesEach; i++ {
				q := queries[(r+i)%len(queries)]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%2 == 1 {
					// Deadlines spread from 1ms to 7ms so cancels land at
					// every stage: queueing, build, mid-morsel, gather.
					d := time.Duration(1+(r*queriesEach+i)%7) * time.Millisecond
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				_, err := s.ExecuteContext(ctx, q)
				cancel()
				if err != nil {
					errc <- err
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("parallel cancel storm did not drain in 60s (hang?)")
	}
	close(errc)

	var aborted int
	for err := range errc {
		msg := err.Error()
		if strings.Contains(msg, "context deadline exceeded") ||
			strings.Contains(msg, "context canceled") ||
			strings.Contains(msg, "cancelled") ||
			strings.Contains(msg, "statement timeout") {
			aborted++
			continue
		}
		t.Errorf("unexpected storm error: %v", err)
	}
	t.Logf("storm: %d of %d queries aborted", aborted, readers*queriesEach)

	// Clean unwinding: every worker exited, every slot and byte returned.
	if n := w.Metrics().Gauge("exec_parallel_workers").Value(); n != 0 {
		t.Errorf("exec_parallel_workers = %d after storm, want 0", n)
	}
	if a := w.DB().WLMQueueStats()[0].Active; a != 0 {
		t.Errorf("wlm active = %d after storm, want 0", a)
	}
	assertQuiescent(t, w)

	// The warehouse is still healthy: a fault-free parallel query completes.
	w.MustExecute(`SET fault_injection TO off`)
	w.MustExecute(`SET max_parallel_workers TO 4`)
	w.MustExecute(`SET result_cache TO off`)
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 4000 {
		t.Errorf("post-storm count = %d, want 4000", res.Rows[0][0].I)
	}
}

// leaderBattery holds the shapes whose work is the leader's: its pipeline's
// source, stages and both result sinks (the sort under ORDER BY, the ordered
// collect without), each with and without the DISTINCT sieve, on inputs that
// stress their edges — every group rejected, LIMIT 0, nothing but ties, an
// empty table, a sort far over a 64 KiB grant. rows pins the result size
// (-1: not pinned), so a twin that is wrong on every tier still fails.
var leaderBattery = []struct {
	name, sql string
	rows      int
}{
	{"distinct-order-limit", `SELECT DISTINCT user_id, kind FROM events ORDER BY user_id DESC, kind LIMIT 50`, 50},
	{"distinct-collect-limit", `SELECT DISTINCT kind FROM events LIMIT 2`, 2},
	{"having-rejects-all", `SELECT ts, COUNT(*) AS n FROM events GROUP BY ts HAVING COUNT(*) > 1 ORDER BY ts`, 0},
	{"having-keeps-some", `SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id HAVING COUNT(*) > 4 ORDER BY n DESC, user_id`, -1},
	{"limit0-sort", `SELECT ts, amount FROM events ORDER BY amount, ts LIMIT 0`, 0},
	{"limit0-collect", `SELECT ts, amount FROM events LIMIT 0`, 0},
	{"limit0-distinct-sort", `SELECT DISTINCT kind FROM events ORDER BY kind LIMIT 0`, 0},
	{"limit0-distinct-collect", `SELECT DISTINCT kind FROM events LIMIT 0`, 0},
	{"limit0-agg", `SELECT kind, COUNT(*) AS n FROM events GROUP BY kind ORDER BY kind LIMIT 0`, 0},
	{"collect-cut-mid-batch", `SELECT ts, user_id FROM events WHERE amount >= 10 LIMIT 777`, 777},
	{"all-tied-sort", `SELECT kind, ts FROM events WHERE kind = 'buy' ORDER BY kind`, -1},
	{"all-tied-top-n", `SELECT kind, ts FROM events WHERE kind = 'buy' ORDER BY kind LIMIT 33`, 33},
	{"empty-sort", `SELECT a, b FROM nothing ORDER BY a`, 0},
	{"empty-distinct", `SELECT DISTINCT b FROM nothing`, 0},
	{"empty-group", `SELECT b, COUNT(*) AS n FROM nothing GROUP BY b ORDER BY b`, 0},
	{"empty-grand", `SELECT COUNT(*), SUM(a) FROM nothing`, 1},
	{"big-leader-sort", leaderSortQuery, 8000},
	{"big-leader-sort-agg", `SELECT ts, SUM(amount) AS total FROM events GROUP BY ts ORDER BY total DESC, ts`, 8000},
}

// leaderSortQuery sorts the whole table at the leader (no LIMIT, so nothing
// is pushed down): ~190 KiB gathered batch by batch, three times the spill
// tier's grant, so the leader's sorter writes runs.
const leaderSortQuery = `SELECT ts, user_id, amount FROM events ORDER BY amount DESC, ts`

// TestSpillParallelLeaderTwin runs the leader battery at 1, 2 and 4 workers,
// each under an unlimited grant and a 64 KiB work_mem: every cell returns the
// reference rows bit for bit, and after every single statement nothing is
// left charged, in flight or on disk.
func TestSpillParallelLeaderTwin(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, SpillDir: dir})
	seedSpillTables(t, w, seed, 8000, 2000)
	w.MustExecute(`CREATE TABLE nothing (a BIGINT, b VARCHAR(8))`)
	w.MustExecute(`SET result_cache TO off`)

	want := make([]string, len(leaderBattery))
	for i, q := range leaderBattery {
		res := w.MustExecute(q.sql)
		if q.rows >= 0 && len(res.Rows) != q.rows {
			t.Fatalf("%s: reference returned %d rows, want %d", q.name, len(res.Rows), q.rows)
		}
		want[i] = rowsString(res.Rows)
		assertQuiescent(t, w)
	}
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n != 0 {
		t.Fatalf("reference battery spilled %d bytes", n)
	}

	for _, workMem := range []string{"default", "64KB"} {
		for _, dop := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("dop%d/work_mem=%s", dop, workMem), func(t *testing.T) {
				w.MustExecute(`SET work_mem TO '` + workMem + `'`)
				w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
				for i, q := range leaderBattery {
					res, err := w.Execute(q.sql)
					if err != nil {
						t.Fatalf("seed %d %s failed: %v", seed, q.name, err)
					}
					if got := rowsString(res.Rows); got != want[i] {
						t.Errorf("seed %d %s diverged from the reference:\ngot:\n%swant:\n%s", seed, q.name, got, want[i])
					}
					assertQuiescent(t, w)
				}
				if workMem == "default" {
					return
				}
				out := rowsString(w.MustExecute(`EXPLAIN ANALYZE ` + leaderSortQuery).Rows)
				for _, line := range strings.Split(out, "\n") {
					if strings.HasPrefix(strings.TrimLeft(line, " "), "finalize ") && !strings.Contains(line, "spill_runs=") {
						t.Errorf("the leader's sort wrote no runs under %s:\n%s", workMem, out)
					}
				}
			})
		}
	}
}
