package redshift

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redshift/internal/faults"
)

// This file is the elasticity half of the chaos suite: the PR's headline
// claim is that the full fault battery passes DURING a live online resize
// with concurrent read and write traffic — reads stay bit-identical to a
// fault-free static twin across the endpoint swap, and writes never get
// lost (they may see retryable rejections only inside the bounded cutover
// window). Run with `make chaos-resize`.

// resizeWriter keeps inserting into its own table for the whole resize,
// treating retryable rejections per the client contract: back off and
// resend the same statement. It reports how many rows landed and how many
// retryable rejections it absorbed; any non-retryable failure is fatal
// (a lost write).
type resizeWriter struct {
	landed  atomic.Int64
	retried atomic.Int64
	fatal   atomic.Value // error
}

func (rw *resizeWriter) run(w *Warehouse, id int, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		stmt := fmt.Sprintf(`INSERT INTO audit VALUES (%d, %d)`, id, i)
		for {
			_, err := w.Execute(stmt)
			if err == nil {
				rw.landed.Add(1)
				break
			}
			if !faults.Retryable(err) {
				rw.fatal.Store(err)
				return
			}
			rw.retried.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}

// TestChaosResizeLiveTraffic runs the PR-4 fault battery concurrently with
// an online resize and live writers. Invariants checked:
//
//   - every battery read, before/during/after the endpoint swap, is
//     bit-identical to a fault-free static twin
//   - every write either lands exactly once or is retried through a
//     retryable rejection — zero lost, zero duplicated
//   - the decommissioned source rejects writes through stale handles
//   - the resize fault sites actually fired (the workflow retried through
//     injected copy faults, not around them)
//   - nothing leaks: no in-flight batches, no running queries
func TestChaosResizeLiveTraffic(t *testing.T) {
	seed := chaosSeed(t)

	clean := launch(t, Options{Nodes: 2})
	seedChaosTables(t, clean, 1000)

	chaos := launch(t, Options{
		Nodes:           2,
		BlockCacheBytes: -1,
		FaultPlan: &FaultPlan{
			Seed: seed,
			Sites: map[string]FaultRule{
				// The PR-4 read-path battery.
				"storage.read.primary": {Prob: 0.05, Err: "injected disk error"},
				"cluster.fetch.secondary": {Prob: 0.3, Err: "injected link error",
					Latency: 200 * time.Microsecond, LatencyProb: 0.2},
				"s3.backup.get":      {Latency: 300 * time.Microsecond, LatencyProb: 0.3},
				"exec.exchange.send": {Latency: 100 * time.Microsecond, LatencyProb: 0.1},
				// The resize workflow's own sites: copy and catch-up see a
				// capped number of guaranteed injections (Count < the retry
				// policy's attempts, so the workflow must retry through them
				// but can never exhaust) plus latency; the cutover only gets
				// latency — it must stay slow-but-successful for this test,
				// the crash test below owns the failure path.
				faults.SiteResizeCopy: {Prob: 1, Count: 2, Err: "injected copy fault",
					Latency: 500 * time.Microsecond, LatencyProb: 1},
				faults.SiteResizeCatchup: {Prob: 1, Count: 1, Err: "injected catchup fault",
					Latency: 200 * time.Microsecond, LatencyProb: 1},
				faults.SiteResizeCutover: {Latency: 200 * time.Microsecond, LatencyProb: 1},
			},
		},
	})
	seedChaosTables(t, chaos, 1000)
	chaos.MustExecute(`CREATE TABLE audit (writer BIGINT, seq BIGINT) DISTSTYLE KEY DISTKEY(seq)`)
	if _, _, err := chaos.Backup(); err != nil {
		t.Fatal(err)
	}

	want := make([]string, len(chaosBattery))
	for i, q := range chaosBattery {
		want[i] = rowsString(clean.MustExecute(q).Rows)
	}

	src := chaos.DB()
	stop := make(chan struct{})
	writers := make([]*resizeWriter, 2)
	var wg sync.WaitGroup
	for wi := range writers {
		writers[wi] = &resizeWriter{}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			writers[wi].run(chaos, wi, stop)
		}(wi)
	}

	resizeDone := make(chan error, 1)
	go func() {
		_, err := chaos.Resize(3)
		resizeDone <- err
	}()

	// The battery loops across the whole resize — queries land on the
	// source, then on the target after the swap, and must agree with the
	// static twin either way.
	round := 0
	for done := false; !done; round++ {
		select {
		case err := <-resizeDone:
			if err != nil {
				t.Fatalf("seed %d: online resize failed under faults: %v", seed, err)
			}
			done = true
		default:
		}
		for i, q := range chaosBattery {
			res, err := chaos.Execute(q)
			if err != nil {
				t.Fatalf("seed %d round %d query %d failed during live resize: %v", seed, round, i, err)
			}
			if got := rowsString(res.Rows); got != want[i] {
				t.Errorf("seed %d round %d query %d diverged during live resize:\ngot:\n%swant:\n%s",
					seed, round, i, got, want[i])
			}
		}
	}
	close(stop)
	wg.Wait()

	var landed, retried int64
	for _, rw := range writers {
		if err := rw.fatal.Load(); err != nil {
			t.Fatalf("seed %d: writer hit a non-retryable error (lost write): %v", seed, err)
		}
		landed += rw.landed.Load()
		retried += rw.retried.Load()
	}
	res := chaos.MustExecute(`SELECT COUNT(*) FROM audit`)
	if got := res.Rows[0][0].I; got != landed {
		t.Errorf("seed %d: audit rows = %d, writers landed %d — writes lost or duplicated across the swap", seed, got, landed)
	}
	t.Logf("seed %d: %d battery rounds, %d writes landed, %d retryable rejections absorbed", seed, round, landed, retried)

	// The endpoint moved and the source is permanently write-dead.
	if chaos.DB() == src {
		t.Fatal("endpoint did not move")
	}
	if chaos.Nodes() != 3 {
		t.Errorf("nodes = %d after resize, want 3", chaos.Nodes())
	}
	if !src.Decommissioned() {
		t.Error("source not decommissioned after swap")
	}
	if _, err := src.Execute(`INSERT INTO audit VALUES (99, 99)`); err == nil {
		t.Error("decommissioned source accepted a write via a stale handle")
	}

	// stv_resize on the new primary records the completed workflow.
	pr := chaos.MustExecute(`SELECT active, phase FROM stv_resize`)
	if len(pr.Rows) != 1 || pr.Rows[0][0].I != 0 || pr.Rows[0][1].S != "done" {
		t.Errorf("stv_resize = %v, want inactive/done", pr.Rows)
	}

	// The resize fault sites genuinely fired.
	siteInjected := map[string]int64{}
	for _, s := range chaos.Faults().Snapshot() {
		siteInjected[s.Site] = s.Injected
	}
	if siteInjected[faults.SiteResizeCopy] == 0 {
		t.Errorf("seed %d: no faults injected at %s — the workflow never retried through a copy fault", seed, faults.SiteResizeCopy)
	}

	assertQuiescent(t, chaos)
}

// TestChaosResizeCrashAtEachPhase kills the resize at every workflow phase
// via its fault site (probability 1 exhausts the per-table retry policy)
// and checks the rollback contract each time: the source stays
// authoritative and writable, the endpoint never moves, stv_resize records
// the failed phase, no backups leak, and nothing stays in flight.
func TestChaosResizeCrashAtEachPhase(t *testing.T) {
	cases := []struct {
		site  string
		phase string
	}{
		{faults.SiteResizeCopy, "snapshot-copy"},
		{faults.SiteResizeCatchup, "catch-up"},
		{faults.SiteResizeCutover, "cutover"},
	}
	for _, tc := range cases {
		t.Run(tc.phase, func(t *testing.T) {
			w := launch(t, Options{
				Nodes: 2,
				FaultPlan: &FaultPlan{
					Seed:  chaosSeed(t),
					Sites: map[string]FaultRule{tc.site: {Prob: 1, Err: "injected " + tc.phase + " crash"}},
				},
			})
			// The catch-up phase only runs when a write lands between the
			// snapshot copy reading the table and the staleness check. That
			// window is as long as the copy, so the case that needs it copies
			// a table large enough for the writer below to land in it even
			// on a loaded 2-core host.
			rows := 500
			if tc.site == faults.SiteResizeCatchup {
				rows = 8000
			}
			seedEvents(t, w, rows)
			src := w.DB()
			backupsBefore := len(w.Backups())

			stop := make(chan struct{})
			var writerWg sync.WaitGroup
			if tc.site == faults.SiteResizeCatchup {
				w.Faults().SetRule(faults.SiteResizeCopy,
					FaultRule{Latency: 2 * time.Millisecond, LatencyProb: 1})
				writerWg.Add(1)
				go func() {
					defer writerWg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						_, _ = w.Execute(fmt.Sprintf(`INSERT INTO events VALUES (%d, 1, 'view', 1)`, 10_000+i))
						time.Sleep(100 * time.Microsecond)
					}
				}()
			}

			_, err := w.Resize(4)
			close(stop)
			writerWg.Wait()
			if err == nil {
				t.Fatalf("resize survived a guaranteed fault at %s", tc.site)
			}
			if !strings.Contains(err.Error(), tc.phase) {
				t.Errorf("error %q does not name the failed phase %q", err, tc.phase)
			}

			// Rollback contract: endpoint unmoved, source authoritative and
			// writable again.
			if w.DB() != src {
				t.Fatal("endpoint moved despite the failed resize")
			}
			if src.ReadOnly() {
				t.Error("source still read-only after rollback")
			}
			if _, err := w.Execute(`INSERT INTO events VALUES (20000, 2, 'buy', 3)`); err != nil {
				t.Errorf("write after rollback failed: %v", err)
			}
			if res := w.MustExecute(`SELECT COUNT(*) FROM events`); res.Rows[0][0].I < int64(rows)+1 {
				t.Errorf("post-rollback count = %d", res.Rows[0][0].I)
			}
			pr := w.MustExecute(`SELECT active, phase FROM stv_resize`)
			if len(pr.Rows) != 1 || pr.Rows[0][0].I != 0 || pr.Rows[0][1].S != "failed: "+tc.phase {
				t.Errorf("stv_resize = %v, want inactive/failed: %s", pr.Rows, tc.phase)
			}
			if n := w.Metrics().Counter("resize_failures_total").Value(); n != 1 {
				t.Errorf("resize_failures_total = %d, want 1", n)
			}
			// No scratch state leaks: a failed resize never reaches the
			// pre-swap backup, and the dead target leaves no work in flight.
			if got := len(w.Backups()); got != backupsBefore {
				t.Errorf("backups leaked: %d -> %d", backupsBefore, got)
			}
			assertQuiescent(t, w)

			// The workflow is retryable: clear the fault and resize again.
			w.Faults().SetRule(tc.site, FaultRule{})
			w.Faults().SetRule(faults.SiteResizeCopy, FaultRule{})
			if _, err := w.Resize(4); err != nil {
				t.Fatalf("clean resize after rollback failed: %v", err)
			}
			if w.Nodes() != 4 {
				t.Errorf("nodes = %d after retried resize, want 4", w.Nodes())
			}
			assertQuiescent(t, w)
		})
	}
}

// TestChaosBurstRouting exercises concurrency scaling under injected route
// faults: WLM pressure on a 1-slot primary crosses the cost threshold, a
// burst cluster hydrates from a fresh backup, and routed reads come back
// bit-identical to the primary's answers at the routed snapshot version.
// Injected routing faults and post-write staleness both fall back to the
// primary — a wrong or dropped result is impossible by construction, so
// the assertion is exact equality on every query.
func TestChaosBurstRouting(t *testing.T) {
	seed := chaosSeed(t)
	w := launch(t, Options{
		Nodes:      2,
		QuerySlots: 1,
		// No result cache: the battery repeats identical queries, and a
		// cache hit would answer them without ever queueing on the WLM —
		// no queue, no pressure, no scale-out to test.
		ResultCacheBytes: -1,
		BurstThreshold:   1e-9, // any measurable queue wait triggers scale-out
		BurstRetireAfter: 200 * time.Millisecond,
		FaultPlan: &FaultPlan{
			Seed: seed,
			Sites: map[string]FaultRule{
				faults.SiteBurstRoute: {Prob: 0.2, Err: "injected route fault"},
				"s3.backup.get":       {Latency: 200 * time.Microsecond, LatencyProb: 0.3},
			},
		},
	})
	defer w.Close()
	seedChaosTables(t, w, 1000)

	want := make([]string, len(chaosBattery))
	for i, q := range chaosBattery {
		want[i] = rowsString(w.MustExecute(q).Rows)
	}

	// Saturate the single WLM slot from many goroutines so queue pressure
	// stays above threshold while the battery repeats.
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for i, q := range chaosBattery {
					res, err := w.Execute(q)
					if err != nil {
						errCh <- fmt.Errorf("round %d query %d: %w", round, i, err)
						return
					}
					if got := rowsString(res.Rows); got != want[i] {
						errCh <- fmt.Errorf("round %d query %d diverged:\ngot:\n%swant:\n%s", round, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("seed %d: %v", seed, err)
	}

	routed := w.Metrics().Counter("burst_routed_queries_total").Value()
	if routed == 0 {
		t.Fatalf("seed %d: no queries were routed to the burst cluster", seed)
	}
	if n := w.Metrics().Counter("burst_hydrations_total").Value(); n == 0 {
		t.Errorf("seed %d: burst cluster never hydrated", seed)
	}
	t.Logf("seed %d: %d routed, %d fallbacks, %d hydrations", seed, routed,
		w.Metrics().Counter("burst_fallbacks_total").Value(),
		w.Metrics().Counter("burst_hydrations_total").Value())

	// Staleness safety: a write moves the tables past the burst snapshot;
	// subsequent reads must reflect it immediately (burst answers at the
	// old snapshot are no longer eligible).
	w.MustExecute(`INSERT INTO events VALUES (99999, 1, 'buy', 2.5)`)
	res := w.MustExecute(`SELECT COUNT(*) FROM events`)
	if res.Rows[0][0].I != 1001 {
		t.Fatalf("post-write count = %d, want 1001 (stale burst answer?)", res.Rows[0][0].I)
	}

	// The cluster retires once the queue stays empty.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		rows := w.MustExecute(`SELECT state FROM stv_burst_clusters`).Rows
		allDone := len(rows) > 0
		for _, r := range rows {
			if r[0].S == "serving" || r[0].S == "hydrating" {
				allDone = false
			}
		}
		if allDone {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	sts := w.MustExecute(`SELECT burst_cluster, state, routed_queries FROM stv_burst_clusters ORDER BY burst_cluster`)
	if len(sts.Rows) == 0 {
		t.Fatal("stv_burst_clusters is empty after routing")
	}
	retired := false
	for _, r := range sts.Rows {
		if r[1].S == "retired" {
			retired = true
		}
	}
	if !retired {
		t.Errorf("no burst cluster retired after the queue drained: %v", sts.Rows)
	}
	if n := w.Metrics().Counter("burst_retirements_total").Value(); n == 0 {
		t.Error("burst_retirements_total = 0 after retirement")
	}
	assertQuiescent(t, w)
}
