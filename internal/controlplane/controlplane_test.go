package controlplane

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/core"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/sim"
	"redshift/internal/telemetry"
)

// elapse runs a control-plane operation on a virtual clock and returns the
// simulated duration.
func elapse(t *testing.T, fn func(o *Ops)) time.Duration {
	t.Helper()
	var d time.Duration
	d = sim.Elapse(func(c *sim.VClock) {
		o := NewOps(c, sim.Default2013(), NewWarmPool(1000))
		fn(o)
	})
	return d
}

func TestWorkflowEngineRetries(t *testing.T) {
	clock := sim.NewVClock(time.Unix(0, 0))
	e := NewEngine(clock, sim.Default2013())
	failures := 2
	var log *RunLog
	clock.Go(func() {
		log, _ = e.Run("flaky",
			Step{Name: "sometimes", Retries: 3, Do: func() error {
				if failures > 0 {
					failures--
					return fmt.Errorf("transient")
				}
				return nil
			}},
		)
	})
	clock.Run()
	if log.Err != nil {
		t.Fatalf("workflow failed: %v", log.Err)
	}
	if log.Steps[0].Attempts != 3 {
		t.Errorf("attempts = %d", log.Steps[0].Attempts)
	}
	if len(e.Runs()) != 1 {
		t.Errorf("runs = %d", len(e.Runs()))
	}
}

func TestWorkflowEngineAbortsOnExhaustion(t *testing.T) {
	clock := sim.NewVClock(time.Unix(0, 0))
	e := NewEngine(clock, sim.Default2013())
	var err error
	ran := false
	clock.Go(func() {
		_, err = e.Run("doomed",
			Step{Name: "fails", Retries: 1, Do: func() error { return fmt.Errorf("permanent") }},
			Step{Name: "never", Do: func() error { ran = true; return nil }},
		)
	})
	clock.Run()
	if err == nil || ran {
		t.Errorf("err=%v ran=%v", err, ran)
	}
}

func TestProvisionWarmVsCold(t *testing.T) {
	cold := elapse(t, func(o *Ops) {
		o.Warm = nil
		if _, err := o.Provision(16, false); err != nil {
			t.Error(err)
		}
	})
	warm := elapse(t, func(o *Ops) {
		if _, err := o.Provision(16, true); err != nil {
			t.Error(err)
		}
	})
	// §3.1: 15 min at launch → 3 min with preconfigured nodes. Check the
	// shape: cold lands in 2–20 min, warm in 1–5 min, warm much faster.
	if cold < 2*time.Minute || cold > 20*time.Minute {
		t.Errorf("cold provision = %v", cold)
	}
	if warm < 30*time.Second || warm > 5*time.Minute {
		t.Errorf("warm provision = %v", warm)
	}
	if cold < 2*warm {
		t.Errorf("warm (%v) should be much faster than cold (%v)", warm, cold)
	}
}

func TestProvisionFlatAcrossClusterSizes(t *testing.T) {
	// Figure 2: admin operations are parallel per node, so duration is
	// nearly flat in cluster size.
	d2 := elapse(t, func(o *Ops) { o.Provision(2, false) })
	d128 := elapse(t, func(o *Ops) { o.Provision(128, false) })
	if d128 > d2*3/2 {
		t.Errorf("provision not flat: 2 nodes %v, 128 nodes %v", d2, d128)
	}
}

func TestBackupProportionalToPerNodeData(t *testing.T) {
	const changed = int64(400e9) // 400 GB changed
	d16 := elapse(t, func(o *Ops) { o.Backup(16, changed) })
	d128 := elapse(t, func(o *Ops) { o.Backup(128, changed) })
	if d128 >= d16 {
		t.Errorf("backup should speed up with nodes: 16=%v 128=%v", d16, d128)
	}
}

func TestStreamingRestoreMuchFasterThanFull(t *testing.T) {
	const total = int64(2e12) // 2 TB
	full := elapse(t, func(o *Ops) { o.Restore(16, total, false, 0) })
	streaming := elapse(t, func(o *Ops) { o.Restore(16, total, true, 0.05) })
	if streaming*4 > full {
		t.Errorf("streaming restore (%v) should be ≪ full restore (%v)", streaming, full)
	}
}

func TestPatchRollbackOnTelemetryRegression(t *testing.T) {
	clock := sim.NewVClock(time.Unix(0, 0))
	var err error
	clock.Go(func() {
		o := NewOps(clock, sim.Default2013(), nil)
		_, err = o.Patch(4, func() bool { return false })
	})
	clock.Run()
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Errorf("patch err = %v, want rollback", err)
	}

	// Healthy telemetry: no rollback, fits the 30-minute window.
	d := elapse(t, func(o *Ops) {
		if _, err := o.Patch(16, func() bool { return true }); err != nil {
			t.Error(err)
		}
	})
	if d > 30*time.Minute {
		t.Errorf("patch took %v, exceeds the 30-minute window", d)
	}
}

func TestReplaceNodeUsesWarmPool(t *testing.T) {
	pool := NewWarmPool(1)
	var withWarm, withoutWarm time.Duration
	withWarm = sim.Elapse(func(c *sim.VClock) {
		o := NewOps(c, sim.Default2013(), pool)
		o.ReplaceNode(100e9)
	})
	if pool.Available() != 0 {
		t.Errorf("pool = %d", pool.Available())
	}
	withoutWarm = sim.Elapse(func(c *sim.VClock) {
		o := NewOps(c, sim.Default2013(), pool) // now empty
		o.ReplaceNode(100e9)
	})
	if withWarm >= withoutWarm {
		t.Errorf("warm replacement (%v) should beat cold (%v)", withWarm, withoutWarm)
	}
}

func TestWarmPool(t *testing.T) {
	p := NewWarmPool(3)
	if got := p.Take(2); got != 2 {
		t.Errorf("Take(2) = %d", got)
	}
	if got := p.Take(5); got != 1 {
		t.Errorf("Take(5) = %d", got)
	}
	p.Return(4)
	if p.Available() != 4 {
		t.Errorf("Available = %d", p.Available())
	}
}

func TestHostManager(t *testing.T) {
	clock := sim.NewVClock(time.Unix(0, 0))
	h := NewHostManager(3, clock)
	clock.Go(func() {
		if !h.CheckHealth(func() error { return nil }) {
			t.Error("healthy probe reported unhealthy")
		}
		if h.CheckHealth(func() error { return fmt.Errorf("oom") }) {
			t.Error("failing probe reported healthy")
		}
	})
	clock.Run()
	if h.Restarts() != 1 {
		t.Errorf("restarts = %d", h.Restarts())
	}
	events := h.Events()
	if len(events) != 2 || events[1].Kind != "engine-restart" {
		t.Errorf("events = %+v", events)
	}
	if h.AppendLog(600, 1000) {
		t.Error("rotated too early")
	}
	if !h.AppendLog(600, 1000) {
		t.Error("did not rotate at limit")
	}
}

// realDB builds a small populated database for the real-resize test.
func realDB(t *testing.T, nodes int) *core.Database {
	t.Helper()
	db, err := core.Open(core.Config{
		Cluster:   cluster.Config{Nodes: nodes, SlicesPerNode: 2, BlockCap: 32},
		DataStore: s3sim.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE TABLE m (k BIGINT, v VARCHAR(16)) DISTSTYLE KEY DISTKEY(k) SORTKEY(k)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "%d|val%d\n", i, i)
	}
	db.DataStore().Put("m/1.csv", []byte(b.String()))
	if _, err := db.Execute(`COPY m FROM 'm/'`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRealResizePreservesDataAndReadability(t *testing.T) {
	src := realDB(t, 2)
	ep := NewEndpoint(src)

	// Kick off resize to 4 nodes; while it runs the source must answer
	// reads and reject writes. (Resize here is fast, so we check the
	// read-only rejection by flipping the flag the same way resize does.)
	src.SetReadOnly(true)
	if _, err := src.Execute(`INSERT INTO m VALUES (9999, 'x')`); err == nil {
		t.Error("write accepted in read-only mode")
	}
	if _, err := src.Execute(`SELECT COUNT(*) FROM m`); err != nil {
		t.Errorf("read failed in read-only mode: %v", err)
	}
	src.SetReadOnly(false)

	stats, err := ResizeOnline(ep, core.Config{
		Cluster:   cluster.Config{Nodes: 4, SlicesPerNode: 2, BlockCap: 32},
		DataStore: s3sim.New(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 500 || stats.Tables != 1 || stats.FromNodes != 2 || stats.ToNodes != 4 {
		t.Errorf("stats = %+v", stats)
	}
	dst := ep.DB()
	if dst == src {
		t.Fatal("endpoint did not move")
	}
	if dst.Cluster().NumNodes() != 4 {
		t.Errorf("new cluster nodes = %d", dst.Cluster().NumNodes())
	}
	res, err := dst.Execute(`SELECT COUNT(*), MIN(k), MAX(k) FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 500 || res.Rows[0][1].I != 0 || res.Rows[0][2].I != 499 {
		t.Errorf("resized data = %v", res.Rows)
	}
	// The decommissioned source must stay permanently non-writable: a
	// stale pre-swap handle accepting a write would silently lose it (the
	// endpoint's cluster never sees it). The regression this guards: the
	// old workflow re-enabled writes on the source after the swap.
	if !src.Decommissioned() {
		t.Error("source not decommissioned after the endpoint moved")
	}
	if _, err := src.Execute(`INSERT INTO m VALUES (777, 'stale')`); err == nil {
		t.Error("decommissioned source accepted a write via a pre-swap handle")
	} else if faults.Retryable(err) {
		t.Errorf("decommission rejection must be fatal, not retryable: %v", err)
	}
	// Reads through the stale handle keep working (harmless, snapshot of
	// the old cluster), and the new cluster must not have absorbed the
	// rejected write.
	if res, err := dst.Execute(`SELECT COUNT(*) FROM m`); err != nil || res.Rows[0][0].I != 500 {
		t.Errorf("post-resize count = %v, %v", res.Rows, err)
	}
}

func TestResizeDownToFewerNodes(t *testing.T) {
	src := realDB(t, 4)
	ep := NewEndpoint(src)
	if _, err := ResizeOnline(ep, core.Config{
		Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 32},
		DataStore: s3sim.New(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ep.DB().Execute(`SELECT COUNT(*) FROM m`)
	if err != nil || res.Rows[0][0].I != 500 {
		t.Fatalf("shrunk cluster count = %v, %v", res.Rows, err)
	}
}

func TestMaintenanceDaemonLoop(t *testing.T) {
	src := realDB(t, 2)
	ep := NewEndpoint(src)
	// Degrade the table with several runs on one slice (constant
	// distribution key → every insert lands on the same shard), each of a
	// block's rows, so that no write folds the one before it.
	values := strings.TrimSuffix(strings.Repeat(`(7, 'x'), `, 32), ", ")
	for i := 0; i < 6; i++ {
		if _, err := src.Execute(`INSERT INTO m VALUES ` + values); err != nil {
			t.Fatal(err)
		}
	}
	d := NewMaintenanceDaemon(sim.Wall{Scale: 1000}, ep, time.Second)
	d.Start()
	defer d.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range d.Reports() {
			if len(r.Vacuumed) > 0 {
				return // the daemon self-corrected the table
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never vacuumed the degraded table")
}

func TestMaintenanceDaemonStop(t *testing.T) {
	src := realDB(t, 1)
	d := NewMaintenanceDaemon(sim.Wall{Scale: 1000}, NewEndpoint(src), time.Second)
	d.Start()
	d.Stop()
	d.Stop() // idempotent
	n := len(d.Reports())
	time.Sleep(20 * time.Millisecond)
	if len(d.Reports()) > n+1 {
		t.Error("daemon kept running after Stop")
	}
}

func TestEscalatorProvisioningSurvivesEC2Outage(t *testing.T) {
	// §5: "we support the ability to preconfigure nodes in each data
	// center, allowing us to continue to provision and replace nodes for a
	// period of time if there is an Amazon EC2 provisioning interruption."
	var warmErr, coldErr error
	sim.Elapse(func(c *sim.VClock) {
		o := NewOps(c, sim.Default2013(), NewWarmPool(10))
		o.EC2Outage = true
		_, warmErr = o.Provision(8, true) // fully covered by the pool
		_, coldErr = o.Provision(8, true) // only 2 standbys left → fails
	})
	if warmErr != nil {
		t.Errorf("warm-pool provisioning failed during outage: %v", warmErr)
	}
	if coldErr == nil {
		t.Error("cold provisioning succeeded during the EC2 outage")
	}
	// Node replacement likewise keeps working off standbys.
	var replErr error
	sim.Elapse(func(c *sim.VClock) {
		o := NewOps(c, sim.Default2013(), NewWarmPool(1))
		o.EC2Outage = true
		_, replErr = o.ReplaceNode(10e9)
	})
	if replErr != nil {
		t.Errorf("standby replacement failed during outage: %v", replErr)
	}
}

func TestFleetPatcherTwoVersionRule(t *testing.T) {
	var (
		wave1, wave2 WaveResult
		err2, err3   error
		versions     []int
	)
	healthy := map[string]bool{"a": true, "b": false, "c": true}
	sim.Elapse(func(c *sim.VClock) {
		ops := NewOps(c, sim.Default2013(), nil)
		f := NewFleetPatcher(ops)
		for _, cl := range []string{"a", "b", "c"} {
			f.Register(cl, 1)
		}
		// Wave to v2: b's telemetry regresses → rollback, fleet spans {1,2}.
		wave1, _ = f.RollOut(2, nil, func(cl string) bool { return healthy[cl] })
		versions = f.Versions()
		// v3 must be refused while v1 stragglers exist.
		_, err2 = f.RollOut(3, nil, nil)
		// Fix b, retry stragglers, then v3 ships.
		healthy["b"] = true
		wave2, _ = f.RetryStragglers(nil, func(cl string) bool { return healthy[cl] })
		_, err3 = f.RollOut(3, nil, nil)
	})
	if len(wave1.Patched) != 2 || len(wave1.RolledBack) != 1 || wave1.RolledBack[0] != "b" {
		t.Fatalf("wave1 = %+v", wave1)
	}
	if len(versions) != 2 {
		t.Fatalf("fleet spans %v, want exactly two versions", versions)
	}
	if err2 == nil {
		t.Fatal("third version admitted while fleet spans two")
	}
	if len(wave2.Patched) != 1 || wave2.Patched[0] != "b" {
		t.Fatalf("wave2 = %+v", wave2)
	}
	if err3 != nil {
		t.Fatalf("v3 rollout after convergence: %v", err3)
	}
}

func TestFleetPatcherValidation(t *testing.T) {
	sim.Elapse(func(c *sim.VClock) {
		ops := NewOps(c, sim.Default2013(), nil)
		f := NewFleetPatcher(ops)
		if _, err := f.RollOut(1, nil, nil); err == nil {
			t.Error("empty fleet rollout accepted")
		}
		f.Register("a", 5)
		if _, err := f.RollOut(9, nil, nil); err == nil {
			t.Error("version skip accepted")
		}
		if _, err := f.RollOut(6, nil, nil); err != nil {
			t.Errorf("valid rollout rejected: %v", err)
		}
		if got := f.Versions(); len(got) != 1 || got[0] != 6 {
			t.Errorf("versions = %v", got)
		}
	})
}

func TestWorkflowFamily(t *testing.T) {
	cases := map[string]string{
		"provision-16":   "provision",
		"resize-2-to-16": "resize",
		"patch-8":        "patch",
		"rollback-8":     "rollback",
		"connect":        "connect",
		"replace-node":   "replace-node",
		"backup-128":     "backup",
	}
	for in, want := range cases {
		if got := workflowFamily(in); got != want {
			t.Errorf("workflowFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEngineEmitsWorkflowMetrics(t *testing.T) {
	clock := sim.NewVClock(time.Unix(0, 0))
	e := NewEngine(clock, sim.Default2013())
	reg := telemetry.NewRegistry()
	e.Metrics = reg
	clock.Go(func() {
		e.Run("provision-4", Step{Name: "ok", Do: func() error { return nil }})
		e.Run("provision-16", Step{Name: "ok", Do: func() error { return nil }})
		e.Run("patch-4", Step{Name: "boom", Do: func() error { return fmt.Errorf("nope") }})
	})
	clock.Run()
	if got := reg.Counter("controlplane_provision_runs").Value(); got != 2 {
		t.Errorf("provision runs = %d", got)
	}
	if got := reg.Counter("controlplane_patch_runs").Value(); got != 1 {
		t.Errorf("patch runs = %d", got)
	}
	if got := reg.Counter("controlplane_patch_failures").Value(); got != 1 {
		t.Errorf("patch failures = %d", got)
	}
	if got := reg.Counter("controlplane_provision_failures").Value(); got != 0 {
		t.Errorf("provision failures = %d", got)
	}
	if got := reg.Histogram("controlplane_workflow_seconds").Count(); got != 3 {
		t.Errorf("workflow durations observed = %d", got)
	}
}
