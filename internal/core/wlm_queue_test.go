package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/telemetry"
)

// openQueuedDB builds a database with named WLM queues.
func openQueuedDB(t *testing.T, pool int64, specs ...QueueSpec) *Database {
	t.Helper()
	db, err := Open(Config{
		Cluster:         cluster.Config{Nodes: 1, SlicesPerNode: 2, BlockCap: 64},
		DataStore:       s3sim.New(),
		WLMQueues:       specs,
		WLMSlotMemBytes: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWLMRoute(t *testing.T) {
	db := openQueuedDB(t, 0,
		QueueSpec{Name: "express", Slots: 1, MaxEstRows: 100},
		QueueSpec{Name: "etl", Slots: 1},
		QueueSpec{Name: "default", Slots: 1},
	)
	cases := []struct {
		group string
		cost  int64
		want  string
	}{
		{"", 50, "express"},    // cheap and sized ⇒ fast lane
		{"etl", 50, "express"}, // fast lane wins over query_group
		{"", 101, "default"},   // over the threshold
		{"etl", 101, "etl"},    // routed by group
		{"ETL", 101, "etl"},    // case-insensitive
		{"nosuch", 101, "default"},
		{"", -1, "default"}, // unknown cost must never ride the fast lane
		{"etl", -1, "etl"},
	}
	for _, c := range cases {
		if got := db.wlm.Route(c.group, c.cost); got != c.want {
			t.Errorf("Route(%q, %d) = %q, want %q", c.group, c.cost, got, c.want)
		}
	}
}

// TestWLMNoCrossQueueLeakage saturates one queue and proves admission in
// every other queue is untouched — slots are physically partitioned, so a
// busy ETL queue cannot starve the dashboard queue (the structural QoS
// guarantee; in a single shared queue the same load head-of-line blocks
// everything).
func TestWLMNoCrossQueueLeakage(t *testing.T) {
	db := openQueuedDB(t, 0,
		QueueSpec{Name: "dash", Slots: 2},
		QueueSpec{Name: "etl", Slots: 2},
		QueueSpec{Name: "default", Slots: 1},
	)
	ctx := context.Background()

	// Fill every etl slot and park two more waiters behind them.
	var etlTickets []*WLMTicket
	for i := 0; i < 2; i++ {
		tk, err := db.wlm.AcquireQueueCtx(ctx, "etl")
		if err != nil {
			t.Fatal(err)
		}
		etlTickets = append(etlTickets, tk)
	}
	waitCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tk, err := db.wlm.AcquireQueueCtx(waitCtx, "etl"); err == nil {
				db.wlm.ReleaseTicket(tk)
			}
		}()
	}
	waitForDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if depth, _ := db.wlm.QueuePressure(); depth == want {
				return
			}
			if time.Now().After(deadline) {
				depth, _ := db.wlm.QueuePressure()
				t.Fatalf("queue depth = %d, want %d", depth, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitForDepth(2)

	// dash admissions must be immediate: bounded wall time, zero queue wait.
	for i := 0; i < 4; i++ {
		admitCtx, acancel := context.WithTimeout(ctx, 2*time.Second)
		tk, err := db.wlm.AcquireQueueCtx(admitCtx, "dash")
		acancel()
		if err != nil {
			t.Fatalf("dash acquire %d blocked behind saturated etl: %v", i, err)
		}
		if tk.Queue != "dash" || tk.Wait != 0 {
			t.Fatalf("dash ticket = %+v, want immediate dash admission", tk)
		}
		db.wlm.ReleaseTicket(tk)
	}

	// No dash admission consumed an etl slot: etl is still saturated.
	for _, qs := range db.wlm.QueueStats() {
		switch qs.Name {
		case "etl":
			if qs.Active != 2 || qs.Queued != 2 {
				t.Errorf("etl = active %d queued %d, want 2/2", qs.Active, qs.Queued)
			}
		case "dash":
			if qs.PeakActive > 2 {
				t.Errorf("dash peak active %d > its 2 slots", qs.PeakActive)
			}
			if qs.TotalRun != 4 {
				t.Errorf("dash ran %d, want 4", qs.TotalRun)
			}
		}
	}

	cancel()
	for _, tk := range etlTickets {
		db.wlm.ReleaseTicket(tk)
	}
	wg.Wait()
	for _, s := range db.WLMQueueStats() {
		if s.Active != 0 || s.Queued != 0 {
			t.Errorf("counters not drained: %+v", s)
		}
	}
}

// TestWLMMemorySplit proves the per-queue memory grants partition the whole
// pool: explicit fractions are honored exactly, the rest is shared by slot
// count, and the per-queue budgets sum to (almost exactly) the pool.
func TestWLMMemorySplit(t *testing.T) {
	const pool = 1 << 30
	w, err := NewWLMQueues([]QueueSpec{
		{Name: "etl", Slots: 2, MemFraction: 0.5},
		{Name: "dash", Slots: 6},
		{Name: "default", Slots: 2},
	}, pool, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, qs := range w.QueueStats() {
		budget := qs.MemPerSlot * int64(qs.Slots)
		total += budget
		switch qs.Name {
		case "etl":
			if want := int64(pool/2) / 2; qs.MemPerSlot != want {
				t.Errorf("etl grant = %d, want %d (50%% of pool over 2 slots)", qs.MemPerSlot, want)
			}
		case "dash":
			// dash holds 6 of the 8 implicit slots ⇒ 6/8 of the leftover half.
			if want := int64(float64(pool)*0.5*6/8) / 6; qs.MemPerSlot != want {
				t.Errorf("dash grant = %d, want %d", qs.MemPerSlot, want)
			}
		}
	}
	if total > pool || total < pool-pool/100 {
		t.Errorf("per-queue budgets sum to %d, want ≈ pool %d", total, pool)
	}

	// Fractions over 1 are a configuration error, not a silent over-commit.
	if _, err := NewWLMQueues([]QueueSpec{
		{Name: "a", Slots: 1, MemFraction: 0.7},
		{Name: "b", Slots: 1, MemFraction: 0.6},
	}, pool, telemetry.NewRegistry()); err == nil {
		t.Error("over-committed memory fractions were accepted")
	}
	// So is a NaN share, which passes both halves of a "< 0 || > 1" check:
	// accepted, it split the pool into a negative grant, which the memory
	// tracker reads as "ungoverned".
	if _, err := Open(Config{
		Cluster:         cluster.Config{Nodes: 1, SlicesPerNode: 1},
		WLMQueues:       []QueueSpec{{Name: "etl", Slots: 2, MemFraction: math.NaN()}, {Name: "default", Slots: 2}},
		WLMSlotMemBytes: pool,
	}); err == nil {
		t.Error("Open accepted a NaN memory fraction")
	}
}

// TestWLMQueueTimeoutEviction proves a timed-out waiter is evicted with a
// retryable error, never holds a slot, and leaves the books balanced.
func TestWLMQueueTimeoutEviction(t *testing.T) {
	db := openQueuedDB(t, 0,
		QueueSpec{Name: "default", Slots: 1, Timeout: 30 * time.Millisecond},
	)
	ctx := context.Background()
	hold, err := db.wlm.AcquireQueueCtx(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.wlm.AcquireQueueCtx(ctx, "")
	if err == nil {
		t.Fatal("second acquire on a held 1-slot queue did not time out")
	}
	if !IsQueueTimeout(err) {
		t.Errorf("error %v is not a queue timeout", err)
	}
	if !faults.Retryable(err) {
		t.Errorf("queue eviction %v not marked retryable — it never ran, resend is safe", err)
	}
	db.wlm.ReleaseTicket(hold)

	// The slot freed cleanly: the next acquire is immediate.
	tk, err := db.wlm.AcquireQueueCtx(ctx, "")
	if err != nil || tk.Wait != 0 {
		t.Fatalf("post-eviction acquire = %+v, %v; want immediate", tk, err)
	}
	db.wlm.ReleaseTicket(tk)

	qs := db.wlm.QueueStats()[0]
	if qs.Timeouts != 1 || qs.Evictions != 1 {
		t.Errorf("timeouts/evictions = %d/%d, want 1/1", qs.Timeouts, qs.Evictions)
	}
	if qs.Active != 0 || qs.Queued != 0 {
		t.Errorf("books not balanced after eviction: %+v", qs)
	}
}

// TestWLMQueryEviction drives eviction through the SQL path: a query stuck
// behind a saturated, short-timeout queue fails retryably, is logged with
// state "evicted", and bumps query_evicted_total.
func TestWLMQueryEviction(t *testing.T) {
	db := openQueuedDB(t, 0,
		QueueSpec{Name: "default", Slots: 1, Timeout: 20 * time.Millisecond},
	)
	seedSales(t, db)
	hold, err := db.wlm.AcquireQueueCtx(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Execute(`SELECT COUNT(*) FROM sales WHERE qty > 2`)
	db.wlm.ReleaseTicket(hold)
	if err == nil {
		t.Fatal("query admitted into a held 1-slot queue")
	}
	if !faults.Retryable(err) {
		t.Errorf("evicted query error %v not retryable", err)
	}
	if n := db.Telemetry().Counter("query_evicted_total").Value(); n != 1 {
		t.Errorf("query_evicted_total = %d, want 1", n)
	}
	res := mustExec(t, db, `SELECT state, queue FROM stl_query WHERE state = 'evicted'`)
	if len(res.Rows) != 1 {
		t.Fatalf("stl_query evicted rows = %d, want 1", len(res.Rows))
	}
	if q := res.Rows[0][1].S; q != "default" {
		t.Errorf("evicted query logged queue %q", q)
	}

	// The freed queue admits the retry.
	if _, err := db.Execute(`SELECT COUNT(*) FROM sales WHERE qty > 2`); err != nil {
		t.Fatalf("retry after eviction: %v", err)
	}
}

// TestWLMQueryGroupIsolation proves SET query_group is session-scoped
// routing: sessions land in their own queues, RESET restores the default,
// and unknown groups are rejected at SET time.
func TestWLMQueryGroupIsolation(t *testing.T) {
	db := openQueuedDB(t, 0,
		QueueSpec{Name: "dash", Slots: 2},
		QueueSpec{Name: "etl", Slots: 2},
		QueueSpec{Name: "default", Slots: 2},
	)
	seedSales(t, db)

	etl := db.NewSession()
	defer etl.Close()
	plain := db.NewSession()
	defer plain.Close()

	if _, err := etl.Execute(`SET query_group TO etl`); err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Execute(`SET query_group TO nosuch`); err == nil ||
		!strings.Contains(err.Error(), "dash") {
		t.Errorf("SET to unknown group: err = %v, want list of queues", err)
	}

	r1, err := etl.Execute(`SELECT SUM(qty) FROM sales`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Queue != "etl" {
		t.Errorf("etl session query ran in queue %q", r1.Stats.Queue)
	}
	r2, err := plain.Execute(`SELECT SUM(qty) FROM sales WHERE qty > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Queue != "default" {
		t.Errorf("plain session query ran in queue %q", r2.Stats.Queue)
	}

	// RESET (SET ... TO default) restores default routing.
	if _, err := etl.Execute(`SET query_group TO none`); err != nil {
		t.Fatal(err)
	}
	r3, err := etl.Execute(`SELECT SUM(qty) FROM sales WHERE qty > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.Queue != "default" {
		t.Errorf("after reset, query ran in queue %q", r3.Stats.Queue)
	}
}

// TestWLMQueuePressureNoStaleWaiter is the regression for the stale
// oldest-wait race: pressure readings taken after a release must not count
// the just-admitted waiter as still queued — the burst policy prices
// depth × oldest-wait, and a phantom waiter with an ever-growing wait
// hydrates burst clusters for a queue that already drained.
func TestWLMQueuePressureNoStaleWaiter(t *testing.T) {
	db := openQueuedDB(t, 0, QueueSpec{Name: "default", Slots: 1})
	ctx := context.Background()
	hold, err := db.wlm.AcquireQueueCtx(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *WLMTicket, 1)
	go func() {
		tk, err := db.wlm.AcquireQueueCtx(ctx, "")
		if err != nil {
			panic(err)
		}
		admitted <- tk
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if depth, wait := db.wlm.QueuePressure(); depth == 1 && wait > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never became visible to QueuePressure")
		}
		time.Sleep(time.Millisecond)
	}
	db.wlm.ReleaseTicket(hold)
	tk := <-admitted
	// The waiter is admitted and still "running" (ticket held). Pressure
	// must read zero NOW — not after the ticket is released.
	if depth, wait := db.wlm.QueuePressure(); depth != 0 || wait != 0 {
		t.Errorf("pressure after admission = depth %d, oldest %v; want 0, 0", depth, wait)
	}
	if tk.Wait <= 0 {
		t.Errorf("admitted waiter's recorded wait = %v, want > 0", tk.Wait)
	}
	db.wlm.ReleaseTicket(tk)

	// Uncontended acquires must never flicker through the queued state
	// either (the old design's instant of phantom depth).
	stop := make(chan struct{})
	var maxDepth int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d, _ := db.wlm.QueuePressure(); d > maxDepth {
				maxDepth = d
			}
		}
	}()
	for i := 0; i < 200; i++ {
		tk, err := db.wlm.AcquireQueueCtx(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		db.wlm.ReleaseTicket(tk)
	}
	close(stop)
	wg.Wait()
	if maxDepth != 0 {
		t.Errorf("uncontended acquires showed phantom queue depth %d", maxDepth)
	}
}

// TestWLMPressureDrivesBurstThreshold exercises the pressure signal the
// way controlplane.BurstManager prices it (depth × oldest-wait × slot
// cost ≥ threshold): pain accumulates only while a waiter is actually
// blocked and collapses to zero the moment the queue drains.
func TestWLMPressureDrivesBurstThreshold(t *testing.T) {
	db := openQueuedDB(t, 0, QueueSpec{Name: "default", Slots: 1})
	ctx := context.Background()
	const slotCost, threshold = 1.0, 0.010 // 1 waiter × 10ms
	pain := func() float64 {
		depth, oldest := db.wlm.QueuePressure()
		return float64(depth) * oldest.Seconds() * slotCost
	}
	if pain() >= threshold {
		t.Fatal("idle WLM already over the burst threshold")
	}
	hold, err := db.wlm.AcquireQueueCtx(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *WLMTicket, 1)
	go func() {
		tk, _ := db.wlm.AcquireQueueCtx(ctx, "")
		admitted <- tk
	}()
	deadline := time.Now().Add(2 * time.Second)
	for pain() < threshold {
		if time.Now().After(deadline) {
			t.Fatal("queue pain never crossed the burst threshold")
		}
		time.Sleep(time.Millisecond)
	}
	db.wlm.ReleaseTicket(hold)
	tk := <-admitted
	if tk == nil {
		t.Fatal("waiter not admitted")
	}
	if p := pain(); p != 0 {
		t.Errorf("pain after drain = %v, want 0 — a stale reading here hydrates a burst cluster for nothing", p)
	}
	db.wlm.ReleaseTicket(tk)
}

// TestWLMParseQueueSpecs covers the server flag syntax round trip.
func TestWLMParseQueueSpecs(t *testing.T) {
	specs, err := ParseQueueSpecs("express=2,mem=20%,short=20000;dash=4,prio=5;etl=2,mem=50%,timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	want := []QueueSpec{
		{Name: "express", Slots: 2, MemFraction: 0.2, MaxEstRows: 20000},
		{Name: "dash", Slots: 4, Priority: 5},
		{Name: "etl", Slots: 2, MemFraction: 0.5, Timeout: time.Minute},
	}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec[%d] = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"q", "q=x", "q=1,mem=150%", "q=1,short=-5", "q=1,weird=2", "q=1,mem=NaN%"} {
		if _, err := ParseQueueSpecs(bad); err == nil {
			t.Errorf("ParseQueueSpecs(%q) accepted", bad)
		}
	}
}

// TestWLMQueueSystemTables proves stv_wlm_queues / stv_wlm_queue_state
// reflect live queue state — and, being system tables, stay queryable while
// every user queue is saturated.
func TestWLMQueueSystemTables(t *testing.T) {
	db := openQueuedDB(t, 1<<20,
		QueueSpec{Name: "dash", Slots: 1, Priority: 5},
		QueueSpec{Name: "default", Slots: 1},
	)
	hold, err := db.wlm.AcquireQueueCtx(context.Background(), "dash")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan struct{})
	go func() {
		close(queued)
		db.wlm.AcquireQueueCtx(ctx, "dash")
	}()
	<-queued
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d, _ := db.wlm.QueuePressure(); d == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	res := mustExec(t, db, `SELECT queue, active, queued, oldest_wait_ms FROM stv_wlm_queue_state`)
	state := map[string][3]int64{}
	for _, r := range res.Rows {
		state[r[0].S] = [3]int64{r[1].I, r[2].I, r[3].I}
	}
	if s := state["dash"]; s[0] != 1 || s[1] != 1 {
		t.Errorf("stv_wlm_queue_state dash = %v, want active 1 queued 1", s)
	}
	if s := state["default"]; s[0] != 0 || s[1] != 0 {
		t.Errorf("stv_wlm_queue_state default = %v, want idle", s)
	}

	res = mustExec(t, db, `SELECT queue, slots, priority, mem_per_slot FROM stv_wlm_queues`)
	if len(res.Rows) != 2 {
		t.Fatalf("stv_wlm_queues rows = %d, want 2", len(res.Rows))
	}
	// Ordered by descending priority: dash first.
	if res.Rows[0][0].S != "dash" || res.Rows[0][2].I != 5 {
		t.Errorf("stv_wlm_queues[0] = %v, want dash prio 5", res.Rows[0])
	}
	for _, r := range res.Rows {
		if r[3].I <= 0 {
			t.Errorf("queue %s has no memory grant", r[0].S)
		}
	}
	db.wlm.ReleaseTicket(hold)
}

// TestWLMGaugesFollowTheExportingDatabase: two databases on one registry,
// the way a burst cluster is opened beside the primary. The wlm_* gauges
// the registry renders are the exporting database's books; the other's
// admissions do not move them.
func TestWLMGaugesFollowTheExportingDatabase(t *testing.T) {
	reg := telemetry.NewRegistry()
	open := func() *Database {
		db, err := Open(Config{Cluster: cluster.Config{Nodes: 1, SlicesPerNode: 2}, Metrics: reg, WLMQueues: []QueueSpec{{Name: DefaultQueueName, Slots: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	primary, burst := open(), open()
	primary.ExportGauges()
	ctx := context.Background()
	ticket, err := burst.wlm.AcquireQueueCtx(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer burst.wlm.ReleaseTicket(ticket)
	for _, name := range []string{"wlm_active", "wlm_queries_total", "wlm_queue_default_active", "wlm_queue_default_queries_total"} {
		if got := renderedMetric(t, primary, name); got != 0 {
			t.Errorf("%s = %d with the primary idle: the burst cluster's admission moved it", name, got)
		}
	}
	held, err := primary.wlm.AcquireQueueCtx(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.wlm.ReleaseTicket(held)
	if got := renderedMetric(t, primary, "wlm_active"); got != 1 {
		t.Errorf("wlm_active = %d with one primary slot held, want 1", got)
	}
	out := reg.Render()
	for _, name := range []string{"wlm_queued ", "wlm_queue_default_queued ", "wlm_queue_default_timeouts_total ",
		"wlm_queue_wait_seconds_count ", "wlm_queue_default_wait_seconds_count "} {
		if !strings.Contains(out, "\n"+name) {
			t.Errorf("/metrics renders no %s", name)
		}
	}
}

// TestWLMGaugesRenderTheQueues pins every wlm_ gauge /metrics renders — the
// three aggregates and each queue's four — name for name and value for
// value, with a slot held in every queue, a query queued and one evicted by
// its queue's wait timeout. The aggregates are sums over the queues' own
// books, taken when /metrics is rendered.
func TestWLMGaugesRenderTheQueues(t *testing.T) {
	reg := telemetry.NewRegistry()
	w, err := NewWLMQueues([]QueueSpec{
		{Name: "express", Slots: 1, MaxEstRows: 100},
		{Name: "etl", Slots: 1, Timeout: time.Millisecond},
		{Name: DefaultQueueName, Slots: 1},
	}, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	w.exportGauges(reg)
	ctx := context.Background()
	acquire := func(queue string) *WLMTicket {
		t.Helper()
		tk, err := w.AcquireQueueCtx(ctx, queue)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	w.ReleaseTicket(acquire("express"))
	defer w.ReleaseTicket(acquire("express"))
	defer w.ReleaseTicket(acquire("etl"))
	if _, err := w.AcquireQueueCtx(ctx, "etl"); !IsQueueTimeout(err) {
		t.Fatalf("waiter on a held etl slot: err = %v, want a queue timeout", err)
	}
	defer w.ReleaseTicket(acquire(DefaultQueueName))
	waitCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := w.AcquireQueueCtx(waitCtx, "")
		done <- err
	}()
	waitUntil(t, "the default-queue waiter queues", func() bool {
		select {
		case err := <-done:
			t.Fatalf("waiter returned before it queued: err = %v", err)
		default:
		}
		depth, _ := w.QueuePressure()
		return depth > 0
	})

	want := map[string]int64{
		"wlm_active": 3, "wlm_queued": 1, "wlm_queries_total": 4,
		"wlm_queue_express_active": 1, "wlm_queue_express_queued": 0,
		"wlm_queue_express_queries_total": 2, "wlm_queue_express_timeouts_total": 0,
		"wlm_queue_etl_active": 1, "wlm_queue_etl_queued": 0,
		"wlm_queue_etl_queries_total": 1, "wlm_queue_etl_timeouts_total": 1,
		"wlm_queue_default_active": 1, "wlm_queue_default_queued": 1,
		"wlm_queue_default_queries_total": 1, "wlm_queue_default_timeouts_total": 0,
	}
	got := map[string]int64{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "wlm_") || strings.Contains(name, "wait_seconds") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		got[name] = n
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wlm gauges:\n got %v\nwant %v", got, want)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: err = %v", err)
	}
}
