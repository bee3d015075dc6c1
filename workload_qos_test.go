package redshift

import (
	"context"
	"testing"
	"time"

	"redshift/internal/workload"
)

// qosWorkload is the pinned QoS battery mix: a dashboard tenant firing
// short repeated SELECTs while an ETL tenant saturates its queue with
// heavy transform waves. The seed is pinned — a QoS regression here
// replays byte-identically anywhere.
func qosWorkload(seed int64) workload.Workload {
	return workload.Workload{
		Seed:     seed,
		Duration: 4 * time.Second,
		Scale:    2,
		Tenants: []workload.TenantSpec{
			{Name: "wallboard", Archetype: workload.Dashboard, Queue: "dash", Rate: 50, Burstiness: 0.3, BurstSize: 6, Repeat: 0.5, Sessions: 4},
			{Name: "nightly-etl", Archetype: workload.ETL, Queue: "etl", Rate: 12, Sessions: 4},
		},
	}
}

// qosQueues is the named-queue layout under test: a short-query fast lane,
// a dashboard queue, and a deliberately narrow ETL queue. The express
// threshold sits between the dashboard shorts' plan cost (≲1k estimated
// rows at scale 2) and the ETL transforms' (≳4k), so the fast lane admits
// the former and the query_group routes the latter.
func qosQueues() []QueueSpec {
	return []QueueSpec{
		{Name: "express", Slots: 2, MaxEstRows: 4000, Priority: 10},
		{Name: "dash", Slots: 1, Priority: 5},
		{Name: "etl", Slots: 1, MemFraction: 0.5},
		{Name: "default", Slots: 1},
	}
}

func replayQoS(t *testing.T, w *Warehouse, wl workload.Workload) *workload.Report {
	t.Helper()
	rep, err := workload.Replay(context.Background(), workload.Synthesize(wl),
		workload.SessionOpener(w), wl, workload.ReplayOptions{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.FirstError(); e != "" {
		t.Fatalf("replay error: %s", e)
	}
	return rep
}

// TestWorkloadQoSFastLane replays the pinned mix against named queues and
// proves the QoS guarantees hold while the ETL queue is saturated: short
// queries stay in their lanes (zero cross-queue leakage), their p99 stays
// bounded, and the stv_wlm_* tables account for every admission.
func TestWorkloadQoSFastLane(t *testing.T) {
	w := launch(t, Options{Nodes: 2, WLMQueues: qosQueues()})
	rep := replayQoS(t, w, qosWorkload(42))

	short := rep.Group("wallboard", workload.KindShort)
	if short.Count < 50 {
		t.Fatalf("only %d short queries replayed", short.Count)
	}
	// Lane isolation: a dashboard query may ride the fast lane, fall back
	// to its dash queue, or be a cache hit — it must never take an ETL slot.
	for q, n := range short.Queues {
		switch q {
		case "express", "dash", "":
		default:
			t.Errorf("%d dashboard queries leaked into queue %q", n, q)
		}
	}
	if short.Queues["express"] == 0 {
		t.Error("no dashboard query rode the fast lane")
	}
	if short.CacheHits == 0 {
		t.Error("repeated dashboard queries never hit the result cache")
	}
	// Bounded tail while ETL churns: generous enough for a loaded CI
	// runner, tight enough that head-of-line blocking behind multi-hundred-
	// millisecond transform waves would trip it.
	if short.P99 > 500*time.Millisecond {
		t.Errorf("fast-lane p99 = %v under ETL saturation", short.P99)
	}

	transforms := rep.Group("nightly-etl", workload.KindTransform)
	if transforms.Count == 0 {
		t.Fatal("no ETL transforms replayed")
	}
	for q := range transforms.Queues {
		if q == "dash" {
			t.Error("ETL transform admitted into the dashboard queue")
		}
	}

	// The system tables account for the load: every queue within its slot
	// budget, ETL actually queued, and the books drained.
	res := w.MustExecute(`SELECT queue, slots, peak_active, total_queries FROM stv_wlm_queues`)
	seen := map[string]bool{}
	for _, r := range res.Rows {
		name, slots, peak := r[0].S, r[1].I, r[2].I
		seen[name] = true
		if slots > 0 && peak > slots {
			t.Errorf("queue %s peak active %d exceeded its %d slots", name, peak, slots)
		}
		if name == "etl" && r[3].I == 0 {
			t.Error("ETL queue admitted nothing")
		}
	}
	for _, q := range []string{"express", "dash", "etl", "default"} {
		if !seen[q] {
			t.Errorf("stv_wlm_queues missing queue %q", q)
		}
	}
	res = w.MustExecute(`SELECT queue, active, queued FROM stv_wlm_queue_state`)
	for _, r := range res.Rows {
		if r[1].I != 0 || r[2].I != 0 {
			t.Errorf("queue %s not drained after replay: active %d queued %d", r[0].S, r[1].I, r[2].I)
		}
	}
}

// twinWorkload is the twin-comparison mix: slots are scarce (2 total) and
// the ETL tenant offers more concurrent transforms than the whole cluster
// has slots, so a shared queue is certain to head-of-line block the
// dashboard's shorts behind transforms.
func twinWorkload(seed int64) workload.Workload {
	return workload.Workload{
		Seed:     seed,
		Duration: 4 * time.Second,
		// Scale 6 makes each transform tens of milliseconds — long enough
		// that a shared slot held by one is an unmissable head-of-line stall
		// for a millisecond-class short.
		Scale: 6,
		Tenants: []workload.TenantSpec{
			// Repeat 0: every short really executes — cache hits would dodge
			// the queue in both twins and dilute the comparison.
			{Name: "wallboard", Archetype: workload.Dashboard, Rate: 40, Repeat: 0, Sessions: 3},
			// 8 closed-loop ETL sessions offer more concurrent transforms
			// than the twin's 3 shared slots: the shared queue is saturated
			// by construction.
			{Name: "nightly-etl", Archetype: workload.ETL, Queue: "etl", Rate: 25, Sessions: 8},
		},
	}
}

// TestWorkloadQoSSingleQueueTwin replays the identical pinned stream
// against a single shared queue with the same total slot count — the
// ablation. Dashboard shorts head-of-line block behind ETL transforms
// there, so the named-queue run's shorts must wait less in the WLM queue
// than the twin's. The comparison is of queue wait, not of wall-clock
// latency: a short's run time moves with whatever else loads the machine,
// but whether it waits behind a transform's slot is the queue layout's
// doing.
func TestWorkloadQoSSingleQueueTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	measure := func(seed int64) (named, single workload.Dist) {
		nw := launch(t, Options{Nodes: 2, WLMQueues: []QueueSpec{
			{Name: "express", Slots: 2, MaxEstRows: 4000, Priority: 10},
			{Name: "etl", Slots: 1},
		}})
		named = replayQoS(t, nw, twinWorkload(seed)).Group("wallboard", workload.KindShort)
		sw := launch(t, Options{Nodes: 2, WLMQueues: []QueueSpec{{Name: "default", Slots: 3}}})
		wl := twinWorkload(seed)
		wl.Tenants[1].Queue = "" // no named queues to SET query_group to
		single = replayQoS(t, sw, wl).Group("wallboard", workload.KindShort)
		return named, single
	}
	named, single := measure(42)
	t.Logf("short-query avg queue wait: named queues %v, single queue %v (p99 %v vs %v)",
		named.AvgWait, single.AvgWait, named.P99, single.P99)
	if named.AvgWait < single.AvgWait {
		return
	}
	// One retry with a fresh seed before declaring a QoS regression: the
	// ordering is structural, but a CI scheduler hiccup can smear one run.
	named2, single2 := measure(43)
	if named2.AvgWait >= single2.AvgWait {
		t.Errorf("fast lane waited no less than the single-queue twin twice: %v vs %v, then %v vs %v",
			named.AvgWait, single.AvgWait, named2.AvgWait, single2.AvgWait)
	}
}
