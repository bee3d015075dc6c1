// WLM QoS benchmark: replay one pinned multi-tenant trace (dashboard
// shorts + saturating ETL waves) against named queues with a short-query
// fast lane, then against a single shared queue with the same total slot
// count. One op is one full replay; the reported short_p99_ms /
// short_wait_ms metrics are what EXPERIMENTS.md records — the QoS claim is
// their ratio between the two configurations, not the wall time.
package redshift_test

import (
	"context"
	"testing"
	"time"

	"redshift"
	"redshift/internal/workload"
)

// benchWorkload is the pinned trace both configurations replay.
func benchWorkload() workload.Workload {
	return workload.Workload{
		Seed:     42,
		Duration: 4 * time.Second,
		Scale:    6,
		Tenants: []workload.TenantSpec{
			{Name: "wallboard", Archetype: workload.Dashboard, Rate: 40, Repeat: 0, Sessions: 3},
			{Name: "nightly-etl", Archetype: workload.ETL, Queue: "etl", Rate: 25, Sessions: 8},
		},
	}
}

func replayBench(b *testing.B, opts redshift.Options, wl workload.Workload) *workload.Report {
	b.Helper()
	if opts.BlockCap == 0 {
		opts.BlockCap = 64
	}
	w, err := redshift.Launch(opts)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := workload.Replay(context.Background(), workload.Synthesize(wl),
		workload.SessionOpener(w), wl, workload.ReplayOptions{Retries: 3})
	if err != nil {
		b.Fatal(err)
	}
	if e := rep.FirstError(); e != "" {
		b.Fatalf("replay error: %s", e)
	}
	return rep
}

func BenchmarkWorkloadReplay(b *testing.B) {
	cases := []struct {
		name string
		opts redshift.Options
		wl   workload.Workload
	}{
		{
			name: "named-fastlane",
			opts: redshift.Options{Nodes: 2, WLMQueues: []redshift.QueueSpec{
				{Name: "express", Slots: 2, MaxEstRows: 4000, Priority: 10},
				{Name: "etl", Slots: 1},
			}},
			wl: benchWorkload(),
		},
		{
			name: "single-queue",
			opts: redshift.Options{Nodes: 2, QuerySlots: 3},
			wl: func() workload.Workload {
				wl := benchWorkload()
				wl.Tenants[1].Queue = "" // no named queues to route to
				return wl
			}(),
		},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var p99, wait time.Duration
			var n int
			for i := 0; i < b.N; i++ {
				short := replayBench(b, c.opts, c.wl).Group("wallboard", workload.KindShort)
				p99 += short.P99
				wait += short.AvgWait
				n += short.Count
			}
			b.ReportMetric(float64(p99.Milliseconds())/float64(b.N), "short_p99_ms")
			b.ReportMetric(float64(wait.Microseconds())/1000/float64(b.N), "short_wait_ms")
			b.ReportMetric(float64(n)/float64(b.N), "shorts/op")
		})
	}
}
