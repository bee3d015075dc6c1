// Intra-slice parallelism benchmark: the same scan-heavy aggregate run with
// one pipeline worker and with a full complement, on a deliberately
// slice-starved 1 node × 1 slice layout so the speedup comes entirely from
// the workers. Measured numbers live in benchmark/ (scan_agg: p50_ms,
// core.morsels_per_stmt); EXPERIMENTS.md keeps the retired recording.
package redshift_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"redshift"
)

// parallelBenchWarehouse is a 1×1 cluster (one slice: the serial engine
// can use exactly one core) with the decoded-block cache off, so every
// run pays the full decode and the workers have real work to split.
func parallelBenchWarehouse(b *testing.B, rows int) *redshift.Warehouse {
	b.Helper()
	w, err := redshift.Launch(redshift.Options{Nodes: 1, SlicesPerNode: 1, BlockCacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	w.MustExecute(`CREATE TABLE ptab (id BIGINT, f BIGINT, tag VARCHAR(32))`)
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d|%d|tag-%08d-%08d\n", i, (i*2654435761)%1000000, i, i*7)
	}
	if err := w.PutObject("lake/ptab/a.csv", []byte(sb.String())); err != nil {
		b.Fatal(err)
	}
	w.MustExecute(`COPY ptab FROM 's3://lake/ptab/'`)
	w.MustExecute(`SET result_cache TO off`)
	return w
}

// benchDops is the ladder every parallel benchmark climbs: serial, the
// acceptance point (dop=4), and every core the host has.
func benchDops() []int {
	dops := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		dops = append(dops, n)
	}
	return dops
}

// BenchmarkParallelScan: a scan-heavy aggregate (computed predicate, so
// zone maps cannot prune) at increasing worker counts. The morsel queue
// splits the single slice's blocks across the workers.
func BenchmarkParallelScan(b *testing.B) {
	w := parallelBenchWarehouse(b, 300000)
	const query = `SELECT COUNT(*), SUM(f), MAX(tag) FROM ptab WHERE f % 7 < 5`
	for _, dop := range benchDops() {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
			w.MustExecute(query) // warm the catalog / plan cache
			before := w.Metrics().Counter("morsels_dispatched_total").Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.MustExecute(query)
			}
			b.StopTimer()
			after := w.Metrics().Counter("morsels_dispatched_total").Value()
			if dop > 1 && after == before {
				b.Fatal("parallel path never engaged")
			}
			b.ReportMetric(float64(after-before)/float64(b.N), "morsels/op")
		})
	}
}
