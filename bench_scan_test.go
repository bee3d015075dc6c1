// Scan-path benchmarks: the decoded-block buffer cache (hot vs cold) and
// predicate-first late materialization (decoded bytes vs selectivity).
// EXPERIMENTS.md keeps the pre-change baseline these were compared to.
package redshift_test

import (
	"fmt"
	"strings"
	"testing"

	"redshift"
)

// scanBenchWarehouse loads a 3-column table whose filter column f is
// unsorted (zone maps cannot prune), so the scan path itself is measured.
func scanBenchWarehouse(b *testing.B, opts redshift.Options, table string, rows int) *redshift.Warehouse {
	b.Helper()
	w, err := redshift.Launch(opts)
	if err != nil {
		b.Fatal(err)
	}
	w.MustExecute(fmt.Sprintf(`CREATE TABLE %s (id BIGINT, f BIGINT, tag VARCHAR(32))`, table))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d|%d|tag-%08d-%08d\n", i, (i*2654435761)%1000000, i, i*7)
	}
	if err := w.PutObject("lake/"+table+"/a.csv", []byte(sb.String())); err != nil {
		b.Fatal(err)
	}
	w.MustExecute(fmt.Sprintf(`COPY %s FROM 's3://lake/%s/'`, table, table))
	return w
}

// decodedBytes sums the cumulative decoded-bytes counter across slices.
func decodedBytes(b *testing.B, w *redshift.Warehouse) int64 {
	b.Helper()
	res := w.MustExecute(`SELECT SUM(bytes_read) FROM stv_slice_stats`)
	return res.Rows[0][0].I
}

// BenchmarkScanHotCold measures the buffer cache: cold clears it before
// every run (every block decodes), warm runs entirely from cached vectors.
func BenchmarkScanHotCold(b *testing.B) {
	w := scanBenchWarehouse(b, redshift.Options{Nodes: 2}, "hotcold", 200000)
	query := `SELECT SUM(f), MAX(tag) FROM hotcold`
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.DB().BlockCache().Clear()
			w.MustExecute(query)
		}
	})
	b.Run("warm", func(b *testing.B) {
		w.MustExecute(query) // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.MustExecute(query)
		}
		b.StopTimer()
		if decoded := decodedBytes(b, w); decoded == 0 {
			b.Fatal("no decode accounting at all")
		}
	})
}

// BenchmarkFilterSelectivity measures late materialization in isolation
// (cache disabled): at low selectivity the wide tag column short-circuits
// out of most blocks, so decoded bytes track survivors, not table size.
// The predicate is computed (f % N) so zone maps cannot serve it — the
// class of filter only predicate-first evaluation helps — and the small
// BlockCap gives empty blocks a realistic chance at 0.1%.
func BenchmarkFilterSelectivity(b *testing.B) {
	w := scanBenchWarehouse(b, redshift.Options{Nodes: 2, BlockCap: 256, BlockCacheBytes: -1}, "scanf", 120000)
	for _, tc := range []struct {
		name string
		hi   int
	}{
		{"sel0.1pct", 1000},
		{"sel10pct", 100000},
		{"sel90pct", 900000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			query := fmt.Sprintf(`SELECT MAX(tag), SUM(id) FROM scanf WHERE f %% 1000000 < %d`, tc.hi)
			w.MustExecute(query)
			before := decodedBytes(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.MustExecute(query)
			}
			b.StopTimer()
			b.ReportMetric(float64(decodedBytes(b, w)-before)/float64(b.N), "decoded-B/op")
		})
	}
}
