// Plan-quality benchmark: a 3-table star join written in the worst
// possible FROM order, run with the cost-based join reorderer (default)
// and with it disabled (SyntaxJoinOrder). net-B/op is the query's
// interconnect traffic (Result.Stats.NetBytes) — the cost model's target
// metric. EXPERIMENTS.md records the baseline comparison.
package redshift_test

import (
	"fmt"
	"strings"
	"testing"

	"redshift"
)

// planBenchWarehouse seeds a star schema sized so the syntax-order plan
// hurts: the fact table is under the broadcast cap, so building it first
// broadcasts every fact row to every node, while the reordered plan keeps
// fact as the probe side and moves only the dimensions.
func planBenchWarehouse(b *testing.B, opts redshift.Options) *redshift.Warehouse {
	b.Helper()
	w, err := redshift.Launch(opts)
	if err != nil {
		b.Fatal(err)
	}
	const nFact, nSmall, nMed = 60000, 100, 5000
	w.MustExecute(`CREATE TABLE fact (
		id BIGINT NOT NULL, d1 BIGINT, d2 BIGINT, amount DOUBLE PRECISION
	) DISTSTYLE KEY DISTKEY(id)`)
	w.MustExecute(`CREATE TABLE dimsmall (sid BIGINT, sval VARCHAR(16))`)
	w.MustExecute(`CREATE TABLE dimmed (mid BIGINT, mval VARCHAR(16))`)
	var f, s, m strings.Builder
	for i := 0; i < nFact; i++ {
		fmt.Fprintf(&f, "%d|%d|%d|%g\n", i, i%nSmall, i%nMed, float64(i%40)/4)
	}
	for i := 0; i < nSmall; i++ {
		fmt.Fprintf(&s, "%d|s%03d\n", i, i)
	}
	for i := 0; i < nMed; i++ {
		fmt.Fprintf(&m, "%d|m%05d\n", i, i)
	}
	for _, obj := range []struct{ key, data string }{
		{"lake/fact/a.csv", f.String()},
		{"lake/dimsmall/a.csv", s.String()},
		{"lake/dimmed/a.csv", m.String()},
	} {
		if err := w.PutObject(obj.key, []byte(obj.data)); err != nil {
			b.Fatal(err)
		}
	}
	w.MustExecute(`COPY fact FROM 's3://lake/fact/'`)
	w.MustExecute(`COPY dimsmall FROM 's3://lake/dimsmall/'`)
	w.MustExecute(`COPY dimmed FROM 's3://lake/dimmed/'`)
	for _, tbl := range []string{"fact", "dimsmall", "dimmed"} {
		w.MustExecute("ANALYZE " + tbl)
	}
	return w
}

// BenchmarkPlanQuality runs the star join with the medium dimension
// written first, the fact table second and the smallest relation last —
// the order a syntax-bound planner executes verbatim, broadcasting the
// whole fact table as the first build side.
func BenchmarkPlanQuality(b *testing.B) {
	query := `SELECT s.sval, COUNT(*) AS n, SUM(f.amount) AS total
		FROM dimmed m JOIN fact f ON f.d2 = m.mid JOIN dimsmall s ON f.d1 = s.sid
		GROUP BY s.sval ORDER BY s.sval`
	for _, mode := range []struct {
		name   string
		syntax bool
	}{
		{"reordered", false},
		{"syntax-order", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w := planBenchWarehouse(b, redshift.Options{Nodes: 2, SyntaxJoinOrder: mode.syntax})
			w.MustExecute(query) // prime block cache: isolate plan quality
			b.ReportAllocs()
			b.ResetTimer()
			var net int64
			for i := 0; i < b.N; i++ {
				res := w.MustExecute(query)
				net += res.Stats.NetBytes
			}
			b.StopTimer()
			b.ReportMetric(float64(net)/float64(b.N), "net-B/op")
		})
	}
}
