// Serving-path benchmark: ≥1k concurrent wire sessions replay a
// repeat-heavy dashboard mix (point lookups + aggregates) against the
// session server, with the result cache on (default) and off. qps, p50-ms
// and p99-ms quantify what the leader's result cache buys on the §2.1
// serving path; EXPERIMENTS.md records real runs.
package wire

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/core"
	"redshift/internal/s3sim"
)

const serveSessions = 1024

// serveBenchQueries is the dashboard mix: many clients refreshing the same
// handful of reports. 32 distinct point lookups and 4 aggregates, weighted
// so roughly half the traffic is aggregate refreshes.
func serveBenchQueries() []string {
	var qs []string
	for k := 0; k < 32; k++ {
		qs = append(qs, fmt.Sprintf(`SELECT v FROM points WHERE k = %d`, k*7))
		if k%2 == 0 {
			qs = append(qs,
				`SELECT region, SUM(qty) AS total, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region`,
				`SELECT product_id, SUM(qty) AS total FROM sales GROUP BY product_id ORDER BY total DESC LIMIT 5`,
			)
		}
	}
	return qs
}

func serveBenchDB(b *testing.B, resultCache int64) *core.Database {
	b.Helper()
	db, err := core.Open(core.Config{
		Cluster:          cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 512},
		DataStore:        s3sim.New(),
		ResultCacheBytes: resultCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	exec := func(q string) {
		if _, err := db.Execute(q); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
	exec(`CREATE TABLE points (k BIGINT NOT NULL, v BIGINT) DISTSTYLE KEY DISTKEY(k) SORTKEY(k)`)
	exec(`CREATE TABLE sales (ts BIGINT NOT NULL, product_id BIGINT, qty BIGINT, region VARCHAR(16)) DISTSTYLE KEY DISTKEY(product_id) COMPOUND SORTKEY(ts)`)
	var pts, sales strings.Builder
	for i := 0; i < 8192; i++ {
		fmt.Fprintf(&pts, "%d|%d\n", i, i*3)
	}
	regions := []string{"us", "eu", "ap", "sa"}
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sales, "%d|%d|%d|%s\n", 10000+i, i%50, 1+i%9, regions[i%4])
	}
	db.DataStore().Put("lake/points/p.csv", []byte(pts.String()))
	db.DataStore().Put("lake/sales/s.csv", []byte(sales.String()))
	exec(`COPY points FROM 's3://lake/points/'`)
	exec(`COPY sales FROM 's3://lake/sales/'`)
	exec(`ANALYZE`)
	return db
}

// BenchmarkServeThroughput drives serveSessions concurrent connections,
// each pulling queries from the shared mix until b.N total statements have
// been served. One op is one statement round-trip over TCP.
func BenchmarkServeThroughput(b *testing.B) {
	for _, tier := range []struct {
		name  string
		bytes int64
	}{
		{"cache-on", 0},
		{"cache-off", -1},
	} {
		b.Run(tier.name, func(b *testing.B) {
			db := serveBenchDB(b, tier.bytes)
			srv := NewSessionServer(func() SessionExecutor { return db.NewSession() })
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			clients := make([]*Client, serveSessions)
			var dialWG sync.WaitGroup
			var dialErr atomic.Value
			for i := range clients {
				dialWG.Add(1)
				go func(i int) {
					defer dialWG.Done()
					c, err := Dial(addr)
					if err != nil {
						dialErr.Store(err)
						return
					}
					clients[i] = c
				}(i)
			}
			dialWG.Wait()
			if err := dialErr.Load(); err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, c := range clients {
					c.Close()
				}
			}()

			queries := serveBenchQueries()
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var failed atomic.Int64

			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *Client) {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						q := queries[int(i)%len(queries)]
						t0 := time.Now()
						resp, err := c.Query(q)
						lat[i] = time.Since(t0)
						if err != nil || resp.Error != "" {
							failed.Add(1)
						}
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d of %d statements failed", n, b.N)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50-ms")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds())/1e3, "p99-ms")
		})
	}
}
