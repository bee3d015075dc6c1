// Command redshift-server runs a warehouse cluster and exposes its leader
// node on TCP (newline-delimited JSON; see internal/wire). It is the
// miniature of the managed service: one process, one cluster, a SQL
// endpoint that survives resizes behind the scenes.
//
// Usage:
//
//	redshift-server -addr 127.0.0.1:5439 -nodes 4 -slices 2 [-demo]
//
// Operational metrics (counters, gauges, latency quantiles) are served as
// plain text on http://<metrics-addr>/metrics; -metrics "" disables them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"redshift"
	"redshift/internal/sql"
	"redshift/internal/wire"
)

// byteSizeFlag resolves a human-readable byte-size flag value into the
// Options convention: "default" (or empty) keeps the built-in default (0),
// "off" disables the feature (-1), anything else parses through
// sql.ParseByteSize ("64MB", "1GiB", "65536").
func byteSizeFlag(name, v string) int64 {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "default":
		return 0
	case "off", "none", "disabled":
		return -1
	}
	n, err := sql.ParseByteSize(v)
	if err != nil {
		log.Fatalf("-%s: %v", name, err)
	}
	return n
}

func main() {
	addr := flag.String("addr", "127.0.0.1:5439", "listen address")
	nodes := flag.Int("nodes", 2, "compute nodes")
	slices := flag.Int("slices", 2, "slices per node")
	demo := flag.Bool("demo", false, "preload a small demo dataset")
	interpreted := flag.Bool("interpreted", false, "use the row-at-a-time engine")
	encrypted := flag.Bool("encrypted", false, "encrypt all at-rest backup data (§3.2)")
	wlmQueues := flag.String("wlm-queues", "", `named WLM queues, e.g. "express=2,short=20000;dash=4,prio=5;etl=2,mem=50%,timeout=60s" (empty = one unlimited default queue; "default=4" bounds it to 4 slots)`)
	wlmMem := flag.String("wlm-mem", "default", `execution-memory pool split across WLM slots, e.g. "512MB" ("default" disables governance)`)
	planCache := flag.Int("plan-cache", 0, "plan cache entries (0 = default 256, negative disables)")
	resultCache := flag.String("result-cache-bytes", "default", `result cache budget, e.g. "64MB" ("default" = 32MiB, "off" disables)`)
	blockCache := flag.String("block-cache-bytes", "default", `decoded-block buffer cache budget, e.g. "256MB" ("default" = 64MiB, "off" disables)`)
	burstThreshold := flag.Float64("burst-threshold", 0, "concurrency-scaling threshold in queue-seconds: WLM queue depth × oldest wait in s (0 disables)")
	metricsAddr := flag.String("metrics", "127.0.0.1:5440", "metrics HTTP address (empty disables)")
	flag.Parse()

	queues, err := redshift.ParseWLMQueues(*wlmQueues)
	if err != nil {
		log.Fatalf("-wlm-queues: %v", err)
	}
	memPool := byteSizeFlag("wlm-mem", *wlmMem)
	if memPool < 0 {
		memPool = 0 // "off" and "default" both mean ungoverned
	}

	wh, err := redshift.Launch(redshift.Options{
		Nodes:            *nodes,
		SlicesPerNode:    *slices,
		Interpreted:      *interpreted,
		Encrypted:        *encrypted,
		WLMQueues:        queues,
		WLMSlotMemBytes:  memPool,
		PlanCacheEntries: *planCache,
		ResultCacheBytes: byteSizeFlag("result-cache-bytes", *resultCache),
		BlockCacheBytes:  byteSizeFlag("block-cache-bytes", *blockCache),
		BurstThreshold:   *burstThreshold,
	})
	if err != nil {
		log.Fatalf("launch: %v", err)
	}
	if *demo {
		if err := loadDemo(wh); err != nil {
			log.Fatalf("demo data: %v", err)
		}
		log.Printf("demo dataset loaded: tables products, sales")
	}

	// One session per connection: prepared statements and SET variables are
	// connection-scoped, and a client that disconnects mid-query has that
	// query cancelled. Warehouse wire sessions additionally follow endpoint
	// swaps (RESIZE keeps existing connections working) and understand the
	// RESIZE admin verb.
	srv := wire.NewSessionServer(func() wire.SessionExecutor { return wh.NewWireSession() })
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("leader node accepting connections on %s (%d nodes × %d slices)", bound, *nodes, *slices)

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(rw, wh.Metrics().Render())
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (%d requests served)", srv.Handled())
	srv.Close()
}

// loadDemo creates and populates a tiny retail schema.
func loadDemo(wh *redshift.Warehouse) error {
	stmts := []string{
		`CREATE TABLE products (id BIGINT NOT NULL, category VARCHAR(32), price DOUBLE PRECISION)
		 DISTSTYLE KEY DISTKEY(id)`,
		`CREATE TABLE sales (ts BIGINT NOT NULL, product_id BIGINT, qty BIGINT)
		 DISTSTYLE KEY DISTKEY(product_id) COMPOUND SORTKEY(ts)`,
	}
	for _, s := range stmts {
		if _, err := wh.Execute(s); err != nil {
			return err
		}
	}
	var prods, sales strings.Builder
	cats := []string{"books", "music", "toys", "garden"}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&prods, "%d|%s|%g\n", i, cats[i%4], 5+float64(i)/3)
	}
	for i := 0; i < 10_000; i++ {
		fmt.Fprintf(&sales, "%d|%d|%d\n", 1_000_000+i, i%100, 1+i%7)
	}
	if err := wh.PutObject("demo/products/p.csv", []byte(prods.String())); err != nil {
		return err
	}
	if err := wh.PutObject("demo/sales/s.csv", []byte(sales.String())); err != nil {
		return err
	}
	for _, s := range []string{
		`COPY products FROM 's3://demo/products/'`,
		`COPY sales FROM 's3://demo/sales/'`,
	} {
		if _, err := wh.Execute(s); err != nil {
			return err
		}
	}
	return nil
}
