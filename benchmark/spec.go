package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"redshift/benchmark/report"
	"redshift/benchmark/stream"
	"redshift/internal/compress"
	"redshift/internal/workload"
)

// The pinned seeds: goldens are committed for both, the baseline is the
// default one, and a gain claimed on the default must also hold on the
// second.
const (
	defaultSeed = 20260925
	secondSeed  = 20250314
)

// runSeconds is one run's measured time (BENCHMARK.json's run_seconds).
// The issue asks for 30–45s windows; the acceptance driver's total budget
// (92 runs, two builds, 3420s) caps a run at ~35s including set-up, so all
// four windows are shortened equally to 20s and the tables are sized to keep
// more than 240 timed statements in each.
const runSeconds = 20

// workloadSpec is one workload's entry in BENCHMARK.json plus its sizing.
type workloadSpec struct {
	Name string
	Why  string
	// MaxRate bounds the generated stream: MaxRate × seconds statements,
	// several times what the engine sustains today, so a window only runs
	// out of stream after a many-fold speed-up (and says so if it does).
	MaxRate int
	// TraceSample is how many statements the traced run replays stage by
	// stage, spread evenly over the statements the timed window reached.
	TraceSample int
}

var workloads = []workloadSpec{
	{stream.ScanAgg, "fresh-parameter scans and aggregates over a fact table 4x the block cache, result cache off: decode and the scan/filter/aggregate kernels do the work; parse, plan, wire and caches do almost none", 400, 80},
	{stream.JoinGroupBy, "star joins, high-cardinality GROUP BY, COUNT(DISTINCT) and top-N with everything block-cached and a quarter of statements spilling: hash build/probe, group tables, exchange, sort and spill dominate", 160, 48},
	{stream.ServePoint, "the serving tier: 70% result-cache hits, 20% fresh sort-key point lookups, 8% EXECUTE, 2% LIMIT 2000 fetches: wire, parse, normalize, plan and cache/admission do the work; exec and storage do little", 40000, 200},
	{stream.MixedTenants, "dashboard, ETL and ad-hoc tenants beside a trickle loader with VACUUM/ANALYZE: ingest, invalidation and rewrite share the layers the reads use, so a read gain bought with slower writes shows", 3000, 200},
}

func specFor(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// endToEnd are the metrics a user of the warehouse sees, the same on every
// workload, timed with tracing off. BENCHMARK.json has room for one bound a
// metric, serving all four workloads, so Bound is max(the issue's proposal,
// 3 × the largest inter-run spread measured on any workload at the seed
// commit) — README.md has the measurements. join_groupby, where two clients'
// heavy statements contend for two cores and a quarter of them create
// scratch files, is the noisiest and sets most of them. -compare and
// -selfcheck are stricter: boundFor holds each workload to its own spread.
var endToEnd = []report.Def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Proposal: 0.10},
	{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.18, Proposal: 0.05},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.22, Proposal: 0.07},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Proposal: 0.10},
	{Name: "cpu_ms_per_stmt", Unit: "ms", Better: "lower", Bound: 0.18, Proposal: 0.05},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.01, Proposal: 0.01},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20, Proposal: 0.10},
}

//go:embed baseline.json
var baselineJSON []byte

// perWorkloadBounds returns the bound each end-to-end metric has on each
// workload in -compare and -selfcheck: the issue's rule, max(proposal, 2 ×
// the spread between that workload's runs in the committed baseline.json),
// capped at the metric's Bound above.
func perWorkloadBounds() (func(workload string, d report.Def) float64, error) {
	var base report.File
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	return report.BoundFrom(&base), nil
}

// kinds are every statement kind of every workload, for bench.kind_p50_ms.
var kinds = []string{
	"full", "range", "like", "group",
	"star", "colo", "distinct", "join", "join.spill", "topn", "topn.spill",
	"hot", "point", "execute", "fetch",
	workload.KindShort, workload.KindWrite, workload.KindTransform, workload.KindMaintenance, workload.KindAdHoc,
	stream.KindIngest, stream.KindIngestMaint,
}

// encodings are the block codecs the per-codec kernel metrics cover.
var encodings = []compress.Encoding{
	compress.Raw, compress.RunLength, compress.Delta, compress.Mostly8, compress.Mostly16,
	compress.Mostly32, compress.ByteDict, compress.Text, compress.LZ,
}

// perLayer declares every per-layer metric: layer = module name; source S =
// a span the benchmark records around a public call in the traced run, C =
// an engine counter read through a public API over the timed window, K = the
// kernel pass (the layer's public entry point fed this workload's own
// decoded vectors and plan fragments), B = the driver itself. Moves says
// which end-to-end metric it should move, on which workload. A metric that
// does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []report.Def {
	d := func(name, unit, better, source, moves string) report.Def {
		return report.Def{Name: name, Unit: unit, Better: better, Source: source, Moves: moves}
	}
	const (
		serve    = "p50_ms, cpu_ms_per_stmt on serve_point (flat: scan_agg, join_groupby)"
		scan     = "stmts_per_s, cpu_ms_per_stmt on scan_agg"
		join     = "stmts_per_s, cpu_ms_per_stmt on join_groupby (flat: scan_agg, serve_point)"
		mixedP95 = "p95_ms on mixed_tenants"
	)
	defs := []report.Def{
		d("sql.parse_us_per_stmt", "us", "lower", "S sql.Parse", serve),
		d("sql.normalize_us_per_stmt", "us", "lower", "S sql.Normalize", serve),
		d("sql.parse_allocs_per_stmt", "count", "lower", "S sql.Parse", serve),
		d("plan.build_us_per_stmt", "us", "lower", "S plan.BuildWith", "p50_ms on serve_point's miss share; p95_ms on mixed_tenants after ANALYZE invalidations"),
		d("plan.physical_us_per_stmt", "us", "lower", "S plan.BuildPhysical", "p50_ms on serve_point's miss share"),
		d("core.plan_ms_per_stmt", "ms", "lower", "C Stats.PlanMillis", mixedP95+"; ~0 where plans are cached or trivial"),
		d("core.queue_ms_per_stmt", "ms", "lower", "C Stats.QueueMillis", mixedP95+" (etl queue has one slot); 0 elsewhere (clients <= slots)"),
		d("core.result_cache_hit_frac", "ratio", "higher", "C Response.Cached", "stmts_per_s, p50_ms on serve_point, mixed_tenants; 0 by construction on scan_agg, join_groupby"),
		d("core.plan_cache_hit_frac", "ratio", "higher", "C stv_plan_cache", "p50_ms on serve_point, mixed_tenants"),
		d("core.cache_invalidations", "count", "lower", "C stv_plan_cache + stv_result_cache", "p50_ms on mixed_tenants; 0 on the read-only workloads"),
		d("core.lifecycle_self_us", "us", "lower", "S Session.ExecuteStmtContext minus engine-reported queue+plan+exec", "p50_ms on serve_point"),
		d("core.exec_ms_per_stmt", "ms", "lower", "C Result.Stats.ExecTime (staged pass)", "stmts_per_s on scan_agg, join_groupby"),
		d("core.morsels_per_stmt", "count", "higher", "C morsels_dispatched_total", "p50_ms on scan_agg (needs >= 2 cores)"),
		d("core.mem_peak_kb_p95", "KiB", "lower", "C stl_query.mem_peak", "peak_rss_mb on join_groupby"),
		d("core.alloc_kb_per_stmt", "KiB", "lower", "C runtime.MemStats.TotalAlloc", "cpu_ms_per_stmt, p95_ms on all; ROADMAP item 2 targets scan_agg, join_groupby"),
		d("core.allocs_per_stmt", "count", "lower", "C runtime.MemStats.Mallocs", "cpu_ms_per_stmt on all"),
		d("core.gc_pause_ms", "ms", "lower", "C runtime.MemStats.PauseTotalNs", "p95_ms on all"),
		d("core.vacuum_p50_ms", "ms", "lower", "C client latency of VACUUM", "p95_ms on mixed_tenants"),
		d("core.analyze_p50_ms", "ms", "lower", "C client latency of ANALYZE", "p95_ms on mixed_tenants"),
		d("core.retries_per_kstmt", "count", "lower", "C client resends", "failed statements on mixed_tenants"),
		d("exec.rows_scanned_per_stmt", "count", "lower", "C Stats.RowsScanned", scan),
		d("exec.scan_ns_per_row", "ns", "lower", "C exec time / rows scanned (staged pass)", scan),
		d("exec.filter_ns_per_row", "ns", "lower", "K exec.NewFilter", scan),
		d("exec.agg_ns_per_row.low", "ns", "lower", "K exec.NewGroupTable, low-cardinality keys", "stmts_per_s on scan_agg"),
		d("exec.agg_ns_per_row.high", "ns", "lower", "K exec.NewGroupTable, high-cardinality keys", "stmts_per_s on join_groupby"),
		d("exec.agg_allocs_per_row.low", "count", "lower", "K exec.NewGroupTable", "cpu_ms_per_stmt on scan_agg"),
		d("exec.agg_allocs_per_row.high", "count", "lower", "K exec.NewGroupTable", "cpu_ms_per_stmt on join_groupby"),
		d("exec.join_build_ns_per_row", "ns", "lower", "K exec.NewHashJoin.Build", join),
		d("exec.join_probe_ns_per_row", "ns", "lower", "K exec.NewHashJoin.Probe", join),
		d("exec.join_allocs_per_row", "count", "lower", "K exec.NewHashJoin", join),
		d("exec.sort_ns_per_row", "ns", "lower", "K exec.SortBatch + TopN", "p50_ms on join_groupby"),
		d("exec.exchange_ns_per_batch", "ns", "lower", "K exec.NewExchange send to recv", "p50_ms on join_groupby"),
		d("exec.spill_bytes_per_stmt", "B", "lower", "C stl_query.spill_bytes", "p95_ms on join_groupby"),
		d("exec.spilled_stmt_frac", "ratio", "lower", "C stl_query.spill_bytes > 0", "p95_ms on join_groupby (0.25 by construction); 0 elsewhere"),
		d("exec.spill_join_p50_ms", "ms", "lower", "C client latency of join.spill", "p95_ms on join_groupby; its ratio to exec.mem_join_p50_ms is the spill penalty"),
		d("exec.mem_join_p50_ms", "ms", "lower", "C client latency of join", "p50_ms on join_groupby"),
		d("storage.blocks_read_per_stmt", "count", "lower", "C Stats.BlocksRead", "p50_ms on scan_agg (range scans), serve_point (point lookups)"),
		d("storage.blocks_skipped_frac", "ratio", "higher", "C Stats.BlocksSkipped", "p50_ms on scan_agg, serve_point"),
		d("storage.block_cache_hit_frac", "ratio", "higher", "C stv_block_cache", "stmts_per_s on scan_agg only (low by design there, ~1 on join_groupby)"),
		d("storage.block_cache_evictions", "count", "lower", "C stv_block_cache", "stmts_per_s on scan_agg"),
		d("storage.decode_ns_per_value", "ns", "lower", "K Block.Decode over every block of the kernel table", scan),
		d("storage.cache_get_ns", "ns", "lower", "K BlockCache.Get", "stmts_per_s on join_groupby"),
		d("cluster.net_bytes_per_stmt.shuffle", "B", "lower", "C Cluster.NetBytesByKind", "stmts_per_s on join_groupby (plan quality)"),
		d("cluster.net_bytes_per_stmt.broadcast", "B", "lower", "C Cluster.NetBytesByKind", "stmts_per_s on join_groupby (plan quality)"),
		d("cluster.net_bytes_per_stmt.gather", "B", "lower", "C Cluster.NetBytesByKind", "~ all of the traffic on scan_agg"),
		d("load.copy_rows_per_s", "1/s", "higher", "S the COPY statements in set-up", "setup_s on all"),
		d("load.insert_p50_ms", "ms", "lower", "C client latency of INSERT kinds", "p50_ms on mixed_tenants"),
		d("load.insert_rows_per_s", "1/s", "higher", "C rows inserted / summed INSERT latency", "stmts_per_s on mixed_tenants"),
		d("wire.overhead_us_p50", "us", "lower", "C client latency minus Response.ExecMillis", "p50_ms, stmts_per_s on serve_point (flat elsewhere)"),
		d("wire.encode_us_per_krow", "us", "lower", "C the same, for replies of >= 1000 rows, per 1000 rows", "p95_ms on serve_point"),
		d("wire.resp_bytes_per_stmt", "B", "lower", "S json-encoded Response size (staged pass)", "stmts_per_s on serve_point"),
		d("bench.client_idle_frac", "ratio", "lower", "B share of the window clients spent outside a request", "generator health: ~0 means the server set the pace"),
		d("bench.trace_overhead_frac", "ratio", "lower", "B 1 - traced/untraced stmts_per_s, two half windows of one run", "what recording spans costs"),
		d("bench.trace_root_coverage_frac", "ratio", "higher", "B staged spans' share of their root span", "trace health: >= 0.9"),
		d("bench.timed_stmts", "count", "higher", "B statements completed in the untraced half window", "sample count behind the per-layer numbers"),
		d("bench.failed_frac", "ratio", "lower", "B (error replies after <= 3 resends + digest and invariant mismatches) / attempted", "correctness: must be 0"),
	}
	for _, e := range encodings {
		defs = append(defs,
			d("compress.decode_ns_per_value."+e.String(), "ns", "lower", "K compress.Decode", scan),
			d("compress.encode_ns_per_value."+e.String(), "ns", "lower", "K compress.Encode", "setup_s on all; p50_ms of writes on mixed_tenants"),
			d("compress.ratio."+e.String(), "ratio", "higher", "K raw bytes / encoded bytes", "stored_bytes_per_user_byte on all"))
	}
	for _, k := range kinds {
		defs = append(defs, d("bench.kind_p50_ms."+k, "ms", "lower", "B client latency of this statement kind", "which kind moved when p50_ms or p95_ms did"))
	}
	return defs
}

// benchmarkJSON renders BENCHMARK.json from the declarations above, in the
// acceptance driver's schema (which has no room for Moves, seeds or the
// environment block — those live in README.md and in every result file).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	return append(data, '\n'), err
}
