package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"redshift/benchmark/report"
	"redshift/benchmark/span"
	"redshift/benchmark/stream"
	"redshift/internal/workload"
)

// Trace modes, as the acceptance driver passes them. End-to-end metrics
// come only from an untraced run and per-layer metrics only from a traced
// one, so every per-layer number is measured the same way wherever it is
// reported.
const (
	traceOff = 0 // one untraced window of -seconds
	traceOn  = 1 // an untraced then a traced half window, then the staged and the kernel pass
)

// setupRepeats is how many times an untraced run sets the warehouse up; it
// reports the median as setup_s. The acceptance driver's contract asks for
// this: set-up is a single short event, and one sample of it is too noisy
// to hold a later change to within one run.
const setupRepeats = 3

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	// scale shrinks tables (and with them the goldens' applicability); the
	// smoke test runs at 1/50.
	scale   float64
	clients int
	outDir  string
	// spillDir is set by runWorkload: a scratch directory under outDir.
	spillDir string
}

// runWorkload sets the workload up, replays it, verifies it and computes
// its metrics.
func runWorkload(cfg runConfig) (*report.Run, error) {
	spec, ok := specFor(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(stream.Names, ", "))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.spillDir, err = spillDirFor(cfg.outDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.spillDir)

	untraced, traced := cfg.seconds, 0.0
	if cfg.trace == traceOn {
		untraced, traced = cfg.seconds/2, cfg.seconds/2
	}
	w, err := stream.Generate(cfg.workload, stream.Params{
		Seed: cfg.seed, Scale: cfg.scale, Stmts: int(float64(spec.MaxRate) * (untraced + traced)),
	})
	if err != nil {
		return nil, err
	}

	// Set up: several times over when setup_s is being reported, keeping
	// the last warehouse.
	repeats := 1
	if cfg.trace == traceOff {
		repeats = setupRepeats
	}
	var in *instance
	var setupTimes []float64
	for i := 0; i < repeats; i++ {
		if in != nil {
			in.close()
			in = nil
			debug.FreeOSMemory() // collects first, so the next set-up starts from a small heap
		}
		if in, err = launch(w, cfg.clients, cfg.spillDir, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, in.setupS)
	}
	defer in.close()

	// The timed, untraced window: every end-to-end metric and every counter
	// difference comes from it.
	base, total := len(w.Warmup), w.Blocks*w.BlockLen
	at := streamStmts(w)
	winA := in.replay(replayArgs{stmts: at, n: total, idBase: base, deadline: seconds(untraced)})
	rss := peakRSSMiB()
	if winA.exhausted && cfg.scale == 1 {
		fmt.Fprintf(os.Stderr, "%s: the stream ran out after %d statements, before the %.0fs deadline; raise its MaxRate\n", cfg.workload, len(winA.samples), untraced)
	}
	samples := append(append([]sample(nil), in.warm.samples...), winA.samples...)

	var rec *span.Recorder
	var winB *window
	var st staged
	var kern kernels
	if cfg.trace == traceOn {
		// The traced half window continues the stream where the untraced
		// one stopped, recording spans around every request.
		rec = span.NewRecorder()
		first := winA.handed
		winB = in.replay(replayArgs{
			stmts: func(i int) stream.Stmt { return at(first + i) }, n: total - first,
			idBase: base + first, deadline: seconds(traced), rec: rec,
		})
		samples = append(samples, winB.samples...)
		if st, err = in.stagedPass(rec, sampleIDs(winA.samples, spec.TraceSample)); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if kern, err = in.kernelPass(); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), rec); err != nil {
			return nil, err
		}
	}

	// Rewrite the tables the stream wrote to before weighing them, so the
	// stored bytes are the post-VACUUM steady state, not however many small
	// unsorted segments the window happened to end on.
	for table := range w.Counts {
		if _, err := in.wh.Execute(`VACUUM ` + table); err != nil {
			return nil, fmt.Errorf("%s: final vacuum: %w", cfg.workload, err)
		}
	}
	var userBytes int64
	for _, t := range w.Tables {
		userBytes += t.UserBytes
	}
	for _, s := range samples {
		if s.err == "" {
			userBytes += int64(s.userBytes)
		}
	}
	stored := float64(in.storedBytes()) / float64(userBytes)

	v, err := in.check(cfg, samples)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}

	run := &report.Run{
		Workload: cfg.workload, Seed: cfg.seed,
		Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Errors: v.errors,
		WindowS: winA.seconds(),
	}
	ok1 := okSamples(winA.samples)
	run.Timed = len(ok1)
	if len(ok1) == 0 {
		return run, fmt.Errorf("%s: no statement succeeded in the timed window: %v", cfg.workload, v.errors)
	}
	if cfg.trace == traceOn {
		run.PerLayer = perLayerMetrics(in, winA, winB, ok1, st, kern, v)
	} else {
		run.EndToEnd = endToEndMetrics(winA, ok1, median(setupTimes), stored, rss)
	}
	return run, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func okSamples(samples []sample) []sample {
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.err == "" {
			out = append(out, s)
		}
	}
	return out
}

// sampleIDs picks up to n statement ids evenly spaced over the samples —
// the deterministic 1-in-k sample the staged pass replays.
func sampleIDs(samples []sample, n int) []int {
	if n <= 0 || len(samples) == 0 {
		return nil
	}
	step := len(samples)/n + 1
	var ids []int
	for i := 0; i < len(samples); i += step {
		ids = append(ids, samples[i].id)
	}
	return ids
}

func writeTrace(path string, rec *span.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteChrome(f, rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latenciesMs returns the samples' client-observed latencies, sorted.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

func endToEndMetrics(win *window, ok []sample, setupS, stored, rss float64) map[string]report.Value {
	n := float64(len(ok))
	lat := latenciesMs(ok)
	vals := map[string]float64{
		"setup_s":                    setupS,
		"stmts_per_s":                n / win.seconds(),
		"p50_ms":                     report.Percentile(lat, 0.50),
		"p95_ms":                     report.Percentile(lat, 0.95),
		"cpu_ms_per_stmt":            float64((win.after.cpu - win.before.cpu).Nanoseconds()) / 1e6 / n,
		"stored_bytes_per_user_byte": stored,
		"peak_rss_mb":                rss,
	}
	return withUnits(endToEnd, vals)
}

// withUnits pairs every declared metric with its value (0 when absent).
func withUnits(defs []report.Def, vals map[string]float64) map[string]report.Value {
	out := make(map[string]report.Value, len(defs))
	for _, d := range defs {
		out[d.Name] = report.Value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayerMetrics(in *instance, winA, winB *window, ok []sample, st staged, kern kernels, v verdict) map[string]report.Value {
	n := float64(len(ok))
	b, a := winA.before, winA.after
	vals := map[string]float64{}

	// S: the staged pass.
	vals["sql.parse_us_per_stmt"] = st.stageUs["sql.parse"]
	vals["sql.normalize_us_per_stmt"] = st.stageUs["sql.normalize"]
	vals["sql.parse_allocs_per_stmt"] = st.parseAllocs
	vals["plan.build_us_per_stmt"] = st.stageUs["plan.build"]
	vals["plan.physical_us_per_stmt"] = st.stageUs["plan.physical"]
	vals["core.lifecycle_self_us"] = st.lifecycleSelfUs
	vals["core.exec_ms_per_stmt"] = st.execMs
	vals["exec.scan_ns_per_row"] = st.scanNsPerRow
	vals["wire.resp_bytes_per_stmt"] = st.respBytes
	vals["bench.trace_root_coverage_frac"] = st.coverage

	// C: per-statement replies and counter differences over the window.
	var planMs, queueMs, cached, blocksRead, blocksSkipped, rowsScanned, resends float64
	var overheadUs, encodeUs, insertMs, vacuumMs, analyzeMs []float64
	var insertRows, insertSecs float64
	byKind := map[string][]float64{}
	for _, s := range ok {
		ms := float64(s.lat.Nanoseconds()) / 1e6
		byKind[s.kind] = append(byKind[s.kind], ms)
		planMs += s.stats.PlanMillis
		queueMs += s.stats.QueueMillis
		if s.cached {
			cached++
		}
		blocksRead += float64(s.stats.BlocksRead)
		blocksSkipped += float64(s.stats.BlocksSkipped)
		rowsScanned += float64(s.stats.RowsScanned)
		resends += float64(s.resends)
		over := (ms - s.execMs) * 1e3
		overheadUs = append(overheadUs, over)
		if s.rows >= 1000 {
			encodeUs = append(encodeUs, over/float64(s.rows)*1000)
		}
		switch s.kind {
		case workload.KindWrite, stream.KindIngest:
			insertMs = append(insertMs, ms)
			insertRows += float64(s.insRows)
			insertSecs += s.lat.Seconds()
		case workload.KindMaintenance, stream.KindIngestMaint:
			if strings.HasPrefix(in.w.At(s.id).SQL, "VACUUM") {
				vacuumMs = append(vacuumMs, ms)
			} else {
				analyzeMs = append(analyzeMs, ms)
			}
		}
	}
	vals["core.plan_ms_per_stmt"] = planMs / n
	vals["core.queue_ms_per_stmt"] = queueMs / n
	vals["core.result_cache_hit_frac"] = cached / n
	vals["core.plan_cache_hit_frac"] = ratio(float64(a.planHits-b.planHits), float64(a.planHits-b.planHits+a.planMisses-b.planMisses))
	vals["core.cache_invalidations"] = float64(a.planInval - b.planInval + a.resultInval - b.resultInval)
	vals["core.morsels_per_stmt"] = float64(a.morsels-b.morsels) / n
	vals["core.alloc_kb_per_stmt"] = float64(a.allocBytes-b.allocBytes) / 1024 / n
	vals["core.allocs_per_stmt"] = float64(a.mallocs-b.mallocs) / n
	vals["core.gc_pause_ms"] = float64(a.gcPauseNs-b.gcPauseNs) / 1e6
	vals["core.vacuum_p50_ms"] = median(vacuumMs)
	vals["core.analyze_p50_ms"] = median(analyzeMs)
	vals["core.retries_per_kstmt"] = resends / n * 1000
	vals["exec.rows_scanned_per_stmt"] = rowsScanned / n
	vals["exec.spill_bytes_per_stmt"] = float64(a.spillBytes-b.spillBytes) / n
	vals["exec.spilled_stmt_frac"] = float64(a.spilledQueries-b.spilledQueries) / n
	vals["exec.spill_join_p50_ms"] = median(byKind["join.spill"])
	vals["exec.mem_join_p50_ms"] = median(byKind["join"])
	vals["storage.blocks_read_per_stmt"] = blocksRead / n
	vals["storage.blocks_skipped_frac"] = ratio(blocksSkipped, blocksRead+blocksSkipped)
	hits, misses := float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Misses-b.cache.Misses)
	vals["storage.block_cache_hit_frac"] = ratio(hits, hits+misses)
	vals["storage.block_cache_evictions"] = float64(a.cache.Evictions - b.cache.Evictions)
	vals["cluster.net_bytes_per_stmt.shuffle"] = float64(a.netShuffle-b.netShuffle) / n
	vals["cluster.net_bytes_per_stmt.broadcast"] = float64(a.netBroadcast-b.netBroadcast) / n
	vals["cluster.net_bytes_per_stmt.gather"] = float64(a.netGather-b.netGather) / n
	vals["load.copy_rows_per_s"] = ratio(float64(in.copyRows), in.copyS)
	vals["load.insert_p50_ms"] = median(insertMs)
	vals["load.insert_rows_per_s"] = ratio(insertRows, insertSecs)
	vals["wire.overhead_us_p50"] = median(overheadUs)
	vals["wire.encode_us_per_krow"] = median(encodeUs)

	// stl_query's memory high-water marks, for the queries the window ran.
	var memPeakKB []float64
	for _, r := range in.wh.DB().QueryLog().Records() {
		if !r.Start.Before(winA.start) && !r.End.After(winA.end) {
			memPeakKB = append(memPeakKB, float64(r.MemPeak)/1024)
		}
	}
	sort.Float64s(memPeakKB)
	vals["core.mem_peak_kb_p95"] = report.Percentile(memPeakKB, 0.95)

	// K: the kernel pass.
	vals["exec.filter_ns_per_row"] = kern.filter.ns
	vals["exec.agg_ns_per_row.low"] = kern.aggLow.ns
	vals["exec.agg_ns_per_row.high"] = kern.aggHigh.ns
	vals["exec.agg_allocs_per_row.low"] = kern.aggLow.allocs
	vals["exec.agg_allocs_per_row.high"] = kern.aggHigh.allocs
	vals["exec.join_build_ns_per_row"] = kern.joinBuild.ns
	vals["exec.join_probe_ns_per_row"] = kern.joinProbe.ns
	vals["exec.join_allocs_per_row"] = kern.joinBuild.allocs + kern.joinProbe.allocs
	vals["exec.sort_ns_per_row"] = kern.sortNsPerRow
	vals["exec.exchange_ns_per_batch"] = kern.exchangeNsPerBatch
	vals["storage.decode_ns_per_value"] = kern.decodeNsPerValue
	vals["storage.cache_get_ns"] = kern.cacheGetNs
	for e, c := range kern.codecs {
		vals["compress.decode_ns_per_value."+e.String()] = ratio(float64(c.decodeNs), float64(c.values))
		vals["compress.encode_ns_per_value."+e.String()] = ratio(float64(c.encodeNs), float64(c.values))
		vals["compress.ratio."+e.String()] = ratio(float64(c.rawBytes), float64(c.encBytes))
	}

	// B: the driver itself.
	vals["bench.client_idle_frac"] = 1 - winA.busy.Seconds()/(float64(winA.clients)*winA.seconds())
	rateA := n / winA.seconds()
	rateB := float64(len(okSamples(winB.samples))) / winB.seconds()
	vals["bench.trace_overhead_frac"] = 1 - ratio(rateB, rateA)
	vals["bench.timed_stmts"] = n
	vals["bench.failed_frac"] = ratio(float64(v.failed), float64(v.attempted))
	for k, ms := range byKind {
		vals["bench.kind_p50_ms."+k] = median(ms)
	}
	return withUnits(perLayer, vals)
}
