package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"redshift/benchmark/report"
	"redshift/benchmark/stream"
	"redshift/internal/wire"
)

// All four workloads at 1/50 size, untraced and traced: every declared
// metric comes out exactly once with a finite value, nothing fails, and the
// traced run writes a trace whose stage spans cover their roots.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	runs, err := smokeRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(stream.Names) {
		t.Fatalf("%d runs for %d workloads", len(runs), len(stream.Names))
	}
	traced := map[string]*report.Run{}
	for _, r := range runs {
		if r.Timed < 20 {
			t.Errorf("%s: only %d timed statements", r.Workload, r.Timed)
		}
		if r.PerLayer == nil {
			continue
		}
		traced[r.Workload] = r
		if c := r.PerLayer["bench.trace_root_coverage_frac"].Value; c < 0.9 {
			t.Errorf("%s: stage spans cover %.2f of their root spans, want >= 0.9", r.Workload, c)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+r.Workload+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}
	}
	// The isolation each workload promises, visible even at smoke size.
	if v := traced[stream.ScanAgg].PerLayer["core.result_cache_hit_frac"].Value; v != 0 {
		t.Errorf("scan_agg result-cache hit fraction %v, want 0", v)
	}
	if v := traced[stream.ServePoint].PerLayer["core.result_cache_hit_frac"].Value; v < 0.6 {
		t.Errorf("serve_point result-cache hit fraction %v, want >= 0.6", v)
	}
	if v := traced[stream.ServePoint].PerLayer["exec.spilled_stmt_frac"].Value; v != 0 {
		t.Errorf("serve_point spilled fraction %v, want 0", v)
	}
	if v := traced[stream.MixedTenants].PerLayer["core.cache_invalidations"].Value; v <= 0 {
		t.Errorf("mixed_tenants saw no cache invalidations")
	}
}

// The untraced run records no spans: no per-layer metrics, no trace file.
func TestUntracedRunRecordsNoSpans(t *testing.T) {
	dir := t.TempDir()
	run, err := runWorkload(runConfig{
		workload: stream.ServePoint, seed: 5, seconds: 0.2, trace: traceOff,
		scale: 0.02, clients: 2, outDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct || run.PerLayer != nil || len(run.EndToEnd) != len(endToEnd) {
		t.Fatalf("untraced run: correct=%v, %d per-layer, %d end-to-end metrics", run.Correct, len(run.PerLayer), len(run.EndToEnd))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json")); len(files) != 0 {
		t.Fatalf("untraced run wrote %v", files)
	}
}

// A child that leaves no result file — here the test binary, which rejects
// the benchmark's flags; in a measurement, a process an engine panic killed
// — is a run without metrics whose one attempt failed.
func TestCrashedChildIsAFailedRun(t *testing.T) {
	run, err := runInChild(stream.ScanAgg, 1, 0.1, traceOff, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if run.Correct || run.Attempted != 1 || run.Failed != 1 || len(run.Errors) != 1 || run.EndToEnd != nil || run.PerLayer != nil {
		t.Fatalf("crashed child reported as %+v", run)
	}
}

// BENCHMARK.json at the repository root is exactly what spec.go declares
// (regenerate it with `go run ./benchmark -print-spec > BENCHMARK.json`),
// and the declarations respect the acceptance driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from spec.go; run `go run ./benchmark -print-spec > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Moves == "" || d.Source == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v", d)
		}
	}
}

// Summation noise must not change a digest; a changed value must.
func TestDigestIgnoresOrderAndSummationNoise(t *testing.T) {
	types := []string{"BIGINT", "DOUBLE PRECISION"}
	a := &wire.Response{Types: types, Rows: [][]string{{"111", "275.24249999999995"}, {"12", "233.24246666666667"}}}
	b := &wire.Response{Types: types, Rows: [][]string{{"12", "233.24246666666664"}, {"111", "275.2425"}}}
	c := &wire.Response{Types: types, Rows: [][]string{{"12", "233.3"}, {"111", "275.2425"}}}
	d := &wire.Response{Types: types, Rows: [][]string{{"12", "233.24246666666664"}}}
	if digest(a) != digest(b) {
		t.Error("row order or last-bit noise changed the digest")
	}
	if digest(a) == digest(c) || digest(a) == digest(d) {
		t.Error("a different reply digests the same")
	}
	// A short rendering and its noisy long neighbour canonicalize alike.
	if short, long := canonFloat(nil, "275.2425"), canonFloat(nil, "275.24249999999995"); string(short) != string(long) {
		t.Errorf("canonFloat: %s vs %s", short, long)
	}
}
