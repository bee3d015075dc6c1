// Command benchmark is the repository's one measurement spine. It launches
// an in-process warehouse (2 nodes × 2 slices), serves it on loopback TCP
// through the wire protocol, replays a workload's pinned statement stream
// closed-loop over min(nproc, 4) connections, verifies the replies, and
// prints every metric by name with its unit.
//
//	go run ./benchmark -workload all -seed 20260925 -out benchmark/out/run.json
//	go run ./benchmark -compare benchmark/baseline.json benchmark/out/run.json
//	go run ./benchmark -selfcheck
//
// The acceptance driver runs it as
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"redshift/benchmark/report"
	"redshift/benchmark/stream"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: "+strings.Join(stream.Names, ", ")+", or all")
		seed         = flag.Int64("seed", defaultSeed, fmt.Sprintf("stream and data seed (goldens are committed for %d and %d)", defaultSeed, secondSeed))
		secs         = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace        = flag.Int("trace", -1, "0 = an untraced run: the end-to-end metrics; 1 = a traced run: the per-layer metrics; left out = one of each")
		runs         = flag.Int("runs", 1, "runs per workload (for -selfcheck: runs per set, at least 3)")
		out          = flag.String("out", "", "write every run, the environment and per-metric summaries to this JSON file")
		outDir       = flag.String("outdir", "benchmark/out", "directory for trace files and spill scratch")
		compare      = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		selfcheck    = flag.Bool("selfcheck", false, "run two sets of runs of the working tree and fail if their medians disagree beyond the bounds")
		record       = flag.Bool("record-golden", false, "re-record benchmark/golden/ for the pinned seeds (cross-checked against the interpreted engine)")
		smoke        = flag.Bool("smoke", false, "run all four workloads at 1/50 size and check every declared metric is emitted once, finite")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json as declared in spec.go")
	)
	flag.Parse()
	var err error
	switch {
	case *printSpec:
		var data []byte
		if data, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *compare:
		err = compareFiles(flag.Args())
	case *record:
		err = recordGoldens(*workloadFlag, *outDir)
	case *smoke:
		_, err = smokeRun(*outDir)
	case *selfcheck:
		err = selfCheck(*workloadFlag, *seed, *secs, *runs, *outDir)
	default:
		err = measureCmd(*workloadFlag, *seed, *secs, *trace, *runs, *out, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// selected expands -workload into workload names.
func selected(name string) ([]string, error) {
	if name == "all" {
		return stream.Names, nil
	}
	if _, ok := specFor(name); !ok {
		return nil, fmt.Errorf("-workload must be one of %s, or all (got %q)", strings.Join(stream.Names, ", "), name)
	}
	return []string{name}, nil
}

// environment is the block every result file carries.
func environment(secs float64) report.Env {
	env := report.Env{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: numClients(), Seconds: secs, Scale: 1,
	}
	// `go run` does not stamp VCS information into the binary, so ask git;
	// in a checkout that is not a repository the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// measureAll runs every selected workload runs times in each of the given
// trace modes and returns the file. A single run happens in this process;
// several runs each get a fresh child process, so that every run is
// measured the way the acceptance driver measures it — from a cold runtime,
// not on the heap, pools and scavenger state the previous workload left
// behind (in-process sequencing cost mixed_tenants ~5% of its throughput and
// tripled its spread).
func measureAll(names []string, seed int64, secs float64, traces []int, runs int, outDir string) (*report.File, error) {
	f := &report.File{Env: environment(secs)}
	var failed []string
	for r := 0; r < runs; r++ {
		for _, name := range names {
			for _, trace := range traces {
				var run *report.Run
				var err error
				if runs*len(names)*len(traces) == 1 {
					run, err = runWorkload(runConfig{
						workload: name, seed: seed, seconds: secs, trace: trace,
						scale: 1, clients: numClients(), outDir: outDir,
					})
					if run != nil && err == nil {
						printRun(run)
					}
				} else {
					run, err = runInChild(name, seed, secs, trace, outDir)
				}
				if err != nil {
					return f, err
				}
				f.Runs = append(f.Runs, *run)
				if !run.Correct {
					failed = append(failed, fmt.Sprintf("%s: %d of %d failed (%s)", name, run.Failed, run.Attempted, strings.Join(run.Errors, "; ")))
				}
			}
		}
	}
	f.Summarize()
	if len(failed) > 0 {
		return f, fmt.Errorf("incorrect results: %s", strings.Join(failed, " | "))
	}
	return f, nil
}

// runInChild measures one run in a child process (this same binary) and
// reads its result back from a scratch -out file. The child's output passes
// through. A child that measured but found wrong replies exits non-zero and
// still leaves its file; a child that left none crashed — an engine panic on
// a goroutine of its own cannot be recovered from here — and is returned as
// a run without metrics whose one attempt failed, so the other runs still
// happen and the set as a whole is reported incorrect.
func runInChild(name string, seed int64, secs float64, trace int, outDir string) (*report.Run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
		"-trace", fmt.Sprint(trace), "-outdir", outDir, "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	f, err := report.Read(tmp)
	if err != nil || len(f.Runs) != 1 {
		return &report.Run{
			Workload: name, Seed: seed, Attempted: 1, Failed: 1,
			Errors: []string{fmt.Sprintf("the run crashed without a result: %v", runErr)},
		}, nil
	}
	return &f.Runs[0], nil
}

// measureCmd is the default mode: measure, print, optionally write -out.
func measureCmd(workloadFlag string, seed int64, secs float64, trace, runs int, out, outDir string) error {
	names, err := selected(workloadFlag)
	if err != nil {
		return err
	}
	traces := []int{trace}
	switch trace {
	case traceOff, traceOn:
	case -1:
		traces = []int{traceOff, traceOn}
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	f, err := measureAll(names, seed, secs, traces, runs, outDir)
	if out != "" && len(f.Runs) > 0 {
		if werr := f.Write(out); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// printRun prints one run's metrics by name, then the acceptance driver's
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printRun(run *report.Run) {
	fmt.Printf("# %s seed=%d n=%d timed statements in %.2fs, attempted=%d failed=%d\n",
		run.Workload, run.Seed, run.Timed, run.WindowS, run.Attempted, run.Failed)
	defs, metrics := endToEnd, run.EndToEnd
	if run.PerLayer != nil {
		defs, metrics = perLayer, run.PerLayer
	}
	for _, d := range defs {
		fmt.Printf("%-14s %-40s %14.6g %s\n", run.Workload, d.Name, metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]report.Value `json:"metrics"`
	}{run.Correct, run.Attempted, run.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(line))
}

// compareFiles implements -compare base.json new.json.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files: base.json new.json")
	}
	a, err := report.Read(args[0])
	if err != nil {
		return err
	}
	b, err := report.Read(args[1])
	if err != nil {
		return err
	}
	bound, err := perWorkloadBounds()
	if err != nil {
		return err
	}
	regressed := report.PrintRows(os.Stdout, report.Compare(a, b, endToEnd, bound))
	fa, fb := a.FailedFrac(), b.FailedFrac()
	fmt.Printf("failed fraction: base %.6f, new %.6f\n", fa, fb)
	switch {
	case fb > fa:
		return fmt.Errorf("more statements fail than in the base (%.6f > %.6f)", fb, fa)
	case regressed:
		return fmt.Errorf("at least one end-to-end metric is worse than its bound allows")
	}
	return nil
}

// selfCheck measures the working tree twice (two sets of untraced runs) and
// fails if any median of one set differs from the other's by more than the
// bound the metric has on that workload. A spread wider than the bound shows in the table
// as "unresolved"; with three runs a set one slow run is enough for that, so
// it does not fail the check by itself.
func selfCheck(workloadFlag string, seed int64, secs float64, runs int, outDir string) error {
	if workloadFlag == "" {
		workloadFlag = "all"
	}
	names, err := selected(workloadFlag)
	if err != nil {
		return err
	}
	if runs < 3 {
		runs = 3
	}
	bound, err := perWorkloadBounds()
	if err != nil {
		return err
	}
	var sets [2]*report.File
	for i := range sets {
		if sets[i], err = measureAll(names, seed, secs, []int{traceOff}, runs, outDir); err != nil {
			return err
		}
	}
	rows := report.Compare(sets[0], sets[1], endToEnd, bound)
	report.PrintRows(os.Stdout, rows)
	var bad []string
	for _, r := range rows {
		if math.Abs(r.Change) > r.Bound {
			bad = append(bad, fmt.Sprintf("%s/%s %+.1f%%", r.Workload, r.Metric, 100*r.Change))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two sets of runs of the same code disagree beyond the bound: %s", strings.Join(bad, ", "))
	}
	fmt.Println("selfcheck: the medians of two sets of runs agree within every bound")
	return nil
}

// recordGoldens rewrites benchmark/golden/ for both pinned seeds.
func recordGoldens(workloadFlag, outDir string) error {
	if workloadFlag == "" {
		workloadFlag = "all"
	}
	names, err := selected(workloadFlag)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	spill, err := spillDirFor(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	for _, seed := range []int64{defaultSeed, secondSeed} {
		for _, name := range names {
			if err := recordGolden(runConfig{workload: name, seed: seed, scale: 1, spillDir: spill}, "benchmark/golden"); err != nil {
				return err
			}
		}
	}
	return nil
}

// smokeRun runs all four workloads at 1/50 size for a fraction of a second,
// untraced and traced, and checks that every declared metric — end-to-end
// and per-layer — comes out exactly once with a finite value, and that
// nothing failed.
//
// mixed_tenants runs on one connection here. On two, the seed commit's
// engine loses an INSERT batch or panics in about one smoke run in twelve
// (two races between VACUUM and concurrent statements; README.md, "Engine
// defects found"), and a check that `go test ./...` runs must not depend on
// that. The measured benchmark keeps its concurrent clients: there either
// defect counts in `failed`.
func smokeRun(outDir string) ([]*report.Run, error) {
	var out []*report.Run
	for _, name := range stream.Names {
		clients := numClients()
		if name == stream.MixedTenants {
			clients = 1
		}
		for _, trace := range []int{traceOff, traceOn} {
			run, err := runWorkload(runConfig{
				workload: name, seed: defaultSeed, seconds: 0.3 * float64(1+trace), trace: trace,
				scale: 0.02, clients: clients, outDir: outDir,
			})
			if err != nil {
				return out, err
			}
			if !run.Correct {
				return out, fmt.Errorf("smoke %s: %d of %d failed: %s", name, run.Failed, run.Attempted, strings.Join(run.Errors, "; "))
			}
			defs, vals := endToEnd, run.EndToEnd
			if trace == traceOn {
				defs, vals = perLayer, run.PerLayer
			}
			if len(vals) != len(defs) || len(run.EndToEnd)+len(run.PerLayer) != len(defs) {
				return out, fmt.Errorf("smoke %s -trace %d: %d metrics emitted, %d declared", name, trace, len(run.EndToEnd)+len(run.PerLayer), len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					return out, fmt.Errorf("smoke %s: metric %s missing or not finite (%v)", name, d.Name, v)
				}
			}
			out = append(out, run)
		}
	}
	names := make([]string, 0, len(out))
	for _, r := range out {
		names = append(names, fmt.Sprintf("%s n=%d", r.Workload, r.Timed))
	}
	fmt.Println("smoke ok:", strings.Join(names, ", "))
	return out, nil
}
