// Package report defines the benchmark's result files and the arithmetic
// over them: quartiles and inter-run spread as the acceptance driver
// computes them, and the -compare verdicts that hold one set of runs
// against another using each metric's own regression bound.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Def declares one metric.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen on any workload before the acceptance driver rejects a
	// change (0 for per-layer metrics, which have none). Proposal is the
	// issue's tighter bound, which -compare holds a workload to when its own
	// runs repeat well enough to resolve it.
	Bound, Proposal float64
	// Source and Moves document a per-layer metric (whose layer is the part
	// of its name before the first dot): how it is measured (S span, C
	// counter, K kernel pass, B the driver itself) and which end-to-end
	// metric it should move on which workload.
	Source, Moves string
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env is the environment block every result file carries.
type Env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// Run is one run of one workload: EndToEnd from an untraced run, PerLayer
// from a traced one. A run that crashed has neither, and counts as failed.
type Run struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Timed     int              `json:"timed_statements"`
	WindowS   float64          `json:"window_s"`
	Errors    []string         `json:"errors,omitempty"`
	EndToEnd  map[string]Value `json:"end_to_end,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
}

// Summary is one workload × end-to-end metric over a file's runs.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the inter-run spread the bounds are set
	// against; 0 when there are fewer than two runs.
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
}

// File is what -out writes: the environment, every run, and per workload
// the summary of each end-to-end metric.
type File struct {
	Env     Env                           `json:"env"`
	Runs    []Run                         `json:"runs"`
	Summary map[string]map[string]Summary `json:"summary"`
}

// Summarize recomputes f.Summary from the runs that measured end-to-end
// metrics.
func (f *File) Summarize() {
	f.Summary = map[string]map[string]Summary{}
	byWorkload := map[string][]Run{}
	for _, r := range f.Runs {
		if len(r.EndToEnd) > 0 {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	for w, runs := range byWorkload {
		f.Summary[w] = map[string]Summary{}
		for name, v := range runs[0].EndToEnd {
			vals := make([]float64, 0, len(runs))
			for _, r := range runs {
				vals = append(vals, r.EndToEnd[name].Value)
			}
			s := Summarize(vals)
			s.Unit = v.Unit
			f.Summary[w][name] = s
		}
	}
}

// Write stores f as indented JSON.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a result file.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &f, nil
}

// Quartiles returns Q1, the median and Q3 of vals the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method) — what the
// acceptance driver uses. Fewer than two values return that value thrice.
func Quartiles(vals []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Summarize folds values into median, quartiles and spread.
func Summarize(vals []float64) Summary {
	q1, med, q3 := Quartiles(vals)
	s := Summary{N: len(vals), Median: med, Q1: q1, Q3: q3}
	if len(vals) >= 2 && med != 0 {
		s.Spread = math.Abs((q3 - q1) / med)
	}
	return s
}

// Percentile returns the p-quantile (0..1) of sorted by nearest rank.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row is one workload × end-to-end metric comparison.
type Row struct {
	Workload, Metric string
	Base, New        Summary
	// Change is (new-base)/base, signed so that positive is worse.
	Change  float64
	Bound   float64
	Verdict string
}

// Compare holds b's runs against a's, one row per workload × end-to-end
// metric in defs, using the bound that metric has on that workload: "worse"
// or "better" when the medians differ by more than the bound, "unresolved"
// when either side's inter-run spread is wider than the bound (the
// difference cannot be told from noise), "same" otherwise.
func Compare(a, b *File, defs []Def, bound func(workload string, d Def) float64) []Row {
	a.Summarize()
	b.Summarize()
	var workloads []string
	for w := range a.Summary {
		if _, ok := b.Summary[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []Row
	for _, w := range workloads {
		for _, d := range defs {
			sa, oka := a.Summary[w][d.Name]
			sb, okb := b.Summary[w][d.Name]
			if !oka || !okb {
				continue
			}
			rows = append(rows, compareOne(w, d, bound(w, d), sa, sb))
		}
	}
	return rows
}

func compareOne(w string, d Def, bound float64, base, cur Summary) Row {
	r := Row{Workload: w, Metric: d.Name, Base: base, New: cur, Bound: bound}
	if base.Median != 0 {
		r.Change = (cur.Median - base.Median) / math.Abs(base.Median)
	}
	if d.Better == "higher" {
		r.Change = -r.Change
	}
	switch {
	case base.Spread > bound || cur.Spread > bound:
		r.Verdict = Unresolved
	case r.Change > bound:
		r.Verdict = Worse
	case r.Change < -bound:
		r.Verdict = Better
	default:
		r.Verdict = Same
	}
	return r
}

// BoundFrom returns the bound a metric has on one workload given the runs
// of a reference file: the issue's rule, max(proposal, 2 × the spread
// between that workload's reference runs), and never looser than the one
// bound BENCHMARK.json declares for all workloads. A quiet workload is so
// held to what it can resolve, not to what the noisiest one needs.
func BoundFrom(ref *File) func(workload string, d Def) float64 {
	ref.Summarize()
	return func(workload string, d Def) float64 {
		s, ok := ref.Summary[workload][d.Name]
		if !ok || s.N < 2 {
			return d.Bound
		}
		return min(max(d.Proposal, 2*s.Spread), d.Bound)
	}
}

// FailedFrac is failed/attempted summed over a file's runs.
func (f *File) FailedFrac() float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// PrintRows renders comparison rows as a table and reports whether any row
// is a regression.
func PrintRows(w io.Writer, rows []Row) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3", "change", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-28s %12.5g %12s %12.5g %12s %+7.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric+" ("+r.Base.Unit+")",
			r.Base.Median, span(r.Base), r.New.Median, span(r.New),
			100*r.Change, 100*r.Bound, r.Verdict)
		regressed = regressed || r.Verdict == Worse
	}
	return regressed
}

func span(s Summary) string {
	return fmt.Sprintf("%.4g..%.4g", s.Q1, s.Q3)
}
