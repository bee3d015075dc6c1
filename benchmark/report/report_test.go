package report

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

// Values checked against Python's statistics.quantiles(xs, n=4), which is
// what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := Summarize([]float64{98, 99, 100, 101, 102}); math.Abs(s.Spread-0.03) > 1e-12 || s.Median != 100 {
		t.Errorf("Summarize: %+v, want median 100 spread 0.03", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := Percentile(xs, 0.95); p != 95 {
		t.Errorf("p95 = %v, want 95", p)
	}
	if p := Percentile(xs, 0.5); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if Percentile(nil, 0.5) != 0 || Percentile(xs[:1], 0.99) != 1 {
		t.Error("edge cases")
	}
}

// file builds a result file with one workload whose two metrics take the
// given per-run values.
func file(rate, lat []float64, failed int) *File {
	f := &File{}
	for i := range rate {
		f.Runs = append(f.Runs, Run{
			Workload: "w", Attempted: 100, Failed: failed, Correct: failed == 0,
			EndToEnd: map[string]Value{
				"stmts_per_s": {rate[i], "1/s"},
				"p50_ms":      {lat[i], "ms"},
			},
		})
	}
	return f
}

var testDefs = []Def{
	{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.05},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.05},
}

func declared(_ string, d Def) float64 { return d.Bound }

func verdicts(a, b *File) map[string]string {
	out := map[string]string{}
	for _, r := range Compare(a, b, testDefs, declared) {
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	base := file(steady, steady, 0)

	// 10% fewer statements per second and 10% more latency: both worse.
	got := verdicts(base, file(scale(steady, 0.9), scale(steady, 1.1), 0))
	if got["stmts_per_s"] != Worse || got["p50_ms"] != Worse {
		t.Errorf("regression: %v", got)
	}
	// The other way round: both better.
	got = verdicts(base, file(scale(steady, 1.1), scale(steady, 0.9), 0))
	if got["stmts_per_s"] != Better || got["p50_ms"] != Better {
		t.Errorf("improvement: %v", got)
	}
	// Within the bound: same.
	got = verdicts(base, file(scale(steady, 0.97), scale(steady, 1.03), 0))
	if got["stmts_per_s"] != Same || got["p50_ms"] != Same {
		t.Errorf("within bound: %v", got)
	}
	// A spread wider than the bound on either side: unresolved, whatever the medians say.
	noisy := []float64{80, 120, 100, 90, 110}
	got = verdicts(base, file(scale(noisy, 0.8), steady, 0))
	if got["stmts_per_s"] != Unresolved || got["p50_ms"] != Same {
		t.Errorf("noisy: %v", got)
	}
}

// A workload's bound follows the spread of its own reference runs, between
// the issue's proposal and the bound declared for all workloads; a run that
// crashed (no metrics) is left out of the summaries and counted as failed.
func TestBoundFromReferenceSpread(t *testing.T) {
	d := Def{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Proposal: 0.07}
	run := func(w string, v float64) Run {
		return Run{Workload: w, Attempted: 10, EndToEnd: map[string]Value{"p50_ms": {v, "ms"}}}
	}
	ref := &File{}
	for _, v := range []float64{100, 101, 99, 100, 100} { // spread 1.5%
		ref.Runs = append(ref.Runs, run("quiet", v))
	}
	for _, v := range []float64{100, 106, 94, 103, 97} { // spread 9%
		ref.Runs = append(ref.Runs, run("noisy", v))
	}
	for _, v := range []float64{100, 130, 70, 115, 85} { // spread 45%
		ref.Runs = append(ref.Runs, run("wild", v))
	}
	ref.Runs = append(ref.Runs, Run{Workload: "quiet", Attempted: 1, Failed: 1})
	bound := BoundFrom(ref)
	for w, want := range map[string]float64{"quiet": 0.07, "noisy": 0.18, "wild": 0.20, "unknown": 0.20} {
		if got := bound(w, d); math.Abs(got-want) > 1e-12 {
			t.Errorf("bound on %s = %v, want %v", w, got, want)
		}
	}
	if s := ref.Summary["quiet"]["p50_ms"]; s.N != 5 || s.Median != 100 {
		t.Errorf("crashed run entered the summary: %+v", s)
	}
	if f := ref.FailedFrac(); math.Abs(f-1.0/151) > 1e-12 {
		t.Errorf("failed fraction %v, want 1/151", f)
	}
}

func TestPrintRowsFlagsRegressionAndFailedFrac(t *testing.T) {
	steady := []float64{100, 100, 100}
	var buf bytes.Buffer
	if PrintRows(&buf, Compare(file(steady, steady, 0), file(steady, steady, 0), testDefs, declared)) {
		t.Error("identical files reported as regressed")
	}
	if !PrintRows(&buf, Compare(file(steady, steady, 0), file(scale(steady, 0.5), steady, 0), testDefs, declared)) {
		t.Error("halved throughput not reported as regressed")
	}
	if f := file(steady, steady, 2).FailedFrac(); f != 0.02 {
		t.Errorf("failed fraction %v, want 0.02", f)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := file([]float64{1, 2, 3}, []float64{4, 5, 6}, 0)
	f.Env = Env{Commit: "abc", NProc: 2, Clients: 2}
	f.Summarize()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	g, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Env != f.Env || len(g.Runs) != 3 || g.Summary["w"]["p50_ms"].Median != 5 {
		t.Errorf("round trip lost data: %+v", g)
	}
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
