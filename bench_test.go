// Top-level benchmarks: one per figure, table and ablation in the paper's
// evaluation, as indexed in DESIGN.md. Each benchmark regenerates its
// experiment through internal/bench (the same harness cmd/redshift-bench
// uses) so `go test -bench=.` reproduces the whole evaluation; the smoke
// test at the bottom keeps every experiment exercised by plain `go test`.
package redshift_test

import (
	"strings"
	"testing"

	"redshift/internal/bench"
)

// runExp is the shared benchmark body: regenerate the experiment b.N times.
func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := bench.ByID(id, true /* quick sizes for testing.B */)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFigure1AnalysisGap(b *testing.B)       { runExp(b, "F1") }
func BenchmarkFigure2AdminOps(b *testing.B)          { runExp(b, "F2") }
func BenchmarkFigure4FeatureCadence(b *testing.B)    { runExp(b, "F4") }
func BenchmarkFigure5TicketsPerCluster(b *testing.B) { runExp(b, "F5") }
func BenchmarkTable1EDW(b *testing.B)                { runExp(b, "T1") }
func BenchmarkTable2Provisioning(b *testing.B)       { runExp(b, "T2") }
func BenchmarkTable3StreamingRestore(b *testing.B)   { runExp(b, "T3") }
func BenchmarkAblationCompression(b *testing.B)      { runExp(b, "A1") }
func BenchmarkAblationZoneMaps(b *testing.B)         { runExp(b, "A2") }
func BenchmarkAblationZOrder(b *testing.B)           { runExp(b, "A3") }
func BenchmarkAblationCompilation(b *testing.B)      { runExp(b, "A4") }
func BenchmarkAblationDistribution(b *testing.B)     { runExp(b, "A5") }
func BenchmarkAblationCohorts(b *testing.B)          { runExp(b, "A6") }
func BenchmarkAblationResize(b *testing.B)           { runExp(b, "A7") }
func BenchmarkAblationApproximate(b *testing.B)      { runExp(b, "A8") }

// TestExperimentSuiteSmoke runs every experiment at quick scale and checks
// the core claims' shapes, so `go test ./...` alone validates the
// reproduction end to end.
func TestExperimentSuiteSmoke(t *testing.T) {
	tables := bench.All(true)
	if len(tables) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(tables))
	}
	byID := map[string]bench.Table{}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		byID[tb.ID] = tb
	}

	// F2: flat across cluster sizes — deploy within 20% between 2 and 128.
	f2 := byID["F2"]
	if f2.Rows[0][1] != f2.Rows[2][1] {
		t.Errorf("F2 deploy not flat: %v vs %v", f2.Rows[0], f2.Rows[2])
	}

	// A2: blocks read must grow with selectivity and skip most at 0.0001.
	a2 := byID["A2"]
	first, last := a2.Rows[0], a2.Rows[len(a2.Rows)-1]
	if first[2] == "0" {
		t.Errorf("A2: no blocks skipped at high selectivity: %v", first)
	}
	if last[2] != "0" {
		t.Errorf("A2: full scan should skip nothing: %v", last)
	}

	// A3: on the non-leading column c4, interleaved must read a smaller
	// fraction than compound (which reads everything).
	a3 := byID["A3"]
	c4 := a3.Rows[3]
	if c4[3] != "1.00" {
		t.Errorf("A3: compound should read all blocks for c4: %v", c4)
	}
	if c4[4] >= c4[3] {
		t.Errorf("A3: interleaved should beat compound on c4: %v", c4)
	}
	// And on the leading column compound wins (the tradeoff).
	c1 := a3.Rows[0]
	if !(c1[3] < c1[4]) {
		t.Errorf("A3: compound should win on the leading column: %v", c1)
	}

	// A5: collocated join must move far fewer bytes than shuffle.
	a5 := byID["A5"]
	if !strings.Contains(a5.Rows[0][1], "DS_DIST_NONE") ||
		!strings.Contains(a5.Rows[1][1], "DS_DIST_BOTH") {
		t.Errorf("A5 strategies wrong: %v", a5.Rows)
	}

	// T2: warm provisioning much faster than cold.
	t2 := byID["T2"]
	if t2.Rows[0][2] == t2.Rows[1][2] {
		t.Errorf("T2: warm == cold: %v", t2.Rows)
	}
}
