package plan

import (
	"fmt"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// starCatalog builds a three-table star schema with full column statistics:
// a 1M-row fact table and two dimensions (100 and 10k rows) joined on
// their primary keys.
func starCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	intCol := func(name string) catalog.ColumnDef {
		return catalog.ColumnDef{Name: name, Type: types.Int64, Encoding: compress.Raw}
	}
	intStats := func(lo, hi, ndv, rows int64) catalog.ColumnStats {
		return catalog.ColumnStats{
			Min: types.NewInt(lo), Max: types.NewInt(hi), NDV: ndv, WidthSum: rows * 8,
		}
	}
	tables := []struct {
		def  *catalog.TableDef
		rows int64
		cols []catalog.ColumnStats
	}{
		{
			def: &catalog.TableDef{
				Name:       "fact",
				Columns:    []catalog.ColumnDef{intCol("id"), intCol("d1"), intCol("d2")},
				DistStyle:  catalog.DistEven,
				DistKeyCol: -1,
			},
			rows: 1_000_000,
			cols: []catalog.ColumnStats{
				intStats(0, 999_999, 1_000_000, 1_000_000),
				intStats(0, 99, 100, 1_000_000),
				intStats(0, 9_999, 10_000, 1_000_000),
			},
		},
		{
			def: &catalog.TableDef{
				Name:       "dimsmall",
				Columns:    []catalog.ColumnDef{intCol("sid"), intCol("sval")},
				DistStyle:  catalog.DistEven,
				DistKeyCol: -1,
			},
			rows: 100,
			cols: []catalog.ColumnStats{intStats(0, 99, 100, 100), intStats(0, 99, 100, 100)},
		},
		{
			def: &catalog.TableDef{
				Name:       "dimmed",
				Columns:    []catalog.ColumnDef{intCol("mid"), intCol("mval")},
				DistStyle:  catalog.DistEven,
				DistKeyCol: -1,
			},
			rows: 10_000,
			cols: []catalog.ColumnStats{intStats(0, 9_999, 10_000, 10_000), intStats(0, 999, 1_000, 10_000)},
		},
	}
	for _, tb := range tables {
		if err := cat.Create(tb.def); err != nil {
			t.Fatal(err)
		}
		if err := cat.ReplaceStats(tb.def.ID, catalog.TableStats{Rows: tb.rows, Cols: tb.cols}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func buildWith(t *testing.T, cat *catalog.Catalog, opts Options, query string) *Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p, err := BuildWith(cat, stmt.(*sql.Select), opts)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return p
}

// within asserts got is within a multiplicative band of want.
func within(t *testing.T, what string, got, want int64, factor float64) {
	t.Helper()
	lo := int64(float64(want) / factor)
	hi := int64(float64(want) * factor)
	if got < lo || got > hi {
		t.Errorf("%s = %d, want within [%d, %d] (%vx of %d)", what, got, lo, hi, factor, want)
	}
}

func TestEqualitySelectivityEstimate(t *testing.T) {
	cat := starCatalog(t)
	// d1 has NDV 100 over 1M rows: equality keeps ~10k.
	p := build(t, cat, `SELECT id FROM fact WHERE d1 = 5`)
	ph := BuildPhysical(p)
	within(t, "eq-filter scan EstRows", ph.Base.EstRows, 10_000, 1.1)
}

func TestRangeSelectivityInterpolation(t *testing.T) {
	cat := starCatalog(t)
	// id spans [0, 999999]: id < 250000 keeps ~25%.
	p := build(t, cat, `SELECT id FROM fact WHERE id < 250000`)
	ph := BuildPhysical(p)
	within(t, "range-filter scan EstRows", ph.Base.EstRows, 250_000, 1.1)

	// Conjunction multiplies under independence: ~25% of ~10k.
	p = build(t, cat, `SELECT id FROM fact WHERE id < 250000 AND d1 = 5`)
	ph = BuildPhysical(p)
	within(t, "conjunction scan EstRows", ph.Base.EstRows, 2_500, 1.1)
}

func TestJoinCardinalityFromKeyNDV(t *testing.T) {
	cat := starCatalog(t)
	// |fact|*|dimmed| / max(ndv(d2), ndv(mid)) = 1M*10k/10k = 1M.
	p := build(t, cat, `SELECT f.id FROM fact f JOIN dimmed m ON f.d2 = m.mid`)
	ph := BuildPhysical(p)
	within(t, "join EstRows", ph.Joins[0].Probe.EstRows, 1_000_000, 1.1)
}

func TestGroupCountFromKeyNDV(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT d1, COUNT(*) FROM fact GROUP BY d1`)
	ph := BuildPhysical(p)
	if ph.PartialAgg.EstRows != 100 {
		t.Errorf("group EstRows = %d, want 100", ph.PartialAgg.EstRows)
	}
	// Scalar aggregate: exactly one row.
	p = build(t, cat, `SELECT COUNT(*) FROM fact`)
	ph = BuildPhysical(p)
	if ph.LeaderAgg.EstRows != 1 {
		t.Errorf("scalar agg EstRows = %d, want 1", ph.LeaderAgg.EstRows)
	}
}

// Every operator of a stats-fresh plan carries an estimate — the tentpole's
// "EstRows on every PhysNode" requirement.
func TestEstRowsOnEveryNode(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT m.mval, COUNT(*) AS n FROM fact f
		JOIN dimmed m ON f.d2 = m.mid
		WHERE f.d1 = 3 GROUP BY m.mval ORDER BY n DESC LIMIT 5`)
	ph := BuildPhysical(p)
	for _, n := range ph.Nodes {
		if n.EstRows < 0 {
			t.Errorf("node %d (%s) has no estimate", n.ID, n.SpanName())
		}
	}
}

// The greedy reorder rewrites a worst-case FROM order (dimension first,
// fact in the middle) into fact-anchored smallest-build-first order.
func TestJoinReorderStarWorstCase(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT f.id FROM dimmed m
		JOIN fact f ON f.d2 = m.mid
		JOIN dimsmall s ON f.d1 = s.sid`)
	if got := p.Tables[0].Def.Name; got != "fact" {
		t.Fatalf("base table = %s, want fact (largest anchors the probe side)", got)
	}
	if got := p.Tables[p.Joins[0].Right].Def.Name; got != "dimsmall" {
		t.Errorf("first build side = %s, want dimsmall (smallest first)", got)
	}
	if got := p.Tables[p.Joins[1].Right].Def.Name; got != "dimmed" {
		t.Errorf("second build side = %s, want dimmed", got)
	}
	// Both dimension builds are tiny: the cost model broadcasts them.
	for i, j := range p.Joins {
		if j.Strategy != StrategyBroadcast {
			t.Errorf("join %d strategy = %v, want DS_BCAST_INNER", i, j.Strategy)
		}
	}
}

// `SELECT *` must expand columns in the written FROM order even when the
// planner joins in a different order — results stay bit-identical across
// plans.
func TestStarExpansionSurvivesReorder(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT * FROM dimmed m
		JOIN fact f ON f.d2 = m.mid
		JOIN dimsmall s ON f.d1 = s.sid`)
	want := []string{"mid", "mval", "id", "d1", "d2", "sid", "sval"}
	if len(p.FieldNames) != len(want) {
		t.Fatalf("fields = %v", p.FieldNames)
	}
	for i, w := range want {
		if p.FieldNames[i] != w {
			t.Errorf("field[%d] = %s, want %s (original FROM order)", i, p.FieldNames[i], w)
		}
	}
}

// The reorder resolves names through the binder. A reordered `SELECT *`
// projects each written column from its own table. An ON column that is
// ambiguous across the FROM list keeps the written order, which binds when
// the column is unique among the tables joined so far, and is the binder's
// error when it is not.
func TestReorderResolvesThroughBinder(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT * FROM dimmed m JOIN fact f ON f.d2 = m.mid JOIN dimsmall s ON f.d1 = s.sid`)
	if got := p.Tables[0].Def.Name; got != "fact" {
		t.Fatalf("base table = %s, want fact (reordered)", got)
	}
	for i, e := range p.Project {
		c := e.(*Col)
		for _, scan := range p.Tables {
			if c.Index >= scan.BaseCol && c.Index < scan.BaseCol+len(scan.Def.Columns) &&
				scan.Def.Columns[c.Index-scan.BaseCol].Name != p.FieldNames[i] {
				t.Errorf("field %d %s projects %s.%s", i, p.FieldNames[i], scan.Def.Name, scan.Def.Columns[c.Index-scan.BaseCol].Name)
			}
		}
	}

	// d2 is a column of f and f2 alike, but only f is joined when the first
	// ON binds in written order. Qualified, the same join reorders.
	const join = `SELECT f.id FROM dimmed m JOIN fact f ON %s = m.mid JOIN fact f2 ON f.id = f2.id`
	if got := build(t, cat, fmt.Sprintf(join, "d2")).Tables[0].Def.Name; got != "dimmed" {
		t.Errorf("base table = %s, want dimmed (written order kept)", got)
	}
	if got := build(t, cat, fmt.Sprintf(join, "f.d2")).Tables[0].Def.Name; got != "fact" {
		t.Errorf("qualified: base table = %s, want fact (reordered)", got)
	}
	err := buildErr(t, cat, `SELECT f.id FROM fact f JOIN fact f2 ON f.id = f2.id JOIN dimsmall s ON d1 = s.sid`)
	if err.Error() != "plan: column reference d1 is ambiguous" {
		t.Errorf("err = %v, want the binder's ambiguity error", err)
	}
}

func TestSyntaxJoinOrderDisablesReorder(t *testing.T) {
	cat := starCatalog(t)
	opts := DefaultOptions()
	opts.SyntaxJoinOrder = true
	p := buildWith(t, cat, opts, `SELECT f.id FROM dimmed m
		JOIN fact f ON f.d2 = m.mid
		JOIN dimsmall s ON f.d1 = s.sid`)
	if got := p.Tables[0].Def.Name; got != "dimmed" {
		t.Errorf("base table = %s, want dimmed (literal FROM order)", got)
	}
}

func TestReorderBailsOnOuterJoin(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT f.id FROM dimmed m
		JOIN fact f ON f.d2 = m.mid
		LEFT JOIN dimsmall s ON f.d1 = s.sid`)
	if got := p.Tables[0].Def.Name; got != "dimmed" {
		t.Errorf("base table = %s, want dimmed (outer join is an order barrier)", got)
	}
}

// Tables that were never ANALYZEd fall back to the storage layer's visible
// row count instead of planning blind.
func TestTableRowsFallback(t *testing.T) {
	cat := testCatalog(t) // clicks has no row stats
	counts := map[string]int64{"clicks": 1_000_000}
	opts := DefaultOptions()
	opts.TableRows = func(id int64) int64 {
		def, err := cat.GetByID(id)
		if err != nil {
			return -1
		}
		if n, ok := counts[def.Name]; ok {
			return n
		}
		return -1
	}
	p := buildWith(t, cat, opts, `SELECT c.url FROM clicks c JOIN products p ON c.user_id = p.id`)
	if p.Tables[0].EstRows != 1_000_000 {
		t.Errorf("clicks EstRows = %d, want storage fallback 1000000", p.Tables[0].EstRows)
	}
	// With both sides now known the cost model still broadcasts tiny products.
	if p.Joins[0].Strategy != StrategyBroadcast {
		t.Errorf("strategy = %v, want DS_BCAST_INNER", p.Joins[0].Strategy)
	}
}

// The BroadcastRows cap stays an override: inner sides estimated above it
// never broadcast, whatever the cost model says.
func TestBroadcastRowsCapsCostModel(t *testing.T) {
	cat := starCatalog(t)
	opts := DefaultOptions()
	opts.BroadcastRows = 50 // below dimsmall's 100 rows
	p := buildWith(t, cat, opts, `SELECT f.id FROM fact f JOIN dimsmall s ON f.d1 = s.sid`)
	if p.Joins[0].Strategy != StrategyShuffle {
		t.Errorf("strategy = %v, want DS_DIST_BOTH under the cap", p.Joins[0].Strategy)
	}
}

// BuildDemand prices the build side for the executor's memory hint.
func TestBuildDemand(t *testing.T) {
	cat := starCatalog(t)
	p := build(t, cat, `SELECT f.id FROM fact f JOIN dimmed m ON f.d2 = m.mid`)
	ph := BuildPhysical(p)
	bytes := ph.BuildDemand(0, 4)
	if bytes <= 0 {
		t.Fatalf("BuildDemand = %d", bytes)
	}
	// dimmed: 10k rows × (2×8B columns + 72B hash overhead) = ~880KB; a
	// broadcast build is resident on all 4 slices.
	if p.Joins[0].Strategy == StrategyBroadcast {
		within(t, "broadcast build bytes", bytes, 4*10_000*88, 1.2)
	}
	// Unknown-cardinality builds yield no hint.
	cat2 := testCatalog(t)
	p2 := build(t, cat2, `SELECT c.url FROM clicks c JOIN bigdim b ON c.user_id = b.id`)
	ph2 := BuildPhysical(p2)
	if b := ph2.BuildDemand(0, 4); b != 0 {
		// bigdim has stats (50M rows) so a demand is fine; just exercise
		// the out-of-range guard.
		if gb := ph2.BuildDemand(9, 4); gb != 0 {
			t.Errorf("out-of-range BuildDemand = %d", gb)
		}
	}
}
