package plan

import (
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// testCatalog builds the weblog schema the §1 case study uses: a fact table
// distributed by product_id and two dimension tables.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tables := []*catalog.TableDef{
		{
			Name: "clicks",
			Columns: []catalog.ColumnDef{
				{Name: "ts", Type: types.Timestamp, Encoding: compress.Delta},
				{Name: "product_id", Type: types.Int64, Encoding: compress.Raw},
				{Name: "user_id", Type: types.Int64, Encoding: compress.Raw},
				{Name: "url", Type: types.String, Encoding: compress.Text},
				{Name: "latency", Type: types.Float64, Encoding: compress.Raw},
			},
			DistStyle:   catalog.DistKey,
			DistKeyCol:  1,
			SortStyle:   catalog.SortCompound,
			SortKeyCols: []int{0},
		},
		{
			Name: "products",
			Columns: []catalog.ColumnDef{
				{Name: "id", Type: types.Int64, Encoding: compress.Raw},
				{Name: "category", Type: types.String, Encoding: compress.ByteDict},
				{Name: "price", Type: types.Float64, Encoding: compress.Raw},
			},
			DistStyle:  catalog.DistKey,
			DistKeyCol: 0,
		},
		{
			Name: "regions",
			Columns: []catalog.ColumnDef{
				{Name: "id", Type: types.Int64, Encoding: compress.Raw},
				{Name: "name", Type: types.String, Encoding: compress.Raw},
			},
			DistStyle:  catalog.DistAll,
			DistKeyCol: -1,
		},
		{
			Name: "bigdim",
			Columns: []catalog.ColumnDef{
				{Name: "id", Type: types.Int64, Encoding: compress.Raw},
				{Name: "blob", Type: types.String, Encoding: compress.Raw},
			},
			DistStyle:  catalog.DistEven,
			DistKeyCol: -1,
		},
	}
	for _, def := range tables {
		if err := cat.Create(def); err != nil {
			t.Fatal(err)
		}
	}
	// products is small (broadcastable); bigdim is large.
	cat.UpdateStats(2, catalog.TableStats{Rows: 5_000, Cols: make([]catalog.ColumnStats, 3)})
	cat.UpdateStats(4, catalog.TableStats{Rows: 50_000_000, Cols: make([]catalog.ColumnStats, 2)})
	return cat
}

func build(t *testing.T, cat *catalog.Catalog, query string) *Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	p, err := Build(cat, stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	return p
}

func buildErr(t *testing.T, cat *catalog.Catalog, query string) error {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	_, err = Build(cat, stmt.(*sql.Select))
	if err == nil {
		t.Fatalf("plan %q: expected error", query)
	}
	return err
}

func TestSimpleProjectionPlan(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, "SELECT url, latency * 2 AS dbl FROM clicks WHERE product_id = 5")
	if len(p.Tables) != 1 || p.HasAgg || p.Where != nil {
		t.Fatalf("plan = %+v", p)
	}
	scan := p.Tables[0]
	if scan.Filter == nil {
		t.Fatal("predicate not pushed down")
	}
	if len(scan.Ranges) != 1 || scan.Ranges[0].Col != 1 || scan.Ranges[0].Lo.I != 5 || !scan.Ranges[0].HasHi {
		t.Errorf("ranges = %+v", scan.Ranges)
	}
	if got := p.FieldNames; got[0] != "url" || got[1] != "dbl" {
		t.Errorf("names = %v", got)
	}
	if ts := p.FieldTypes(); ts[0] != types.String || ts[1] != types.Float64 {
		t.Errorf("types = %v", ts)
	}
	// NeedCols: product_id (filter), url, latency.
	if got := scan.NeedCols; len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Errorf("NeedCols = %v", got)
	}
}

func TestZoneMapRangeExtraction(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT url FROM clicks
		WHERE ts BETWEEN TIMESTAMP '2014-01-01 00:00:00' AND TIMESTAMP '2014-01-02 00:00:00'
		AND product_id IN (3, 1, 7) AND latency < 0.5`)
	scan := p.Tables[0]
	if len(scan.Ranges) != 4 {
		t.Fatalf("ranges = %+v", scan.Ranges)
	}
	// BETWEEN desugars to two one-sided ranges on ts.
	var tsLo, tsHi, inRange, latRange bool
	for _, r := range scan.Ranges {
		switch {
		case r.Col == 0 && r.HasLo && !r.HasHi:
			tsLo = true
		case r.Col == 0 && r.HasHi && !r.HasLo:
			tsHi = true
		case r.Col == 1:
			inRange = r.Lo.I == 1 && r.Hi.I == 7
		case r.Col == 4:
			latRange = r.HasHi && !r.HasLo && r.Hi.F == 0.5
		}
	}
	if !tsLo || !tsHi || !inRange || !latRange {
		t.Errorf("ranges = %+v", scan.Ranges)
	}
}

func TestCollocatedJoin(t *testing.T) {
	cat := testCatalog(t)
	// products is small enough to broadcast, but collocation must win:
	// both sides are distributed on the join key.
	p := build(t, cat, `SELECT c.url FROM clicks c JOIN products p ON c.product_id = p.id`)
	if len(p.Joins) != 1 {
		t.Fatal("expected one join")
	}
	if p.Joins[0].Strategy != StrategyCollocated {
		t.Errorf("strategy = %v, want DS_DIST_NONE", p.Joins[0].Strategy)
	}
}

func TestBroadcastJoinForDistAll(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT c.url FROM clicks c JOIN regions r ON c.user_id = r.id`)
	if p.Joins[0].Strategy != StrategyBroadcast {
		t.Errorf("strategy = %v, want DS_BCAST_INNER", p.Joins[0].Strategy)
	}
}

func TestBroadcastJoinForSmallTable(t *testing.T) {
	cat := testCatalog(t)
	// Join products on a non-distkey column: not collocated, but small.
	p := build(t, cat, `SELECT c.url FROM clicks c JOIN products p ON c.user_id = p.id`)
	if p.Joins[0].Strategy != StrategyBroadcast {
		t.Errorf("strategy = %v, want DS_BCAST_INNER", p.Joins[0].Strategy)
	}
}

func TestShuffleJoinForLargeMisaligned(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT c.url FROM clicks c JOIN bigdim b ON c.user_id = b.id`)
	if p.Joins[0].Strategy != StrategyShuffle {
		t.Errorf("strategy = %v, want DS_DIST_BOTH", p.Joins[0].Strategy)
	}
}

func TestJoinResidualAndKeyExtraction(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT c.url FROM clicks c JOIN products p
		ON c.product_id = p.id AND c.latency > p.price`)
	j := p.Joins[0]
	if len(j.LeftKeys) != 1 || len(j.RightKeys) != 1 {
		t.Fatalf("keys = %v / %v", j.LeftKeys, j.RightKeys)
	}
	if j.Residual == nil {
		t.Error("non-equi conjunct should become residual")
	}
	// Right key must be table-local (products.id is ordinal 0).
	rc := j.RightKeys[0].(*Col)
	if rc.Index != 0 {
		t.Errorf("right key index = %d, want table-local 0", rc.Index)
	}
}

func TestLeftJoinRestrictions(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT c.url FROM clicks c LEFT JOIN products p ON c.product_id = p.id WHERE p.price IS NULL`)
	// Predicate on the null-extended side must NOT be pushed down.
	if p.Tables[1].Filter != nil {
		t.Error("filter wrongly pushed below LEFT JOIN")
	}
	if p.Where == nil {
		t.Error("residual WHERE missing")
	}
	buildErr(t, cat, `SELECT c.url FROM clicks c LEFT JOIN products p ON c.product_id = p.id AND c.latency > p.price`)
}

func TestAggregatePlan(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT category, COUNT(*) AS n, SUM(price) AS total, AVG(price),
			APPROXIMATE COUNT(DISTINCT id)
		FROM products GROUP BY category HAVING COUNT(*) > 2`)
	if !p.HasAgg || len(p.GroupBy) != 1 || len(p.Aggs) != 4 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Aggs[0].Func != sql.FuncCount || p.Aggs[0].Arg != nil {
		t.Errorf("agg0 = %+v", p.Aggs[0])
	}
	if p.Aggs[1].T != types.Float64 || p.Aggs[2].T != types.Float64 {
		t.Errorf("agg types: %v %v", p.Aggs[1].T, p.Aggs[2].T)
	}
	if !p.Aggs[3].Approx || !p.Aggs[3].Distinct {
		t.Errorf("approx = %+v", p.Aggs[3])
	}
	// Projections: group ref then agg refs.
	if c := p.Project[0].(*Col); c.Index != 0 {
		t.Errorf("project[0] = %v", p.Project[0])
	}
	if c := p.Project[1].(*Col); c.Index != 1 {
		t.Errorf("project[1] = %v", p.Project[1])
	}
	if p.Having == nil {
		t.Error("HAVING missing")
	}
	// HAVING must reuse the COUNT(*) aggregate, not add a fifth.
	if len(p.Aggs) != 4 {
		t.Errorf("aggregate dedup failed: %d aggs", len(p.Aggs))
	}
}

func TestScalarAggregateNoGroupBy(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT COUNT(*), MIN(price), MAX(category) FROM products`)
	if !p.HasAgg || len(p.GroupBy) != 0 || len(p.Aggs) != 3 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Aggs[1].T != types.Float64 || p.Aggs[2].T != types.String {
		t.Errorf("types = %v %v", p.Aggs[1].T, p.Aggs[2].T)
	}
}

func TestGroupByExpressionMatch(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT year(ts), COUNT(*) FROM clicks GROUP BY year(ts)`)
	if len(p.GroupBy) != 1 {
		t.Fatalf("groups = %v", p.GroupBy)
	}
	if c, ok := p.Project[0].(*Col); !ok || c.Index != 0 {
		t.Errorf("project[0] should be group ref, got %v", p.Project[0])
	}
}

func TestNonGroupedColumnRejected(t *testing.T) {
	cat := testCatalog(t)
	err := buildErr(t, cat, `SELECT url, COUNT(*) FROM clicks GROUP BY product_id`)
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("err = %v", err)
	}
}

func TestOrderByResolution(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT category, COUNT(*) AS n FROM products GROUP BY category ORDER BY n DESC, category`)
	if len(p.OrderBy) != 2 || p.OrderBy[0].Index != 1 || !p.OrderBy[0].Desc || p.OrderBy[1].Index != 0 {
		t.Errorf("order = %+v", p.OrderBy)
	}
	// Structural match without alias.
	p = build(t, cat, `SELECT category, COUNT(*) FROM products GROUP BY category ORDER BY COUNT(*) DESC`)
	if p.OrderBy[0].Index != 1 {
		t.Errorf("order = %+v", p.OrderBy)
	}
	buildErr(t, cat, `SELECT category FROM products GROUP BY category ORDER BY price`)
}

func TestStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT * FROM products`)
	if len(p.Project) != 3 || p.FieldNames[0] != "id" || p.FieldNames[2] != "price" {
		t.Errorf("star: %v", p.FieldNames)
	}
	p = build(t, cat, `SELECT * FROM clicks c JOIN products p ON c.product_id = p.id`)
	if len(p.Project) != 8 {
		t.Errorf("joined star: %d fields", len(p.Project))
	}
}

func TestAmbiguityAndMissingColumns(t *testing.T) {
	cat := testCatalog(t)
	buildErr(t, cat, `SELECT id FROM products p JOIN regions r ON p.id = r.id`) // ambiguous
	buildErr(t, cat, `SELECT nope FROM products`)
	buildErr(t, cat, `SELECT p.nope FROM products p`)
	buildErr(t, cat, `SELECT x.id FROM products p`)
	buildErr(t, cat, `SELECT id FROM nosuchtable`)
	buildErr(t, cat, `SELECT p.id FROM products p JOIN products p ON p.id = p.id`) // dup alias
}

func TestTypeErrors(t *testing.T) {
	cat := testCatalog(t)
	buildErr(t, cat, `SELECT url + 1 FROM clicks`)
	buildErr(t, cat, `SELECT * FROM clicks WHERE url`)
	buildErr(t, cat, `SELECT * FROM clicks WHERE url > 5`)
	buildErr(t, cat, `SELECT SUM(url) FROM clicks`)
	buildErr(t, cat, `SELECT AVG(url) FROM clicks`)
	buildErr(t, cat, `SELECT * FROM clicks WHERE latency LIKE 'x%'`)
	buildErr(t, cat, `SELECT NOT latency FROM clicks`)
	buildErr(t, cat, `SELECT -url FROM clicks`)
	buildErr(t, cat, `SELECT CASE WHEN latency > 1 THEN 'a' ELSE 2 END FROM clicks`)
	buildErr(t, cat, `SELECT COUNT(*) FROM clicks HAVING SUM(latency)`)
	buildErr(t, cat, `SELECT product_id IN (url) FROM clicks`)
}

func TestJoinWithoutEquiKeyRejected(t *testing.T) {
	cat := testCatalog(t)
	buildErr(t, cat, `SELECT c.url FROM clicks c JOIN products p ON c.latency > p.price`)
}

func TestNumericPromotion(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT product_id + latency FROM clicks`)
	if p.Project[0].Type() != types.Float64 {
		t.Errorf("int+float = %v", p.Project[0].Type())
	}
	p = build(t, cat, `SELECT product_id / 2 FROM clicks`)
	if p.Project[0].Type() != types.Int64 {
		t.Errorf("int/int = %v", p.Project[0].Type())
	}
	p = build(t, cat, `SELECT * FROM clicks WHERE latency > 1`)
	if p.Tables[0].Filter == nil {
		t.Error("promoted comparison should still push down")
	}
	// A CASE with integer and float branches promotes the integer ones, so
	// every branch evaluates to the result type on both engines.
	p = build(t, cat, `SELECT CASE WHEN latency > 1 THEN product_id WHEN latency > 0 THEN 2 ELSE 0.5 END FROM clicks`)
	c := p.Project[0].(*Case)
	for _, b := range []Expr{c.Whens[0].Then, c.Whens[1].Then, c.Else} {
		if b.Type() != types.Float64 {
			t.Errorf("branch %s of a DOUBLE PRECISION CASE is %v", b, b.Type())
		}
	}
}

func TestDateArithmetic(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT ts + 1 FROM clicks`)
	if p.Project[0].Type() != types.Timestamp {
		t.Errorf("ts+1 = %v", p.Project[0].Type())
	}
}

func TestExplainRendering(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT category, COUNT(*) AS n FROM clicks c JOIN products p ON c.product_id = p.id
		WHERE c.latency < 1 GROUP BY category ORDER BY n DESC LIMIT 10`)
	out := p.Explain()
	for _, want := range []string{"XN Limit", "XN Merge", "XN HashAggregate", "Hash Join DS_DIST_NONE", "Seq Scan on clicks", "Seq Scan on products", "zone-map"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
}

// A built plan carries the one lowering BuildWith priced it from; a plan put
// together by hand lowers on demand.
func TestPhysicalIsLoweredOnce(t *testing.T) {
	p := build(t, testCatalog(t), `SELECT category, COUNT(*) FROM products GROUP BY category`)
	if p.Physical() != p.Physical() {
		t.Error("a built plan lowered twice")
	}
	if got, want := p.Explain(), BuildPhysical(p).Explain(); got != want {
		t.Errorf("EXPLAIN of the kept tree:\n%s\nof a fresh lowering:\n%s", got, want)
	}
	byHand := &Plan{Tables: p.Tables, Project: p.Project, FieldNames: p.FieldNames, Limit: -1}
	if ph := byHand.Physical(); ph == nil || ph.Plan != byHand {
		t.Errorf("a hand-built plan lowered to %+v", ph)
	}
}

func TestSchemaOutput(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT category AS cat, COUNT(*) AS n FROM products GROUP BY category`)
	s := p.Schema()
	if s.Columns[0].Name != "cat" || s.Columns[0].Type != types.String ||
		s.Columns[1].Name != "n" || s.Columns[1].Type != types.Int64 {
		t.Errorf("schema = %+v", s)
	}
}

func TestAggContextExpressionForms(t *testing.T) {
	cat := testCatalog(t)
	// Scalar calls, CASE, IS NULL and arithmetic over aggregate results —
	// bindOutput over an aggregation.
	p := build(t, cat, `
		SELECT UPPER(category),
		       CASE WHEN COUNT(*) > 10 THEN 'hot' ELSE 'cold' END AS heat,
		       SUM(price) / COUNT(*) AS unit,
		       MIN(price) IS NULL AS empty,
		       -MAX(price) AS neg,
		       NOT (COUNT(*) = 0) AS nonempty,
		       3 AS constant
		FROM products GROUP BY category`)
	if len(p.Aggs) != 4 { // COUNT(*), SUM(price), MIN(price), MAX(price)
		t.Fatalf("aggs = %v", p.Aggs)
	}
	wantTypes := []types.Type{types.String, types.String, types.Float64, types.Bool, types.Float64, types.Bool, types.Int64}
	for i, w := range wantTypes {
		if got := p.Project[i].Type(); got != w {
			t.Errorf("project[%d] type = %v, want %v", i, got, w)
		}
	}
}

func TestAggContextErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []string{
		`SELECT price + COUNT(*) FROM products GROUP BY category`,       // raw column mixed into agg expr
		`SELECT LOWER(category), COUNT(*) FROM products GROUP BY price`, // non-grouped column in scalar call
		`SELECT SUM(price, id) FROM products`,                           // arity
		`SELECT MIN(price) FROM products GROUP BY nosuch`,               // bad group column
	}
	for _, q := range cases {
		buildErr(t, cat, q)
	}
}

func TestBindScalar(t *testing.T) {
	e, err := sql.ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := BindScalar(e)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Type() != types.Int64 {
		t.Errorf("type = %v", bound.Type())
	}
	colRef, _ := sql.ParseExpr(`some_column`)
	if _, err := BindScalar(colRef); err == nil {
		t.Error("column reference bound without tables")
	}
}

func TestExplainScalarAggAndDistinct(t *testing.T) {
	cat := testCatalog(t)
	p := build(t, cat, `SELECT DISTINCT COUNT(*) FROM products`)
	out := p.Explain()
	for _, want := range []string{"XN Unique", "XN Aggregate"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
}

func TestJoinStrategyStrings(t *testing.T) {
	if StrategyCollocated.String() != "DS_DIST_NONE" ||
		StrategyBroadcast.String() != "DS_BCAST_INNER" ||
		StrategyShuffle.String() != "DS_DIST_BOTH" {
		t.Error("strategy names wrong")
	}
}
