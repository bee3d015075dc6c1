package sql_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// fuzzCatalog is the schema FuzzParse plans against: a fact table and two
// dimensions, with statistics, so join reordering and costing run too.
func fuzzCatalog(t testing.TB) *catalog.Catalog {
	cat := catalog.New()
	col := func(name string, typ types.Type) catalog.ColumnDef { return catalog.ColumnDef{Name: name, Type: typ} }
	for id, def := range []*catalog.TableDef{
		{Name: "f", DistStyle: catalog.DistKey, DistKeyCol: 0, Columns: []catalog.ColumnDef{
			col("k", types.Int64), col("d", types.Int64), col("x", types.Float64), col("s", types.String),
			col("day", types.Date), col("ts", types.Timestamp), col("b", types.Bool)}},
		{Name: "d", DistStyle: catalog.DistKey, DistKeyCol: 0, Columns: []catalog.ColumnDef{
			col("k", types.Int64), col("name", types.String)}},
		{Name: "r", DistStyle: catalog.DistAll, DistKeyCol: -1, Columns: []catalog.ColumnDef{
			col("k", types.Int64), col("name", types.String)}},
	} {
		if err := cat.Create(def); err != nil {
			t.Fatal(err)
		}
		cat.UpdateStats(int64(id+1), catalog.TableStats{Rows: int64(1000 >> id), Cols: make([]catalog.ColumnStats, len(def.Columns))})
	}
	return cat
}

// decoy is parsed between two renderings of the statement under test: were
// an AST to alias the pooled parser's token buffer, re-lexing this into that
// buffer would change what the first statement renders as.
const decoy = `SELECT zz.q9 + 77, 'decoy' FROM zz JOIN yy ON zz.q9 = yy.q8 WHERE zz.q7 NOT LIKE 'w%' ORDER BY 1 LIMIT 3`

// checkParse holds one input to the front end's contract: Parse returns a
// statement or an error; a statement renders to text that parses back to the
// same text; the rendering does not change when the parser is reused; and the
// planner answers a SELECT with a plan or an error. A panic anywhere fails
// the test by itself.
func checkParse(t *testing.T, cat *catalog.Catalog, input string) {
	stmt, err := sql.Parse(input)
	if err != nil {
		return
	}
	norm := sql.Normalize(stmt)
	again, err := sql.Parse(norm)
	if err != nil {
		t.Fatalf("%q parses, its rendering %q does not: %v", input, norm, err)
	}
	if got := sql.Normalize(again); got != norm {
		t.Fatalf("%q renders as %q, which renders as %q", input, norm, got)
	}
	if _, err := sql.Parse(decoy); err != nil {
		t.Fatal(err)
	}
	if got := sql.Normalize(stmt); got != norm {
		t.Fatalf("%q rendered as %q, and as %q once the parser was reused", input, norm, got)
	}
	for {
		switch x := stmt.(type) {
		case *sql.Explain:
			stmt = x.Stmt
			continue
		case *sql.Prepare:
			stmt = x.Stmt
			continue
		case *sql.Select:
			if x.From == nil {
				return
			}
			if p, err := plan.BuildWith(cat, x, plan.DefaultOptions()); err == nil {
				p.Explain()
			} else if !strings.HasPrefix(err.Error(), "plan: ") {
				t.Fatalf("%q: not a plan error: %v", input, err)
			}
		}
		return
	}
}

// FuzzParse feeds arbitrary bytes to the SQL front end (see checkParse).
func FuzzParse(f *testing.F) {
	cat := fuzzCatalog(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkParse(t, cat, string(data)) })
}

// parseSeeds is FuzzParse's committed corpus: every statement kind, every
// expression kind in both binding scopes, the lexer's corners, and inputs
// that must fail.
var parseSeeds = map[string]string{
	"select-star":    `SELECT * FROM f`,
	"select-join":    `SELECT f.k, d.name, r.name FROM f JOIN d ON f.d = d.k LEFT JOIN r ON f.k = r.k WHERE f.x > 1.5 AND d.name <> 'x' ORDER BY f.k DESC LIMIT 10`,
	"select-reorder": `SELECT COUNT(*) FROM r JOIN f ON r.k = f.k JOIN d ON d.k = f.d AND d.name = r.name`,
	"select-agg":     `SELECT d, COUNT(*), SUM(x) / COUNT(*), APPROXIMATE COUNT(DISTINCT s) FROM f GROUP BY d HAVING MAX(x) > 2 ORDER BY COUNT(*)`,
	"select-groupby": `SELECT UPPER(s), DATE_TRUNC('month', ts), -MAX(x), NOT (COUNT(*) = 0) FROM f GROUP BY UPPER(s), DATE_TRUNC('month', ts)`,
	"select-scalar":  `SELECT 1 + 2 * 3, COALESCE(NULL, 'a'), LENGTH('abc')`,
	"select-exprs":   `SELECT DISTINCT CASE WHEN b THEN k ELSE -k END, x BETWEEN 1 AND 2.5, s NOT LIKE 'a_%', k NOT IN (1, 2, NULL), day IS NOT NULL, YEAR(day) % 4 FROM f`,
	"select-literal": `SELECT DATE '2024-02-29', TIMESTAMP '2024-02-29 12:00:00', TRUE, 'it''s', 1e21, .5, -0.0 FROM f`,
	"agg-mistyped":   `SELECT k, -MAX(s), NOT SUM(k), CASE WHEN SUM(k) THEN 1 END FROM f GROUP BY k HAVING NOT MAX(s)`,
	"create":         `CREATE TABLE IF NOT EXISTS "select" (a BIGINT NOT NULL ENCODE DELTA, "b c" VARCHAR(20), c DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(a) INTERLEAVED SORTKEY(a, c)`,
	"drop":           `DROP TABLE IF EXISTS f;`,
	"insert":         `INSERT INTO f (k, s) VALUES (1, 'a'), (-2, NULL)`,
	"copy":           `COPY f FROM 's3sim://bucket/it''s' FORMAT CSV DELIMITER ',' COMPUPDATE OFF STATUPDATE ON GZIP`,
	"admin":          `EXPLAIN ANALYZE SELECT k FROM f -- trailing comment`,
	"vacuum":         `VACUUM f`,
	"analyze":        `ANALYZE COMPRESSION f`,
	"truncate":       `TRUNCATE TABLE f`,
	"set":            `SET work_mem = '64KB'`,
	"cancel":         `CANCEL 42`,
	"prepare":        `PREPARE q AS SELECT k FROM f WHERE k = 7`,
	"execute":        `EXECUTE q`,
	"deallocate":     `DEALLOCATE PREPARE ALL`,
	"nested":         `SELECT ((((((((k)))))))) > 0 AND NOT NOT b FROM f`,
	"bad-token":      `SELECT k FROM f WHERE s = 'unterminated`,
	"bad-grammar":    `SELECT FROM WHERE`,
	"bad-bytes":      "SELECT \xff\xfe FROM \x00",
}

// TestParseSeedCorpus keeps FuzzParse's committed seeds equal to parseSeeds
// (UPDATE_FUZZ_CORPUS=1 writes them), holds each to the fuzz target's
// contract, and holds the corpus to what it says it covers: every statement
// kind and every expression kind.
func TestParseSeedCorpus(t *testing.T) {
	cat := fuzzCatalog(t)
	kinds := map[string]bool{}
	for name, input := range parseSeeds {
		checkParse(t, cat, input)
		stmt, err := sql.Parse(input)
		if (err != nil) != strings.HasPrefix(name, "bad-") {
			t.Errorf("%s: parse error = %v", name, err)
		}
		if sel, ok := stmt.(*sql.Select); ok {
			exprs := append([]sql.Expr{sel.Where, sel.Having}, sel.GroupBy...)
			for _, item := range sel.Items {
				exprs = append(exprs, item.Expr)
			}
			for _, e := range exprs {
				sql.Walk(e, func(x sql.Expr) bool { kinds[fmt.Sprintf("%T", x)] = true; return true })
			}
		}
		kinds[fmt.Sprintf("%T", stmt)] = true
	}
	var got []string
	for k := range kinds {
		got = append(got, strings.TrimPrefix(k, "*sql."))
	}
	sort.Strings(got)
	const want = "<nil> Analyze Between Binary Cancel Case ColumnRef Copy CreateTable Deallocate DropTable Execute Explain " +
		"FuncCall In Insert IsNull Like Literal Prepare Select Set Truncate Unary Vacuum"
	if strings.Join(got, " ") != want {
		t.Errorf("corpus covers %v", got)
	}
	checkSeedCorpus(t, "FuzzParse", parseSeeds)
}

// checkSeedCorpus holds a fuzz target's committed seed files to seeds, name
// for name and byte for byte; UPDATE_FUZZ_CORPUS=1 writes them instead.
func checkSeedCorpus(t *testing.T, target string, seeds map[string]string) {
	t.Helper()
	for name, input := range seeds {
		path := filepath.Join("testdata", "fuzz", target, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", input)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: seed missing or stale (%v); run with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzParseByteSize: arbitrary bytes into the byte-size parser behind
// SET work_mem and the server's size flags. It must not panic, and an
// accepted value is -1 exactly when the input is "default", and otherwise
// a size in [0, 2^62].
func FuzzParseByteSize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkByteSize(t, string(data)) })
}

func checkByteSize(t *testing.T, s string) {
	n, err := sql.ParseByteSize(s)
	if err != nil {
		return
	}
	if isDefault := strings.EqualFold(strings.TrimSpace(s), "default"); (n == -1) != isDefault {
		t.Fatalf("ParseByteSize(%q) = %d", s, n)
	}
	if n != -1 && (n < 0 || n > 1<<62) {
		t.Fatalf("ParseByteSize(%q) = %d, outside [0, 2^62]", s, n)
	}
}

// byteSizeSeeds is FuzzParseByteSize's committed corpus: every unit, the
// bounds, and inputs that must fail.
var byteSizeSeeds = map[string]string{
	"bare":             "65536",
	"kb":               "64KB",
	"mib":              "1MiB",
	"g-spaced":         " 2 g ",
	"default":          "DEFAULT",
	"max":              "4611686018427387904",
	"max-gib":          "4294967296GiB",
	"bad-over-max":     "4611686018427387905",
	"bad-max-int64":    "9223372036854775807",
	"bad-gib-overflow": "4294967297GiB",
	"bad-unit":         "5TB",
	"bad-negative":     "-1",
	"bad-empty":        "",
}

// TestByteSizeSeedCorpus keeps FuzzParseByteSize's committed seeds equal to
// byteSizeSeeds and holds each to the fuzz target's contract: a "bad-" seed
// is rejected, every other one accepted.
func TestByteSizeSeedCorpus(t *testing.T) {
	for name, input := range byteSizeSeeds {
		checkByteSize(t, input)
		if _, err := sql.ParseByteSize(input); (err != nil) != strings.HasPrefix(name, "bad-") {
			t.Errorf("%s: ParseByteSize(%q) error = %v", name, input, err)
		}
	}
	checkSeedCorpus(t, "FuzzParseByteSize", byteSizeSeeds)
}
