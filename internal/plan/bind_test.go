package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// parityCols is table t of the scope-parity test: one column of every type.
var parityCols = []catalog.ColumnDef{
	{Name: "i", Type: types.Int64}, {Name: "f", Type: types.Float64}, {Name: "s", Type: types.String},
	{Name: "d", Type: types.Date}, {Name: "ts", Type: types.Timestamp}, {Name: "b", Type: types.Bool},
}

func parityCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := cat.Create(&catalog.TableDef{Name: "t", Columns: parityCols, DistStyle: catalog.DistEven, DistKeyCol: -1}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// sqlGen builds parse trees that are typed the way the binder types them most
// of the time and deliberately wrong the rest: one operand in eight is of a
// type nobody asked for, so the rules that reject are exercised as much as
// the ones that accept. leaf renders a column reference, which is how one
// seed yields the same tree over plain columns and over MAX(column).
type sqlGen struct {
	rng  *rand.Rand
	leaf func(col string) sql.Expr
}

func (g *sqlGen) pick(n int) int { return g.rng.Intn(n) }

func (g *sqlGen) literal(t types.Type) sql.Expr {
	k := int64(g.pick(9)) - 4
	switch {
	case g.pick(10) == 0:
		return &sql.Literal{Value: types.NewNull(types.Invalid)}
	case t == types.Int64:
		return sql.IntLiteral(k)
	case t == types.Float64:
		return &sql.Literal{Value: types.NewFloat(float64(k) + 0.5)}
	case t == types.String:
		return sql.StringLiteral([]string{"", "a", "Books", "it's"}[g.pick(4)])
	case t == types.Date:
		return &sql.Literal{Value: types.NewDate(19000 + k)}
	case t == types.Timestamp:
		return &sql.Literal{Value: types.NewTimestamp(1_700_000_000_000_000 + k*3_600_000_000)}
	default:
		return &sql.Literal{Value: types.NewBool(k&1 == 1)}
	}
}

func (g *sqlGen) expr(t types.Type, depth int) sql.Expr {
	if g.pick(8) == 0 {
		t = parityCols[g.pick(len(parityCols))].Type
	}
	if depth == 0 || g.pick(4) == 0 {
		if g.pick(3) == 0 {
			return g.literal(t)
		}
		for _, c := range parityCols {
			if c.Type == t {
				return g.leaf(c.Name)
			}
		}
	}
	sub := func(t types.Type) sql.Expr { return g.expr(t, depth-1) }
	call := func(name sql.FuncName, args ...sql.Expr) sql.Expr { return &sql.FuncCall{Name: name, Args: args} }
	caseOf := func(t types.Type) sql.Expr {
		c := &sql.Case{Whens: []sql.When{{Cond: sub(types.Bool), Then: sub(t)}}}
		if g.pick(2) == 0 {
			c.Else = sub(t)
		}
		return c
	}
	any := parityCols[g.pick(len(parityCols))].Type
	switch t {
	case types.Bool:
		switch g.pick(9) {
		case 0:
			return &sql.Binary{Op: sql.OpEq + sql.BinOp(g.pick(6)), Left: sub(any), Right: sub(any)}
		case 1:
			return &sql.Binary{Op: sql.OpOr + sql.BinOp(g.pick(2)), Left: sub(t), Right: sub(t)}
		case 2:
			return &sql.Unary{Op: "NOT", Expr: sub(t)}
		case 3:
			return &sql.IsNull{Expr: sub(any), Not: g.pick(2) == 0}
		case 4:
			return &sql.Between{Expr: sub(any), Lo: sub(any), Hi: sub(any), Not: g.pick(2) == 0}
		case 5:
			return &sql.In{Expr: sub(any), List: []sql.Expr{g.literal(any), g.literal(any)}, Not: g.pick(2) == 0}
		case 6:
			return &sql.Like{Expr: sub(types.String), Pattern: "a%", Not: g.pick(2) == 0}
		default:
			return caseOf(t)
		}
	case types.Int64, types.Float64:
		switch g.pick(6) {
		case 0, 1:
			other := []types.Type{types.Int64, types.Float64}[g.pick(2)]
			return &sql.Binary{Op: sql.OpAdd + sql.BinOp(g.pick(5)), Left: sub(t), Right: sub(other)}
		case 2:
			inner := sub(t)
			if _, ok := inner.(*sql.Literal); ok {
				return inner // the parser folds -literal, and (--2) would lex as a comment
			}
			return &sql.Unary{Op: "-", Expr: inner}
		case 3:
			return call(sql.FuncAbs, sub(t))
		case 4:
			return call([]sql.FuncName{sql.FuncLength, sql.FuncExtractYear, sql.FuncExtractMonth}[g.pick(3)],
				sub([]types.Type{types.String, types.Date, types.Timestamp}[g.pick(3)]))
		default:
			return caseOf(t)
		}
	case types.String:
		switch g.pick(3) {
		case 0:
			return call([]sql.FuncName{sql.FuncLower, sql.FuncUpper}[g.pick(2)], sub(t))
		case 1:
			return call(sql.FuncCoalesce, sub(t), g.literal(t))
		default:
			return caseOf(t)
		}
	default: // Date, Timestamp
		switch g.pick(3) {
		case 0:
			return call(sql.FuncDateTrunc, sql.StringLiteral([]string{"day", "month", "eon"}[g.pick(3)]), sub(t))
		case 1:
			return &sql.Binary{Op: sql.OpAdd + sql.BinOp(g.pick(2)), Left: sub(t), Right: sub(types.Int64)}
		default:
			return caseOf(t)
		}
	}
}

// TestScopeParity holds the binder to one set of type rules: an expression
// bound over the table's columns, over GROUP BY keys (every column grouped)
// and over aggregates (every column inside MAX, which keeps its type) is
// accepted in all three scopes or in none, with one result type. The
// statements go through their SQL text, so the renderer and the parser are
// in the loop too.
func TestScopeParity(t *testing.T) {
	cat := parityCatalog(t)
	column := func(col string) sql.Expr { return &sql.ColumnRef{Column: col} }
	maxOf := func(col string) sql.Expr { return &sql.FuncCall{Name: sql.FuncMax, Args: []sql.Expr{column(col)}} }
	bind := func(query string) (types.Type, error) {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		p, err := Build(cat, stmt.(*sql.Select))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "plan: ") {
				t.Fatalf("%q: not a plan error: %v", query, err)
			}
			return 0, err
		}
		return p.Project[0].Type(), nil
	}
	accepted, rejected := 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		gen := func(leaf func(string) sql.Expr) string {
			g := &sqlGen{rng: rand.New(rand.NewSource(seed)), leaf: leaf}
			return g.expr(parityCols[g.pick(len(parityCols))].Type, 3).String()
		}
		plain := "SELECT " + gen(column) + " FROM t"
		want, wantErr := bind(plain)
		for _, twin := range []string{
			plain + " GROUP BY i, f, s, d, ts, b",
			"SELECT " + gen(maxOf) + " FROM t",
		} {
			got, err := bind(twin)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Errorf("seed %d:\n  %s\n    -> %v %v\n  %s\n    -> %v %v", seed, plain, want, wantErr, twin, got, err)
			}
		}
		if wantErr == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 500 || rejected < 500 {
		t.Errorf("generator is lopsided: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestAggScopeTypeChecks: the statements the aggregate copy of the binder
// used to accept — the first reached the evaluator and panicked there.
func TestAggScopeTypeChecks(t *testing.T) {
	cat := testCatalog(t)
	for _, q := range []string{
		`SELECT id, -MAX(name) FROM regions GROUP BY id`,
		`SELECT id, NOT SUM(id) FROM regions GROUP BY id`,
		`SELECT id, CASE WHEN SUM(id) THEN 1 ELSE 2 END FROM regions GROUP BY id`,
		`SELECT id FROM regions GROUP BY id HAVING NOT MAX(name)`,
	} {
		if err := buildErr(t, cat, q); !strings.HasPrefix(err.Error(), "plan: ") {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestAggScopeBindIsLinear: a long select item costs the same to bind over
// an aggregate as over the table (it used to re-bind and re-render every
// subtree at every node: 5.5 s for this one).
func TestAggScopeBindIsLinear(t *testing.T) {
	cat := testCatalog(t)
	terms := strings.Repeat("id+", 2000)
	best := func(query string) time.Duration {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		min := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := Build(cat, stmt.(*sql.Select)); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	plain := best("SELECT " + terms + "id FROM regions")
	agg := best("SELECT " + terms + "SUM(id) FROM regions GROUP BY id")
	if agg > 10*plain {
		t.Errorf("aggregate scope %v, plain scope %v", agg, plain)
	}
}

// TestGroupKeyMatchIsOutermost: when one GROUP BY key sits inside another,
// an expression equal to the outer key is that key, not arithmetic over the
// inner one; constants are never group references.
func TestGroupKeyMatchIsOutermost(t *testing.T) {
	p := build(t, testCatalog(t), `SELECT id + 1, id, (id + 1) * 2, 7 FROM products GROUP BY id, id + 1, 7`)
	want := []string{"group#1", "group#0", "(group#1 * 2)", "7"}
	for i, w := range want {
		if got := p.Project[i].String(); got != w {
			t.Errorf("project[%d] = %s, want %s", i, got, w)
		}
	}
}

// exprKinds lists, from the package's source, every type with a Type method:
// the node kinds of Expr.
func exprKinds(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["plan"].Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Type" {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				kinds = append(kinds, "*plan."+star.X.(*ast.Ident).Name)
			}
		}
	}
	sort.Strings(kinds)
	return kinds
}

// TestWalkYieldsEveryOperand builds one node of every kind over distinct
// operands and checks walk and rewrite reach each operand once, in order —
// walk operands first, rewrite node first — and that walk counts them. A
// kind added to the package without a case in either fails here, rather
// than being skipped by every analysis built on them.
func TestWalkYieldsEveryOperand(t *testing.T) {
	op := func(i int) Expr { return &Col{Index: i, T: types.Bool} }
	nodes := []struct {
		e        Expr
		operands int
	}{
		{&Col{Index: 9}, 0},
		{&Const{V: types.NewInt(1)}, 0},
		{&Bin{Op: sql.OpAnd, L: op(0), R: op(1), T: types.Bool}, 2},
		{&Not{E: op(0)}, 1},
		{&Neg{E: op(0)}, 1},
		{&IsNull{E: op(0)}, 1},
		{&InList{E: op(0), Vals: []types.Value{types.NewBool(true)}}, 1},
		{&Like{E: op(0), Pattern: "%"}, 1},
		{&Case{Whens: []CaseWhen{{op(0), op(1)}, {op(2), op(3)}}, Else: op(4), T: types.Bool}, 5},
		{&Case{Whens: []CaseWhen{{op(0), op(1)}}, T: types.Bool}, 2},
		{&Call{Name: sql.FuncCoalesce, Args: []Expr{op(0), op(1), op(2)}, T: types.Bool}, 3},
	}
	var covered []string
	for _, n := range nodes {
		kind := fmt.Sprintf("%T", n.e)
		if len(covered) == 0 || covered[len(covered)-1] != kind {
			covered = append(covered, kind)
		}
		var walked []Expr
		total := walk(n.e, func(x Expr, nodes int) {
			walked = append(walked, x)
			want := 1
			if x == n.e {
				want += n.operands
			}
			if nodes != want {
				t.Errorf("%s: walk counts %d nodes at %s, want %d", kind, nodes, x, want)
			}
		})
		var seen []Expr
		copied := rewrite(n.e, func(x Expr) Expr {
			seen = append(seen, x)
			if c, ok := x.(*Col); ok && x != n.e {
				return &Col{Index: c.Index + 100, T: c.T}
			}
			return nil
		})
		if total != n.operands+1 || len(walked) != total || walked[total-1] != n.e || seen[0] != n.e ||
			!reflect.DeepEqual(walked[:total-1], seen[1:]) {
			t.Fatalf("%s: walk %v (%d), rewrite %v", kind, walked, total, seen)
		}
		for i, x := range seen[1:] {
			if x.(*Col).Index != i {
				t.Errorf("%s: operand %d came out as %s", kind, i, x)
			}
		}
		want := strings.NewReplacer("#0", "#100", "#1", "#101", "#2", "#102", "#3", "#103", "#4", "#104").Replace(n.e.String())
		if n.operands > 0 && copied.String() != want {
			t.Errorf("%s: rewrite built %s, want %s", kind, copied, want)
		}
	}
	sort.Strings(covered)
	if kinds := exprKinds(t); !reflect.DeepEqual(covered, kinds) {
		t.Errorf("test covers %v, package declares %v", covered, kinds)
	}
}
