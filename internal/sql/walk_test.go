package sql

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exprKinds lists, from the package's source, every type with an expr
// method: the node kinds of Expr.
func exprKinds(t *testing.T) []string {
	t.Helper()
	pkgs, err := goparser.ParseDir(gotoken.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["sql"].Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "expr" {
				kinds = append(kinds, "*sql."+fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
			}
		}
	}
	sort.Strings(kinds)
	return kinds
}

// TestWalkYieldsEveryOperand builds one node of every kind over distinct
// operands and checks Walk reaches each operand once, in order, and stops
// where the visitor says. A kind added to the package without a case in Walk
// fails here, rather than being skipped by every analysis built on it.
func TestWalkYieldsEveryOperand(t *testing.T) {
	op := func(i int64) Expr { return IntLiteral(i) }
	nodes := []struct {
		e        Expr
		operands int64
	}{
		{&ColumnRef{Table: "t", Column: "c"}, 0},
		{StringLiteral("x"), 0},
		{&Binary{Op: OpAdd, Left: op(0), Right: op(1)}, 2},
		{&Unary{Op: "-", Expr: op(0)}, 1},
		{&IsNull{Expr: op(0)}, 1},
		{&Between{Expr: op(0), Lo: op(1), Hi: op(2)}, 3},
		{&In{Expr: op(0), List: []Expr{op(1), op(2), op(3)}}, 4},
		{&Like{Expr: op(0), Pattern: "%"}, 1},
		{&Case{Whens: []When{{op(0), op(1)}, {op(2), op(3)}}, Else: op(4)}, 5},
		{&Case{Whens: []When{{op(0), op(1)}}}, 2},
		{&FuncCall{Name: FuncCoalesce, Args: []Expr{op(0), op(1), op(2)}}, 3},
		{&FuncCall{Name: FuncCount, Star: true}, 0},
	}
	var covered []string
	for _, n := range nodes {
		kind := fmt.Sprintf("%T", n.e)
		if len(covered) == 0 || covered[len(covered)-1] != kind {
			covered = append(covered, kind)
		}
		var walked []Expr
		if !Walk(n.e, func(x Expr) bool { walked = append(walked, x); return true }) {
			t.Errorf("%s: Walk reported an early stop", kind)
		}
		if int64(len(walked)) != n.operands+1 || walked[0] != n.e {
			t.Fatalf("%s: walked %v", kind, walked)
		}
		for i, x := range walked[1:] {
			if x.(*Literal).Value.I != int64(i) {
				t.Errorf("%s: operand %d came out as %s", kind, i, x)
			}
		}
		// Stopping at the last operand still visits everything before it;
		// stopping at the node visits nothing else.
		for stopAt := range walked {
			visits := 0
			done := Walk(n.e, func(x Expr) bool { visits++; return x != walked[stopAt] })
			if done || visits != stopAt+1 {
				t.Errorf("%s: stop at visit %d: done=%v after %d visits", kind, stopAt, done, visits)
			}
		}
	}
	sort.Strings(covered)
	if kinds := exprKinds(t); !reflect.DeepEqual(covered, kinds) {
		t.Errorf("test covers %v, package declares %v", covered, kinds)
	}
	if !Walk(nil, func(Expr) bool { return false }) {
		t.Error("a nil tree is not empty")
	}
}

// TestExprDepthBound: each way an expression nests — and an operator chain,
// which nests once per operator — parses at maxExprDepth levels and is a
// parse error one level further; two million open parentheses (4 MB, a
// stack overflow that killed the process) are the same parse error.
func TestExprDepthBound(t *testing.T) {
	shapes := map[string]func(n int) string{
		"parens":   func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
		"not":      func(n int) string { return strings.Repeat("NOT ", n) + "TRUE" },
		"minus":    func(n int) string { return strings.Repeat("- ", n) + "x" },
		"case":     func(n int) string { return strings.Repeat("CASE WHEN b THEN ", n) + "1" + strings.Repeat(" END", n) },
		"case-if":  func(n int) string { return strings.Repeat("CASE WHEN ", n) + "b" + strings.Repeat(" THEN 1 END", n) },
		"call":     func(n int) string { return strings.Repeat("ABS(", n) + "1" + strings.Repeat(")", n) },
		"in-list":  func(n int) string { return strings.Repeat("1 IN (", n) + "1" + strings.Repeat(")", n) },
		"or":       func(n int) string { return "b" + strings.Repeat(" OR b", n) },
		"and":      func(n int) string { return "b" + strings.Repeat(" AND b", n) },
		"plus":     func(n int) string { return "1" + strings.Repeat("+1", n) },
		"times":    func(n int) string { return "1" + strings.Repeat("*1", n) },
		"siblings": func(n int) string { return "1" + strings.Repeat("+1", n) + " = 1" + strings.Repeat("+1", n) },
	}
	for name, shape := range shapes {
		// The select item itself is level one.
		stmt, err := Parse("SELECT " + shape(maxExprDepth-1) + " FROM t")
		if err != nil {
			t.Errorf("%s at the bound: %v", name, err)
			continue
		}
		Normalize(stmt) // and the tree can be walked
		for _, n := range []int{maxExprDepth, 2_000_000} {
			if name != "parens" && n > maxExprDepth {
				continue
			}
			_, err := Parse("SELECT " + shape(n) + " FROM t")
			if err == nil || !strings.Contains(err.Error(), "levels deep") {
				t.Errorf("%s %d deep: %v", name, n, err)
			}
		}
	}
	// A parser that failed deep in one statement starts the next at the top.
	if _, err := Parse("SELECT (((1))) FROM t"); err != nil {
		t.Error(err)
	}
}
