// Package plan implements the leader node's query planner (§2.1: the leader
// "parses requests, generates & compiles query plans for execution on the
// compute nodes"). It binds a parsed SELECT against the catalog and produces
// a physical plan with:
//
//   - per-table scans with pushed-down predicates and the per-column value
//     ranges the zone maps prune blocks with,
//   - a join strategy per join — co-located, broadcast or shuffle — decided
//     from distribution styles and table statistics,
//   - a two-phase aggregation split (partial per slice, final at the
//     leader), including mergeable state for AVG, COUNT(DISTINCT) and the
//     HLL-backed APPROXIMATE COUNT(DISTINCT),
//   - projection, ordering and limit over the merged stream.
package plan

import (
	"fmt"
	"strings"

	"redshift/internal/sql"
	"redshift/internal/types"
)

// Expr is a bound scalar expression: every column reference is an index
// into a known row layout and every node knows its result type.
type Expr interface {
	fmt.Stringer
	// Type returns the expression's result type.
	Type() types.Type
}

// Col references a column by position in the current row layout.
type Col struct {
	Index int
	T     types.Type
	// Name is kept for EXPLAIN and error messages.
	Name string
}

// Type implements Expr.
func (c *Col) Type() types.Type { return c.T }

func (c *Col) String() string {
	if c.Name != "" {
		return fmt.Sprintf("%s#%d", c.Name, c.Index)
	}
	return fmt.Sprintf("#%d", c.Index)
}

// Const is a constant value.
type Const struct {
	V types.Value
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.V.T }

func (c *Const) String() string { return c.V.String() }

// Bin is a binary operation with a resolved result type.
type Bin struct {
	Op   sql.BinOp
	L, R Expr
	T    types.Type
}

// Type implements Expr.
func (b *Bin) Type() types.Type { return b.T }

func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Type implements Expr.
func (*Not) Type() types.Type { return types.Bool }

func (n *Not) String() string { return "NOT " + n.E.String() }

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// Type implements Expr.
func (n *Neg) Type() types.Type { return n.E.Type() }

func (n *Neg) String() string { return "-" + n.E.String() }

// IsNull tests for SQL NULL.
type IsNull struct {
	E   Expr
	Not bool
}

// Type implements Expr.
func (*IsNull) Type() types.Type { return types.Bool }

func (i *IsNull) String() string {
	if i.Not {
		return i.E.String() + " IS NOT NULL"
	}
	return i.E.String() + " IS NULL"
}

// InList tests membership in a constant list.
type InList struct {
	E    Expr
	Vals []types.Value
	Not  bool
}

// Type implements Expr.
func (*InList) Type() types.Type { return types.Bool }

func (i *InList) String() string {
	parts := make([]string, len(i.Vals))
	for j, v := range i.Vals {
		parts[j] = v.String()
	}
	op := "IN"
	if i.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", i.E.String(), op, strings.Join(parts, ", "))
}

// Like matches a % / _ pattern against a string expression.
type Like struct {
	E       Expr
	Pattern string
	Not     bool
}

// Type implements Expr.
func (*Like) Type() types.Type { return types.Bool }

func (l *Like) String() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", l.E.String(), op, l.Pattern)
}

// Case is a bound CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expr // may be nil
	T     types.Type
}

// CaseWhen is one branch.
type CaseWhen struct {
	Cond, Then Expr
}

// Type implements Expr.
func (c *Case) Type() types.Type { return c.T }

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// Call is a bound scalar (non-aggregate) function call.
type Call struct {
	Name sql.FuncName
	Args []Expr
	T    types.Type
}

// Type implements Expr.
func (c *Call) Type() types.Type { return c.T }

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// shiftCols returns a copy of e with every Col index moved by delta.
// The planner uses it to rebase a right-table expression into the joined
// row layout.
func shiftCols(e Expr, delta int) Expr {
	if delta == 0 {
		return e
	}
	return rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*Col); ok {
			return &Col{Index: c.Index + delta, T: c.T, Name: c.Name}
		}
		return nil
	})
}

// rewrite returns a copy of e in which every subtree that sub maps to an
// expression is that expression instead; sub returns nil to keep a subtree
// and look inside it. sub sees a node before the node's operands and never
// sees inside what it replaced. It is the one place that rebuilds nodes.
func rewrite(e Expr, sub func(Expr) Expr) Expr {
	if r := sub(e); r != nil {
		return r
	}
	switch x := e.(type) {
	case *Col, *Const:
		return x
	case *Bin:
		return &Bin{Op: x.Op, L: rewrite(x.L, sub), R: rewrite(x.R, sub), T: x.T}
	case *Not:
		return &Not{E: rewrite(x.E, sub)}
	case *Neg:
		return &Neg{E: rewrite(x.E, sub)}
	case *IsNull:
		return &IsNull{E: rewrite(x.E, sub), Not: x.Not}
	case *InList:
		return &InList{E: rewrite(x.E, sub), Vals: x.Vals, Not: x.Not}
	case *Like:
		return &Like{E: rewrite(x.E, sub), Pattern: x.Pattern, Not: x.Not}
	case *Case:
		out := &Case{T: x.T}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, CaseWhen{rewrite(w.Cond, sub), rewrite(w.Then, sub)})
		}
		if x.Else != nil {
			out.Else = rewrite(x.Else, sub)
		}
		return out
	case *Call:
		out := &Call{Name: x.Name, T: x.T}
		for _, a := range x.Args {
			out.Args = append(out.Args, rewrite(a, sub))
		}
		return out
	default:
		panic(fmt.Sprintf("plan: rewrite: unknown node %T", e))
	}
}

// walk calls visit on every expression in e's tree, operands before the node
// they belong to, with the number of nodes in the expression's own tree, and
// returns that number for e. It is the one place that knows which operands
// each node kind has; an analysis over bound expressions is a visit
// function. A nil e is an empty tree.
func walk(e Expr, visit func(x Expr, nodes int)) int {
	if e == nil {
		return 0
	}
	n := 1
	switch x := e.(type) {
	case *Bin:
		n += walk(x.L, visit) + walk(x.R, visit)
	case *Not:
		n += walk(x.E, visit)
	case *Neg:
		n += walk(x.E, visit)
	case *IsNull:
		n += walk(x.E, visit)
	case *InList:
		n += walk(x.E, visit)
	case *Like:
		n += walk(x.E, visit)
	case *Case:
		for _, w := range x.Whens {
			n += walk(w.Cond, visit) + walk(w.Then, visit)
		}
		n += walk(x.Else, visit)
	case *Call:
		for _, a := range x.Args {
			n += walk(a, visit)
		}
	}
	visit(e, n)
	return n
}

// ColsUsed collects the set of column indexes an expression reads. The
// planner prunes scans with it, and the executor splits a scan's columns
// into the filter's inputs and the late-materialized rest.
func ColsUsed(e Expr, set map[int]bool) {
	walk(e, func(x Expr, _ int) {
		if c, ok := x.(*Col); ok {
			set[c.Index] = true
		}
	})
}
