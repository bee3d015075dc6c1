package plan

import (
	"reflect"
	"slices"
	"strings"

	"redshift/internal/sql"
	"redshift/internal/types"
)

// bindExpr binds a parse-tree expression over the joined row layout;
// aggregate calls are rejected.
func (b *binder) bindExpr(e sql.Expr) (Expr, error) {
	return b.bind(e, func(x *sql.FuncCall) (Expr, error) {
		return nil, errf("aggregate %s is not allowed here", x.Name)
	})
}

// bindOutput binds a select item, HAVING or ORDER BY expression. Without an
// aggregation that is bindExpr. With one it takes two steps: the walk every
// expression takes binds it over the joined layout with the query's
// aggregates appended — an aggregate call is a column past the last table's —
// and overGroups moves the result onto the layout the aggregation emits,
// [group keys..., aggregates...].
func (b *binder) bindOutput(e sql.Expr) (Expr, error) {
	if !b.plan.HasAgg {
		return b.bindExpr(e)
	}
	bound, err := b.bind(e, b.addAggregate)
	if err != nil {
		return nil, err
	}
	return b.overGroups(bound)
}

// overGroups rewrites an expression over [joined columns..., aggregates...]
// onto [group keys..., aggregates...]: the outermost subtrees equal to a
// GROUP BY key become group references (UPPER(category) under GROUP BY
// UPPER(category); category under GROUP BY category, inside any call), the
// aggregate columns shift, and a joined column left over is the error.
// Constants stay constants — DATE_TRUNC wants its unit as one.
func (b *binder) overGroups(e Expr) (Expr, error) {
	width, groups := b.layoutWidth(), b.plan.GroupBy
	// Find the keys' occurrences first. A subtree is compared with a key only
	// when the two have as many nodes (and, cheaper to ask than DeepEqual,
	// one result type). Subtrees of one size do not overlap, so all the
	// comparisons against one key together read the expression once: linear
	// in it, however long the keys are.
	keyNodes := make([]int, len(groups))
	for gi, g := range groups {
		keyNodes[gi] = walk(g, func(Expr, int) {})
	}
	keyAt := map[Expr]int{}
	walk(e, func(x Expr, nodes int) {
		if _, ok := x.(*Const); ok {
			return
		}
		for gi, g := range groups {
			if nodes == keyNodes[gi] && x.Type() == g.Type() && reflect.DeepEqual(x, g) {
				keyAt[x] = gi
				return
			}
		}
	})
	var err error
	out := rewrite(e, func(x Expr) Expr {
		if gi, ok := keyAt[x]; ok {
			return &Col{Index: gi, T: x.Type(), Name: "group"}
		}
		switch c, ok := x.(*Col); {
		case !ok:
			return nil
		case c.Index >= width:
			return &Col{Index: c.Index - width + len(groups), T: c.T, Name: c.Name}
		case err == nil:
			err = errf("%s must appear in GROUP BY or inside an aggregate", c.Name)
		}
		return x
	})
	return out, err
}

// bind is the one walk from parse tree to bound expression, and the one home
// of every type rule. Columns resolve in the joined layout; agg says what an
// aggregate call becomes, the only thing the two callers differ on.
func (b *binder) bind(e sql.Expr, agg func(*sql.FuncCall) (Expr, error)) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{V: x.Value}, nil

	case *sql.ColumnRef:
		return b.resolveColumn(x)

	case *sql.Binary:
		l, err := b.bind(x.Left, agg)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(x.Right, agg)
		if err != nil {
			return nil, err
		}
		return typeBinary(x.Op, l, r)

	case *sql.Unary:
		inner, err := b.bind(x.Expr, agg)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			if inner.Type() != types.Bool {
				return nil, errf("NOT requires a boolean, got %s", inner.Type())
			}
			return &Not{E: inner}, nil
		}
		if !inner.Type().Numeric() {
			return nil, errf("unary minus requires a numeric, got %s", inner.Type())
		}
		return &Neg{E: inner}, nil

	case *sql.IsNull:
		inner, err := b.bind(x.Expr, agg)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Not: x.Not}, nil

	case *sql.Between:
		// Desugar to (e >= lo AND e <= hi), so pushdown and zone-map range
		// extraction see plain comparisons.
		inner, err := b.bind(x.Expr, agg)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo, agg)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi, agg)
		if err != nil {
			return nil, err
		}
		ge, err := typeBinary(sql.OpGe, inner, lo)
		if err != nil {
			return nil, err
		}
		le, err := typeBinary(sql.OpLe, inner, hi)
		if err != nil {
			return nil, err
		}
		var out Expr = &Bin{Op: sql.OpAnd, L: ge, R: le, T: types.Bool}
		if x.Not {
			out = &Not{E: out}
		}
		return out, nil

	case *sql.In:
		inner, err := b.bind(x.Expr, agg)
		if err != nil {
			return nil, err
		}
		list := &InList{E: inner, Not: x.Not}
		for _, item := range x.List {
			lit, ok := item.(*sql.Literal)
			if !ok {
				return nil, errf("IN list items must be literals, got %s", item)
			}
			v, err := coerceValue(lit.Value, inner.Type())
			if err != nil {
				return nil, err
			}
			list.Vals = append(list.Vals, v)
		}
		return list, nil

	case *sql.Like:
		inner, err := b.bind(x.Expr, agg)
		if err != nil {
			return nil, err
		}
		if inner.Type() != types.String {
			return nil, errf("LIKE requires a string, got %s", inner.Type())
		}
		return &Like{E: inner, Pattern: x.Pattern, Not: x.Not}, nil

	case *sql.Case:
		out := &Case{}
		for _, w := range x.Whens {
			cond, err := b.bind(w.Cond, agg)
			if err != nil {
				return nil, err
			}
			if cond.Type() != types.Bool {
				return nil, errf("CASE WHEN requires a boolean, got %s", cond.Type())
			}
			then, err := b.bind(w.Then, agg)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			e, err := b.bind(x.Else, agg)
			if err != nil {
				return nil, err
			}
			out.Else = e
		}
		t, err := caseType(out)
		if err != nil {
			return nil, err
		}
		out.T = t
		return out, nil

	case *sql.FuncCall:
		if x.IsAggregate() {
			return agg(x)
		}
		out := &Call{Name: x.Name}
		for _, a := range x.Args {
			bound, err := b.bind(a, agg)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, bound)
		}
		t, err := scalarCallType(out)
		if err != nil {
			return nil, err
		}
		out.T = t
		return out, nil

	default:
		return nil, errf("unsupported expression %s", e)
	}
}

// addAggregate registers (or reuses) an aggregate and returns its reference:
// the column after the joined layout's last and the aggregates before it.
func (b *binder) addAggregate(x *sql.FuncCall) (Expr, error) {
	spec := AggSpec{Func: x.Name, Distinct: x.Distinct, Approx: x.Approximate}
	if x.Star {
		spec.T = types.Int64
	} else {
		if len(x.Args) != 1 {
			return nil, errf("%s takes exactly one argument", x.Name)
		}
		arg, err := b.bindExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		spec.Arg = arg
		switch x.Name {
		case sql.FuncCount:
			spec.T = types.Int64
		case sql.FuncAvg:
			if !arg.Type().Numeric() {
				return nil, errf("AVG requires a numeric argument, got %s", arg.Type())
			}
			spec.T = types.Float64
		case sql.FuncSum:
			if !arg.Type().Numeric() {
				return nil, errf("SUM requires a numeric argument, got %s", arg.Type())
			}
			spec.T = arg.Type()
			if spec.T == types.Date || spec.T == types.Timestamp {
				return nil, errf("SUM of %s is not supported", spec.T)
			}
		case sql.FuncMin, sql.FuncMax:
			spec.T = arg.Type()
		}
	}
	// Reuse an identical aggregate.
	want := spec.String()
	i := slices.IndexFunc(b.plan.Aggs, func(a AggSpec) bool { return a.String() == want })
	if i < 0 {
		i = len(b.plan.Aggs)
		b.plan.Aggs = append(b.plan.Aggs, spec)
	}
	return &Col{Index: b.layoutWidth() + i, T: spec.T, Name: "agg"}, nil
}

// resolveColumn finds a (possibly qualified) column in the joined layout.
func (b *binder) resolveColumn(ref *sql.ColumnRef) (*Col, error) {
	found := -1
	var typ types.Type
	for ti, scan := range b.plan.Tables {
		if ref.Table != "" && !strings.EqualFold(b.refNames[ti], ref.Table) {
			continue
		}
		ord := scan.Def.Ordinal(ref.Column)
		if ord < 0 {
			continue
		}
		if found >= 0 {
			return nil, errf("column reference %s is ambiguous", ref)
		}
		found = scan.BaseCol + ord
		typ = scan.Def.Columns[ord].Type
	}
	if found < 0 {
		if ref.Table != "" {
			return nil, errf("column %s.%s does not exist", ref.Table, ref.Column)
		}
		return nil, errf("column %s does not exist", ref.Column)
	}
	return &Col{Index: found, T: typ, Name: ref.Column}, nil
}

// scalarCallType type-checks a scalar call.
func scalarCallType(c *Call) (types.Type, error) {
	argn := func(n int) error {
		if len(c.Args) != n {
			return errf("%s takes %d argument(s), got %d", c.Name, n, len(c.Args))
		}
		return nil
	}
	switch c.Name {
	case sql.FuncLower, sql.FuncUpper:
		if err := argn(1); err != nil {
			return 0, err
		}
		if c.Args[0].Type() != types.String {
			return 0, errf("%s requires a string", c.Name)
		}
		return types.String, nil
	case sql.FuncLength:
		if err := argn(1); err != nil {
			return 0, err
		}
		if c.Args[0].Type() != types.String {
			return 0, errf("LENGTH requires a string")
		}
		return types.Int64, nil
	case sql.FuncAbs:
		if err := argn(1); err != nil {
			return 0, err
		}
		t := c.Args[0].Type()
		if t != types.Int64 && t != types.Float64 {
			return 0, errf("ABS requires a number")
		}
		return t, nil
	case sql.FuncCoalesce:
		if len(c.Args) == 0 {
			return 0, errf("COALESCE requires at least one argument")
		}
		// Untyped NULL literals adopt the result type.
		t := types.Invalid
		for _, a := range c.Args {
			at := a.Type()
			switch {
			case at == types.Invalid:
			case t == types.Invalid || at == t:
				t = at
			case (at == types.Int64 && t == types.Float64) || (at == types.Float64 && t == types.Int64):
				t = types.Float64
			default:
				return 0, errf("COALESCE arguments must share a type")
			}
		}
		if t == types.Invalid {
			return 0, errf("COALESCE needs at least one typed argument")
		}
		for i, a := range c.Args {
			if cst, ok := a.(*Const); ok && cst.V.Null && cst.V.T == types.Invalid {
				c.Args[i] = &Const{V: types.NewNull(t)}
			}
		}
		return t, nil
	case sql.FuncDateTrunc:
		if err := argn(2); err != nil {
			return 0, err
		}
		cst, ok := c.Args[0].(*Const)
		if !ok || cst.V.T != types.String {
			return 0, errf("DATE_TRUNC requires a unit literal")
		}
		switch strings.ToLower(cst.V.S) {
		case "year", "quarter", "month", "week", "day", "hour", "minute":
		default:
			return 0, errf("DATE_TRUNC: unsupported unit %q", cst.V.S)
		}
		if t := c.Args[1].Type(); t != types.Timestamp && t != types.Date {
			return 0, errf("DATE_TRUNC requires a timestamp or date")
		}
		return c.Args[1].Type(), nil
	case sql.FuncExtractYear, sql.FuncExtractMonth:
		if err := argn(1); err != nil {
			return 0, err
		}
		if t := c.Args[0].Type(); t != types.Timestamp && t != types.Date {
			return 0, errf("%s requires a timestamp or date", c.Name)
		}
		return types.Int64, nil
	default:
		return 0, errf("unknown function %s", c.Name)
	}
}

// typeBinary type-checks a binary operation, inserting numeric promotions
// and adopting a type for untyped NULL literals.
func typeBinary(op sql.BinOp, l, r Expr) (Expr, error) {
	l, r = adoptNullType(l, r)
	lt, rt := l.Type(), r.Type()
	switch op {
	case sql.OpAnd, sql.OpOr:
		if lt != types.Bool || rt != types.Bool {
			return nil, errf("%s requires booleans, got %s and %s", op, lt, rt)
		}
		return &Bin{Op: op, L: l, R: r, T: types.Bool}, nil

	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		if lt == rt {
			return &Bin{Op: op, L: l, R: r, T: types.Bool}, nil
		}
		if isNumericPair(lt, rt) {
			return &Bin{Op: op, L: promote(l), R: promote(r), T: types.Bool}, nil
		}
		return nil, errf("cannot compare %s with %s", lt, rt)

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		// Date/Timestamp ± integer keeps the temporal type.
		if (lt == types.Date || lt == types.Timestamp) && rt == types.Int64 && (op == sql.OpAdd || op == sql.OpSub) {
			return &Bin{Op: op, L: l, R: r, T: lt}, nil
		}
		if lt == rt && lt == types.Int64 {
			return &Bin{Op: op, L: l, R: r, T: types.Int64}, nil
		}
		if isNumericPair(lt, rt) && op != sql.OpMod {
			return &Bin{Op: op, L: promote(l), R: promote(r), T: types.Float64}, nil
		}
		return nil, errf("cannot apply %s to %s and %s", op, lt, rt)
	default:
		return nil, errf("unknown operator %s", op)
	}
}

// adoptNullType gives an untyped NULL constant the type of the other side.
func adoptNullType(l, r Expr) (Expr, Expr) {
	if c, ok := l.(*Const); ok && c.V.Null && c.V.T == types.Invalid {
		l = &Const{V: types.NewNull(r.Type())}
	}
	if c, ok := r.(*Const); ok && c.V.Null && c.V.T == types.Invalid {
		r = &Const{V: types.NewNull(l.Type())}
	}
	return l, r
}

func isNumericPair(a, b types.Type) bool {
	num := func(t types.Type) bool { return t == types.Int64 || t == types.Float64 }
	return num(a) && num(b)
}

// promote wraps an Int64 expression so it evaluates as Float64.
func promote(e Expr) Expr {
	if e.Type() != types.Int64 {
		return e
	}
	if c, ok := e.(*Const); ok {
		return &Const{V: types.NewFloat(float64(c.V.I))}
	}
	return &Call{Name: sql.FuncFloat, Args: []Expr{e}, T: types.Float64}
}

// caseType computes the result type of a CASE expression and promotes its
// integer branches when that type is Float64.
func caseType(c *Case) (types.Type, error) {
	var t types.Type
	consider := func(e Expr) error {
		et := e.Type()
		if t == types.Invalid || t == et {
			if et != types.Invalid {
				t = et
			}
			return nil
		}
		if isNumericPair(t, et) {
			t = types.Float64
			return nil
		}
		return errf("CASE branches must share a type (%s vs %s)", t, et)
	}
	for _, w := range c.Whens {
		if err := consider(w.Then); err != nil {
			return 0, err
		}
	}
	if c.Else != nil {
		if err := consider(c.Else); err != nil {
			return 0, err
		}
	}
	if t == types.Invalid {
		return 0, errf("CASE has no typed branch")
	}
	if t == types.Float64 {
		// Integer branches beside float ones evaluate as floats, as the
		// operands of mixed arithmetic do: neither engine converts a
		// branch's value after the fact.
		for i := range c.Whens {
			c.Whens[i].Then = promote(c.Whens[i].Then)
		}
		if c.Else != nil {
			c.Else = promote(c.Else)
		}
	}
	return t, nil
}

// coerceValue converts a literal to the target type for IN lists and
// comparisons (int↔float only; NULL adopts the target).
func coerceValue(v types.Value, target types.Type) (types.Value, error) {
	if v.Null {
		return types.NewNull(target), nil
	}
	if v.T == target {
		return v, nil
	}
	if v.T == types.Int64 && target == types.Float64 {
		return types.NewFloat(float64(v.I)), nil
	}
	if v.T == types.Float64 && target == types.Int64 {
		if v.F == float64(int64(v.F)) {
			return types.NewInt(int64(v.F)), nil
		}
	}
	return types.Value{}, errf("cannot use %s value %s where %s is required", v.T, v.String(), target)
}
