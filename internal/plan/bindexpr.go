package plan

import (
	"strings"

	"redshift/internal/sql"
	"redshift/internal/types"
)

// bindExpr binds a parse-tree expression over the joined row layout.
// Aggregate calls are rejected; bindAggExpr handles aggregate contexts.
func (b *binder) bindExpr(e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{V: x.Value}, nil

	case *sql.ColumnRef:
		return b.resolveColumn(x)

	case *sql.Binary:
		l, err := b.bindExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.Right)
		if err != nil {
			return nil, err
		}
		return typeBinary(x.Op, l, r)

	case *sql.Unary:
		inner, err := b.bindExpr(x.Expr)
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
		inner, err := b.bindExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Not: x.Not}, nil

	case *sql.Between:
		// Desugar to (e >= lo AND e <= hi), so pushdown and zone-map range
		// extraction see plain comparisons.
		inner, err := b.bindExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(x.Hi)
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
		inner, err := b.bindExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		list := &InList{E: inner, Not: x.Not}
		for _, item := range x.List {
			lit, ok := item.(*sql.Literal)
			if !ok {
				return nil, errf("IN list items must be literals, got %s", item)
			}
			v := lit.Value
			v, err := coerceValue(v, inner.Type())
			if err != nil {
				return nil, err
			}
			list.Vals = append(list.Vals, v)
		}
		return list, nil

	case *sql.Like:
		inner, err := b.bindExpr(x.Expr)
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
			cond, err := b.bindExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			if cond.Type() != types.Bool {
				return nil, errf("CASE WHEN requires a boolean, got %s", cond.Type())
			}
			then, err := b.bindExpr(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			e, err := b.bindExpr(x.Else)
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
			return nil, errf("aggregate %s is not allowed here", x.Name)
		}
		return b.bindScalarCall(x)

	default:
		return nil, errf("unsupported expression %s", e)
	}
}

// bindAggExpr binds an expression in aggregate context: aggregate calls
// become references into the aggregate layout [group keys..., aggs...], and
// subexpressions structurally equal to a GROUP BY key become group
// references. Any other base-column reference is an error.
func (b *binder) bindAggExpr(e sql.Expr) (Expr, error) {
	// GROUP BY match: bind in plain mode (only valid if aggregate-free)
	// and compare renderings. A non-matching subtree is not an error yet —
	// the structural walk below may find group keys or aggregates inside
	// it (UPPER(category) with GROUP BY category recurses into the arg).
	if !containsAggregate(e) {
		if plain, err := b.bindExpr(e); err == nil {
			want := plain.String()
			for gi, g := range b.plan.GroupBy {
				if g.String() == want {
					return &Col{Index: gi, T: g.Type(), Name: "group"}, nil
				}
			}
			set := map[int]bool{}
			colsUsed(plain, set)
			if len(set) == 0 {
				return plain, nil // constant expression
			}
		}
	}
	switch x := e.(type) {
	case *sql.FuncCall:
		if x.IsAggregate() {
			return b.addAggregate(x)
		}
		// Scalar call over aggregate subexpressions.
		out := &Call{Name: x.Name}
		for _, a := range x.Args {
			bound, err := b.bindAggExpr(a)
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
	case *sql.Binary:
		l, err := b.bindAggExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.bindAggExpr(x.Right)
		if err != nil {
			return nil, err
		}
		return typeBinary(x.Op, l, r)
	case *sql.Unary:
		inner, err := b.bindAggExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &Not{E: inner}, nil
		}
		return &Neg{E: inner}, nil
	case *sql.IsNull:
		inner, err := b.bindAggExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Not: x.Not}, nil
	case *sql.Between:
		inner, err := b.bindAggExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindAggExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindAggExpr(x.Hi)
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
		inner, err := b.bindAggExpr(x.Expr)
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
		inner, err := b.bindAggExpr(x.Expr)
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
			cond, err := b.bindAggExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := b.bindAggExpr(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			inner, err := b.bindAggExpr(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = inner
		}
		t, err := caseType(out)
		if err != nil {
			return nil, err
		}
		out.T = t
		return out, nil
	default:
		return nil, errf("%s must appear in GROUP BY or inside an aggregate", e)
	}
}

// addAggregate registers (or reuses) an aggregate and returns its reference
// in the aggregate layout.
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
	for i, existing := range b.plan.Aggs {
		if existing.String() == spec.String() {
			return &Col{Index: len(b.plan.GroupBy) + i, T: existing.T, Name: "agg"}, nil
		}
	}
	b.plan.Aggs = append(b.plan.Aggs, spec)
	return &Col{Index: len(b.plan.GroupBy) + len(b.plan.Aggs) - 1, T: spec.T, Name: "agg"}, nil
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

// bindScalarCall binds a non-aggregate function.
func (b *binder) bindScalarCall(x *sql.FuncCall) (Expr, error) {
	out := &Call{Name: x.Name}
	for _, a := range x.Args {
		bound, err := b.bindExpr(a)
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
