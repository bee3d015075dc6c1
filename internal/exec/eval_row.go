package exec

import (
	"fmt"
	"strings"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// EvalRow evaluates a bound expression against one boxed row — the
// interpreted engine's evaluation path, a stand-in for execution "in a
// general-purpose set of executor functions" (§2.1).
func EvalRow(e plan.Expr, row types.Row) (types.Value, error) {
	switch x := e.(type) {
	case *plan.Col:
		if x.Index >= len(row) {
			return types.Value{}, fmt.Errorf("exec: column %d out of range (row width %d)", x.Index, len(row))
		}
		return row[x.Index], nil

	case *plan.Const:
		return x.V, nil

	case *plan.Bin:
		return evalBinRow(x, row)

	case *plan.Not:
		v, err := EvalRow(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool(v.I == 0), nil

	case *plan.Neg:
		v, err := EvalRow(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return types.NewNull(v.T), nil
		}
		if v.T == types.Float64 {
			return types.NewFloat(-v.F), nil
		}
		return types.Value{T: v.T, I: -v.I}, nil

	case *plan.IsNull:
		v, err := EvalRow(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(v.Null != x.Not), nil

	case *plan.InList:
		v, err := EvalRow(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return types.NewNull(types.Bool), nil
		}
		for _, item := range x.Vals {
			if !item.Null && types.Compare(v, item) == 0 {
				return types.NewBool(!x.Not), nil
			}
		}
		return types.NewBool(x.Not), nil

	case *plan.Like:
		v, err := EvalRow(x.E, row)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool(likeMatch(x.Pattern, v.S) != x.Not), nil

	case *plan.Case:
		for _, w := range x.Whens {
			c, err := EvalRow(w.Cond, row)
			if err != nil {
				return types.Value{}, err
			}
			if c.Bool() {
				return EvalRow(w.Then, row)
			}
		}
		if x.Else != nil {
			return EvalRow(x.Else, row)
		}
		return types.NewNull(x.T), nil

	case *plan.Call:
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalRow(a, row)
			if err != nil {
				return types.Value{}, err
			}
			args[i] = v
		}
		return evalCall(x, args)

	default:
		return types.Value{}, fmt.Errorf("exec: unknown expression node %T", e)
	}
}

func evalBinRow(x *plan.Bin, row types.Row) (types.Value, error) {
	// AND/OR need ternary logic and short-circuiting.
	if x.Op == sql.OpAnd || x.Op == sql.OpOr {
		l, err := EvalRow(x.L, row)
		if err != nil {
			return types.Value{}, err
		}
		if x.Op == sql.OpAnd && !l.Null && l.I == 0 {
			return types.NewBool(false), nil
		}
		if x.Op == sql.OpOr && !l.Null && l.I != 0 {
			return types.NewBool(true), nil
		}
		r, err := EvalRow(x.R, row)
		if err != nil {
			return types.Value{}, err
		}
		return ternary(x.Op, l, r), nil
	}

	l, err := EvalRow(x.L, row)
	if err != nil {
		return types.Value{}, err
	}
	r, err := EvalRow(x.R, row)
	if err != nil {
		return types.Value{}, err
	}
	if l.Null || r.Null {
		return types.NewNull(x.T), nil
	}
	switch x.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		cmp := types.Compare(l, r)
		var ok bool
		switch x.Op {
		case sql.OpEq:
			ok = cmp == 0
		case sql.OpNe:
			ok = cmp != 0
		case sql.OpLt:
			ok = cmp < 0
		case sql.OpLe:
			ok = cmp <= 0
		case sql.OpGt:
			ok = cmp > 0
		case sql.OpGe:
			ok = cmp >= 0
		}
		return types.NewBool(ok), nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		return arith(x.Op, x.T, l, r)
	default:
		return types.Value{}, fmt.Errorf("exec: unknown operator %s", x.Op)
	}
}

// ternary applies SQL three-valued AND/OR.
func ternary(op sql.BinOp, l, r types.Value) types.Value {
	lt, lf := !l.Null && l.I != 0, !l.Null && l.I == 0
	rt, rf := !r.Null && r.I != 0, !r.Null && r.I == 0
	if op == sql.OpAnd {
		switch {
		case lf || rf:
			return types.NewBool(false)
		case lt && rt:
			return types.NewBool(true)
		default:
			return types.NewNull(types.Bool)
		}
	}
	switch {
	case lt || rt:
		return types.NewBool(true)
	case lf && rf:
		return types.NewBool(false)
	default:
		return types.NewNull(types.Bool)
	}
}

// arith applies an arithmetic operator to non-null operands with the
// planner-resolved result type.
func arith(op sql.BinOp, t types.Type, l, r types.Value) (types.Value, error) {
	if t == types.Float64 {
		a, b := l.AsFloat(), r.AsFloat()
		var out float64
		switch op {
		case sql.OpAdd:
			out = a + b
		case sql.OpSub:
			out = a - b
		case sql.OpMul:
			out = a * b
		case sql.OpDiv:
			if b == 0 {
				return types.Value{}, fmt.Errorf("exec: division by zero")
			}
			out = a / b
		default:
			return types.Value{}, fmt.Errorf("exec: %s unsupported for floats", op)
		}
		return types.NewFloat(out), nil
	}
	a, b := l.I, r.I
	var out int64
	switch op {
	case sql.OpAdd:
		out = a + b
	case sql.OpSub:
		out = a - b
	case sql.OpMul:
		out = a * b
	case sql.OpDiv:
		if b == 0 {
			return types.Value{}, fmt.Errorf("exec: division by zero")
		}
		out = a / b
	case sql.OpMod:
		if b == 0 {
			return types.Value{}, fmt.Errorf("exec: division by zero")
		}
		out = a % b
	}
	return types.Value{T: t, I: out}, nil
}

// evalCall applies a scalar function to evaluated arguments.
func evalCall(x *plan.Call, args []types.Value) (types.Value, error) {
	// Most functions are strict: NULL in, NULL out. COALESCE is the
	// exception.
	if x.Name != sql.FuncCoalesce {
		for _, a := range args {
			if a.Null {
				return types.NewNull(x.T), nil
			}
		}
	}
	switch x.Name {
	case sql.FuncLower:
		return types.NewString(strings.ToLower(args[0].S)), nil
	case sql.FuncUpper:
		return types.NewString(strings.ToUpper(args[0].S)), nil
	case sql.FuncLength:
		return types.NewInt(int64(len(args[0].S))), nil
	case sql.FuncAbs:
		if args[0].T == types.Float64 {
			f := args[0].F
			if f < 0 {
				f = -f
			}
			return types.NewFloat(f), nil
		}
		i := args[0].I
		if i < 0 {
			i = -i
		}
		return types.NewInt(i), nil
	case sql.FuncCoalesce:
		for _, a := range args {
			if !a.Null {
				if a.T == types.Int64 && x.T == types.Float64 {
					return types.NewFloat(float64(a.I)), nil
				}
				return a, nil
			}
		}
		return types.NewNull(x.T), nil
	case sql.FuncFloat:
		return types.NewFloat(float64(args[0].I)), nil
	case sql.FuncDateTrunc:
		return dateTrunc(args[0].S, args[1])
	case sql.FuncExtractYear:
		return types.NewInt(int64(toTime(args[0]).Year())), nil
	case sql.FuncExtractMonth:
		return types.NewInt(int64(toTime(args[0]).Month())), nil
	default:
		return types.Value{}, fmt.Errorf("exec: unknown function %s", x.Name)
	}
}

// likeMatcher compiles a LIKE pattern once: a literal with nothing but %s
// before and after it matches by ==, strings.HasPrefix, strings.HasSuffix or
// strings.Contains; any other pattern runs likeMatch.
func likeMatcher(pattern string) func(string) bool {
	inner := strings.TrimLeft(pattern, "%")
	lit := strings.TrimRight(inner, "%")
	lead, trail := len(inner) < len(pattern), len(lit) < len(inner)
	switch {
	case strings.ContainsAny(lit, "%_"):
		return func(s string) bool { return likeMatch(pattern, s) }
	case lead && trail:
		return func(s string) bool { return strings.Contains(s, lit) }
	case lead:
		return func(s string) bool { return strings.HasSuffix(s, lit) }
	case trail:
		return func(s string) bool { return strings.HasPrefix(s, lit) }
	}
	return func(s string) bool { return s == lit }
}

// likeMatch implements SQL LIKE with % and _ wildcards, a byte at a time and
// with no ESCAPE, in O(len(s)·len(pattern)) and no recursion: on a mismatch
// it retries only the last % passed, one byte further into s.
func likeMatch(pattern, s string) bool {
	p, i, star, mark := 0, 0, -1, 0 // star: where the pattern resumes after its last %
	for i < len(s) {
		switch {
		case p < len(pattern) && pattern[p] == '%':
			if p++; p == len(pattern) {
				return true // a trailing % takes the rest of s
			}
			star, mark = p, i
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[i]):
			p, i = p+1, i+1
		case star >= 0:
			mark++
			p, i = star, mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}
