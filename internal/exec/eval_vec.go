package exec

import (
	"fmt"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// VecFn evaluates an expression over a whole batch at once. The batch and
// its vectors are read-only. The result is a column of the batch itself (a
// bare column reference) or a vector with fresh payload whose null mask may
// be an input's; a NULL slot's payload is a placeholder that no kernel reads
// or raises from.
type VecFn func(b *Batch) (*types.Vector, error)

// CompileVec lowers a bound expression to a tree of type-specialized
// closures over typed vectors — this system's stand-in for §2.1's "query
// plan generation and compilation to C++ and machine code". The fixed
// per-query cost is the closure construction here; the payoff is unboxed,
// branch-light per-row execution. Every operator class has one kernel,
// generic over the payload type; byPayload instantiates it.
func CompileVec(e plan.Expr) (VecFn, error) {
	o, err := new(compiler).compile(e)
	return o.eval, err
}

// operand is a compiled node: a function of the batch or, fn nil, the
// constant k. The comparison and arithmetic kernels and a function call hold
// a constant by value; a constant over constants is folded at compile time.
type operand struct {
	fn VecFn
	k  types.Value
}

// eval is the operand as a vector. A constant becomes b.N copies of itself,
// which is for the consumers that must have a vector: the caller of a
// constant expression, a unary kernel, AND, OR and CASE.
func (o operand) eval(b *Batch) (*types.Vector, error) {
	if o.fn != nil {
		return o.fn(b)
	}
	out := types.NewVector(exprVecType(&plan.Const{V: o.k}), b.N)
	for i := 0; i < b.N; i++ {
		out.Append(o.k)
	}
	return out, nil
}

// valueOf is a constant's payload by value.
func valueOf[T payload](k types.Value) T {
	one := types.Vector{Ints: []int64{k.I}, Floats: []float64{k.AsFloat()}, Strs: []string{k.S}}
	return (*slots[T](&one))[0]
}

// compiler carries the one fact compilation passes upward: whether what it
// compiled can fail on some row — it holds a division or modulo whose divisor
// is not a non-zero constant, or a call that validates its arguments at run
// time.
type compiler struct{ raises bool }

func (c *compiler) compile(e plan.Expr) (operand, error) {
	switch x := e.(type) {
	case *plan.Col:
		return operand{fn: func(b *Batch) (*types.Vector, error) {
			if x.Index >= len(b.Cols) || b.Cols[x.Index] == nil {
				return nil, fmt.Errorf("exec: column %d not materialized", x.Index)
			}
			return b.Cols[x.Index], nil
		}}, nil

	case *plan.Const:
		return operand{k: x.V}, nil

	case *plan.Bin:
		return c.compileBin(x)

	case *plan.Not:
		return c.unary(x.E, func(v *types.Vector) *types.Vector {
			return boolsWhere(v, v.Ints, func(n int64) bool { return n == 0 })
		})

	case *plan.Neg:
		if x.Type() == types.Float64 {
			return c.unary(x.E, negate[float64])
		}
		return c.unary(x.E, negate[int64])

	case *plan.IsNull:
		return c.unary(x.E, func(v *types.Vector) *types.Vector {
			out := boolVec(v.Len(), nil)
			for i := range out.Ints {
				if v.IsNull(i) != x.Not {
					out.Ints[i] = 1
				}
			}
			return out
		})

	case *plan.InList:
		return c.unary(x.E, byPayload(x.E.Type(), inList[int64], inList[float64], inList[string])(x))

	case *plan.Like:
		return c.unary(x.E, func(v *types.Vector) *types.Vector {
			return boolsWhere(v, v.Strs, func(s string) bool { return likeMatch(x.Pattern, s) != x.Not })
		})

	case *plan.Case:
		return c.compileCase(x)

	case *plan.Call:
		return c.compileCall(x)

	default:
		return operand{}, fmt.Errorf("exec: cannot compile %T", e)
	}
}

// payload is the set of Go types a vector stores its values as.
type payload interface{ int64 | float64 | string }

// byPayload is the one dispatch from a column type to a kernel's
// instantiation: Bool, Date and Timestamp share Int64's.
func byPayload[K any](t types.Type, ints, floats, strs K) K {
	switch t {
	case types.Float64:
		return floats
	case types.String:
		return strs
	}
	return ints
}

// slots returns v's payload slice of type T, to read or to set.
func slots[T payload](v *types.Vector) *[]T {
	var p any
	switch any((*T)(nil)).(type) {
	case *float64:
		p = &v.Floats
	case *string:
		p = &v.Strs
	default:
		p = &v.Ints
	}
	return p.(*[]T)
}

// vecOf wraps a payload slice as a vector of type t.
func vecOf[T payload](t types.Type, vals []T, nulls []bool) *types.Vector {
	out := &types.Vector{T: t, Nulls: nulls}
	*slots[T](out) = vals
	return out
}

// boolVec is the one way a kernel makes its boolean result: n slots, all
// false, for the kernel to set by position. nulls marks the slots that are
// NULL instead: an operand's mask, shared and read-only, or a fresh one.
func boolVec(n int, nulls []bool) *types.Vector {
	return &types.Vector{T: types.Bool, Ints: make([]int64, n), Nulls: nulls}
}

// boolsWhere tests every non-NULL value of v, whose payload is vals.
func boolsWhere[T payload](v *types.Vector, vals []T, test func(T) bool) *types.Vector {
	out := boolVec(len(vals), v.Nulls)
	for i, x := range vals {
		if !v.IsNull(i) && test(x) {
			out.Ints[i] = 1
		}
	}
	return out
}

// unary compiles e and applies kernel k to its value.
func (c *compiler) unary(e plan.Expr, k func(v *types.Vector) *types.Vector) (operand, error) {
	o, err := c.compile(e)
	return operand{fn: func(b *Batch) (*types.Vector, error) {
		v, err := o.eval(b)
		if err != nil {
			return nil, err
		}
		return k(v), nil
	}}, err
}

// side evaluates one operand of a two-operand kernel into what the kernel's
// loop reads: its payload — nil for a constant, which the kernel holds by
// value — and its NULL rows, every row for the NULL constant.
func side[T payload](o operand, b *Batch) ([]T, []bool, error) {
	switch {
	case o.fn == nil && o.k.Null:
		return nil, allNull(b.N), nil
	case o.fn == nil:
		return nil, nil, nil
	}
	v, err := o.fn(b)
	if err != nil {
		return nil, nil, err
	}
	return *slots[T](v), v.Nulls, nil
}

// operands evaluates both sides, left first. nulls marks the rows whose
// result is NULL (nil: none); it may be an operand's own mask.
func operands[T payload](l, r operand, b *Batch) (lv, rv []T, nulls []bool, err error) {
	lv, nulls, err = side[T](l, b)
	if err != nil {
		return nil, nil, nil, err
	}
	rv, rn, err := side[T](r, b)
	if nulls != nil && rn != nil {
		rn = append([]bool(nil), rn...)
		for i := range rn {
			rn[i] = rn[i] || nulls[i]
		}
	} else if rn == nil {
		rn = nulls
	}
	return lv, rv, rn, err
}

// at is the i-th value of a kernel's operand: its payload's, or with no
// payload the constant k.
func at[T payload](vals []T, i int, k T) T {
	if vals != nil {
		return vals[i]
	}
	return k
}

func negate[T int64 | float64](v *types.Vector) *types.Vector {
	in := *slots[T](v)
	out := make([]T, len(in))
	for i, x := range in {
		out[i] = -x
	}
	return vecOf(v.T, out, v.Nulls)
}

// inList is the membership kernel: a hash set of the list's non-NULL values.
func inList[T payload](x *plan.InList) func(*types.Vector) *types.Vector {
	set := make(map[T]bool, len(x.Vals))
	for _, item := range x.Vals {
		if !item.Null {
			set[valueOf[T](item)] = true
		}
	}
	return func(v *types.Vector) *types.Vector {
		return boolsWhere(v, *slots[T](v), func(val T) bool { return set[val] != x.Not })
	}
}

// compileBin specializes on operator category and operand type.
func (c *compiler) compileBin(x *plan.Bin) (operand, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return operand{}, err
	}
	r, err := c.guarded(x.R)
	if err != nil {
		return operand{}, err
	}
	if l.fn == nil && r.fn == nil {
		// A constant over constants is folded, by the interpreted engine. One
		// that raises there is left to its kernel, which raises like it: on
		// every row it is asked for, so not on an empty batch.
		if k, err := EvalRow(&plan.Bin{Op: x.Op, L: &plan.Const{V: l.k}, R: &plan.Const{V: r.k}, T: x.T}, nil); err == nil {
			return operand{k: k}, nil
		}
	}
	switch x.Op {
	case sql.OpAnd, sql.OpOr:
		_, column := x.L.(*plan.Col)
		return operand{fn: compileLogic(x.Op == sql.OpOr, !column, l, r)}, nil

	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return operand{fn: byPayload(x.L.Type(), compare[int64], compare[float64], compare[string])(x.Op, l, r.operand)}, nil

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		// A NULL or non-zero constant divisor never raises.
		c.raises = c.raises || (x.Op == sql.OpDiv || x.Op == sql.OpMod) && (r.fn != nil || !r.k.Null && r.k.I == 0 && r.k.F == 0)
		if x.T != types.Float64 {
			return operand{fn: arithmetic(x.Op, x.T, func(a, b int64) int64 { return a % b }, l, r.operand)}, nil
		}
		if x.Op == sql.OpMod {
			return operand{}, fmt.Errorf("exec: %s unsupported for floats", x.Op)
		}
		return operand{fn: arithmetic[float64](x.Op, x.T, nil, l, r.operand)}, nil

	default:
		return operand{}, fmt.Errorf("exec: cannot compile operator %s", x.Op)
	}
}

// cmpHolds lists, per comparison operator, whether it holds when the left
// operand is less than, equal to and greater than the right.
var cmpHolds = [...][3]bool{
	sql.OpEq: {false, true, false}, sql.OpNe: {true, false, true},
	sql.OpLt: {true, false, false}, sql.OpLe: {true, true, false},
	sql.OpGt: {false, false, true}, sql.OpGe: {false, true, true},
}

// compare is the comparison kernel.
func compare[T payload](op sql.BinOp, l, r operand) VecFn {
	holds := cmpHolds[op]
	lk, rk := valueOf[T](l.k), valueOf[T](r.k)
	return func(b *Batch) (*types.Vector, error) {
		lv, rv, nulls, err := operands[T](l, r, b)
		if err != nil {
			return nil, err
		}
		out := boolVec(b.N, nulls)
		for i := range out.Ints {
			if nulls != nil && nulls[i] {
				continue
			}
			x, y := at(lv, i, lk), at(rv, i, rk)
			c := 1
			switch {
			case x < y:
				c = 0
			case x > y:
				c = 2
			}
			if holds[c] {
				out.Ints[i] = 1
			}
		}
		return out, nil
	}
}

// arithmetic is the arithmetic kernel; mod is the one operator the payload
// types do not share. Division and modulo test the divisor of every row
// that is not NULL — a NULL slot's placeholder never raises.
func arithmetic[T int64 | float64](op sql.BinOp, t types.Type, mod func(a, b T) T, l, r operand) VecFn {
	lk, rk := valueOf[T](l.k), valueOf[T](r.k)
	divides := op == sql.OpDiv || op == sql.OpMod
	return func(b *Batch) (*types.Vector, error) {
		lv, rv, nulls, err := operands[T](l, r, b)
		if err != nil {
			return nil, err
		}
		out := make([]T, b.N)
		for i := range out {
			if nulls != nil && nulls[i] {
				continue
			}
			x, y := at(lv, i, lk), at(rv, i, rk)
			if divides && y == 0 {
				return nil, fmt.Errorf("exec: division by zero")
			}
			switch op {
			case sql.OpAdd:
				out[i] = x + y
			case sql.OpSub:
				out[i] = x - y
			case sql.OpMul:
				out[i] = x * y
			case sql.OpDiv:
				out[i] = x / y
			default:
				out[i] = mod(x, y)
			}
		}
		return vecOf(t, out, nulls), nil
	}
}

// guarded is an operand of AND, OR or CASE that the interpreted engine
// reaches only on the rows an earlier operand left undecided. One that can
// raise must see exactly those rows, or a division the guard excludes fails
// the query; one that cannot is evaluated over the whole batch, which is
// cheaper than gathering.
type guarded struct {
	operand
	raises bool
}

func (c *compiler) guarded(e plan.Expr) (guarded, error) {
	var sub compiler
	o, err := sub.compile(e)
	c.raises = c.raises || sub.raises
	return guarded{operand: o, raises: sub.raises}, err
}

// over evaluates g for the rows sel of b. The result is indexed by b's
// positions; outside sel a raising operand's slots are NULL and anyone
// else's are not to be read.
func (g guarded) over(b *Batch, sel []int) (*types.Vector, error) {
	if !g.raises || len(sel) == b.N {
		return g.eval(b)
	}
	sub := b.Gather(sel)
	defer PutBatch(sub)
	v, err := g.eval(sub)
	if err != nil {
		return nil, err
	}
	out := nullVec(v.T, b.N)
	assign(out, v, sel, true)
	return out, nil
}

// nullVec returns n NULL slots of type t.
func nullVec(t types.Type, n int) *types.Vector {
	return byPayload(t, zeros[int64], zeros[float64], zeros[string])(t, n, allNull(n))
}

func zeros[T payload](t types.Type, n int, nulls []bool) *types.Vector {
	return vecOf(t, make([]T, n), nulls)
}

// allNull is the mask of n NULL rows.
func allNull(n int) []bool {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	return nulls
}

// assign sets dst's slots at positions sel from src: src's k-th row when src
// is dense (one row per selected position), else src's row at the same
// position. A NULL in src — an untyped NULL branch has no payload of dst's
// type at all — leaves the slot NULL.
func assign(dst, src *types.Vector, sel []int, dense bool) {
	for k, i := range sel {
		j := i
		if dense {
			j = k
		}
		if src.IsNull(j) {
			continue
		}
		dst.Nulls[i] = false
		switch dst.T {
		case types.Float64:
			dst.Floats[i] = src.Floats[j]
		case types.String:
			dst.Strs[i] = src.Strs[j]
		default:
			dst.Ints[i] = src.Ints[j]
		}
	}
}

// decides reports a non-NULL operand slot holding the value that settles an
// AND (false) or an OR (true) whatever the other operand is.
func decides(v *types.Vector, i int, or bool) bool { return !v.IsNull(i) && (v.Ints[i] != 0) == or }

// compileLogic is three-valued AND (or OR, its dual: swap true and false).
// The right operand is guarded by the left: the interpreted engine does not
// evaluate it where the left already decides the row. The result overwrites
// the left operand's, which is this kernel's to reuse unless it is a column
// of the batch (inPlace false).
func compileLogic(or, inPlace bool, l operand, r guarded) VecFn {
	return func(b *Batch) (*types.Vector, error) {
		lv, err := l.eval(b)
		if err != nil {
			return nil, err
		}
		var open []int
		for i := 0; r.raises && i < b.N; i++ {
			if !decides(lv, i, or) {
				open = append(open, i)
			}
		}
		rv, err := r.over(b, open)
		if err != nil {
			return nil, err
		}
		out := lv
		if !inPlace {
			out = boolVec(b.N, nil)
		}
		if lv.Nulls == nil && rv.Nulls == nil {
			// Fast path: no nulls on either side — plain bitwise logic.
			for i := range out.Ints {
				if or {
					out.Ints[i] = lv.Ints[i] | rv.Ints[i]
				} else {
					out.Ints[i] = lv.Ints[i] & rv.Ints[i]
				}
			}
			return out, nil
		}
		nulls := make([]bool, b.N) // lv's mask may be a column's, and is read below
		for i := range out.Ints {
			var v int64
			switch {
			case decides(lv, i, or) || decides(rv, i, or):
				if or {
					v = 1
				}
			case lv.IsNull(i) || rv.IsNull(i):
				nulls[i] = true
			case !or:
				v = 1
			}
			out.Ints[i] = v
		}
		out.Nulls = nulls
		return out, nil
	}
}

// compileCase evaluates branch by branch over the rows no earlier branch
// took: a condition is guarded by the conditions before it, a result by its
// own condition, and ELSE — a last branch with no condition — by all of them.
func (c *compiler) compileCase(x *plan.Case) (operand, error) {
	type branch struct{ cond, then guarded }
	whens := x.Whens
	if x.Else != nil {
		whens = append(whens[:len(whens):len(whens)], plan.CaseWhen{Then: x.Else})
	}
	branches := make([]branch, len(whens))
	for i, w := range whens {
		var err error
		if w.Cond != nil {
			if branches[i].cond, err = c.guarded(w.Cond); err != nil {
				return operand{}, err
			}
		}
		if branches[i].then, err = c.guarded(w.Then); err != nil {
			return operand{}, err
		}
	}
	return operand{fn: func(b *Batch) (*types.Vector, error) {
		out := nullVec(x.T, b.N)
		rest := make([]int, b.N)
		for i := range rest {
			rest[i] = i
		}
		for i, br := range branches {
			w := whens[i]
			hit, miss := rest, rest[:0]
			if w.Cond != nil {
				cond, err := br.cond.over(b, rest)
				if err != nil {
					return nil, err
				}
				hit = make([]int, 0, len(rest))
				for _, i := range rest {
					if cond.Ints[i] != 0 && !cond.IsNull(i) {
						hit = append(hit, i)
					} else {
						miss = append(miss, i)
					}
				}
			}
			then, err := br.then.over(b, hit)
			if err != nil {
				return nil, err
			}
			assign(out, then, hit, false)
			rest = miss
		}
		if !out.HasNulls() {
			out.Nulls = nil
		}
		return out, nil
	}}, nil
}

func (c *compiler) compileCall(x *plan.Call) (operand, error) {
	// FLOAT (int→float promotion) gets a dedicated tight kernel; it is on
	// the hot path of promoted arithmetic.
	if x.Name == sql.FuncFloat {
		return c.unary(x.Args[0], func(v *types.Vector) *types.Vector {
			out := make([]float64, len(v.Ints))
			for i, n := range v.Ints {
				out[i] = float64(n)
			}
			return vecOf(types.Float64, out, v.Nulls)
		})
	}
	c.raises = c.raises || x.Name == sql.FuncDateTrunc
	args := make([]operand, len(x.Args))
	for i, a := range x.Args {
		var err error
		if args[i], err = c.compile(a); err != nil {
			return operand{}, err
		}
	}
	// Every other function runs the interpreted engine's evalCall row by
	// row over arguments evaluated for the whole batch: COALESCE's later
	// arguments are not guarded, because there they are not either.
	return operand{fn: func(b *Batch) (*types.Vector, error) {
		vecs := make([]*types.Vector, len(args))
		row := make([]types.Value, len(args))
		for a, o := range args {
			row[a] = o.k
			if o.fn != nil {
				var err error
				if vecs[a], err = o.fn(b); err != nil {
					return nil, err
				}
			}
		}
		out := types.NewVector(x.T, b.N)
		for i := 0; i < b.N; i++ {
			for a, v := range vecs {
				if v != nil {
					row[a] = v.Get(i)
				}
			}
			v, err := evalCall(x, row)
			if err != nil {
				return nil, err
			}
			out.Append(v)
		}
		return out, nil
	}}, nil
}
