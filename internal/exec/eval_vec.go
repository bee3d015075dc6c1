package exec

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// A compiled expression is a tree of closures over typed vectors — this
// system's stand-in for §2.1's "query plan generation and compilation to C++
// and machine code". The fixed per-query cost is building the tree
// (compiler.compile); the payoff is unboxed, branch-light per-row execution.
// Every operator class has one kernel, generic over the payload type;
// byPayload instantiates it. A kernel computes only the row positions it is
// given: a predicate hands its parent the positions where it is TRUE, and no
// operand is evaluated on a row the interpreted engine would not reach.

// vecFn evaluates an expression at the positions sel of b (ascending, each
// below b.N). The result is indexed by b's positions and holds the value at
// those in sel only; its other slots are not to be read. It is a column of b
// itself or a vector from the arena a, good until the evaluation that took a
// returns. The batch and its vectors are read-only. A NULL slot's payload is
// a placeholder that no kernel reads or raises from.
type vecFn func(b *Batch, sel []int, a *arena) (*types.Vector, error)

// selFn appends to out, which has room for len(sel) more, the positions of
// sel at which a predicate is TRUE, in ascending order.
type selFn func(b *Batch, sel, out []int, a *arena) ([]int, error)

// operand is a compiled node: a function of the batch or, fn nil, the
// constant k. Comparisons, AND and OR also select (pick) without building a
// vector of their values. The comparison and arithmetic kernels and a
// function call hold a constant by value; a unary or binary operator over
// constants only is folded at compile time.
type operand struct {
	fn   vecFn
	pick selFn
	k    types.Value
}

// value evaluates o at sel; a constant has no vector and is read from o.k.
func (o operand) value(b *Batch, sel []int, a *arena) (*types.Vector, error) {
	if o.fn == nil {
		return nil, nil
	}
	return o.fn(b, sel, a)
}

// where appends to out the positions of sel at which the boolean o is TRUE.
func (o operand) where(b *Batch, sel, out []int, a *arena) ([]int, error) {
	switch {
	case o.pick != nil:
		return o.pick(b, sel, out, a)
	case o.fn == nil && o.k.Bool():
		return append(out, sel...), nil
	case o.fn == nil:
		return out, nil
	}
	v, err := o.fn(b, sel, a)
	if err != nil {
		return out, err
	}
	return keep(sel, out, func(i int) bool { return v.Ints[i] != 0 && !v.IsNull(i) }), nil
}

// vector evaluates o over every row of b into a vector the caller owns: a
// bare column is b's own, any other result is copied out of the arena, and a
// constant becomes b.N copies of itself.
func (o operand) vector(b *Batch, t types.Type) (*types.Vector, error) {
	if o.fn == nil {
		out := types.NewVector(t, b.N)
		for i := 0; i < b.N; i++ {
			out.Append(o.k)
		}
		return out, nil
	}
	a := getArena()
	defer a.release()
	v, err := o.fn(b, a.all(b.N), a)
	switch {
	case err != nil:
		return nil, err
	case slices.Contains(b.Cols, v):
		return v, nil
	case !v.HasNulls():
		v.Nulls = nil
	}
	return v.Clone(), nil
}

// keep appends to out, which has room for len(sel) more, the positions of
// sel at which f holds. It is small enough to be inlined with f, so each
// caller's loop is straight-line code that does not branch per row.
func keep(sel, out []int, f func(i int) bool) []int {
	n := len(out)
	out = out[:n+len(sel)]
	for _, i := range sel {
		out[n] = i
		if f(i) {
			n++
		}
	}
	return out[:n]
}

// minus is the positions of sel not in sub, a subsequence of it.
func minus(sel, sub []int, a *arena) []int {
	return keep(sel, a.list(len(sel)), func(i int) bool {
		in := len(sub) > 0 && sub[0] == i
		if in {
			sub = sub[1:]
		}
		return !in
	})
}

// merge appends the union of the disjoint ascending lists x and y to out.
func merge(x, y, out []int) []int {
	for len(x) > 0 && len(y) > 0 {
		if x[0] < y[0] {
			out, x = append(out, x[0]), x[1:]
		} else {
			out, y = append(out, y[0]), y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// live is the positions of sel that nulls (nil: none) does not mark.
func live(sel []int, nulls []bool, a *arena) []int {
	if nulls == nil {
		return sel
	}
	return keep(sel, a.list(len(sel)), func(i int) bool { return !nulls[i] })
}

// arena is one evaluation's scratch: every vector, null mask and position
// list a kernel makes for its parent comes from it. Select and Eval take an
// arena from arenas when they start and put it back before they return, so
// the next evaluation reuses the same buffers and nothing from one outlives
// its call — and an Evaluator holds no mutable state, which the clones of a
// join or group table rely on when they share one across workers.
type arena struct {
	vecs   []*types.Vector
	nvecs  int
	ints   slab[int64]
	floats slab[float64]
	strs   slab[string]
	masks  slab[bool]
	lists  slab[int]
	iota   []int // 0, 1, 2, …: every position of a batch
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenas.Get().(*arena) }

// release empties a and returns it to arenas. Vectors and strings are
// cleared, so a pooled arena pins no block.
func (a *arena) release() {
	for _, v := range a.vecs[:a.nvecs] {
		*v = types.Vector{}
	}
	for _, s := range a.strs.bufs[:a.strs.n] {
		clear(s)
	}
	a.nvecs, a.ints.n, a.floats.n, a.strs.n, a.masks.n, a.lists.n = 0, 0, 0, 0, 0, 0
	arenas.Put(a)
}

// slab hands out buffers in the order they are asked for and, once its
// count is reset, the same buffers again.
type slab[T any] struct {
	bufs [][]T
	n    int
}

func (s *slab[T]) take(n int) []T {
	if s.n == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	if cap(s.bufs[s.n]) < n {
		s.bufs[s.n] = make([]T, n)
	}
	s.n++
	return s.bufs[s.n-1][:n]
}

// vec returns a vector of type t with n payload slots and no null mask.
func (a *arena) vec(t types.Type, n int) *types.Vector {
	if a.nvecs == len(a.vecs) {
		a.vecs = append(a.vecs, new(types.Vector))
	}
	v := a.vecs[a.nvecs]
	a.nvecs++
	v.T = t
	switch t {
	case types.Float64:
		v.Floats = a.floats.take(n)
	case types.String:
		v.Strs = a.strs.take(n)
	default:
		v.Ints = a.ints.take(n)
	}
	return v
}

// list returns an empty position list with room for n.
func (a *arena) list(n int) []int { return a.lists.take(n)[:0] }

// all is every position of an n-row batch.
func (a *arena) all(n int) []int {
	for len(a.iota) < n {
		a.iota = append(a.iota, len(a.iota))
	}
	return a.iota[:n]
}

// compiler carries the one fact compilation passes upward: whether what it
// compiled can fail on some row — it holds a division or modulo whose divisor
// is not a non-zero constant, or a call that validates its arguments at run
// time.
type compiler struct{ raises bool }

func (c *compiler) compile(e plan.Expr) (operand, error) {
	switch x := e.(type) {
	case *plan.Col:
		return operand{fn: func(b *Batch, _ []int, _ *arena) (*types.Vector, error) {
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
		return c.unary(x, x.E, func(v *types.Vector, sel []int, a *arena) *types.Vector {
			return boolsWhere(v, v.Ints, sel, a, func(n int64) bool { return n == 0 })
		})

	case *plan.Neg:
		if x.Type() == types.Float64 {
			return c.unary(x, x.E, negate[float64])
		}
		return c.unary(x, x.E, negate[int64])

	case *plan.IsNull:
		return c.unary(x, x.E, func(v *types.Vector, sel []int, a *arena) *types.Vector {
			out := a.vec(types.Bool, v.Len())
			for _, i := range sel {
				out.Ints[i] = 0
				if v.IsNull(i) != x.Not {
					out.Ints[i] = 1
				}
			}
			return out
		})

	case *plan.InList:
		return c.unary(x, x.E, byPayload(x.E.Type(), inList[int64], inList[float64], inList[string])(x))

	case *plan.Like:
		match := likeMatcher(x.Pattern)
		return c.unary(x, x.E, func(v *types.Vector, sel []int, a *arena) *types.Vector {
			return boolsWhere(v, v.Strs, sel, a, func(s string) bool { return match(s) != x.Not })
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

// valueOf is a constant's payload by value.
func valueOf[T payload](k types.Value) T {
	one := types.Vector{Ints: []int64{k.I}, Floats: []float64{k.AsFloat()}, Strs: []string{k.S}}
	return (*slots[T](&one))[0]
}

// vals is an operand as a kernel's loop reads it: at(i) is a vector's slot
// i or, for a constant, its one value — mask 0 sends every position to slot
// 0 — so the loop is the same for either and never chooses between them.
type vals[T payload] struct {
	v    []T
	mask int
}

func (s vals[T]) at(i int) T { return s.v[i&s.mask] }

// constVals is a constant operand's vals; a kernel builds it once.
func constVals[T payload](o operand) vals[T] { return vals[T]{v: []T{valueOf[T](o.k)}} }

// side evaluates one operand of a two-operand kernel at sel: its vals — k
// for a constant — and its null mask. The NULL constant is NULL at every
// position: the other operand is still evaluated, because it may raise, but
// no loop computes a result.
func side[T payload](o operand, k vals[T], b *Batch, sel []int, a *arena) (vals[T], []bool, error) {
	if o.fn == nil && o.k.Null {
		nulls := a.masks.take(b.N)
		for _, i := range sel {
			nulls[i] = true
		}
		return k, nulls, nil
	}
	if o.fn == nil {
		return k, nil, nil
	}
	v, err := o.fn(b, sel, a)
	if err != nil {
		return k, nil, err
	}
	return vals[T]{v: *slots[T](v), mask: -1}, v.Nulls, nil
}

// operands evaluates both sides at sel, left first. nulls marks the
// positions whose result is NULL (nil: none); it may be an operand's mask.
func operands[T payload](l, r operand, lk, rk vals[T], b *Batch, sel []int, a *arena) (lv, rv vals[T], nulls []bool, err error) {
	lv, ln, err := side(l, lk, b, sel, a)
	if err != nil {
		return lv, rv, nil, err
	}
	rv, rn, err := side(r, rk, b, sel, a)
	switch {
	case err != nil || ln == nil:
		return lv, rv, rn, err
	case rn == nil:
		return lv, rv, ln, nil
	}
	nulls = a.masks.take(b.N)
	for _, i := range sel {
		nulls[i] = ln[i] || rn[i]
	}
	return lv, rv, nulls, nil
}

// boolsWhere tests every non-NULL value of v at sel, whose payload is xs.
// The result shares v's null mask.
func boolsWhere[T payload](v *types.Vector, xs []T, sel []int, a *arena, test func(T) bool) *types.Vector {
	out := a.vec(types.Bool, len(xs))
	out.Nulls = v.Nulls
	for _, i := range sel {
		out.Ints[i] = 0
		if !v.IsNull(i) && test(xs[i]) {
			out.Ints[i] = 1
		}
	}
	return out
}

// unary compiles e and applies kernel k to its value; x, the node, over a
// constant is folded.
func (c *compiler) unary(x, e plan.Expr, k func(v *types.Vector, sel []int, a *arena) *types.Vector) (operand, error) {
	o, err := c.compile(e)
	switch {
	case err != nil:
		return operand{}, err
	case o.fn == nil:
		v, err := EvalRow(x, nil)
		return operand{k: v}, err
	}
	return operand{fn: func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		v, err := o.fn(b, sel, a)
		if err != nil {
			return nil, err
		}
		return k(v, sel, a), nil
	}}, nil
}

func negate[T int64 | float64](v *types.Vector, sel []int, a *arena) *types.Vector {
	in := *slots[T](v)
	out := a.vec(v.T, len(in))
	neg := *slots[T](out)
	for _, i := range sel {
		neg[i] = -in[i]
	}
	out.Nulls = v.Nulls
	return out
}

// inList is the membership kernel: a hash set of the list's non-NULL values.
func inList[T payload](x *plan.InList) func(*types.Vector, []int, *arena) *types.Vector {
	set := make(map[T]bool, len(x.Vals))
	for _, item := range x.Vals {
		if !item.Null {
			set[valueOf[T](item)] = true
		}
	}
	return func(v *types.Vector, sel []int, a *arena) *types.Vector {
		return boolsWhere(v, *slots[T](v), sel, a, func(val T) bool { return set[val] != x.Not })
	}
}

// compileBin specializes on operator category and operand type.
func (c *compiler) compileBin(x *plan.Bin) (operand, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return operand{}, err
	}
	var sub compiler // whether the right operand alone can raise
	r, err := sub.compile(x.R)
	c.raises = c.raises || sub.raises
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
		return logic(x.Op, sub.raises, l, r), nil

	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return byPayload(x.L.Type(), compare[int64], compare[float64], compare[string])(x.Op, l, r), nil

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		// A NULL or non-zero constant divisor never raises.
		c.raises = c.raises || (x.Op == sql.OpDiv || x.Op == sql.OpMod) && (r.fn != nil || !r.k.Null && r.k.I == 0 && r.k.F == 0)
		if x.T != types.Float64 {
			return arithmetic[int64](x.Op, x.T, l, r), nil
		}
		if x.Op == sql.OpMod {
			return operand{}, fmt.Errorf("exec: %s unsupported for floats", x.Op)
		}
		return arithmetic[float64](x.Op, x.T, l, r), nil

	default:
		return operand{}, fmt.Errorf("exec: cannot compile operator %s", x.Op)
	}
}

// compare is the comparison kernel: it selects the positions where neither
// operand is NULL and the comparison holds, one loop per operator. Like
// types.Compare it decides by < and > alone, so a float NaN — neither — is
// equal to everything: Eq is "not less and not greater", not ==.
func compare[T payload](op sql.BinOp, l, r operand) operand {
	lk, rk := constVals[T](l), constVals[T](r)
	test := func(b *Batch, sel, out []int, a *arena) ([]int, []bool, error) {
		lv, rv, nulls, err := operands(l, r, lk, rk, b, sel, a)
		if err != nil {
			return out, nil, err
		}
		sel = live(sel, nulls, a)
		switch op {
		case sql.OpEq:
			out = keep(sel, out, func(i int) bool { return (lv.at(i) < rv.at(i)) == (lv.at(i) > rv.at(i)) })
		case sql.OpNe:
			out = keep(sel, out, func(i int) bool { return (lv.at(i) < rv.at(i)) != (lv.at(i) > rv.at(i)) })
		case sql.OpLt:
			out = keep(sel, out, func(i int) bool { return lv.at(i) < rv.at(i) })
		case sql.OpLe:
			out = keep(sel, out, func(i int) bool { return !(lv.at(i) > rv.at(i)) })
		case sql.OpGt:
			out = keep(sel, out, func(i int) bool { return lv.at(i) > rv.at(i) })
		default:
			out = keep(sel, out, func(i int) bool { return !(lv.at(i) < rv.at(i)) })
		}
		return out, nulls, nil
	}
	return operand{
		pick: func(b *Batch, sel, out []int, a *arena) ([]int, error) {
			out, _, err := test(b, sel, out, a)
			return out, err
		},
		fn: func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
			hits, nulls, err := test(b, sel, a.list(len(sel)), a)
			if err != nil {
				return nil, err
			}
			out := a.vec(types.Bool, b.N)
			out.Nulls = nulls
			for _, i := range sel {
				out.Ints[i] = 0
			}
			for _, i := range hits {
				out.Ints[i] = 1
			}
			return out, nil
		},
	}
}

var errDivisionByZero = errors.New("exec: division by zero")

// arithmetic is the arithmetic kernel, one loop per operator. Division and
// modulo first test the divisor at every position where neither operand is
// NULL — a NULL slot's placeholder never raises — and compute only there.
// Modulo by a constant in (0, 2³²) of a dividend in [0, 2³²) takes two
// multiplications instead of a division (Lemire, Kaser and Kurz, "Faster
// remainder by direct computation", 2019): m is ⌈2⁶⁴ / divisor⌉.
func arithmetic[T int64 | float64](op sql.BinOp, t types.Type, l, r operand) operand {
	lk, rk := constVals[T](l), constVals[T](r)
	m := uint64(0)
	if op == sql.OpMod && r.fn == nil && r.k.I > 0 && r.k.I < 1<<32 {
		m = ^uint64(0)/uint64(r.k.I) + 1
	}
	return operand{fn: func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		lv, rv, nulls, err := operands(l, r, lk, rk, b, sel, a)
		if err != nil {
			return nil, err
		}
		vec := a.vec(t, b.N)
		vec.Nulls = nulls
		out := *slots[T](vec)
		switch op {
		case sql.OpAdd:
			apply(sel, out, lv, rv, func(x, y T) T { return x + y })
		case sql.OpSub:
			apply(sel, out, lv, rv, func(x, y T) T { return x - y })
		case sql.OpMul:
			apply(sel, out, lv, rv, func(x, y T) T { return x * y })
		default:
			sel = live(sel, nulls, a)
			probe := sel
			if rv.mask == 0 { // a constant divisor: one look is every look
				probe = sel[:min(len(sel), 1)]
			}
			for _, i := range probe {
				if rv.at(i) == 0 {
					return nil, errDivisionByZero
				}
			}
			switch {
			case op == sql.OpDiv:
				apply(sel, out, lv, rv, func(x, y T) T { return x / y })
			case m != 0:
				apply(sel, out, lv, rv, func(x, y T) T {
					if uint64(x)>>32 != 0 {
						return x - x/y*y
					}
					rem, _ := bits.Mul64(m*uint64(x), uint64(y))
					return T(rem)
				})
			default: // x % y, for the integers modulo is compiled for
				apply(sel, out, lv, rv, func(x, y T) T { return x - x/y*y })
			}
		}
		return vec, nil
	}}
}

// apply sets out at the positions sel to f of the operands there; it is
// inlined with f, like keep.
func apply[T int64 | float64](sel []int, out []T, l, r vals[T], f func(x, y T) T) {
	for _, i := range sel {
		out[i] = f(l.at(i), r.at(i))
	}
}

// logic is three-valued AND (or OR, its dual: swap TRUE and FALSE). The
// interpreted engine evaluates the right operand only on the rows the left
// leaves open — an AND's where the left is not FALSE, an OR's where it is not
// TRUE — and no kernel here evaluates it anywhere else. Selecting, an AND
// narrows: the right operand sees only the left's TRUE positions, unless it
// can raise (raises), when it must also see the left's NULL ones, where the
// interpreted engine raises. An OR selects the right operand's TRUE positions
// among the left's open ones and merges them with the left's.
func logic(op sql.BinOp, raises bool, l, r operand) operand {
	or := op == sql.OpOr
	open := func(b *Batch, sel []int, a *arena) (*types.Vector, []int, error) {
		lv, err := l.value(b, sel, a)
		if err != nil {
			return nil, nil, err
		}
		return lv, keep(sel, a.list(len(sel)), func(i int) bool {
			v := valueAt(lv, l.k, i)
			return v.Null || (v.I != 0) != or
		}), nil
	}
	fn := func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		lv, rest, err := open(b, sel, a)
		if err != nil {
			return nil, err
		}
		rv, err := r.value(b, rest, a)
		if err != nil {
			return nil, err
		}
		out := a.vec(types.Bool, b.N)
		out.Nulls = a.masks.take(b.N)
		for _, i := range sel {
			x := valueAt(lv, l.k, i)
			y := x // where the left decides, it decides whatever the right is
			if len(rest) > 0 && rest[0] == i {
				y, rest = valueAt(rv, r.k, i), rest[1:]
			}
			setAt(out, i, ternary(op, x, y))
		}
		return out, nil
	}
	pick := func(b *Batch, sel, out []int, a *arena) ([]int, error) {
		if raises && !or {
			lv, rest, err := open(b, sel, a)
			if err != nil {
				return out, err
			}
			hits, err := r.where(b, rest, a.list(len(rest)), a)
			return keep(hits, out, func(i int) bool { return valueAt(lv, l.k, i).Bool() }), err
		}
		hits, err := l.where(b, sel, a.list(len(sel)), a)
		switch {
		case err != nil:
			return out, err
		case !or:
			return r.where(b, hits, out, a)
		}
		more, err := r.where(b, minus(sel, hits, a), a.list(len(sel)-len(hits)), a)
		return merge(hits, more, out), err
	}
	return operand{fn: fn, pick: pick}
}

// valueAt is an operand's value at i: its vector's or, with none, k.
func valueAt(v *types.Vector, k types.Value, i int) types.Value {
	if v == nil {
		return k
	}
	return v.Get(i)
}

// setAt sets slot i of v, which has a null mask, to x.
func setAt(v *types.Vector, i int, x types.Value) {
	v.Nulls[i] = x.Null
	switch v.T {
	case types.Float64:
		v.Floats[i] = x.F
	case types.String:
		v.Strs[i] = x.S
	default:
		v.Ints[i] = x.I
	}
}

// compileCase evaluates branch by branch: a condition at the positions no
// earlier condition took, a result at its own condition's TRUE positions, and
// ELSE — a last branch whose condition always holds — at all that are left.
func (c *compiler) compileCase(x *plan.Case) (operand, error) {
	whens := x.Whens
	if x.Else != nil {
		whens = append(whens[:len(whens):len(whens)], plan.CaseWhen{Cond: &plan.Const{V: types.NewBool(true)}, Then: x.Else})
	}
	conds, thens := make([]operand, len(whens)), make([]operand, len(whens))
	for i, w := range whens {
		var err error
		if conds[i], err = c.compile(w.Cond); err != nil {
			return operand{}, err
		}
		if thens[i], err = c.compile(w.Then); err != nil {
			return operand{}, err
		}
	}
	return operand{fn: func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		out := a.vec(x.T, b.N)
		out.Nulls = a.masks.take(b.N)
		for _, i := range sel {
			out.Nulls[i] = true
		}
		for k, then := range thens {
			hits, err := conds[k].where(b, sel, a.list(len(sel)), a)
			if err != nil {
				return nil, err
			}
			v, err := then.value(b, hits, a)
			if err != nil {
				return nil, err
			}
			for _, i := range hits {
				setAt(out, i, valueAt(v, then.k, i))
			}
			sel = minus(sel, hits, a)
		}
		return out, nil
	}}, nil
}

func (c *compiler) compileCall(x *plan.Call) (operand, error) {
	// FLOAT (int→float promotion) gets a dedicated tight kernel; it is on
	// the hot path of promoted arithmetic.
	if x.Name == sql.FuncFloat {
		return c.unary(x, x.Args[0], func(v *types.Vector, sel []int, a *arena) *types.Vector {
			out := a.vec(types.Float64, len(v.Ints))
			for _, i := range sel {
				out.Floats[i] = float64(v.Ints[i])
			}
			out.Nulls = v.Nulls
			return out
		})
	}
	c.raises = c.raises || x.Name == sql.FuncDateTrunc
	args := make([]operand, len(x.Args))
	for i, e := range x.Args {
		var err error
		if args[i], err = c.compile(e); err != nil {
			return operand{}, err
		}
	}
	// Every other function runs the interpreted engine's evalCall row by
	// row over arguments evaluated at the same positions: COALESCE's later
	// arguments are not guarded, because there they are not either.
	return operand{fn: func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		vecs := make([]*types.Vector, len(args))
		for j, o := range args {
			var err error
			if vecs[j], err = o.value(b, sel, a); err != nil {
				return nil, err
			}
		}
		out := a.vec(x.T, b.N)
		out.Nulls = a.masks.take(b.N)
		row := make([]types.Value, len(args))
		for _, i := range sel {
			for j, v := range vecs {
				row[j] = valueAt(v, args[j].k, i)
			}
			v, err := evalCall(x, row)
			if err != nil {
				return nil, err
			}
			setAt(out, i, v)
		}
		return out, nil
	}}, nil
}
