package exec

import (
	"fmt"
	"math"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// Mode selects the execution engine.
type Mode uint8

const (
	// Compiled is the vectorized, type-specialized engine (§2.1's compiled
	// execution).
	Compiled Mode = iota
	// Interpreted is the generic row-at-a-time engine the paper contrasts
	// compilation against.
	Interpreted
)

// String names the mode.
func (m Mode) String() string {
	if m == Interpreted {
		return "interpreted"
	}
	return "compiled"
}

// Evaluator evaluates one bound expression over batches in either mode.
type Evaluator struct {
	mode Mode
	expr plan.Expr
	fn   VecFn // compiled mode only
}

// NewEvaluator prepares an expression for repeated evaluation. In Compiled
// mode this is where the per-query fixed cost is paid.
func NewEvaluator(mode Mode, expr plan.Expr) (*Evaluator, error) {
	ev := &Evaluator{mode: mode, expr: expr}
	if mode == Compiled {
		fn, err := CompileVec(expr)
		if err != nil {
			return nil, err
		}
		ev.fn = fn
	}
	return ev, nil
}

// Eval evaluates the expression over a batch, returning one vector.
func (ev *Evaluator) Eval(b *Batch) (*types.Vector, error) {
	if ev.mode == Compiled {
		return ev.fn(b)
	}
	out := types.NewVector(exprVecType(ev.expr), b.N)
	for i := 0; i < b.N; i++ {
		v, err := EvalRow(ev.expr, b.Row(i))
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

func exprVecType(e plan.Expr) types.Type {
	if t := e.Type(); t != types.Invalid {
		return t
	}
	return types.Bool
}

// Filter applies a boolean predicate to a batch and returns the surviving
// rows, compacted.
type Filter struct {
	ev *Evaluator
}

// NewFilter prepares a predicate.
func NewFilter(mode Mode, pred plan.Expr) (*Filter, error) {
	if pred == nil {
		return &Filter{}, nil
	}
	ev, err := NewEvaluator(mode, pred)
	if err != nil {
		return nil, err
	}
	return &Filter{ev: ev}, nil
}

// Apply filters the batch; with no predicate it passes the batch through.
func (f *Filter) Apply(b *Batch) (*Batch, error) {
	sel, all, err := f.Select(b, nil)
	if err != nil {
		return nil, err
	}
	if all {
		return b, nil
	}
	return b.Gather(sel), nil
}

// Select evaluates the predicate and returns the passing row positions
// appended to sel (which may be nil or a reused buffer sliced to zero
// length). all reports that every row passed, in which case the returned
// selection must not be used — the batch stands as-is. This is the
// late-materialization entry point: the scan evaluates the filter before
// deciding which remaining columns to decode.
func (f *Filter) Select(b *Batch, sel []int) ([]int, bool, error) {
	if f.ev == nil || b.N == 0 {
		return sel, true, nil
	}
	v, err := f.ev.Eval(b)
	if err != nil {
		return sel, false, err
	}
	sel = SelectTrueInto(v, sel)
	return sel, len(sel) == b.N, nil
}

// Projector computes output columns from input batches.
type Projector struct {
	evs []*Evaluator
}

// NewProjector prepares the projection expressions.
func NewProjector(mode Mode, exprs []plan.Expr) (*Projector, error) {
	p := &Projector{}
	for _, e := range exprs {
		ev, err := NewEvaluator(mode, e)
		if err != nil {
			return nil, err
		}
		p.evs = append(p.evs, ev)
	}
	return p, nil
}

// Apply computes the projected batch.
func (p *Projector) Apply(b *Batch) (*Batch, error) {
	out := NewBatch(len(p.evs))
	out.N = b.N
	for i, ev := range p.evs {
		v, err := ev.Eval(b)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = v
	}
	return out, nil
}

// KeyEncoder renders a tuple of values into a comparable string key for
// hash tables (joins, grouping, distinct). The encoding is injective.
func KeyEncoder(vals []types.Value) string {
	buf := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		if v.Null {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1, byte(v.T))
		switch v.T {
		case types.Float64:
			buf = appendUint64(buf, floatKeyBits(v.F))
		case types.String:
			buf = appendUint64(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default:
			buf = appendUint64(buf, uint64(v.I))
		}
	}
	return string(buf)
}

func appendUint64(b []byte, x uint64) []byte {
	return append(b,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

func floatKeyBits(f float64) uint64 {
	// Normalize -0 and +0 so they hash identically.
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// HashValues hashes a tuple for distribution: FNV-1a over the bytes of its
// KeyEncoder encoding, streamed without building the string. It is the same
// function the cluster layer uses to place rows by distribution key, so
// planner co-location reasoning and executor shuffles agree by construction
// — and its values are pinned by test, because changing one moves stored
// rows to another slice.
func HashValues(vals []types.Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		if v.Null {
			h = fnvByte(h, 0)
			continue
		}
		h = fnvByte(fnvByte(h, 1), byte(v.T))
		switch v.T {
		case types.Float64:
			h = fnvUint64(h, floatKeyBits(v.F))
		case types.String:
			h = fnvUint64(h, uint64(len(v.S)))
			for i := 0; i < len(v.S); i++ {
				h = fnvByte(h, v.S[i])
			}
		default:
			h = fnvUint64(h, uint64(v.I))
		}
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

// fnvUint64 folds x in as appendUint64 lays it out: little-endian.
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

// errWidth is a shared consistency failure.
func errWidth(what string, got, want int) error {
	return fmt.Errorf("exec: %s width %d, want %d", what, got, want)
}
