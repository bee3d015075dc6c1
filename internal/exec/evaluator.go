package exec

import (
	"fmt"

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

// newEvaluators prepares a list of expressions; a nil expression yields the
// nil evaluator that evalKeys answers with a nil vector.
func newEvaluators(mode Mode, exprs []plan.Expr) ([]*Evaluator, error) {
	evs := make([]*Evaluator, len(exprs))
	for i, e := range exprs {
		if e == nil {
			continue
		}
		var err error
		if evs[i], err = NewEvaluator(mode, e); err != nil {
			return nil, err
		}
	}
	return evs, nil
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
	for i, n := range v.Ints {
		if n != 0 && !v.IsNull(i) { // NULL counts as false, per WHERE semantics
			sel = append(sel, i)
		}
	}
	return sel, len(sel) == b.N, nil
}

// Projector computes output columns from input batches.
type Projector struct {
	evs []*Evaluator
}

// NewProjector prepares the projection expressions.
func NewProjector(mode Mode, exprs []plan.Expr) (*Projector, error) {
	evs, err := newEvaluators(mode, exprs)
	if err != nil {
		return nil, err
	}
	return &Projector{evs: evs}, nil
}

// Apply computes the projected batch.
func (p *Projector) Apply(b *Batch) (*Batch, error) {
	cols, err := evalKeys(p.evs, b, make([]*types.Vector, 0, len(p.evs)))
	if err != nil {
		return nil, err
	}
	return &Batch{Cols: cols, N: b.N}, nil
}

// errWidth is a shared consistency failure.
func errWidth(what string, got, want int) error {
	return fmt.Errorf("exec: %s width %d, want %d", what, got, want)
}
