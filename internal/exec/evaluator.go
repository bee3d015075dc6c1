package exec

import (
	"fmt"
	"slices"

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

// Evaluator evaluates one bound expression over batches in either mode. It
// holds nothing an evaluation writes, so one may be shared by goroutines.
type Evaluator struct {
	root operand
	t    types.Type // the result's type
}

// NewEvaluator prepares an expression for repeated evaluation. In Compiled
// mode this is where the per-query fixed cost is paid; in Interpreted mode
// the expression is one node that runs EvalRow on each row it is asked for.
func NewEvaluator(mode Mode, expr plan.Expr) (*Evaluator, error) {
	ev := &Evaluator{t: exprVecType(expr)}
	if mode == Compiled {
		var err error
		if ev.root, err = new(compiler).compile(expr); err != nil {
			return nil, err
		}
		return ev, nil
	}
	ev.root.fn = func(b *Batch, sel []int, a *arena) (*types.Vector, error) {
		out := a.vec(ev.t, b.N)
		out.Nulls = a.masks.take(b.N)
		for _, i := range sel {
			v, err := EvalRow(expr, b.Row(i))
			if err != nil {
				return nil, err
			}
			setAt(out, i, v)
		}
		return out, nil
	}
	return ev, nil
}

// Eval evaluates the expression over a batch, returning one vector: a fresh
// one, or the batch's own column for a bare column reference.
func (ev *Evaluator) Eval(b *Batch) (*types.Vector, error) { return ev.root.vector(b, ev.t) }

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
// deciding which remaining columns to decode. The predicate evaluates to
// positions, not to a vector of booleans (NULL counts as false, per WHERE
// semantics), and its last step writes them straight into sel: a batch whose
// sel has room for b.N allocates nothing.
func (f *Filter) Select(b *Batch, sel []int) ([]int, bool, error) {
	return f.SelectRun(b, 0, b.N, sel)
}

// SelectRun is Select over the rows [lo, hi) of b only: the rows outside the
// run are not evaluated and do not pass — the scan hands it the run of a
// sorted block that bounds on the block's sort key leave standing.
func (f *Filter) SelectRun(b *Batch, lo, hi int, sel []int) ([]int, bool, error) {
	if hi-lo == b.N && (f.ev == nil || b.N == 0) {
		return sel, true, nil
	}
	a := getArena()
	defer a.release()
	run := a.all(hi)[lo:]
	if f.ev == nil {
		return append(sel, run...), false, nil
	}
	sel, err := f.ev.root.where(b, run, slices.Grow(sel, len(run)), a)
	return sel, err == nil && len(sel) == b.N, err
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
