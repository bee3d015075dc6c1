package exec

import (
	"context"
	"fmt"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// mergeStream is the engine's one k-way merge over already-ordered input
// streams: the external sort's merge of its runs and sortedTop's merge of
// presorted runs. Ties go to the lowest stream index, which makes the merge
// stable when streams are appended in temporal order — the property the
// external sort relies on for deterministic, tier-independent output.
//
// It works a batch at a time in two steps. The first decides the output
// order over the bound keys alone, a heap of streams yielding a list of runs
// — consecutive rows of one source batch — of up to size rows in all.
// The second copies the runs column by column, one typed loop per column.
type mergeStream struct {
	streams []Operator
	keys    []plan.OrderKey
	in      []mergeInput
	heap    []int // live streams, heap[0] holding the next row
	inited  bool
	size    int // rows per output batch: BatchSize, or the leader's whole result

	// One output's decisions: the source batches its runs refer to, and
	// those among them already exhausted, which the copy still reads.
	srcs  []*Batch
	spent []*Batch
	runs  []mergeRun
}

// mergeInput is a stream's current batch.
type mergeInput struct {
	b     *Batch
	bound []sortKey
	pos   int
	slot  int // b's index in srcs, -1 while the output has no run of it
}

// mergeRun is rows [lo, hi) of source batch srcs[slot].
type mergeRun struct{ slot, lo, hi int }

// newMergeStream merges streams each already ordered by keys.
func newMergeStream(streams []Operator, keys []plan.OrderKey) *mergeStream {
	return &mergeStream{streams: streams, keys: keys, in: make([]mergeInput, len(streams)), size: BatchSize}
}

// advance loads the next non-empty batch of stream i; in[i].b is nil once
// the stream is exhausted.
func (m *mergeStream) advance(ctx context.Context, i int) error {
	in := &m.in[i]
	for {
		b, err := m.streams[i].Next(ctx)
		if err != nil {
			return err
		}
		if b == nil || b.N > 0 {
			*in = mergeInput{b: b, slot: -1}
			if b != nil {
				in.bound = bindKeys(b, m.keys)
			}
			return nil
		}
		PutBatch(b)
	}
}

// before orders stream a's next row against stream b's.
func (m *mergeStream) before(a, b int) bool {
	x, y := &m.in[a], &m.in[b]
	c := compareKeys(x.bound, x.pos, y.bound, y.pos)
	return c < 0 || c == 0 && a < b
}

// siftDown restores the heap below position i.
func (m *mergeStream) siftDown(i int) {
	h := m.heap
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if kid+1 < len(h) && m.before(h[kid+1], h[kid]) {
			kid++
		}
		if !m.before(h[kid], h[i]) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

// Next returns the next up to size rows, or nil at the end.
func (m *mergeStream) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !m.inited {
		m.inited = true
		for i := range m.streams {
			if err := m.advance(ctx, i); err != nil {
				return nil, err
			}
			if m.in[i].b != nil {
				m.heap = append(m.heap, i)
			}
		}
		for i := len(m.heap)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	}
	m.srcs, m.runs = m.srcs[:0], m.runs[:0]
	for _, i := range m.heap {
		m.in[i].slot = -1
	}
	defer func() {
		for i, b := range m.spent {
			PutBatch(b)
			m.spent[i] = nil
		}
		m.spent = m.spent[:0]
	}()

	n := 0
	for n < m.size && len(m.heap) > 0 {
		i := m.heap[0]
		in := &m.in[i]
		take := 1
		if len(m.heap) == 1 {
			take = min(m.size-n, in.b.N-in.pos) // nothing left to compare with
		}
		if in.slot < 0 {
			in.slot = len(m.srcs)
			m.srcs = append(m.srcs, in.b)
		}
		if last := len(m.runs) - 1; last >= 0 && m.runs[last].slot == in.slot {
			m.runs[last].hi += take // a stream's picks from one batch are consecutive
		} else {
			m.runs = append(m.runs, mergeRun{slot: in.slot, lo: in.pos, hi: in.pos + take})
		}
		in.pos += take
		n += take
		if in.pos == in.b.N {
			m.spent = append(m.spent, in.b)
			if err := m.advance(ctx, i); err != nil {
				return nil, err
			}
			if in.b == nil {
				last := len(m.heap) - 1
				m.heap[0] = m.heap[last]
				m.heap = m.heap[:last]
			}
		}
		m.siftDown(0)
	}
	if n == 0 {
		return nil, nil
	}
	return gatherRuns(m.srcs, m.runs, n)
}

// gatherRuns materializes the n rows the runs name, in order, as a pooled
// batch of fresh vectors shaped like the sources (nil columns stay nil).
func gatherRuns(srcs []*Batch, runs []mergeRun, n int) (*Batch, error) {
	width := len(srcs[0].Cols)
	for _, s := range srcs[1:] {
		if len(s.Cols) != width {
			return nil, fmt.Errorf("exec: merge width mismatch %d vs %d", len(s.Cols), width)
		}
	}
	out := GetBatch(width)
	out.N = n
	// Scratch shared by the columns: a column's vector, then its payload
	// slice, per source.
	cols := make([]*types.Vector, len(srcs))
	vecs := make([]types.Vector, width) // the output's vectors, one allocation
	var (
		ints   [][]int64
		floats [][]float64
		strs   [][]string
		nulls  [][]bool
	)
	for c := 0; c < width; c++ {
		masked := false
		for s, src := range srcs {
			cols[s] = src.Cols[c]
			if (cols[s] == nil) != (cols[0] == nil) {
				PutBatch(out)
				return nil, fmt.Errorf("exec: merge materialization mismatch at column %d", c)
			}
			masked = masked || cols[s] != nil && cols[s].Nulls != nil
		}
		if cols[0] == nil {
			continue
		}
		dst := &vecs[c]
		dst.T = cols[0].T
		switch dst.T {
		case types.Float64:
			dst.Floats = copyRuns(runs, n, cols, &floats, func(v *types.Vector) []float64 { return v.Floats })
		case types.String:
			dst.Strs = copyRuns(runs, n, cols, &strs, func(v *types.Vector) []string { return v.Strs })
		default:
			dst.Ints = copyRuns(runs, n, cols, &ints, func(v *types.Vector) []int64 { return v.Ints })
		}
		if masked {
			// A source without a mask has no NULLs: its runs stay false.
			dst.Nulls = copyRuns(runs, n, cols, &nulls, func(v *types.Vector) []bool { return v.Nulls })
		}
		out.Cols[c] = dst
	}
	return out, nil
}

// copyRuns concatenates the runs of one column's payload (or mask): of picks
// each source's slice once, into scratch, then one loop copies. A run of a
// source whose slice is nil leaves zeros.
func copyRuns[T any](runs []mergeRun, n int, cols []*types.Vector, scratch *[][]T, of func(*types.Vector) []T) []T {
	if *scratch == nil {
		*scratch = make([][]T, len(cols))
	}
	srcs := *scratch
	for s, v := range cols {
		srcs[s] = of(v)
	}
	dst := make([]T, n)
	at := 0
	for _, r := range runs {
		src := srcs[r.slot]
		switch {
		case src == nil:
			at += r.hi - r.lo
		case r.hi-r.lo == 1:
			dst[at] = src[r.lo]
			at++
		default:
			at += copy(dst[at:], src[r.lo:r.hi])
		}
	}
	return dst
}
