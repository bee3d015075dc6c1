// Package exec implements query execution: a vectorized, type-specialized
// "compiled" engine (the stand-in for §2.1's compilation to C++ and machine
// code) and a generic row-at-a-time "interpreted" engine (the
// general-purpose executor the paper says compilation beats), plus the
// operators both share — zone-map-pruned scans, hash joins, two-phase
// mergeable aggregation (including HLL for APPROXIMATE COUNT(DISTINCT)),
// sort, distinct and limit.
package exec

import (
	"fmt"
	"strings"
	"sync"

	"redshift/internal/types"
)

// BatchSize is the number of rows per vector batch in the compiled engine.
const BatchSize = 1024

// Batch is a set of column vectors sharing a row count. Cols is laid out
// per the plan's row layout; positions the query never reads are nil
// (late materialization — unread columns are never decoded).
type Batch struct {
	Cols []*types.Vector
	N    int
}

// NewBatch returns an empty batch with the given layout width.
func NewBatch(width int) *Batch {
	return &Batch{Cols: make([]*types.Vector, width)}
}

// batchPool recycles Batch structs and their Cols slices through the
// streaming operator chain, so steady-state scans stop allocating one
// batch header per block. Vectors are never pooled — only the wrapper.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty pooled batch with the given layout width.
func GetBatch(width int) *Batch {
	b := batchPool.Get().(*Batch)
	if cap(b.Cols) < width {
		b.Cols = make([]*types.Vector, width)
	} else {
		b.Cols = b.Cols[:width]
		for i := range b.Cols {
			b.Cols[i] = nil
		}
	}
	b.N = 0
	return b
}

// PutBatch releases a batch to the pool. Callers must be the batch's
// sole owner: an operator may release only input batches it consumed
// itself, never a batch that was broadcast or that it passed through.
// Column vectors are not recycled, so vectors gathered out of b (or
// aliased by a projection) stay valid after the release.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.Cols {
		b.Cols[i] = nil
	}
	b.N = 0
	batchPool.Put(b)
}

// Row boxes row i into a types.Row (nil columns yield zero Values). Used by
// the interpreted engine and by the leader when rendering results.
func (b *Batch) Row(i int) types.Row {
	row := make(types.Row, len(b.Cols))
	for c, v := range b.Cols {
		if v != nil {
			row[c] = v.Get(i)
		}
	}
	return row
}

// Gather returns a new batch holding the selected row positions, in order.
// The batch comes from the pool; vectors are freshly allocated copies.
func (b *Batch) Gather(sel []int) *Batch {
	out := GetBatch(len(b.Cols))
	out.N = len(sel)
	for c, v := range b.Cols {
		if v == nil {
			continue
		}
		out.Cols[c] = v.Gather(sel)
	}
	return out
}

// PackStrings moves b's string columns into arenas of their own, one
// allocation per column. The strings of a decoded block are sub-strings of
// that block's arena (compress.Decode), so a few values kept by reference
// keep every block they came from alive. The scan re-packs the survivors of
// a filtered block, so a batch that leaves it holds its own bytes and no
// more, which is what its consumers charge to their MemTracker (a block
// whose rows all pass is handed on whole and pins exactly itself); the
// leader re-packs the result, which outlives the query in the result cache.
func (b *Batch) PackStrings() {
	for _, v := range b.Cols {
		if v == nil || v.T != types.String {
			continue
		}
		total := 0
		for _, s := range v.Strs {
			total += len(s)
		}
		var sb strings.Builder
		sb.Grow(total)
		for _, s := range v.Strs {
			sb.WriteString(s)
		}
		arena, at := sb.String(), 0
		for i, s := range v.Strs {
			v.Strs[i] = arena[at : at+len(s)]
			at += len(s)
		}
	}
}

// Concat appends other's rows to b. Column layouts must match.
func (b *Batch) Concat(other *Batch) error {
	if len(b.Cols) != len(other.Cols) {
		return fmt.Errorf("exec: concat width mismatch %d vs %d", len(b.Cols), len(other.Cols))
	}
	for c := range b.Cols {
		// An empty receiver adopts the other batch's materialization shape.
		if b.N == 0 && b.Cols[c] == nil && other.Cols[c] != nil {
			b.Cols[c] = types.NewVector(other.Cols[c].T, other.N)
		}
		switch {
		case b.Cols[c] == nil && other.Cols[c] == nil:
		case b.Cols[c] != nil && other.Cols[c] != nil:
			b.Cols[c].AppendRange(other.Cols[c], 0, other.N)
		default:
			return fmt.Errorf("exec: concat materialization mismatch at column %d", c)
		}
	}
	b.N += other.N
	return nil
}

// ByteSize estimates the materialized payload size, for network accounting.
func (b *Batch) ByteSize() int64 {
	var n int64
	for _, v := range b.Cols {
		if v != nil {
			n += v.ByteSize()
		}
	}
	return n
}

// FromRows builds a fully materialized batch from boxed rows. Each column's
// type is taken from schema.
func FromRows(schema []types.Type, rows []types.Row) *Batch {
	b := NewBatch(len(schema))
	for c, t := range schema {
		b.Cols[c] = types.NewVector(t, len(rows))
	}
	for _, row := range rows {
		for c := range schema {
			b.Cols[c].Append(row[c])
		}
	}
	b.N = len(rows)
	return b
}
