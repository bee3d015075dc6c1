package exec

import (
	"fmt"
	"slices"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// sortKey is one ORDER BY key bound to a batch: the column's payload and
// null mask resolved once per sort, so a comparison boxes nothing.
type sortKey struct {
	t      types.Type
	desc   bool
	nulls  []bool
	ints   []int64
	floats []float64
	strs   []string
}

// bindKeys resolves keys against b's columns.
func bindKeys(b *Batch, keys []plan.OrderKey) []sortKey {
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		v := b.Cols[k.Index]
		out[i] = sortKey{t: v.T, desc: k.Desc, nulls: v.Nulls, ints: v.Ints, floats: v.Floats, strs: v.Strs}
	}
	return out
}

func cmp3[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareKeys orders row x of the batch a is bound to against row y of b's
// (the same keys bound to another batch, or a itself). It is the engine's
// one row comparator and orders exactly as types.Compare does: NULLs first,
// NaN equal to everything.
func compareKeys(a []sortKey, x int, b []sortKey, y int) int {
	for i := range a {
		ka, kb := &a[i], &b[i]
		xn, yn := ka.nulls != nil && ka.nulls[x], kb.nulls != nil && kb.nulls[y]
		var c int
		switch {
		case xn && yn:
		case xn:
			c = -1
		case yn:
			c = 1
		case ka.t == types.Float64:
			c = cmp3(ka.floats[x], kb.floats[y])
		case ka.t == types.String:
			c = cmp3(ka.strs[x], kb.strs[y])
		default:
			c = cmp3(ka.ints[x], kb.ints[y])
		}
		if c != 0 {
			if ka.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// SortBatch orders a fully materialized batch by the given keys (over the
// batch's own columns). The sort is stable so equal keys keep input order,
// which keeps distributed merges deterministic: ties break on the row's
// input position, which makes the order total and lets an unstable sort
// produce it.
func SortBatch(b *Batch, keys []plan.OrderKey) *Batch {
	if b.N <= 1 || len(keys) == 0 {
		return b
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	bound := bindKeys(b, keys)
	slices.SortFunc(idx, func(x, y int) int {
		if c := compareKeys(bound, x, bound, y); c != 0 {
			return c
		}
		return x - y
	})
	return b.Gather(idx)
}

// MergeSorted merges pre-sorted batches into one sorted batch — the leader
// node's merge step over per-slice sorted streams.
func MergeSorted(batches []*Batch, keys []plan.OrderKey) (*Batch, error) {
	var nonEmpty []*Batch
	var bound [][]sortKey
	for _, b := range batches {
		if b != nil && b.N > 0 {
			nonEmpty = append(nonEmpty, b)
			bound = append(bound, bindKeys(b, keys))
		}
	}
	if len(nonEmpty) == 0 {
		if len(batches) > 0 {
			return batches[0], nil
		}
		return &Batch{}, nil
	}
	out := NewBatch(len(nonEmpty[0].Cols))
	for _, b := range nonEmpty {
		if len(b.Cols) != len(out.Cols) {
			return nil, fmt.Errorf("exec: merge width mismatch %d vs %d", len(b.Cols), len(out.Cols))
		}
	}
	pos := make([]int, len(nonEmpty))
	for {
		best := -1
		for i, b := range nonEmpty {
			if pos[i] < b.N && (best == -1 || compareKeys(bound[i], pos[i], bound[best], pos[best]) < 0) {
				best = i
			}
		}
		if best == -1 {
			return out, nil
		}
		appendRow(out, nonEmpty[best], pos[best])
		pos[best]++
	}
}

// TopN keeps the first n rows of a sorted batch — the slice-local
// LIMIT pushdown paired with the leader's merge.
func TopN(b *Batch, n int64) *Batch {
	if n < 0 || int64(b.N) <= n {
		return b
	}
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return b.Gather(sel)
}
