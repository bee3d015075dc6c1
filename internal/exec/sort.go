package exec

import (
	"container/heap"
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
// which keeps distributed merges deterministic.
func SortBatch(b *Batch, keys []plan.OrderKey) *Batch {
	return sortedTop(b, keys, -1)
}

// sortedTop is TopN(SortBatch(b, keys), limit) with one gather, of the rows
// that stay. When the limit drops rows they are never sorted: a heap selects
// the limit that stay, and only those are.
func sortedTop(b *Batch, keys []plan.OrderKey, limit int64) *Batch {
	if b.N <= 1 || len(keys) == 0 {
		return TopN(b, limit)
	}
	// Position breaks ties, which makes the order total — an unstable sort
	// and a selection both realize the stable sort.
	bound := bindKeys(b, keys)
	order := func(x, y int) int {
		if c := compareKeys(bound, x, bound, y); c != 0 {
			return c
		}
		return x - y
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	if limit >= 0 && limit < int64(b.N) {
		// idx[:limit] is a heap with the last of the kept rows on top; a row
		// that sorts before it takes its place.
		kept := &lastFirst{idx: idx[:limit], order: order}
		heap.Init(kept)
		for _, r := range idx[limit:] {
			if limit > 0 && order(r, kept.idx[0]) < 0 {
				kept.idx[0] = r
				heap.Fix(kept, 0)
			}
		}
		idx = kept.idx
	}
	slices.SortFunc(idx, order)
	return b.Gather(idx)
}

// lastFirst is a heap of row positions whose top is the one order puts last.
type lastFirst struct {
	idx   []int
	order func(x, y int) int
}

func (h *lastFirst) Len() int           { return len(h.idx) }
func (h *lastFirst) Less(i, j int) bool { return h.order(h.idx[i], h.idx[j]) > 0 }
func (h *lastFirst) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *lastFirst) Push(any)           { panic("exec: lastFirst is fixed-size") }
func (h *lastFirst) Pop() any           { panic("exec: lastFirst is fixed-size") }

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
