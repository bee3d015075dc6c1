package exec

import (
	"container/heap"
	"context"
	"math"
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
// that stay. Input that is a few ascending runs — each slice's scan in
// sort-key order, the leader's replay of one sorted run per slice — is
// merged, stopping at the limit. Otherwise, when the limit drops rows they
// are never sorted: a heap selects the limit that stay, and only those are.
func sortedTop(b *Batch, keys []plan.OrderKey, limit int64) *Batch {
	if b.N <= 1 || len(keys) == 0 || limit == 0 {
		return TopN(b, limit)
	}
	bound := bindKeys(b, keys)
	if bounds := runBounds(b, bound); bounds != nil {
		return mergeRuns(b, bounds, keys, limit)
	}
	// Position breaks ties, which makes the order total — an unstable sort
	// and a selection both realize the stable sort.
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
			if order(r, kept.idx[0]) < 0 {
				kept.idx[0] = r
				heap.Fix(kept, 0)
			}
		}
		idx = kept.idx
	}
	slices.SortFunc(idx, order)
	return b.Gather(idx)
}

// maxMergeRuns is the most ascending runs sortedTop merges rather than sorts.
const maxMergeRuns = 8

// runBounds returns where b's ascending runs under bound begin, then b.N; or
// nil when there are more than maxMergeRuns or a float key holds a NaN.
// compareKeys calls NaN equal to everything, so a NaN can join two
// out-of-order rows into one false run; without one, runs are truly sorted,
// and merging them with ties to the earlier run is exactly the stable sort.
func runBounds(b *Batch, bound []sortKey) []int {
	bounds := []int{0}
	for i := 1; i < b.N; i++ {
		if compareKeys(bound, i-1, bound, i) <= 0 {
			continue
		}
		if bounds = append(bounds, i); len(bounds) > maxMergeRuns {
			return nil
		}
	}
	for _, k := range bound {
		if slices.ContainsFunc(k.floats, math.IsNaN) {
			return nil
		}
	}
	return append(bounds, b.N)
}

// mergeRuns merges b's runs through mergeStream, over views of b's vectors,
// into one batch of at most limit rows (all of them when limit < 0).
func mergeRuns(b *Batch, bounds []int, keys []plan.OrderKey, limit int64) *Batch {
	streams := make([]Operator, len(bounds)-1)
	for i := range streams {
		lo, hi := bounds[i], bounds[i+1]
		run := &Batch{Cols: make([]*types.Vector, len(b.Cols)), N: hi - lo}
		for c, v := range b.Cols {
			if v != nil {
				run.Cols[c] = v.Slice(lo, hi)
			}
		}
		streams[i] = NewBatchSource([]*Batch{run})
	}
	m := newMergeStream(streams, keys)
	if m.size = b.N; limit >= 0 && limit < int64(b.N) {
		m.size = int(limit)
	}
	out, _ := m.Next(context.Background()) // views of one batch: no I/O, no width mismatch
	return out
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
