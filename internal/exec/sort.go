package exec

import (
	"sort"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// SortBatch orders a fully materialized batch by the given keys (over the
// batch's own columns). The sort is stable so equal keys keep input order,
// which keeps distributed merges deterministic.
func SortBatch(b *Batch, keys []plan.OrderKey) *Batch {
	if b.N <= 1 || len(keys) == 0 {
		return b
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return compareRows(b, idx[x], idx[y], keys) < 0
	})
	return b.Gather(idx)
}

// compareRows orders two rows of a batch by the keys.
func compareRows(b *Batch, x, y int, keys []plan.OrderKey) int {
	for _, k := range keys {
		v := b.Cols[k.Index]
		c := types.Compare(v.Get(x), v.Get(y))
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// MergeSorted merges pre-sorted batches into one sorted batch — the leader
// node's merge step over per-slice sorted streams.
func MergeSorted(batches []*Batch, keys []plan.OrderKey) (*Batch, error) {
	var nonEmpty []*Batch
	for _, b := range batches {
		if b != nil && b.N > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		if len(batches) > 0 {
			return batches[0], nil
		}
		return &Batch{}, nil
	}
	out := NewBatch(len(nonEmpty[0].Cols))
	pos := make([]int, len(nonEmpty))
	for {
		best := -1
		for i, b := range nonEmpty {
			if pos[i] >= b.N {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			if crossCompare(nonEmpty[i], pos[i], nonEmpty[best], pos[best], keys) < 0 {
				best = i
			}
		}
		if best == -1 {
			return out, nil
		}
		if err := out.Concat(nonEmpty[best].Gather([]int{pos[best]})); err != nil {
			return nil, err
		}
		pos[best]++
	}
}

func crossCompare(a *Batch, ai int, b *Batch, bi int, keys []plan.OrderKey) int {
	for _, k := range keys {
		c := types.Compare(a.Cols[k.Index].Get(ai), b.Cols[k.Index].Get(bi))
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
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
