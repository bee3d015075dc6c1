package exec

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// parentSortedTop is sortedTop as it was before it merged sorted runs — a
// heap-select of the rows a limit keeps, then one sort — kept verbatim as
// the oracle the merging sortedTop must match batch for batch.
func parentSortedTop(b *Batch, keys []plan.OrderKey, limit int64) *Batch {
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

// sameBatch reports how got and want differ, column by column and payload
// slice by payload slice (floats by bits, so NaN payloads compare), or "".
func sameBatch(got, want *Batch) string {
	if got.N != want.N || len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("%d rows × %d columns, want %d × %d", got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for c, g := range got.Cols {
		w := want.Cols[c]
		switch {
		case (g == nil) != (w == nil):
			return fmt.Sprintf("column %d materialized %v, want %v", c, g != nil, w != nil)
		case g == nil:
			continue
		case g.T != w.T || (g.Nulls == nil) != (w.Nulls == nil) || !slices.Equal(g.Nulls, w.Nulls) ||
			(g.Ints == nil) != (w.Ints == nil) || !slices.Equal(g.Ints, w.Ints) ||
			(g.Strs == nil) != (w.Strs == nil) || !slices.Equal(g.Strs, w.Strs) ||
			(g.Floats == nil) != (w.Floats == nil) || len(g.Floats) != len(w.Floats):
			return fmt.Sprintf("column %d = %+v, want %+v", c, g, w)
		}
		for i := range g.Floats {
			if math.Float64bits(g.Floats[i]) != math.Float64bits(w.Floats[i]) {
				return fmt.Sprintf("column %d row %d = %v, want %v", c, i, g.Floats[i], w.Floats[i])
			}
		}
	}
	return ""
}

// sortInput is runs sorted runs of topnBatch rows (one unsorted batch when
// runs is 0), with a NaN in the float key when nan is set; tagged adds the
// trailing tag column a dop > 1 TopNSink sorts by last, each run sorted with
// it as the sink's workers leave theirs.
func sortInput(rng *rand.Rand, keys []plan.OrderKey, runs, n int, nan, tagged bool) *Batch {
	width := 4
	if tagged {
		keys = append(slices.Clone(keys), plan.OrderKey{Index: width})
		width++
	}
	out := NewBatch(width)
	for r := 0; r < max(runs, 1); r++ {
		b := topnBatch(rng, n/max(runs, 1)+rng.Intn(3))
		if tagged {
			tags := make([]int64, b.N)
			for i := range tags {
				tags[i] = int64(rng.Intn(6))
			}
			b.Cols = append(b.Cols, &types.Vector{T: types.Int64, Ints: tags})
		}
		if nan && b.N > 0 && rng.Intn(2) == 0 {
			b.Cols[0].Floats[rng.Intn(b.N)] = math.NaN()
		}
		if runs > 0 {
			b = parentSortedTop(b, keys, -1)
		}
		if err := out.Concat(b); err != nil {
			panic(err)
		}
	}
	if nan && out.N > 0 {
		if out.Cols[0].Floats[out.N/2] = math.NaN(); out.Cols[0].Nulls != nil {
			out.Cols[0].Nulls[out.N/2] = false
		}
	}
	return out
}

// TestSortedTopMatchesParent holds the merging sortedTop to the parent's
// sort, batch for batch: 1 to 10 sorted runs and unsorted input, ties across
// runs, DESC and multi-key orders over float, string and integer keys with
// NULLs, NaN in a key, limits -1, 0, 1, n/2, n and n+1, and the tagged
// sorter's trailing tag key.
func TestSortedTopMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	orders := map[string][]plan.OrderKey{
		"float-desc,string": {{Index: 0, Desc: true}, {Index: 1}},
		"string,int-desc":   {{Index: 1}, {Index: 2, Desc: true}},
		"int":               {{Index: 2}},
		"float":             {{Index: 0}},
		"int-desc,float":    {{Index: 2, Desc: true}, {Index: 0}},
	}
	merged := 0
	for name, keys := range orders {
		for runs := 0; runs <= 10; runs++ {
			for _, n := range []int{2, 7, 300} {
				for _, nan := range []bool{false, true} {
					for _, tagged := range []bool{false, true} {
						in := sortInput(rng, keys, runs, n, nan, tagged)
						k := keys
						if tagged {
							k = append(slices.Clone(keys), plan.OrderKey{Index: 4})
						}
						if !nan && runs > 0 && runs <= maxMergeRuns && runBounds(in, bindKeys(in, k)) != nil {
							merged++
						}
						for _, limit := range []int64{-1, 0, 1, int64(in.N / 2), int64(in.N), int64(in.N + 1)} {
							if diff := sameBatch(sortedTop(in, k, limit), parentSortedTop(in, k, limit)); diff != "" {
								t.Fatalf("%s runs=%d n=%d nan=%v tagged=%v limit=%d: %s", name, runs, in.N, nan, tagged, limit, diff)
							}
						}
					}
				}
			}
		}
	}
	if merged < 200 {
		t.Errorf("only %d inputs took the merge", merged)
	}
}

// sortBenchBatch is n rows of (BIGINT key, DOUBLE, VARCHAR, DATE) in runs
// ascending runs of the key (keys at random when runs is 0).
func sortBenchBatch(n, runs int) *Batch {
	rng := rand.New(rand.NewSource(7))
	b := NewBatch(4)
	k, f, s, d := types.NewVector(types.Int64, n), types.NewVector(types.Float64, n), types.NewVector(types.String, n), types.NewVector(types.Date, n)
	for i := 0; i < n; i++ {
		key := rng.Int63n(1 << 40)
		if runs > 0 {
			key = int64(i%(n/runs))*int64(runs)*4 + int64(rng.Intn(4*runs))
		}
		k.Append(types.NewInt(key))
		f.Append(types.NewFloat(float64(i) * 1.25))
		s.Append(types.NewString(fmt.Sprintf("note-%06d", i)))
		d.Append(types.NewDate(int64(18000 + i%3000)))
	}
	b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3], b.N = k, f, s, d, n
	if runs > 0 {
		for r := 0; r < runs; r++ { // each run ascending on its own
			lo, hi := r*(n/runs), (r+1)*(n/runs)
			slices.Sort(k.Ints[lo:hi])
		}
	}
	return b
}

// BenchmarkSortedTop times sortedTop on one sorted run of 4096 (a slice's
// scan in sort-key order), four sorted runs of 1000 cut at 2000 (the
// leader's input on a LIMIT 2000 fetch), and 4096 random rows cut at 100:
// ns per input row, B/op and allocs/op — the in-repo form of the harness's
// exec.sort_ns_per_row.
func BenchmarkSortedTop(b *testing.B) {
	keys := []plan.OrderKey{{Index: 0}}
	for _, c := range []struct {
		name  string
		in    *Batch
		limit int64
	}{
		{"one-run-4096", sortBenchBatch(4096, 1), -1},
		{"four-runs-1000/limit=2000", sortBenchBatch(4000, 4), 2000},
		{"random-4096/limit=100", sortBenchBatch(4096, 0), 100},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PutBatch(sortedTop(c.in, keys, c.limit))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.in.N), "ns/row")
		})
	}
}
