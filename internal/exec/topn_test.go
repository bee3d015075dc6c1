package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// topnBatch builds n rows of (Float64, String, Int64 keys; Float64 payload)
// from domains small enough that most rows tie on any one key. The float key
// holds both zeros, which compare equal and must come back as they went in;
// the payload holds NaN. (No key does: compareKeys has NaN equal to
// everything, which is no order, so a NaN key has no defined sort to match.)
func topnBatch(rng *rand.Rand, n int) *Batch {
	b := NewBatch(4)
	fv, sv, iv, pv := types.NewVector(types.Float64, n), types.NewVector(types.String, n), types.NewVector(types.Int64, n), types.NewVector(types.Float64, n)
	floats := []float64{math.Copysign(0, -1), 0, 1.5, -2.5, 7}
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			fv.AppendNull()
		} else {
			fv.Append(types.NewFloat(floats[rng.Intn(len(floats))]))
		}
		if rng.Intn(8) == 0 {
			sv.AppendNull()
		} else {
			sv.Append(types.NewString(fmt.Sprintf("k%d", rng.Intn(4))))
		}
		iv.Append(types.NewInt(int64(rng.Intn(40))))
		if rng.Intn(5) == 0 {
			pv.Append(types.NewFloat(math.NaN()))
		} else {
			pv.Append(types.NewFloat(rng.Float64()))
		}
	}
	b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3], b.N = fv, sv, iv, pv, n
	return b
}

// TestPropTopNMatchesFullSort holds the bounded TopNSink to
// TopN(SortBatch(all)): heavy ties, NULLs, both zeros, mixed directions and
// string keys; every limit around the edges; 1, 2 and 4 workers fed morsels
// in a shuffled order; unlimited memory and a grant that limit rows
// themselves overflow.
func TestPropTopNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	ctx := context.Background()
	orders := []struct {
		name string
		keys []plan.OrderKey
	}{
		{"float-desc,string", []plan.OrderKey{{Index: 0, Desc: true}, {Index: 1}}},
		{"string,int-desc", []plan.OrderKey{{Index: 1}, {Index: 2, Desc: true}}},
		{"int", []plan.OrderKey{{Index: 2}}},
	}
	const rows = 6000
	var morsels []*Batch
	all := NewBatch(4)
	for left := rows; left > 0; {
		n := min(left, 1+rng.Intn(1500))
		b := topnBatch(rng, n)
		if err := all.Concat(b); err != nil {
			t.Fatal(err)
		}
		morsels = append(morsels, b)
		if rng.Intn(6) == 0 {
			morsels = append(morsels, nil) // a morsel no row survived
		}
		left -= n
	}

	for _, o := range orders {
		name, keys := o.name, o.keys
		for _, limit := range []int64{0, 1, BatchSize - 1, BatchSize, rows + 1, math.MaxInt64} {
			want := batchRowStrings(TopN(SortBatch(all, keys), limit))
			for _, workers := range []int{1, 2, 4} {
				for _, grant := range []int64{0, 8 << 10} {
					t.Run(fmt.Sprintf("%s/limit=%d/workers=%d/grant=%d", name, limit, workers, grant), func(t *testing.T) {
						root := NewMemTracker(grant, nil)
						dir := NewSpillDir(t.TempDir(), "topn")
						defer dir.Cleanup()
						stats := &SpillStats{}
						mem := func() *MemContext { return &MemContext{T: root.Child(), Dir: dir, Stats: stats} }
						var out *Batch
						sink := NewTopNSink(keys, limit, 4, mem, nil, func(b *Batch) error { out = b; return nil })
						if err := sink.Open(workers); err != nil {
							t.Fatal(err)
						}
						// Several workers get any morsel in any order; one sees
						// them in sequence, as the inline pipeline runs.
						order := rng.Perm(len(morsels))
						if workers == 1 {
							for i := range order {
								order[i] = i
							}
						}
						for _, seq := range order {
							var b *Batch
							if m := morsels[seq]; m != nil {
								sel := make([]int, m.N)
								for i := range sel {
									sel[i] = i
								}
								b = m.Gather(sel) // the sink consumes its input
							}
							if err := sink.Consume(rng.Intn(workers), int64(seq), b); err != nil {
								t.Fatal(err)
							}
						}
						if err := sink.Finish(ctx); err != nil {
							t.Fatal(err)
						}
						sink.Close()
						sameRows(t, name, batchRowStrings(out), want)
						if len(out.Cols) != 4 {
							t.Errorf("result is %d columns wide, want 4", len(out.Cols))
						}

						spilled := stats.Runs.Load() > 0
						switch {
						case grant == 0 || limit < BatchSize:
							// Limit rows fit (a short remainder is never worth
							// a run): nothing goes to disk.
							if spilled || stats.Bytes.Load() != 0 {
								t.Errorf("wrote %d runs, %d bytes", stats.Runs.Load(), stats.Bytes.Load())
							}
						case limit > rows && !spilled:
							t.Error("6000 rows under an 8 KB grant and no limit to cut them wrote no run")
						}
						if used := root.Used(); used != 0 {
							t.Errorf("tracker holds %d bytes after Close", used)
						}
						if ents := dirEntries(t, dir); len(ents) != 0 {
							t.Errorf("scratch files left before Cleanup: %v", ents)
						}
					})
				}
			}
		}
	}
}
