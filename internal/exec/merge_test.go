package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// refMerge is the reference the batch-wise kernel is held against: pick the
// least current row by a scan over the streams, lowest index winning ties,
// and copy it out value by value.
func refMerge(streams [][]*Batch, keys []plan.OrderKey) []string {
	var out []string
	at := make([]int, len(streams))  // current batch of each stream
	pos := make([]int, len(streams)) // row within it
	for {
		best := -1
		var bb []sortKey
		for i, bs := range streams {
			for at[i] < len(bs) && pos[i] >= bs[at[i]].N {
				at[i], pos[i] = at[i]+1, 0
			}
			if at[i] == len(bs) {
				continue
			}
			cur := bindKeys(bs[at[i]], keys)
			if best < 0 || compareKeys(cur, pos[i], bb, pos[best]) < 0 {
				best, bb = i, cur
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, fmt.Sprint(streams[best][at[best]].Row(pos[best])))
		pos[best]++
	}
}

// mergeShape is one column layout and order for the merge property test.
type mergeShape struct {
	name     string
	keys     []plan.OrderKey
	nullProb float64
	span     int // key domain: small means ties within and across streams
}

// mergeBatch builds n rows of an Int64, a Float64 and a String key and a
// payload; column 4 is never materialized.
func mergeBatch(rng *rand.Rand, n int, sh mergeShape) *Batch {
	b := NewBatch(5)
	iv, fv, sv, pv := types.NewVector(types.Int64, n), types.NewVector(types.Float64, n), types.NewVector(types.String, n), types.NewVector(types.Int64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < sh.nullProb {
			iv.AppendNull()
		} else {
			iv.Append(types.NewInt(int64(rng.Intn(sh.span))))
		}
		if rng.Float64() < sh.nullProb {
			fv.AppendNull()
		} else {
			fv.Append(types.NewFloat(float64(rng.Intn(sh.span)) / 2))
		}
		if rng.Float64() < sh.nullProb {
			sv.AppendNull()
		} else {
			sv.Append(types.NewString(fmt.Sprintf("s%03d", rng.Intn(sh.span))))
		}
		pv.Append(types.NewInt(rng.Int63()))
	}
	b.Cols[0], b.Cols[1], b.Cols[2], b.Cols[3], b.N = iv, fv, sv, pv, n
	return b
}

// TestPropMergeKernel holds the batch-wise k-way merge to the per-row
// reference: 1 to 9 streams, some empty, of batches that end wherever —
// mid-output included — with ties within and across streams, NULLs, string
// and descending keys, and a column no batch materializes.
func TestPropMergeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	ctx := context.Background()
	shapes := []mergeShape{
		{"seq", []plan.OrderKey{{Index: 0}}, 0, 1 << 30},
		{"int-ties", []plan.OrderKey{{Index: 0}}, 0, 7},
		{"int-nulls", []plan.OrderKey{{Index: 0}}, 0.2, 50},
		{"int-desc", []plan.OrderKey{{Index: 0, Desc: true}}, 0.1, 50},
		{"float-string", []plan.OrderKey{{Index: 1, Desc: true}, {Index: 2}}, 0.15, 12},
		{"string-int", []plan.OrderKey{{Index: 2}, {Index: 0, Desc: true}}, 0.05, 5},
	}
	for _, sh := range shapes {
		for k := 1; k <= 9; k++ {
			t.Run(fmt.Sprintf("%s/%d", sh.name, k), func(t *testing.T) {
				streams := make([][]*Batch, k)
				total := 0
				for i := range streams {
					rows := rng.Intn(3000)
					if rng.Intn(4) == 0 {
						rows = 0 // an empty stream
					}
					total += rows
					sorted := SortBatch(mergeBatch(rng, rows, sh), sh.keys)
					// Cut the sorted stream into batches of any size, an
					// empty one here and there.
					for lo := 0; lo < rows; {
						n := 1 + rng.Intn(min(rows-lo, 1500))
						sel := make([]int, n)
						for j := range sel {
							sel[j] = lo + j
						}
						streams[i] = append(streams[i], sorted.Gather(sel))
						if rng.Intn(5) == 0 {
							streams[i] = append(streams[i], NewBatch(5))
						}
						lo += n
					}
				}
				want := refMerge(streams, sh.keys)
				if len(want) != total {
					t.Fatalf("reference merged %d rows of %d", len(want), total)
				}

				ins := make([]batchStream, k)
				for i, bs := range streams {
					ins[i] = &memStream{batches: bs}
				}
				m := newMergeStream(ins, sh.keys)
				var got []string
				for {
					b, err := m.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					if b.Cols[4] != nil {
						t.Fatal("the merge materialized a column no input has")
					}
					if left := total - len(got); b.N != min(left, BatchSize) {
						t.Fatalf("batch of %d rows with %d left: outputs are full until the last", b.N, left)
					}
					got = append(got, batchRowStrings(b)...)
					PutBatch(b)
				}
				sameRows(t, sh.name, got, want)
			})
		}
	}
}

// Inputs that materialize different columns are an error, not a short column.
func TestMergeKernelRejectsMismatchedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	sh := mergeShape{"mismatch", []plan.OrderKey{{Index: 1}, {Index: 0, Desc: true}}, 0.1, 9}
	a, b := SortBatch(mergeBatch(rng, 3, sh), sh.keys), SortBatch(mergeBatch(rng, 3, sh), sh.keys)
	b.Cols[3] = nil
	m := newMergeStream([]batchStream{&memStream{batches: []*Batch{a}}, &memStream{batches: []*Batch{b}}}, sh.keys)
	if _, err := m.Next(context.Background()); err == nil {
		t.Error("merging batches that materialize different columns did not fail")
	}
}
