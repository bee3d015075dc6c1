package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// keyDomain draws values that are easy to confuse under a sloppy encoding:
// equal int64 bits under four types, ±0.0 and NaN, the empty string, strings
// with 0x00/0x01 bytes and strings that are prefixes of each other. span
// widens the integer and string domains (many distinct keys → resizes).
func keyDomain(rng *rand.Rand, t types.Type, span int) types.Value {
	switch t {
	case types.Float64:
		return types.NewFloat([]float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -1.5, math.Inf(1)}[rng.Intn(6)])
	case types.String:
		if span > 8 && rng.Intn(2) == 0 {
			return types.NewString(fmt.Sprintf("key-%d", rng.Intn(span)))
		}
		return types.NewString([]string{"", "a", "a\x00", "\x00a", "\x01", "ab", "abcdefgh", "abcdefghi"}[rng.Intn(8)])
	default:
		return types.Value{T: t, I: int64(rng.Intn(span)) - 1}
	}
}

var keyTypes = []types.Type{types.Int64, types.Date, types.Timestamp, types.Bool, types.Float64, types.String}

// randKeyBatch builds n rows over ncols key columns. Every column draws its
// type afresh, so one table sees the same column under several types.
func randKeyBatch(rng *rand.Rand, ncols, n, span int, nullProb float64) []*types.Vector {
	vecs := make([]*types.Vector, ncols)
	for c := range vecs {
		t := keyTypes[rng.Intn(len(keyTypes))]
		v := types.NewVector(t, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < nullProb {
				v.AppendNull()
			} else {
				v.Append(keyDomain(rng, t, span))
			}
		}
		vecs[c] = v
	}
	return vecs
}

func rowKey(vecs []*types.Vector, r int) string {
	row := make([]types.Value, len(vecs))
	for c, v := range vecs {
		row[c] = v.Get(r)
	}
	return KeyEncoder(row)
}

// TestPropKeyTableMatchesKeyEncoderMap checks KeyTable against the structure
// it replaced — a map keyed by the KeyEncoder string: the same rows are the
// same key, ids are dense and handed out in first-seen order, Find agrees
// with FindOrInsert and misses exactly the keys never inserted. The pinned
// variant makes every key collide, so it passes only if correctness rests on
// key equality and not on the hash.
func TestPropKeyTableMatchesKeyEncoderMap(t *testing.T) {
	for _, pin := range []bool{false, true} {
		for ncols := 0; ncols <= 3; ncols++ {
			for _, span := range []int{4, 3000} {
				t.Run(fmt.Sprintf("pin=%v/cols=%d/span=%d", pin, ncols, span), func(t *testing.T) {
					rng := rand.New(rand.NewSource(propSeed(t) + int64(ncols*10+span)))
					batches, rows := 40, 257
					if pin {
						batches, rows = 8, 64 // every lookup walks the whole table
					}
					kt := NewKeyTable()
					kt.pinHash = pin
					ref := map[string]uint32{}
					var hashes []uint64
					var ids []uint32
					var all [][]*types.Vector
					for bi := 0; bi < batches; bi++ {
						vecs := randKeyBatch(rng, ncols, rows, span, 0.15)
						all = append(all, vecs)
						var skip []bool
						if bi%3 == 2 {
							skip = make([]bool, rows)
							for r := range skip {
								skip[r] = rng.Intn(4) == 0
							}
						}
						hashes = kt.Hash(vecs, rows, hashes)
						ids = kt.FindOrInsert(vecs, hashes, skip, ids)
						for r, id := range ids {
							if skip != nil && skip[r] {
								if id != NoID {
									t.Fatalf("batch %d row %d: skipped row got id %d", bi, r, id)
								}
								continue
							}
							k := rowKey(vecs, r)
							want, ok := ref[k]
							if !ok {
								want = uint32(len(ref)) // dense, first-seen order
								ref[k] = want
							}
							if id != want {
								t.Fatalf("batch %d row %d: id %d, want %d (key %q)", bi, r, id, want, k)
							}
						}
						if kt.Len() != len(ref) {
							t.Fatalf("batch %d: %d keys, want %d", bi, kt.Len(), len(ref))
						}
					}
					// Find sees every inserted key under its id, and nothing else.
					probes := append(all, randKeyBatch(rng, ncols, rows, span*2, 0.15))
					for bi, vecs := range probes {
						hashes = kt.Hash(vecs, rows, hashes)
						ids = kt.Find(vecs, hashes, nil, ids)
						for r, id := range ids {
							want, ok := ref[rowKey(vecs, r)]
							if !ok {
								want = NoID
							}
							if id != want {
								t.Fatalf("find batch %d row %d: id %d, want %d", bi, r, id, want)
							}
						}
					}
					if kt.Len() != len(ref) {
						t.Fatalf("Find changed the table: %d keys, want %d", kt.Len(), len(ref))
					}
					if kt.Len() > 0 && kt.Bytes() == 0 {
						t.Fatal("a non-empty table reports 0 bytes")
					}
				})
			}
		}
	}
}

// TestKeyTableZeroColumnsAndEmpty covers the scalar-aggregate table and
// lookups before anything was inserted.
func TestKeyTableZeroColumnsAndEmpty(t *testing.T) {
	kt := NewKeyTable()
	one := []*types.Vector{types.NewVector(types.Int64, 1)}
	one[0].Append(types.NewInt(7))
	if ids := kt.Find(one, kt.Hash(one, 1, nil), nil, nil); ids[0] != NoID {
		t.Errorf("Find on an empty table = %d, want NoID", ids[0])
	}
	if ids := kt.Find(nil, make([]uint64, 2), nil, nil); ids[0] != NoID || ids[1] != NoID {
		t.Errorf("zero-column Find before any insert = %v, want NoID", ids)
	}
	if ids := kt.FindOrInsert(nil, make([]uint64, 3), nil, nil); len(ids) != 3 || ids[0] != 0 || ids[2] != 0 || kt.Len() != 1 {
		t.Errorf("zero-column FindOrInsert = %v with %d keys, want all 0 and 1 key", ids, kt.Len())
	}
	if ids := kt.Find(nil, make([]uint64, 1), nil, nil); ids[0] != 0 {
		t.Errorf("zero-column Find after insert = %d, want 0", ids[0])
	}
}

// kvBatch builds an (Int64 key, String key, Int64 value) batch of n rows over
// `keys` distinct keys, starting at key `from`.
func kvBatch(n, from, keys int) *Batch {
	b := NewBatch(3)
	for c, t := range []types.Type{types.Int64, types.String, types.Int64} {
		b.Cols[c] = types.NewVector(t, n)
	}
	for i := 0; i < n; i++ {
		k := from + i%keys
		b.Cols[0].Append(types.NewInt(int64(k)))
		b.Cols[1].Append(types.NewString(fmt.Sprintf("name-%06d", k)))
		b.Cols[2].Append(types.NewInt(int64(i)))
	}
	b.N = n
	return b
}

// TestHashKernelsAllocationGuard holds the gain without a stopwatch: in
// steady state GroupTable.Consume, HashJoin.Build and HashJoin.Probe
// allocate per batch, not per row — under 0.05 allocations per row with a
// single Int64 key and under 0.3 with an (Int64, String) composite.
func TestHashKernelsAllocationGuard(t *testing.T) {
	const rows = 4096
	for _, tc := range []struct {
		name  string
		keys  []int // key columns of kvBatch
		limit float64
	}{
		{"int64", []int{0}, 0.05},
		{"composite", []int{0, 1}, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var keyExprs []plan.Expr
			for _, c := range tc.keys {
				keyExprs = append(keyExprs, col(c, []types.Type{types.Int64, types.String}[c]))
			}
			check := func(what string, fn func()) {
				t.Helper()
				fn() // reach steady state: keys resident, scratch sized
				if per := testing.AllocsPerRun(5, fn) / rows; per >= tc.limit {
					t.Errorf("%s: %.3f allocs/row, want < %v", what, per, tc.limit)
				}
			}

			b := kvBatch(rows, 0, 1000)
			gt, err := NewGroupTable(Compiled, keyExprs, []plan.AggSpec{
				{Func: sql.FuncCount, T: types.Int64},
				{Func: sql.FuncSum, Arg: col(2, types.Int64), T: types.Int64},
				{Func: sql.FuncMax, Arg: col(2, types.Int64), T: types.Int64},
			})
			if err != nil {
				t.Fatal(err)
			}
			check("GroupTable.Consume", func() {
				if err := gt.Consume(b); err != nil {
					t.Fatal(err)
				}
			})

			step := plan.JoinStep{Kind: sql.InnerJoin, LeftKeys: keyExprs, RightKeys: keyExprs}
			j, err := NewHashJoin(Compiled, step, 3)
			if err != nil {
				t.Fatal(err)
			}
			// check calls fn seven times; every build batch brings all-new keys.
			var builds []*Batch
			for i := 0; i < 7; i++ {
				builds = append(builds, kvBatch(rows, i*rows, rows))
			}
			check("HashJoin.Build", func() {
				if err := j.Build(builds[0]); err != nil {
					t.Fatal(err)
				}
				builds = builds[1:]
			})
			probe := kvBatch(rows, 0, rows)
			check("HashJoin.Probe", func() {
				out, err := j.Probe(probe)
				if err != nil || out.N != rows {
					t.Fatalf("probe matched %d of %d rows, err %v", out.N, rows, err)
				}
			})
		})
	}
}

// TestSpilledJoinAllocationGuard is the same guard over the grace join: to
// partition both sides to scratch, replay every partition pair and merge the
// outputs back into probe order allocates per batch and per frame — under
// 0.1 allocations per probe row, the scratch directory, its file and every
// output vector included.
func TestSpilledJoinAllocationGuard(t *testing.T) {
	const buildBatches, probeBatches = 8, 32
	var build, probe []*Batch
	for i := 0; i < buildBatches; i++ {
		build = append(build, kvBatch(BatchSize, i*BatchSize, BatchSize))
	}
	for i := 0; i < probeBatches; i++ {
		probe = append(probe, kvBatch(BatchSize, i%buildBatches*BatchSize, BatchSize))
	}
	keys := []plan.Expr{col(0, types.Int64)}
	step := plan.JoinStep{Kind: sql.InnerJoin, LeftKeys: keys, RightKeys: keys}
	base, ctx := t.TempDir(), context.Background()
	run := func() {
		dir := NewSpillDir(base, "guard")
		defer dir.Cleanup()
		j, err := NewHashJoin(Compiled, step, 3)
		if err != nil {
			t.Fatal(err)
		}
		// A quarter of the build side: it spills, its partitions fit.
		j.SetMemory(&MemContext{T: NewMemTracker(64<<10, nil).Child(), Dir: dir, Stats: &SpillStats{}})
		defer j.ReleaseMem()
		for _, b := range build {
			if err := j.Build(b); err != nil {
				t.Fatal(err)
			}
		}
		if !j.Spilled() {
			t.Fatal("the build side fit a 64 KB grant")
		}
		for _, b := range probe {
			if err := j.spill.addProbe(b); err != nil {
				t.Fatal(err)
			}
		}
		out, err := j.spill.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			b, err := out.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows += b.N
			PutBatch(b)
		}
		if rows != probeBatches*BatchSize {
			t.Fatalf("joined %d rows, want %d", rows, probeBatches*BatchSize)
		}
	}
	run()
	per := testing.AllocsPerRun(3, run) / (probeBatches * BatchSize)
	t.Logf("spilled join: %.3f allocs per probe row", per)
	if per >= 0.1 && !raceEnabled { // the pools leak under -race; the path still runs
		t.Errorf("spilled join: %.3f allocs per probe row, want < 0.1", per)
	}
}

// BenchmarkKeyTable times the table alone, per row: insert (every key new),
// hit (every key resident) and miss (no key resident) over a single Int64
// key, an (Int64, Int64, String) composite and a single String key.
func BenchmarkKeyTable(b *testing.B) {
	const rows, batch = 1 << 16, 1024
	ints := func(off int) *types.Vector {
		v := types.NewVector(types.Int64, rows)
		for i := 0; i < rows; i++ {
			v.Append(types.NewInt(int64(off + i*7)))
		}
		return v
	}
	strs := func(prefix string) *types.Vector {
		v := types.NewVector(types.String, rows)
		for i := 0; i < rows; i++ {
			v.Append(types.NewString(fmt.Sprintf("%s-%08d", prefix, i)))
		}
		return v
	}
	shapes := []struct {
		name       string
		keys, miss []*types.Vector
	}{
		{"int64", []*types.Vector{ints(0)}, []*types.Vector{ints(1)}},
		{"composite", []*types.Vector{ints(0), ints(3), strs("k")}, []*types.Vector{ints(1), ints(3), strs("k")}},
		{"string", []*types.Vector{strs("k")}, []*types.Vector{strs("m")}},
	}
	// run feeds vecs through the table in batches.
	run := func(kt *KeyTable, vecs []*types.Vector, insert bool, hashes []uint64, ids []uint32) ([]uint64, []uint32) {
		part := make([]*types.Vector, len(vecs))
		for lo := 0; lo < rows; lo += batch {
			for c, v := range vecs {
				part[c] = v.Slice(lo, lo+batch)
			}
			hashes = kt.Hash(part, batch, hashes)
			if insert {
				ids = kt.FindOrInsert(part, hashes, nil, ids)
			} else {
				ids = kt.Find(part, hashes, nil, ids)
			}
		}
		return hashes, ids
	}
	for _, sh := range shapes {
		for _, op := range []string{"insert", "hit", "miss"} {
			b.Run(sh.name+"/"+op, func(b *testing.B) {
				full := NewKeyTable()
				hashes, ids := run(full, sh.keys, true, nil, nil)
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for i := 0; i < b.N; i++ {
					switch op {
					case "insert":
						hashes, ids = run(NewKeyTable(), sh.keys, true, hashes, ids)
					case "hit":
						hashes, ids = run(full, sh.keys, false, hashes, ids)
					default:
						hashes, ids = run(full, sh.miss, false, hashes, ids)
					}
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				n := float64(b.N) * rows
				b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/row")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B/row")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/row")
			})
		}
	}
}
