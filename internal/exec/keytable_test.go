package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

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
// key equality and not on the hash. The shaped streams are one column of the
// key orders and domains that decide between the dense and hashed layouts,
// including a key the dense layout cannot hold arriving after it was chosen.
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
					var all [][]*types.Vector
					for bi := 0; bi < batches; bi++ {
						all = append(all, randKeyBatch(rng, ncols, rows, span, 0.15))
					}
					checkKeyTable(t, rng, NewKeyTable(), pin, all, randKeyBatch(rng, ncols, rows, span*2, 0.15))
				})
			}
		}
	}
	for _, sh := range keyStreams() {
		t.Run("shape="+sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(propSeed(t)))
			checkKeyTable(t, rng, NewKeyTable(), false, sh.batches(rng), sh.batches(rng)[0])
		})
	}
}

// checkKeyTable inserts batches into kt — every third batch skipping a
// random quarter of its rows — checking each id against a KeyEncoder map,
// then finds every batch and miss (if not nil), which holds keys mostly
// never inserted. It returns the map. Pinned, every key hashes to 0, so
// equality alone decides.
func checkKeyTable(t *testing.T, rng *rand.Rand, kt *KeyTable, pin bool, batches [][]*types.Vector, miss []*types.Vector) map[string]uint32 {
	t.Helper()
	ref := map[string]uint32{}
	var hashes []uint64
	var ids []uint32
	for bi, vecs := range batches {
		rows := vecLen(vecs)
		var skip []bool
		if bi%3 == 2 {
			skip = make([]bool, rows)
			for r := range skip {
				skip[r] = rng.Intn(4) == 0
			}
		}
		if hashes = hashKeys(vecs, rows, hashes); pin {
			clear(hashes)
		}
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
	if miss != nil {
		batches = append(batches, miss)
	}
	for bi, vecs := range batches {
		if hashes = hashKeys(vecs, vecLen(vecs), hashes); pin {
			clear(hashes)
		}
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
	return ref
}

// vecLen is the row count of a batch of key vectors; 257 with no columns.
func vecLen(vecs []*types.Vector) int {
	if len(vecs) == 0 {
		return 257
	}
	return vecs[0].Len()
}

// keyStream is a one-column key stream: the i-th key of n, cut into
// batches of up to 257 rows wherever its type changes.
type keyStream struct {
	name  string
	n     int
	dense bool // every key a non-NULL integer of one type over a narrow span
	key   func(rng *rand.Rand, i int) types.Value
}

func (ks keyStream) batches(rng *rand.Rand) [][]*types.Vector {
	var out [][]*types.Vector
	var v *types.Vector
	for i := 0; i < ks.n; i++ {
		k := ks.key(rng, i)
		if v == nil || v.T != k.T || v.Len() == 257 {
			v = types.NewVector(k.T, 257)
			out = append(out, []*types.Vector{v})
		}
		if k.Null {
			v.AppendNull()
		} else {
			v.Append(k)
		}
	}
	return out
}

func keyStreams() []keyStream {
	const n = 5000
	ints := func(f func(rng *rand.Rand, i int) int64) func(*rand.Rand, int) types.Value {
		return func(rng *rand.Rand, i int) types.Value { return types.NewInt(f(rng, i)) }
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1, 1}
	return []keyStream{
		{"ascending", n, true, ints(func(_ *rand.Rand, i int) int64 { return int64(i) })},
		{"descending", n, true, ints(func(_ *rand.Rand, i int) int64 { return int64(n - i) })},
		{"zigzag", n, true, ints(func(_ *rand.Rand, i int) int64 { return int64((i + 1) / 2 * (1 - 2*(i%2))) })},
		{"domain5", n, true, ints(func(rng *rand.Rand, _ int) int64 { return 1000 + rng.Int63n(5) })},
		{"random-span", n, true, ints(func(rng *rand.Rand, _ int) int64 { return rng.Int63n(n) })},
		{"sparse", n, false, ints(func(rng *rand.Rand, _ int) int64 { return rng.Int63() })},
		{"extremes", n, false, ints(func(rng *rand.Rand, i int) int64 { return extremes[rng.Intn(len(extremes))] })},
		{"null-after-dense", n, false, func(_ *rand.Rand, i int) types.Value {
			if i == n/2 {
				return types.NewNull(types.Int64)
			}
			return types.NewInt(int64(i % (n / 3)))
		}},
		{"date-after-dense", n, false, func(_ *rand.Rand, i int) types.Value {
			if i >= n/2 {
				return types.Value{T: types.Date, I: int64(i % (n / 3))}
			}
			return types.NewInt(int64(i % (n / 3)))
		}},
		{"floats", n, false, func(rng *rand.Rand, i int) types.Value { return types.NewFloat(float64(rng.Intn(n))) }},
	}
}

// TestKeyTableDenseLayout: the shaped streams take the dense layout exactly
// when their keys are integers of one type over a span the memory rule
// admits, keep ids the hashed layouts would hand out (checkKeyTable), and
// re-lay the table O(log n) times when inserted one key at a time. Four
// goroutines then Find on one dense table.
func TestKeyTableDenseLayout(t *testing.T) {
	for _, sh := range keyStreams() {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(propSeed(t)))
			batches := sh.batches(rng)
			kt := NewKeyTable()
			checkKeyTable(t, rng, kt, false, batches, batches[0])
			if dense := kt.dtag != 0; dense != sh.dense {
				t.Fatalf("dense layout = %v, want %v", dense, sh.dense)
			}
			if kt.dtag != 0 && len(kt.slots) > 2*slotsFor(kt.Len()) {
				t.Fatalf("%d dense slots for %d keys: over twice the hashed layout's %d", len(kt.slots), kt.Len(), slotsFor(kt.Len()))
			}
			// One key a call: every re-lay shows as a new slot array.
			one, relays := NewKeyTable(), 0
			var hashes []uint64
			var ids []uint32
			var at *uint32
			for _, vecs := range batches {
				for r := 0; r < vecs[0].Len(); r++ {
					row := []*types.Vector{vecs[0].Slice(r, r+1)}
					hashes = hashKeys(row, 1, hashes)
					ids = one.FindOrInsert(row, hashes, nil, ids)
					if p := unsafe.SliceData(one.slots); p != at {
						at, relays = p, relays+1
					}
				}
			}
			if bound := 2*bits.Len(uint(one.Len())) + 4; relays > bound {
				t.Fatalf("%d keys inserted one at a time re-laid the table %d times, bound %d", one.Len(), relays, bound)
			}
		})
	}
	// Four probers share one dense table, each with its own scratch.
	rng := rand.New(rand.NewSource(propSeed(t)))
	kt := NewKeyTable()
	ref := checkKeyTable(t, rng, kt, false, keyStreams()[4].batches(rng), nil)
	if kt.dtag == 0 {
		t.Fatal("the random-span stream did not go dense")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probe := keyStreams()[4].batches(rand.New(rand.NewSource(int64(w))))
			var hashes []uint64
			var ids []uint32
			for _, vecs := range probe {
				// A dense table reads only the count of the hashes.
				hashes = growTo(hashes[:0], vecs[0].Len())
				ids = kt.Find(vecs, hashes, nil, ids)
				for r, id := range ids {
					want, ok := ref[rowKey(vecs, r)]
					if !ok {
						want = NoID
					}
					if id != want {
						t.Errorf("prober %d row %d: id %d, want %d", w, r, id, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestKeyTableZeroColumnsAndEmpty covers the scalar-aggregate table and
// lookups before anything was inserted.
func TestKeyTableZeroColumnsAndEmpty(t *testing.T) {
	kt := NewKeyTable()
	one := []*types.Vector{types.NewVector(types.Int64, 1)}
	one[0].Append(types.NewInt(7))
	if ids := kt.Find(one, hashKeys(one, 1, nil), nil, nil); ids[0] != NoID {
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

// TestJoinKeyTableSizedOnce: a join sizes its key table once for its rows,
// ids' arrays included, so inserting 25k distinct integer keys spread over a
// 100k range (BenchmarkKeyTable's colo) allocates the dense window and one
// array each: about 33 bytes a key. Arrays left to grow by append would be
// copied at every growth, about 91 bytes a key.
func TestJoinKeyTableSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	keys := types.NewVector(types.Int64, 25_000)
	for _, k := range rand.New(rand.NewSource(7)).Perm(100_000)[:25_000] {
		keys.Append(types.NewInt(int64(k)))
	}
	var hashes []uint64
	var ids []uint32
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	kt := NewKeyTable()
	kt.relay(keys.Len(), keySpan{}.addKeys([]*types.Vector{keys}, nil), 1)
	for lo := 0; lo < keys.Len(); lo += BatchSize {
		part := []*types.Vector{keys.Slice(lo, min(lo+BatchSize, keys.Len()))}
		hashes = hashKeys(part, part[0].Len(), hashes)
		ids = kt.FindOrInsert(part, hashes, nil, ids)
	}
	runtime.ReadMemStats(&ms1)
	if kt.dtag == 0 || kt.Len() != keys.Len() {
		t.Fatalf("table holds %d keys, dense %v", kt.Len(), kt.dtag != 0)
	}
	if perKey := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(keys.Len()); perKey > 40 {
		t.Errorf("sizing and filling the table allocated %.1f B a key, want ≤ 40", perKey)
	}
}

// TestSpilledJoinAllocationGuard is the same guard over the grace join: to
// partition both sides to scratch and replay every partition pair allocates
// per batch and per frame — under 0.1 allocations per probe row, the scratch
// directory, its file and every output vector included.
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
		if err := spillProbes(j, probe); err != nil {
			t.Fatal(err)
		}
		rows := 0
		err = drain(ctx, j.SpillOutput(), func(b *Batch) error {
			rows += b.N
			return nil
		})
		if err != nil {
			t.Fatal(err)
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

// BenchmarkKeyTable times the table alone, per row: insert (a fresh table
// takes every row), hit (every key resident) and miss (no key resident).
// The first three shapes are 64k distinct keys: a single Int64 (strided, so
// hashed), an (Int64, Int64, String) composite and a single String. The
// last three are the pinned workloads' integer keys: a co-located join
// build of 25k keys over a 100k span, probed by 50k rows of that span
// (dense); a GROUP BY over a 25k domain, 64k rows in random order (dense
// once it has grown); and a grace partition's 3k sparse keys (hashed). The
// join shapes size their table for its keys first, as HashJoin does.
func BenchmarkKeyTable(b *testing.B) {
	const rows = 1 << 16
	rng := rand.New(rand.NewSource(1))
	vec := func(n int, key func(i int) int64) *types.Vector {
		v := types.NewVector(types.Int64, n)
		for i := 0; i < n; i++ {
			v.Append(types.NewInt(key(i)))
		}
		return v
	}
	ints := func(off int) *types.Vector { return vec(rows, func(i int) int64 { return int64(off + i*7) }) }
	strs := func(prefix string) *types.Vector {
		v := types.NewVector(types.String, rows)
		for i := 0; i < rows; i++ {
			v.Append(types.NewString(fmt.Sprintf("%s-%08d", prefix, i)))
		}
		return v
	}
	colo := rng.Perm(100_000)
	sparse := func(int) int64 { return rng.Int63() }
	shapes := []struct {
		name            string
		keys, hit, miss []*types.Vector
		sized           bool // sized for its keys first, as a join build is
	}{
		{"int64", []*types.Vector{ints(0)}, nil, []*types.Vector{ints(1)}, false},
		{"composite", []*types.Vector{ints(0), ints(3), strs("k")}, nil, []*types.Vector{ints(1), ints(3), strs("k")}, false},
		{"string", []*types.Vector{strs("k")}, nil, []*types.Vector{strs("m")}, false},
		{"colo", []*types.Vector{vec(25_000, func(i int) int64 { return int64(colo[i]) })},
			[]*types.Vector{vec(50_000, func(int) int64 { return rng.Int63n(100_000) })}, nil, true},
		{"group", []*types.Vector{vec(rows, func(int) int64 { return rng.Int63n(25_000) })}, nil, nil, false},
		{"grace", []*types.Vector{vec(3_000, sparse)}, nil, []*types.Vector{vec(3_000, sparse)}, true},
	}
	// run feeds vecs through the table in batches.
	run := func(kt *KeyTable, vecs []*types.Vector, insert bool, hashes []uint64, ids []uint32) ([]uint64, []uint32) {
		part := make([]*types.Vector, len(vecs))
		for lo, n := 0, vecs[0].Len(); lo < n; lo += BatchSize {
			hi := min(lo+BatchSize, n)
			for c, v := range vecs {
				part[c] = v.Slice(lo, hi)
			}
			hashes = hashKeys(part, hi-lo, hashes)
			if insert {
				ids = kt.FindOrInsert(part, hashes, nil, ids)
			} else {
				ids = kt.Find(part, hashes, nil, ids)
			}
		}
		return hashes, ids
	}
	for _, sh := range shapes {
		if sh.hit == nil {
			sh.hit = sh.keys
		}
		for op, vecs := range [][]*types.Vector{sh.keys, sh.hit, sh.miss} {
			op := []string{"insert", "hit", "miss"}[op]
			if vecs == nil {
				continue
			}
			newTable := func() *KeyTable {
				kt := NewKeyTable()
				if sh.sized {
					kt.relay(sh.keys[0].Len(), keySpan{}.addKeys(sh.keys, nil), 1)
				}
				return kt
			}
			b.Run(sh.name+"/"+op, func(b *testing.B) {
				full := newTable()
				hashes, ids := run(full, sh.keys, true, nil, nil)
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if op == "insert" {
						hashes, ids = run(newTable(), vecs, true, hashes, ids)
					} else {
						hashes, ids = run(full, vecs, false, hashes, ids)
					}
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				n := float64(b.N) * float64(vecs[0].Len())
				b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/row")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B/row")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/row")
			})
		}
	}
}
