package exec

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// propSeed pins the randomized-shape generator; override with SPILL_SEED
// to replay a failing dataset.
func propSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("SPILL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPILL_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("spill property seed = %d (replay with SPILL_SEED=%d)", seed, seed)
	return seed
}

// govCtx builds a governed MemContext with the given root budget and a
// scratch dir that is torn down (and checked) at test end.
func govCtx(t *testing.T, limit int64) *MemContext {
	t.Helper()
	tr := NewMemTracker(limit, nil)
	dir := NewSpillDir(t.TempDir(), "prop")
	t.Cleanup(func() {
		if used := tr.Used(); used != 0 {
			t.Errorf("tracker holds %d bytes at test end, want 0", used)
		}
		dir.Cleanup()
	})
	return &MemContext{T: tr.Child(), Dir: dir, Stats: &SpillStats{}}
}

// randKVBatch builds a two-column (Int64 key, String payload) batch.
// Keys repeat mod dupMod (dupMod <= 1 means one giant key) and go NULL
// with probability nullProb.
func randKVBatch(rng *rand.Rand, n, dupMod int, nullProb float64) *Batch {
	return randKeyedBatch(rng, n, dupMod, 10000, nullProb, 0)
}

// randKeyedBatch is randKVBatch with the String column shaped as a key too:
// it repeats mod strMod and goes NULL with probability strNull.
func randKeyedBatch(rng *rand.Rand, n, dupMod, strMod int, nullProb, strNull float64) *Batch {
	kv := types.NewVector(types.Int64, n)
	pv := types.NewVector(types.String, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < nullProb {
			kv.AppendNull()
		} else if dupMod <= 1 {
			kv.Append(types.NewInt(42))
		} else {
			kv.Append(types.NewInt(int64(rng.Intn(dupMod))))
		}
		if strNull > 0 && rng.Float64() < strNull {
			pv.AppendNull()
		} else {
			pv.Append(types.NewString(fmt.Sprintf("p%04d", rng.Intn(strMod))))
		}
	}
	b := NewBatch(2)
	b.Cols[0], b.Cols[1], b.N = kv, pv, n
	return b
}

// propKeys names the key shapes the spill property tests run under: the
// Int64 column alone (KeyTable's fixed layout), the String column alone and
// the two together (its arena layout).
var propKeys = map[string][]plan.Expr{
	"int":       {col(0, types.Int64)},
	"string":    {col(1, types.String)},
	"composite": {col(0, types.Int64), col(1, types.String)},
}

// batchRowStrings renders every row for order-sensitive comparison.
func batchRowStrings(b *Batch) []string {
	if b == nil {
		return nil
	}
	out := make([]string, 0, b.N)
	for i := 0; i < b.N; i++ {
		out = append(out, fmt.Sprint(b.Row(i)))
	}
	return out
}

func sameRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %s, want %s", label, i, got[i], want[i])
			return
		}
	}
}

// joinShape is one randomized grace-join scenario.
type joinShape struct {
	name                 string
	buildN, probeN       int
	dupMod               int
	buildNull, probeNull float64
	keys                 string  // propKeys entry; "" = "int"
	strMod               int     // String column domain; 0 = 10000
	strNull              float64 // String column NULL probability
}

// TestPropGraceJoinMatchesInMemory drives the grace hash join through
// adversarial key distributions and compares its output — row for row, in
// order — against the ungoverned in-memory join over the same batches.
func TestPropGraceJoinMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	ctx := context.Background()

	// Sizes are chosen so the build side blows a 4 KiB grant (hundreds of
	// rows) while join fan-out stays bounded — dup-heavy keys multiply the
	// output, so build/dupMod x probe is kept in the tens of thousands.
	shapes := []joinShape{
		{"empty-build", 0, 500, 50, 0, 0, "", 0, 0},
		{"single-row-build", 1, 500, 50, 0, 0, "", 0, 0},
		{"dup-heavy", 900, 300, 30, 0, 0, "", 0, 0},
		{"one-giant-key", 600, 40, 1, 0, 0, "", 0, 0},
		{"all-null-build", 2000, 500, 50, 1, 0, "", 0, 0},
		{"all-null-probe", 2000, 500, 50, 0, 1, "", 0, 0},
		{"sprinkled-nulls", 1200, 800, 40, 0.1, 0.1, "", 0, 0},
		// Composite and string keys: duplicate-heavy (every key repeats many
		// times on both sides) and NULL-dense (most rows carry a NULL in one
		// key column or the other, and never match).
		{"composite-dup-heavy", 900, 300, 6, 0, 0, "composite", 5, 0},
		{"composite-null-dense", 2000, 800, 40, 0.4, 0.4, "composite", 30, 0.4},
		{"string-dup-heavy", 900, 300, 50, 0, 0, "string", 30, 0},
		{"string-null-dense", 2000, 800, 50, 0, 0, "string", 400, 0.6},
	}
	for i := 0; i < 4; i++ {
		shapes = append(shapes, joinShape{
			name:      fmt.Sprintf("random-%d", i),
			buildN:    rng.Intn(1200),
			probeN:    rng.Intn(800),
			dupMod:    20 + rng.Intn(480),
			buildNull: float64(rng.Intn(3)) / 4,
			probeNull: float64(rng.Intn(3)) / 4,
		})
	}

	for _, kind := range []sql.JoinKind{sql.InnerJoin, sql.LeftJoin} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%v/%s", kind, sh.name), func(t *testing.T) {
				// One dataset, consumed by both joins in identical batches.
				var build, probe []*Batch
				strMod := sh.strMod
				if strMod == 0 {
					strMod = 10000
				}
				for n := sh.buildN; n > 0; n -= BatchSize {
					c := min(n, BatchSize)
					build = append(build, randKeyedBatch(rng, c, sh.dupMod, strMod, sh.buildNull, sh.strNull))
				}
				for n := sh.probeN; n > 0; n -= BatchSize {
					c := min(n, BatchSize)
					probe = append(probe, randKeyedBatch(rng, c, sh.dupMod, strMod, sh.probeNull, sh.strNull))
				}
				step := mkJoinStep(kind)
				if sh.keys != "" {
					step.LeftKeys, step.RightKeys = propKeys[sh.keys], propKeys[sh.keys]
				}

				ref, err := NewHashJoin(Compiled, step, 2)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, b := range build {
					if err := ref.Build(b); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range probe {
					out, err := ref.Probe(p)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, batchRowStrings(out)...)
				}

				gov, err := NewHashJoin(Compiled, step, 2)
				if err != nil {
					t.Fatal(err)
				}
				const limit = 4 << 10
				gov.SetMemory(govCtx(t, limit))
				var buildBytes int64
				for _, b := range build {
					buildBytes += b.ByteSize()
					if err := gov.Build(b); err != nil {
						t.Fatal(err)
					}
				}
				if buildBytes > 2*limit && !gov.Spilled() {
					t.Fatalf("%d-byte build side never spilled a %d-byte grant", buildBytes, limit)
				}

				var got []string
				if !gov.Spilled() {
					for _, p := range probe {
						out, err := gov.Probe(p)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, batchRowStrings(out)...)
					}
				} else {
					for _, p := range probe {
						if err := gov.spill.addProbe(p); err != nil {
							t.Fatal(err)
						}
					}
					st, err := gov.spill.run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					for {
						b, err := st.Next(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if b == nil {
							break
						}
						// Strip the trailing probe-sequence column.
						view := &Batch{Cols: b.Cols[:len(b.Cols)-1], N: b.N}
						got = append(got, batchRowStrings(view)...)
						PutBatch(b)
					}
				}
				sameRows(t, sh.name, got, want)
				gov.ReleaseMem()
			})
		}
	}
}

// TestPropExternalSortMatchesInMemory compares the external merge sort
// against a single stable in-memory SortBatch over presorted, reversed,
// duplicate-heavy, NULL-riddled and random inputs.
func TestPropExternalSortMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	ctx := context.Background()
	keys := []plan.OrderKey{{Index: 0}, {Index: 1, Desc: true}}

	gen := func(n int, mode string) *Batch {
		kv := types.NewVector(types.Int64, n)
		pv := types.NewVector(types.String, n)
		for i := 0; i < n; i++ {
			switch mode {
			case "presorted":
				kv.Append(types.NewInt(int64(i)))
			case "reverse":
				kv.Append(types.NewInt(int64(n - i)))
			case "dup-heavy":
				kv.Append(types.NewInt(int64(i % 5)))
			case "nulls":
				if i%3 == 0 {
					kv.AppendNull()
				} else {
					kv.Append(types.NewInt(int64(rng.Intn(100))))
				}
			default:
				kv.Append(types.NewInt(int64(rng.Intn(100000))))
			}
			pv.Append(types.NewString(fmt.Sprintf("s%03d", rng.Intn(1000))))
		}
		b := NewBatch(2)
		b.Cols[0], b.Cols[1], b.N = kv, pv, n
		return b
	}

	for _, mode := range []string{"presorted", "reverse", "dup-heavy", "nulls", "random"} {
		for _, n := range []int{0, 1, 7000} {
			t.Run(fmt.Sprintf("%s-%d", mode, n), func(t *testing.T) {
				var batches []*Batch
				for left := n; left > 0; left -= BatchSize {
					batches = append(batches, gen(min(left, BatchSize), mode))
				}

				all := NewBatch(2)
				for _, b := range batches {
					if err := all.Concat(b); err != nil {
						t.Fatal(err)
					}
				}
				want := batchRowStrings(SortBatch(all, keys))

				s := NewExternalSorter(keys, 2, -1, false, govCtx(t, 2<<10))
				var inBytes int64
				for _, b := range batches {
					inBytes += b.ByteSize()
					if err := s.Add(b, 0); err != nil {
						t.Fatal(err)
					}
				}
				if inBytes > 8<<10 && !s.Spilled() {
					t.Fatalf("%d input bytes never spilled a 2KiB grant", inBytes)
				}
				st, err := s.Stream(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for {
					b, err := st.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					got = append(got, batchRowStrings(b)...)
				}
				s.Release()
				sameRows(t, mode, got, want)
			})
		}
	}
}

// TestPropAggSpillMatchesInMemory compares partitioned-restart hash
// aggregation against the unlimited in-memory table across key skews,
// including the one-giant-key shape that must never recurse.
func TestPropAggSpillMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(propSeed(t)))
	specs := []plan.AggSpec{
		{Func: sql.FuncCount, T: types.Int64},
		{Func: sql.FuncSum, Arg: col(0, types.Int64), T: types.Int64},
		{Func: sql.FuncMin, Arg: col(1, types.String), T: types.String},
		{Func: sql.FuncCount, Arg: col(1, types.String), Distinct: true, T: types.Int64},
	}

	shapes := []struct {
		name     string
		rows     int
		dupMod   int
		nullProb float64
		keys     string  // propKeys entry
		strMod   int     // String column domain
		strNull  float64 // String column NULL probability
	}{
		{"empty", 0, 10, 0, "int", 10000, 0},
		{"one-giant-key", 6000, 1, 0, "int", 10000, 0},
		{"dup-heavy", 6000, 7, 0, "int", 10000, 0},
		{"high-cardinality", 6000, 100000, 0, "int", 10000, 0},
		{"all-null-keys", 3000, 10, 1, "int", 10000, 0},
		{"sprinkled-nulls", 5000, 50, 0.2, "int", 10000, 0},
		{"composite-dup-heavy", 6000, 4, 0, "composite", 3, 0},
		{"composite-null-dense", 6000, 60, 0.5, "composite", 60, 0.5},
		{"composite-high-cardinality", 6000, 100000, 0.1, "composite", 10000, 0.1},
		{"string-dup-heavy", 6000, 50, 0, "string", 9, 0},
		{"string-null-dense", 6000, 50, 0.3, "string", 5000, 0.7},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			groupBy := propKeys[sh.keys]
			var batches []*Batch
			for left := sh.rows; left > 0; left -= BatchSize {
				batches = append(batches, randKeyedBatch(rng, min(left, BatchSize), sh.dupMod, sh.strMod, sh.nullProb, sh.strNull))
			}

			ref, err := NewGroupTable(Compiled, groupBy, specs)
			if err != nil {
				t.Fatal(err)
			}
			gov, err := NewGroupTable(Compiled, groupBy, specs)
			if err != nil {
				t.Fatal(err)
			}
			gov.SetMemory(govCtx(t, 2<<10))
			for _, b := range batches {
				if err := ref.Consume(b); err != nil {
					t.Fatal(err)
				}
				if err := gov.Consume(b); err != nil {
					t.Fatal(err)
				}
			}
			if sh.rows >= 5000 && (sh.dupMod >= 1000 || sh.strMod >= 1000 && sh.keys != "int") && !gov.Spilled() {
				t.Fatal("high-cardinality aggregation never spilled a 2KiB grant")
			}

			a, err := ref.Result()
			if err != nil {
				t.Fatal(err)
			}
			b, err := gov.Result()
			if err != nil {
				t.Fatal(err)
			}
			// Group emission order differs once partitions replay; compare
			// as key → row maps.
			toMap := func(batch *Batch) map[string]string {
				m := make(map[string]string, batch.N)
				for i := 0; i < batch.N; i++ {
					row := batch.Row(i)
					m[fmt.Sprint(row[:len(groupBy)])] = fmt.Sprint(row)
				}
				return m
			}
			am, bm := toMap(a), toMap(b)
			if len(am) != len(bm) || a.N != b.N {
				t.Fatalf("group counts differ: %d vs %d", a.N, b.N)
			}
			for k, av := range am {
				if bv, ok := bm[k]; !ok || av != bv {
					t.Errorf("group %s: %s vs %s", k, av, bv)
				}
			}
			gov.ReleaseMem()
		})
	}
}

// TestAggAccountingTracksRealAllocations is the accounting regression
// bound: what the tracker charges for a big aggregation must be within a
// small constant factor of the real heap growth it causes — neither
// vanishing (undercounting lets a query blow past its grant) nor wildly
// inflated (overcounting forces pointless spills).
func TestAggAccountingTracksRealAllocations(t *testing.T) {
	specs := []plan.AggSpec{
		{Func: sql.FuncCount, T: types.Int64},
		{Func: sql.FuncSum, Arg: col(0, types.Int64), T: types.Int64},
		{Func: sql.FuncCount, Arg: col(1, types.String), Distinct: true, T: types.Int64},
	}
	groupBy := []plan.Expr{col(1, types.String)}

	g, err := NewGroupTable(Compiled, groupBy, specs)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTracker(0, nil) // unlimited: every charge is forced, none refused
	g.SetMemory(&MemContext{T: tr.Child()})

	const rows = 40000
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	for off := 0; off < rows; off += BatchSize {
		n := min(rows-off, BatchSize)
		kv := types.NewVector(types.Int64, n)
		pv := types.NewVector(types.String, n)
		for i := 0; i < n; i++ {
			kv.Append(types.NewInt(int64(off + i)))
			pv.Append(types.NewString(fmt.Sprintf("group-%06d", off+i)))
		}
		b := NewBatch(2)
		b.Cols[0], b.Cols[1], b.N = kv, pv, n
		if err := g.Consume(b); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&ms2)
	real := int64(ms2.HeapAlloc) - int64(ms1.HeapAlloc)
	charged := tr.Used()
	t.Logf("charged=%d real-heap-growth=%d ratio=%.2f", charged, real, float64(charged)/float64(real))

	if charged == 0 {
		t.Fatal("tracker charged nothing for a 40k-group aggregation")
	}
	// Generous envelope: the estimate must be the right order of
	// magnitude, not byte-exact. 40k groups x several states is ~10MB, so
	// GC noise from the test harness is a rounding error here.
	if real > 0 && (charged < real/4 || charged > real*6) {
		t.Errorf("charged %d bytes vs %d real heap growth — accounting drifted out of [x0.25, x6]",
			charged, real)
	}
	if sb := g.StateBytes(); sb > charged {
		t.Errorf("StateBytes %d exceeds tracker charge %d — overheads must be >= payload", sb, charged)
	}
	g.ReleaseMem()
	runtime.KeepAlive(g)
}
