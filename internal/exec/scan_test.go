package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// buildSegment builds a sorted 2-column segment (ts ascending, v cyclic)
// with 16 rows per block.
func buildSegment(t *testing.T, rows int) (*storage.Segment, *catalog.TableDef) {
	t.Helper()
	def := &catalog.TableDef{
		ID:   1,
		Name: "f",
		Columns: []catalog.ColumnDef{
			{Name: "ts", Type: types.Int64, Encoding: compress.Delta},
			{Name: "v", Type: types.Int64, Encoding: compress.Raw},
		},
		DistKeyCol: -1,
	}
	b, err := storage.NewBuilder(1, 0, 0, def.Schema(), def.Encodings(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, v := types.NewVector(types.Int64, rows), types.NewVector(types.Int64, rows)
	for i := 0; i < rows; i++ {
		ts.Append(types.NewInt(int64(i)))
		v.Append(types.NewInt(int64(i % 7)))
	}
	for c, col := range []*types.Vector{ts, v} {
		if err := b.Column(c, col); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	return seg, def
}

// scanSpec builds a plan.TableScan with a ts < hi filter.
func scanSpec(def *catalog.TableDef, hi int64) *plan.TableScan {
	filter := &plan.Bin{
		Op: sql.OpLt,
		L:  &plan.Col{Index: 0, T: types.Int64, Name: "ts"},
		R:  &plan.Const{V: types.NewInt(hi)},
		T:  types.Bool,
	}
	return &plan.TableScan{
		Def:      def,
		Filter:   filter,
		Ranges:   []plan.ColRange{{Col: 0, Hi: types.NewInt(hi), HasHi: true}},
		NeedCols: []int{0, 1},
	}
}

func TestScannerZoneMapPruning(t *testing.T) {
	seg, def := buildSegment(t, 160) // 10 blocks of 16
	sc, err := NewScanner(Compiled, scanSpec(def, 20), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		rows += b.N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 20 {
		t.Errorf("emitted %d rows, want 20", rows)
	}
	st := sc.Stats()
	// Blocks 0 and 1 (ts 0..31) survive the zone map; blocks 2..9 prune.
	if st.BlocksRead.Load() != 4 { // 2 surviving blocks × 2 needed columns
		t.Errorf("BlocksRead = %d", st.BlocksRead.Load())
	}
	if st.BlocksSkipped.Load() != 16 { // 8 pruned blocks × 2 columns
		t.Errorf("BlocksSkipped = %d", st.BlocksSkipped.Load())
	}
	if st.RowsRead.Load() != 32 || st.RowsEmitted.Load() != 20 {
		t.Errorf("rows read/emitted = %d/%d", st.RowsRead.Load(), st.RowsEmitted.Load())
	}
}

func TestScannerLateMaterialization(t *testing.T) {
	seg, def := buildSegment(t, 32)
	spec := scanSpec(def, 1000)
	spec.NeedCols = []int{1} // only v; ts never decoded
	spec.Filter = nil
	spec.Ranges = nil
	sc, err := NewScanner(Compiled, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		if b.Cols[0] != nil {
			return errors.New("unneeded column was materialized")
		}
		if b.Cols[1] == nil {
			return errors.New("needed column missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Stats().BlocksRead.Load() != 2 { // 2 blocks × 1 column
		t.Errorf("BlocksRead = %d", sc.Stats().BlocksRead.Load())
	}
}

func TestScannerPageFaults(t *testing.T) {
	seg, def := buildSegment(t, 48)
	// Evict everything, serve payloads from a side copy via the fetcher.
	payloads := map[storage.BlockID][]byte{}
	seg.Blocks(func(b *storage.Block) {
		payloads[b.ID] = append([]byte(nil), b.Payload()...)
		b.Evict()
	})
	fetch := func(_ context.Context, b *storage.Block) (int, error) {
		p, ok := payloads[b.ID]
		if !ok {
			return 0, fmt.Errorf("no payload for %s", b.ID)
		}
		return 0, b.Fill(p)
	}
	spec := scanSpec(def, 1000)
	spec.Filter, spec.Ranges = nil, nil
	sc, err := NewScanner(Compiled, spec, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		rows += b.N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 48 {
		t.Errorf("rows = %d", rows)
	}
	if sc.Stats().PageFaults.Load() != 6 { // 3 blocks × 2 columns
		t.Errorf("PageFaults = %d", sc.Stats().PageFaults.Load())
	}
}

func TestScannerNoFetcherFailsOnEvicted(t *testing.T) {
	seg, def := buildSegment(t, 16)
	seg.Blocks(func(b *storage.Block) { b.Evict() })
	spec := scanSpec(def, 1000)
	spec.Filter, spec.Ranges = nil, nil
	sc, _ := NewScanner(Compiled, spec, nil, nil)
	err := sc.ScanSegment(context.Background(), seg, func(*Batch) error { return nil })
	if !errors.Is(err, storage.ErrNotResident) {
		t.Errorf("err = %v, want ErrNotResident", err)
	}
}

func TestScannerWidthMismatch(t *testing.T) {
	seg, _ := buildSegment(t, 16)
	wrong := &catalog.TableDef{
		ID:         2,
		Name:       "w",
		Columns:    []catalog.ColumnDef{{Name: "only", Type: types.Int64, Encoding: compress.Raw}},
		DistKeyCol: -1,
	}
	spec := &plan.TableScan{Def: wrong, NeedCols: []int{0}}
	sc, _ := NewScanner(Compiled, spec, nil, nil)
	if err := sc.ScanSegment(context.Background(), seg, func(*Batch) error { return nil }); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestCompiledFloatAndStringComparisons(t *testing.T) {
	// Exercise the float and string kernels of compileCompare and the
	// float branch of compileInList directly.
	fb := NewBatch(1)
	fv := types.NewVector(types.Float64, 4)
	for _, f := range []float64{1.5, 2.5, 3.5, 2.5} {
		fv.Append(types.NewFloat(f))
	}
	fb.Cols[0], fb.N = fv, 4

	ge := &plan.Bin{Op: sql.OpGe, L: &plan.Col{Index: 0, T: types.Float64}, R: &plan.Const{V: types.NewFloat(2.5)}, T: types.Bool}
	v := evalOne(t, Compiled, ge, fb)
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[2] != 1 {
		t.Errorf("float >= : %v", v.Ints)
	}
	in := &plan.InList{E: &plan.Col{Index: 0, T: types.Float64}, Vals: []types.Value{types.NewFloat(2.5)}}
	v = evalOne(t, Compiled, in, fb)
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[3] != 1 {
		t.Errorf("float IN: %v", v.Ints)
	}

	sb := NewBatch(1)
	sv := types.NewVector(types.String, 3)
	for _, s := range []string{"apple", "mango", "zebra"} {
		sv.Append(types.NewString(s))
	}
	sb.Cols[0], sb.N = sv, 3
	ne := &plan.Bin{Op: sql.OpNe, L: &plan.Col{Index: 0, T: types.String}, R: &plan.Const{V: types.NewString("mango")}, T: types.Bool}
	v = evalOne(t, Compiled, ne, sb)
	if v.Ints[0] != 1 || v.Ints[1] != 0 || v.Ints[2] != 1 {
		t.Errorf("string <>: %v", v.Ints)
	}
}

func TestScannerPredicateShortCircuit(t *testing.T) {
	seg, def := buildSegment(t, 160) // 10 blocks of 16
	spec := scanSpec(def, 20)
	spec.Ranges = nil // disable zone maps; only the predicate can save work
	sc, err := NewScanner(Compiled, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		rows += b.N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 20 {
		t.Errorf("emitted %d rows, want 20", rows)
	}
	st := sc.Stats()
	// The filter column (ts) decodes in all 10 blocks; v decodes only in
	// the 2 blocks with surviving rows — the other 8 short-circuit.
	if st.BlocksRead.Load() != 12 {
		t.Errorf("BlocksRead = %d, want 12", st.BlocksRead.Load())
	}
	if st.BlocksSkipped.Load() != 0 {
		t.Errorf("BlocksSkipped = %d (zone maps were off)", st.BlocksSkipped.Load())
	}

	// The same scan with eager materialization would decode 20 blocks; the
	// byte accounting must show only 12 were paid for.
	var full int64
	for c := 0; c < 2; c++ {
		for bi := 0; bi < seg.NumBlocks(); bi++ {
			full += seg.Block(c, bi).ByteSize()
		}
	}
	if st.BytesRead.Load() >= full {
		t.Errorf("BytesRead = %d, want < full decode %d", st.BytesRead.Load(), full)
	}
}

func TestScannerBufferCache(t *testing.T) {
	seg, def := buildSegment(t, 64)
	spec := scanSpec(def, 1000)
	spec.Filter, spec.Ranges = nil, nil
	cache := storage.NewBlockCache(1 << 20)

	runScan := func() (*ScanStats, []int64) {
		sc, err := NewScanner(Compiled, spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc.SetCache(cache)
		var got []int64
		if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
			for i := 0; i < b.N; i++ {
				got = append(got, b.Cols[0].Ints[i])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return sc.Stats(), got
	}

	cold, rows1 := runScan()
	if cold.CacheHits.Load() != 0 || cold.CacheMisses.Load() != 8 {
		t.Errorf("cold hits/misses = %d/%d, want 0/8",
			cold.CacheHits.Load(), cold.CacheMisses.Load())
	}
	if cold.BytesRead.Load() == 0 {
		t.Error("cold scan decoded nothing")
	}

	warm, rows2 := runScan()
	if warm.CacheHits.Load() != 8 || warm.CacheMisses.Load() != 0 {
		t.Errorf("warm hits/misses = %d/%d, want 8/0",
			warm.CacheHits.Load(), warm.CacheMisses.Load())
	}
	if warm.BytesRead.Load() != 0 {
		t.Errorf("warm scan decoded %d bytes, want 0", warm.BytesRead.Load())
	}
	if warm.BlocksRead.Load() != cold.BlocksRead.Load() {
		t.Errorf("BlocksRead cold %d != warm %d (hits still materialize)",
			cold.BlocksRead.Load(), warm.BlocksRead.Load())
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("row counts differ: %d vs %d", len(rows1), len(rows2))
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] {
			t.Fatalf("row %d differs: %d vs %d", i, rows1[i], rows2[i])
		}
	}
}

func TestScannerMetadataOnlyScan(t *testing.T) {
	seg, def := buildSegment(t, 48)
	spec := &plan.TableScan{Def: def, NeedCols: nil} // COUNT(*) shape
	sc, err := NewScanner(Compiled, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Evict every block: a metadata-only scan must not even notice.
	seg.Blocks(func(b *storage.Block) { b.Evict() })
	rows := 0
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		for _, c := range b.Cols {
			if c != nil {
				return errors.New("metadata-only scan materialized a column")
			}
		}
		rows += b.N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 48 {
		t.Errorf("rows = %d, want 48", rows)
	}
	st := sc.Stats()
	if st.BlocksRead.Load() != 0 || st.BytesRead.Load() != 0 {
		t.Errorf("metadata scan read %d blocks / %d bytes, want 0/0",
			st.BlocksRead.Load(), st.BytesRead.Load())
	}
}

// buildNoteSegment builds blocks of storage.BlockCap rows: an id, a 64-byte
// VARCHAR unique to the row and one constant within the block, both RAW.
func buildNoteSegment(t *testing.T, blocks int) (*storage.Segment, *catalog.TableDef) {
	t.Helper()
	def := &catalog.TableDef{
		ID:   2,
		Name: "notes",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Delta},
			{Name: "note", Type: types.String, Encoding: compress.Raw},
			{Name: "tag", Type: types.String, Encoding: compress.Raw},
		},
		DistKeyCol: -1,
	}
	b, err := storage.NewBuilder(def.ID, 0, 0, def.Schema(), def.Encodings(), storage.BlockCap)
	if err != nil {
		t.Fatal(err)
	}
	rows := blocks * storage.BlockCap
	cols := []*types.Vector{types.NewVector(types.Int64, rows), types.NewVector(types.String, rows), types.NewVector(types.String, rows)}
	for i := 0; i < rows; i++ {
		cols[0].Append(types.NewInt(int64(i)))
		cols[1].Append(types.NewString(fmt.Sprintf("%064d", i)))
		cols[2].Append(types.NewString(fmt.Sprintf("%064d", i/storage.BlockCap)))
	}
	for c, col := range cols {
		if err := b.Column(c, col); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	return seg, def
}

// modFilter is the computed predicate id % 100 < below, which no zone map
// can prune.
func modFilter(below int64) plan.Expr {
	id := &plan.Col{Index: 0, T: types.Int64, Name: "id"}
	mod := &plan.Bin{Op: sql.OpMod, L: id, R: &plan.Const{V: types.NewInt(100)}, T: types.Int64}
	return &plan.Bin{Op: sql.OpLt, L: mod, R: &plan.Const{V: types.NewInt(below)}, T: types.Bool}
}

// The strings of a decoded block share one arena, so the 1 % of a block
// that survives a filter must not keep the other 99 % alive: what the
// emitted batches retain on the heap stays within twice their ByteSize.
func TestScannerSurvivorsDoNotPinBlocks(t *testing.T) {
	seg, def := buildNoteSegment(t, 8)
	sc, err := NewScanner(Compiled, &plan.TableScan{Def: def, Filter: modFilter(1), NeedCols: []int{0, 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var kept []*Batch
	var size int64
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		kept = append(kept, b)
		size += b.ByteSize()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Twice: the evaluator's pooled scratch (arenas) outlives one collection
	// in the pool's victim cache, and it is not the batches' to retain.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	rows := 0
	for _, b := range kept {
		rows += b.N
		for i, s := range b.Cols[1].Strs {
			if want := fmt.Sprintf("%064d", b.Cols[0].Ints[i]); s != want {
				t.Fatalf("note of id %d is %q", b.Cols[0].Ints[i], s)
			}
		}
	}
	if want := 8 * storage.BlockCap / 100; rows < want || rows > want+1 {
		t.Fatalf("%d rows survived, want 1%% of %d", rows, 8*storage.BlockCap)
	}
	// Slack for the batch and vector headers, which ByteSize leaves out.
	if limit := 2*size + int64(len(kept))*512; retained > limit {
		t.Errorf("%d survivors of %d bytes keep %d bytes of heap alive, limit %d", rows, size, retained, limit)
	}
	runtime.KeepAlive(seg)
}

// A block whose rows all pass is not gathered at all: the batch carries
// the decoded (here: cached) vectors themselves.
func TestScannerPassesWholeBlocksOn(t *testing.T) {
	seg, def := buildNoteSegment(t, 2)
	cache := storage.NewBlockCache(1 << 24)
	sc, err := NewScanner(Compiled, &plan.TableScan{Def: def, Filter: modFilter(100), NeedCols: []int{0, 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetCache(cache)
	bi := 0
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		cached, ok := cache.Get(seg.Block(1, bi).ID, 0)
		if !ok {
			t.Fatalf("block %d was not cached", bi)
		}
		if b.N != storage.BlockCap || &b.Cols[1].Strs[0] != &cached.Strs[0] {
			t.Errorf("block %d: an all-pass block was copied on its way out of the scanner", bi)
		}
		bi++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bi != 2 {
		t.Errorf("%d batches, want 2", bi)
	}
}

// An unfiltered scan hands whole blocks on, arena strings and all, and an
// aggregation keeps single values of them for as long as its groups live:
// group keys, MIN/MAX and the COUNT(DISTINCT) value set hold copies, so
// what the table retains is what it charges, not a block per value.
func TestGroupTableDoesNotPinScannedBlocks(t *testing.T) {
	const blocks = 8
	seg, def := buildNoteSegment(t, blocks)
	sc, err := NewScanner(Compiled, &plan.TableScan{Def: def, NeedCols: []int{1, 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tag := &plan.Col{Index: 2, T: types.String, Name: "tag"}
	g, err := NewGroupTable(Compiled, []plan.Expr{tag}, []plan.AggSpec{
		{Func: sql.FuncMin, Arg: &plan.Col{Index: 1, T: types.String, Name: "note"}, T: types.String},
		{Func: sql.FuncCount, Arg: tag, Distinct: true, T: types.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTracker(0, nil)
	g.SetMemory(&MemContext{T: tr.Child()})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var batchSize int64
	if err := sc.ScanSegment(context.Background(), seg, func(b *Batch) error {
		defer PutBatch(b)
		batchSize = b.ByteSize()
		return g.Consume(b)
	}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if g.NumGroups() != blocks {
		t.Fatalf("%d groups, want %d", g.NumGroups(), blocks)
	}
	// Each group keeps three 64-byte strings, each out of a 256 KB block
	// arena. The table's per-batch scratch still points at the last batch.
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := 2*tr.Used() + 2*batchSize; retained > limit {
		t.Errorf("%d groups charged %d bytes keep %d bytes of heap alive, limit %d", blocks, tr.Used(), retained, limit)
	}
	g.ReleaseMem()
	runtime.KeepAlive(g)
	runtime.KeepAlive(seg)
}
