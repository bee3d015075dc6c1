package load

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/s3sim"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

func env(t *testing.T) (*cluster.Cluster, *catalog.Catalog, *s3sim.Store) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	return c, catalog.New(), s3sim.New()
}

func eventsTable(t *testing.T, cat *catalog.Catalog, sortStyle catalog.SortStyle, sortCols []int) *catalog.TableDef {
	t.Helper()
	def := &catalog.TableDef{
		Name: "events",
		Columns: []catalog.ColumnDef{
			{Name: "ts", Type: types.Int64, Encoding: compress.Raw, AutoEncoding: true},
			{Name: "user_id", Type: types.Int64, Encoding: compress.Raw, AutoEncoding: true},
			{Name: "action", Type: types.String, Encoding: compress.Raw, AutoEncoding: true},
			{Name: "amount", Type: types.Float64, Encoding: compress.Raw, AutoEncoding: true},
		},
		DistStyle:   catalog.DistKey,
		DistKeyCol:  1,
		SortStyle:   sortStyle,
		SortKeyCols: sortCols,
	}
	if err := cat.Create(def); err != nil {
		t.Fatal(err)
	}
	return def
}

// putCSV writes n CSV rows split across k objects.
func putCSV(t *testing.T, store *s3sim.Store, prefix string, n, k int) {
	t.Helper()
	var bufs []strings.Builder
	bufs = make([]strings.Builder, k)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&bufs[i%k], "%d|%d|action%d|%g\n", 1000+i, i%50, i%7, float64(i)/4)
	}
	for i := range bufs {
		if err := store.Put(fmt.Sprintf("%sobj%03d.csv", prefix, i), []byte(bufs[i].String())); err != nil {
			t.Fatal(err)
		}
	}
}

// countRows decodes all visible rows of a table.
func countRows(t *testing.T, c *cluster.Cluster, tableID int64) int {
	t.Helper()
	total := 0
	for s := 0; s < c.NumSlices(); s++ {
		for _, seg := range c.VisibleSegments(s, tableID, 1<<60) {
			total += seg.Rows
		}
	}
	return total
}

// committed publishes a write's statistics delta as the database does once
// the write commits, failing the test on the write's error.
func committed(t *testing.T, cat *catalog.Catalog, def *catalog.TableDef) func(Stats, error) Stats {
	return func(st Stats, err error) Stats {
		t.Helper()
		if err == nil && st.Delta != nil {
			err = cat.UpdateStats(def.ID, *st.Delta)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

func TestCopyCSVBasic(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortCompound, []int{0})
	putCSV(t, store, "lake/", 500, 4)

	stats := committed(t, cat, def)(Run(context.Background(), c, cat, def, store, "lake/", Options{}, 1, nil))
	if stats.Rows != 500 || stats.Objects != 4 || stats.Segments == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if got := countRows(t, c, def.ID); got != 500 {
		t.Errorf("loaded rows = %d", got)
	}
	// Statistics updated with load.
	ts, _ := cat.Stats(def.ID)
	if ts.Rows != 500 || ts.UnsortedRows != 0 {
		t.Errorf("table stats = %+v", ts)
	}
	if ts.Cols[0].Min.I != 1000 || ts.Cols[0].Max.I != 1499 {
		t.Errorf("ts bounds = %v..%v", ts.Cols[0].Min, ts.Cols[0].Max)
	}
	if ndv := ts.Cols[2].NDV; ndv < 5 || ndv > 9 {
		t.Errorf("action NDV = %d, want ≈7", ndv)
	}
	// Encodings were chosen automatically on first load.
	if !stats.EncodingsSet {
		t.Error("EncodingsSet false on empty-table load")
	}
	encs, err := cat.Encodings(def.ID)
	if err != nil {
		t.Fatal(err)
	}
	if encs[0] == compress.Raw {
		t.Error("sorted ts column should not stay RAW")
	}
}

func TestCopySortsLocallyBySortkey(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortCompound, []int{0})
	// Deliberately unsorted input.
	var b strings.Builder
	for i := 500; i > 0; i-- {
		fmt.Fprintf(&b, "%d|%d|a|1.0\n", i, i%10)
	}
	store.Put("x/1.csv", []byte(b.String()))
	if _, err := Run(context.Background(), c, cat, def, store, "x/", Options{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < c.NumSlices(); s++ {
		for _, seg := range c.VisibleSegments(s, def.ID, 1<<60) {
			if !seg.Sorted {
				t.Fatal("segment not marked sorted")
			}
			ts := column(t, seg, 0)
			for i := 1; i < ts.Len(); i++ {
				if ts.Get(i).I < ts.Get(i-1).I {
					t.Fatalf("slice %d not sorted at %d", s, i)
				}
			}
		}
	}
}

func TestCopyInterleavedZOrder(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortInterleaved, []int{0, 1})
	putCSV(t, store, "z/", 1000, 1)
	if _, err := Run(context.Background(), c, cat, def, store, "z/", Options{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, c, def.ID); got != 1000 {
		t.Errorf("rows = %d", got)
	}
	// Z-ordered segments cluster both key columns: within each slice the
	// per-block zone maps on user_id must be narrower than the full range.
	for s := 0; s < c.NumSlices(); s++ {
		for _, seg := range c.VisibleSegments(s, def.ID, 1<<60) {
			if seg.NumBlocks() < 2 {
				continue
			}
			narrow := 0
			for bi := 0; bi < seg.NumBlocks(); bi++ {
				z := seg.Block(1, bi).Zone
				if !z.AllNull && z.Max.I-z.Min.I < 49 {
					narrow++
				}
			}
			if narrow == 0 {
				t.Errorf("slice %d: no block clusters the non-leading key", s)
			}
		}
	}
}

func TestCopyJSON(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	lines := `{"ts": 1, "user_id": 7, "action": "click", "amount": 1.5}
{"ts": 2, "USER_ID": 8, "action": null}
{"ts": 3, "user_id": 9, "action": "buy", "amount": 2}`
	store.Put("j/1.json", []byte(lines))
	stats := committed(t, cat, def)(Run(context.Background(), c, cat, def, store, "j/", Options{Format: "JSON"}, 1, nil))
	if stats.Rows != 3 {
		t.Errorf("rows = %d", stats.Rows)
	}
	ts, _ := cat.Stats(def.ID)
	if ts.Cols[3].NullCount != 1 || ts.Cols[2].NullCount != 1 {
		t.Errorf("null counts = %+v", ts.Cols)
	}
}

func TestCopyGzip(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write([]byte("1|2|x|0.5\n3|4|y|1.5\n"))
	w.Close()
	store.Put("g/1.csv.gz", buf.Bytes())
	stats, err := Run(context.Background(), c, cat, def, store, "g/", Options{GZip: true}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 2 {
		t.Errorf("rows = %d", stats.Rows)
	}
	if _, err := Run(context.Background(), c, cat, def, store, "g/", Options{}, 2, nil); err == nil {
		t.Error("gzipped object parsed as plain CSV")
	}
}

func TestCopyErrors(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	if _, err := Run(context.Background(), c, cat, def, store, "missing/", Options{}, 1, nil); err == nil {
		t.Error("empty prefix accepted")
	}
	store.Put("bad/1.csv", []byte("1|2\n")) // wrong arity
	if _, err := Run(context.Background(), c, cat, def, store, "bad/", Options{}, 1, nil); err == nil {
		t.Error("wrong field count accepted")
	}
	store.Put("bad2/1.csv", []byte("xx|2|a|1.0\n")) // bad int
	if _, err := Run(context.Background(), c, cat, def, store, "bad2/", Options{}, 1, nil); err == nil {
		t.Error("bad integer accepted")
	}
}

func TestNotNullEnforced(t *testing.T) {
	c, cat, store := env(t)
	def := &catalog.TableDef{
		Name: "strict",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Raw, NotNull: true},
		},
		DistKeyCol: -1,
	}
	cat.Create(def)
	store.Put("s/1.csv", []byte("1\n\n2\n")) // empty line skipped; fine
	if _, err := Run(context.Background(), c, cat, def, store, "s/", Options{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	store.Put("s2/1.csv", []byte("1|\n"))
	// wrong arity — use a 2-col table instead for the null check:
	def2 := &catalog.TableDef{
		Name: "strict2",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Raw, NotNull: true},
			{Name: "v", Type: types.Int64, Encoding: compress.Raw},
		},
		DistKeyCol: -1,
	}
	cat.Create(def2)
	store.Put("s3/1.csv", []byte("|5\n"))
	if _, err := Run(context.Background(), c, cat, def2, store, "s3/", Options{}, 1, nil); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
}

func TestCompUpdateKnob(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	putCSV(t, store, "a/", 100, 1)
	off := false
	stats := committed(t, cat, def)(Run(context.Background(), c, cat, def, store, "a/", Options{CompUpdate: &off}, 1, nil))
	if stats.EncodingsSet {
		t.Error("COMPUPDATE OFF still set encodings")
	}
	if encs, _ := cat.Encodings(def.ID); encs[0] != compress.Raw {
		t.Error("encoding changed with COMPUPDATE OFF")
	}
	// Second load into non-empty table: default is to keep encodings.
	putCSV(t, store, "b/", 100, 1)
	stats2, _ := Run(context.Background(), c, cat, def, store, "b/", Options{}, 2, nil)
	if stats2.EncodingsSet {
		t.Error("non-empty table load re-chose encodings by default")
	}
	// Forced on.
	on := true
	putCSV(t, store, "cc/", 100, 1)
	stats3, _ := Run(context.Background(), c, cat, def, store, "cc/", Options{CompUpdate: &on}, 3, nil)
	if !stats3.EncodingsSet {
		t.Error("COMPUPDATE ON ignored")
	}
}

func TestStatUpdateKnobAndUnsortedTracking(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortCompound, []int{0})
	putCSV(t, store, "a/", 200, 1)
	commit := committed(t, cat, def)
	commit(Run(context.Background(), c, cat, def, store, "a/", Options{}, 1, nil))
	// Second load: rows counted as unsorted (new sorted run).
	putCSV(t, store, "b/", 100, 1)
	commit(Run(context.Background(), c, cat, def, store, "b/", Options{}, 2, nil))
	ts, _ := cat.Stats(def.ID)
	if ts.Rows != 300 || ts.UnsortedRows != 100 {
		t.Errorf("stats = rows %d unsorted %d", ts.Rows, ts.UnsortedRows)
	}
	// STATUPDATE OFF skips.
	off := false
	putCSV(t, store, "cc/", 50, 1)
	commit(Run(context.Background(), c, cat, def, store, "cc/", Options{StatUpdate: &off}, 3, nil))
	ts2, _ := cat.Stats(def.ID)
	if ts2.Rows != 300 {
		t.Errorf("STATUPDATE OFF still updated: %d", ts2.Rows)
	}
}

func TestAppendEmptyAndDistAll(t *testing.T) {
	c, cat, _ := env(t)
	def := &catalog.TableDef{
		Name: "dims",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Raw},
			{Name: "name", Type: types.String, Encoding: compress.Raw},
		},
		DistStyle:  catalog.DistAll,
		DistKeyCol: -1,
	}
	cat.Create(def)
	commit := committed(t, cat, def)
	commit(Append(c, cat, def, []Columns{NewColumns(def, 0)}, Options{}, 1, nil))
	cols := NewColumns(def, 2)
	for i, name := range []string{"a", "b"} {
		cols[0].Append(types.NewInt(int64(i + 1)))
		cols[1].Append(types.NewString(name))
	}
	commit(Append(c, cat, def, []Columns{cols}, Options{}, 1, nil))
	// DistAll: every node holds a full copy → rows×nodes total.
	if got := countRows(t, c, def.ID); got != 2*c.NumNodes() {
		t.Errorf("DistAll rows = %d, want %d", got, 2*c.NumNodes())
	}
	// But stats count logical rows once.
	ts, _ := cat.Stats(def.ID)
	if ts.Rows != 2 {
		t.Errorf("logical rows = %d", ts.Rows)
	}
}

func TestLoadDistributionRespectsKey(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	putCSV(t, store, "k/", 400, 2)
	Run(context.Background(), c, cat, def, store, "k/", Options{}, 1, nil)
	// Every segment on a slice must contain only user_ids hashing there.
	for s := 0; s < c.NumSlices(); s++ {
		for _, seg := range c.VisibleSegments(s, def.ID, 1<<60) {
			uid := column(t, seg, 1)
			for i := 0; i < uid.Len(); i++ {
				if want := c.TargetSliceKey(uid.Get(i)); want != s {
					t.Fatalf("user_id %d on slice %d, expected %d", uid.Get(i).I, s, want)
				}
			}
		}
	}
}

// column decodes column c of seg whole.
func column(t *testing.T, seg *storage.Segment, c int) *types.Vector {
	t.Helper()
	out := types.NewVector(seg.Schema.Columns[c].Type, seg.Rows)
	for _, b := range seg.Cols[c] {
		v, err := b.Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		out.AppendRange(v, 0, v.Len())
	}
	return out
}

// foldRows is the statistics of rows, which match def.
func foldRows(def *catalog.TableDef, rows []types.Row) catalog.TableStats {
	cols := NewColumns(def, len(rows))
	for _, r := range rows {
		for c, v := range r {
			cols[c].Append(v)
		}
	}
	sb := NewStatsBuilder(len(def.Columns))
	sb.Fold(cols)
	return sb.Stats()
}

// The statistics must carry an HLL sketch and width sums per column so
// per-slice statistics merge losslessly at ANALYZE time.
func TestStatsSketchAndWidth(t *testing.T) {
	_, cat, _ := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	var rows []types.Row
	for i := 0; i < 500; i++ {
		action := types.NewString(strings.Repeat("x", 1+i%4)) // widths 1..4
		if i%5 == 0 {
			action = types.Value{T: types.String, Null: true}
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 10)),
			action, types.NewFloat(float64(i)),
		})
	}
	st := foldRows(def, rows)
	st.EstimateNDV()
	if st.Rows != 500 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	ts, uid, action := st.Cols[0], st.Cols[1], st.Cols[2]
	for ci, cs := range []catalog.ColumnStats{ts, uid, action} {
		if cs.Sketch == nil {
			t.Errorf("col %d: no sketch", ci)
		}
	}
	if ts.NDV < 475 || ts.NDV > 525 {
		t.Errorf("ts NDV = %d, want ~500", ts.NDV)
	}
	if uid.NDV != 10 {
		t.Errorf("user_id NDV = %d, want 10", uid.NDV)
	}
	if ts.WidthSum != 500*8 {
		t.Errorf("ts WidthSum = %d", ts.WidthSum)
	}
	if action.NullCount != 100 {
		t.Errorf("action NullCount = %d", action.NullCount)
	}
	// 400 non-null strings, widths cycle 2,3,4,2,... (i%5!=0): just check
	// the average lands strictly inside the 1..4 band.
	if w := action.AvgWidth(st.Rows, 16); w < 1 || w > 4 {
		t.Errorf("action AvgWidth = %v, want within [1,4]", w)
	}
	// Sketches from two disjoint halves must union, not max.
	a := foldRows(def, rows[:250])
	b := foldRows(def, rows[250:])
	a.Merge(b)
	a.EstimateNDV()
	if got := a.Cols[0].NDV; got < 475 || got > 525 {
		t.Errorf("merged ts NDV = %d, want ~500", got)
	}
}

// A DOUBLE too large to count in millionths keeps its distinct values apart:
// 10 000 of them from 1e13 upward once all hashed as one integer (NDV 1).
func TestStatsLargeDoublesKeepDistinctValues(t *testing.T) {
	const n = 10_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e13 + float64(i)
	}
	sb := NewStatsBuilder(1)
	sb.Fold(Columns{&types.Vector{T: types.Float64, Floats: vals}})
	st := sb.Stats()
	st.EstimateNDV()
	if ndv := st.Cols[0].NDV; ndv < n*95/100 || ndv > n*105/100 {
		t.Errorf("NDV = %d, want within 5%% of %d", ndv, n)
	}
	for _, x := range []float64{0, -0.5, 1.25, 9.2e12, -9.2e12} {
		if got, want := floatKey(x), int64(x*1e6); got != want {
			t.Errorf("floatKey(%v) = %d, want %d: an in-range value must hash as before", x, got, want)
		}
	}
}

// A CRLF file loads as the LF file does: one '\r' before the '\n' is part
// of the row terminator, not of a trailing VARCHAR.
func TestCopyCRLF(t *testing.T) {
	c, cat, store := env(t)
	def := &catalog.TableDef{
		Name: "notes",
		Columns: []catalog.ColumnDef{
			{Name: "id", Type: types.Int64, Encoding: compress.Raw},
			{Name: "note", Type: types.String, Encoding: compress.Raw},
		},
		DistStyle:  catalog.DistAll,
		DistKeyCol: -1,
	}
	cat.Create(def)
	store.Put("crlf/1.csv", []byte("1|ab\r\n2|c\rd\r\n\r\n3|\r\n4|last\r"))
	if _, err := Run(context.Background(), c, cat, def, store, "crlf/", Options{}, 1, nil); err != nil {
		t.Fatal(err)
	}
	notes := column(t, c.VisibleSegments(0, def.ID, 1)[0], 1)
	var got []string
	for i := 0; i < notes.Len(); i++ {
		got = append(got, notes.Get(i).S)
	}
	// A '\r' inside a field, or before the end of a file that does not end
	// in '\n', is data.
	if want := []string{"ab", "c\rd", "", "last\r"}; fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("notes = %q, want %q", got, want)
	}
}

// A failed COPY names the lowest object that failed and that object's first
// bad line, whichever worker failed first, and its workers are gone when it
// returns.
func TestCopyErrorIsLowestObject(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortNone, nil)
	var big strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&big, "%d|%d|a|1.0\n", i, i)
	}
	for i := 0; i < 8; i++ {
		body := big.String()
		switch i {
		case 3:
			body += "1|2|a|1.0\nx|2|a|1.0\ny|2|a|1.0\n" // slow to reach its bad lines
		case 4, 5, 6, 7:
			body = "1|2\n" // fails at once
		}
		store.Put(fmt.Sprintf("mixed/part%d.csv", i), []byte(body))
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		_, err := Run(context.Background(), c, cat, def, store, "mixed/", Options{}, int64(i+1), nil)
		if err == nil || !strings.Contains(err.Error(), "part3.csv: line 20002 column ts") {
			t.Fatalf("run %d: error = %v, want part3.csv line 20002 column ts", i, err)
		}
		// A worker that has reported in may still be on its way out; none
		// may still be reading.
		gets := store.Stats().Gets
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before || store.Stats().Gets != gets {
			t.Fatalf("run %d: %d goroutines (%d before the COPY), %d objects fetched after it failed",
				i, n, before, store.Stats().Gets-gets)
		}
	}
	if got := countRows(t, c, def.ID); got != 0 {
		t.Errorf("failed COPYs left %d rows", got)
	}
}

// A load records its phases under the span it is given, each with rows and
// bytes.
func TestCopyRecordsPhases(t *testing.T) {
	c, cat, store := env(t)
	def := eventsTable(t, cat, catalog.SortCompound, []int{0})
	putCSV(t, store, "p/", 500, 4)
	trace := telemetry.StartSpan("query")
	if _, err := Run(context.Background(), c, cat, def, store, "p/", Options{}, 1, trace); err != nil {
		t.Fatal(err)
	}
	trace.End()
	var names []string
	for _, sp := range trace.Children() {
		names = append(names, sp.Name())
		if sp.Attr("rows") != 500 {
			t.Errorf("%s rows = %d", sp.Name(), sp.Attr("rows"))
		}
		if sp.Name() != "stats" && sp.Attr("bytes") <= 0 {
			t.Errorf("%s bytes = %d", sp.Name(), sp.Attr("bytes"))
		}
		if sp.Duration() > trace.Duration() {
			t.Errorf("%s took %v of the query's %v", sp.Name(), sp.Duration(), trace.Duration())
		}
	}
	if got := strings.Join(names, " "); got != "parse distribute+sort encode replicate stats" {
		t.Errorf("phases = %q", got)
	}
}
