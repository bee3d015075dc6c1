package catalog

import (
	"strings"
	"testing"

	"redshift/internal/compress"
	"redshift/internal/hll"
	"redshift/internal/types"
)

func clickTable() *TableDef {
	return &TableDef{
		Name: "clicks",
		Columns: []ColumnDef{
			{Name: "ts", Type: types.Timestamp, Encoding: compress.Delta},
			{Name: "product_id", Type: types.Int64, Encoding: compress.LZ},
			{Name: "url", Type: types.String, Encoding: compress.Text},
		},
		DistStyle:   DistKey,
		DistKeyCol:  1,
		SortStyle:   SortCompound,
		SortKeyCols: []int{0},
	}
}

func TestCreateGetDrop(t *testing.T) {
	c := New()
	def := clickTable()
	if err := c.Create(def); err != nil {
		t.Fatal(err)
	}
	if def.ID != 1 {
		t.Errorf("ID = %d", def.ID)
	}
	got, err := c.Get("CLICKS") // case-insensitive
	if err != nil || got != def {
		t.Fatalf("Get: %v %v", got, err)
	}
	if got, err := c.GetByID(1); err != nil || got != def {
		t.Fatalf("GetByID: %v %v", got, err)
	}
	if err := c.Create(clickTable()); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := c.Drop("clicks"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("clicks"); err == nil {
		t.Error("Get after Drop succeeded")
	}
	if err := c.Drop("clicks"); err == nil {
		t.Error("double Drop succeeded")
	}
}

func TestIDsNotReused(t *testing.T) {
	c := New()
	a := clickTable()
	c.Create(a)
	c.Drop("clicks")
	b := clickTable()
	c.Create(b)
	if b.ID == a.ID {
		t.Errorf("table ID %d reused", b.ID)
	}
}

func TestValidateRejectsBadDefs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TableDef)
	}{
		{"no name", func(d *TableDef) { d.Name = "" }},
		{"no columns", func(d *TableDef) { d.Columns = nil }},
		{"dup column", func(d *TableDef) { d.Columns[1].Name = "TS" }},
		{"invalid type", func(d *TableDef) { d.Columns[0].Type = types.Invalid }},
		{"bad encoding", func(d *TableDef) { d.Columns[2].Encoding = compress.Delta }},
		{"distkey out of range", func(d *TableDef) { d.DistKeyCol = 99 }},
		{"distkey without style", func(d *TableDef) { d.DistStyle = DistEven }},
		{"sortkey out of range", func(d *TableDef) { d.SortKeyCols = []int{-1} }},
		{"sort style without keys", func(d *TableDef) { d.SortKeyCols = nil }},
		{"keys without style", func(d *TableDef) { d.SortStyle = SortNone }},
		{"too many interleaved", func(d *TableDef) {
			d.SortStyle = SortInterleaved
			d.SortKeyCols = []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
		}},
	}
	for _, tc := range cases {
		c := New()
		def := clickTable()
		tc.mutate(def)
		if err := c.Create(def); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSchemaAndOrdinal(t *testing.T) {
	def := clickTable()
	s := def.Schema()
	if s.Len() != 3 || s.Columns[2].Name != "url" || s.Columns[2].Type != types.String {
		t.Errorf("Schema = %+v", s)
	}
	if def.Ordinal("PRODUCT_ID") != 1 || def.Ordinal("nope") != -1 {
		t.Error("Ordinal wrong")
	}
	encs := def.Encodings()
	if len(encs) != 3 || encs[0] != compress.Delta {
		t.Errorf("Encodings = %v", encs)
	}
}

func TestListSorted(t *testing.T) {
	c := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		def := clickTable()
		def.Name = name
		if err := c.Create(def); err != nil {
			t.Fatal(err)
		}
	}
	list := c.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[2].Name != "zeta" {
		names := make([]string, len(list))
		for i, d := range list {
			names[i] = d.Name
		}
		t.Errorf("List = %v", strings.Join(names, ","))
	}
}

func TestStatsLifecycle(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)

	s, err := c.Stats(def.ID)
	if err != nil || s.Rows != 0 {
		t.Fatalf("initial stats: %+v %v", s, err)
	}
	delta := TableStats{
		Rows:         100,
		UnsortedRows: 10,
		Cols: []ColumnStats{
			{Min: types.NewTimestamp(5), Max: types.NewTimestamp(50), NDV: 90},
			{Min: types.NewInt(1), Max: types.NewInt(9), NullCount: 3, NDV: 9},
			{Min: types.NewString("a"), Max: types.NewString("z"), NDV: 50},
		},
	}
	if err := c.UpdateStats(def.ID, delta); err != nil {
		t.Fatal(err)
	}
	delta2 := TableStats{
		Rows: 50,
		Cols: []ColumnStats{
			{Min: types.NewTimestamp(1), Max: types.NewTimestamp(20), NDV: 40},
			{Min: types.NewInt(5), Max: types.NewInt(30), NDV: 20},
			{Min: types.NewString("m"), Max: types.NewString("q"), NDV: 10},
		},
	}
	if err := c.UpdateStats(def.ID, delta2); err != nil {
		t.Fatal(err)
	}
	s, _ = c.Stats(def.ID)
	if s.Rows != 150 || s.UnsortedRows != 10 {
		t.Errorf("rows=%d unsorted=%d", s.Rows, s.UnsortedRows)
	}
	if s.Cols[0].Min.I != 1 || s.Cols[0].Max.I != 50 {
		t.Errorf("ts bounds = %v..%v", s.Cols[0].Min, s.Cols[0].Max)
	}
	if s.Cols[1].Min.I != 1 || s.Cols[1].Max.I != 30 || s.Cols[1].NullCount != 3 {
		t.Errorf("product bounds = %+v", s.Cols[1])
	}
	if s.Cols[2].Min.S != "a" || s.Cols[2].Max.S != "z" {
		t.Errorf("url bounds = %+v", s.Cols[2])
	}

	// ReplaceStats overwrites.
	if err := c.ReplaceStats(def.ID, TableStats{Rows: 7, Cols: make([]ColumnStats, 3)}); err != nil {
		t.Fatal(err)
	}
	s, _ = c.Stats(def.ID)
	if s.Rows != 7 {
		t.Errorf("after replace rows=%d", s.Rows)
	}

	if err := c.UpdateStats(999, delta); err == nil {
		t.Error("UpdateStats on missing table succeeded")
	}
}

// A copy a caller makes of a snapshot to publish (as VACUUM does) is its
// own: changing it, before or after ReplaceStats, leaves the snapshot it was
// copied from as it was.
func TestStatsCopyIsolated(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	s, _ := c.Stats(def.ID)
	cp := *s
	cp.Rows = 999999
	cp.Cols = append([]ColumnStats(nil), s.Cols...)
	if len(cp.Cols) > 0 {
		cp.Cols[0].NDV = 123
	}
	s2, _ := c.Stats(def.ID)
	if s2.Rows == 999999 || (len(s2.Cols) > 0 && s2.Cols[0].NDV == 123) {
		t.Error("a copy of the snapshot shares state with the catalog")
	}
	if err := c.ReplaceStats(def.ID, cp); err != nil {
		t.Fatal(err)
	}
	if s.Rows == 999999 || (len(s.Cols) > 0 && s.Cols[0].NDV == 123) {
		t.Error("publishing a copy changed the snapshot it was copied from")
	}
	if s3, _ := c.Stats(def.ID); s3.Rows != 999999 {
		t.Errorf("after ReplaceStats: rows %d, want 999999", s3.Rows)
	}
}

func TestSetEncoding(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	if err := c.SetEncoding(def.ID, 1, compress.Mostly8); err != nil {
		t.Fatal(err)
	}
	encs, err := c.Encodings(def.ID)
	if err != nil || encs[1] != compress.Mostly8 {
		t.Errorf("encoding not applied: %v %v", encs, err)
	}
	// The definition stays immutable; only the catalog's view changes.
	if def.Columns[1].Encoding == compress.Mostly8 {
		t.Error("SetEncoding mutated the shared TableDef")
	}
	// Returned slice is a copy.
	encs[0] = compress.LZ
	again, _ := c.Encodings(def.ID)
	if again[0] == compress.LZ {
		t.Error("Encodings returned shared state")
	}
	if err := c.SetEncoding(def.ID, 2, compress.Delta); err == nil {
		t.Error("inapplicable encoding accepted")
	}
	if err := c.SetEncoding(def.ID, 99, compress.Raw); err == nil {
		t.Error("bad ordinal accepted")
	}
	if err := c.SetEncoding(12345, 0, compress.Raw); err == nil {
		t.Error("bad table accepted")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	c.UpdateStats(def.ID, TableStats{Rows: 42, Cols: make([]ColumnStats, 3)})
	other := clickTable()
	other.Name = "products"
	c.Create(other)

	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := got.Get("clicks")
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != def.ID || d.DistStyle != DistKey || d.DistKeyCol != 1 || len(d.SortKeyCols) != 1 {
		t.Errorf("restored def = %+v", d)
	}
	s, err := got.Stats(d.ID)
	if err != nil || s.Rows != 42 {
		t.Errorf("restored stats = %+v %v", s, err)
	}
	// New tables in the restored catalog must not collide with old IDs.
	third := clickTable()
	third.Name = "third"
	if err := got.Create(third); err != nil {
		t.Fatal(err)
	}
	if third.ID <= other.ID {
		t.Errorf("restored nextID wrong: new table got %d", third.ID)
	}

	if _, err := Unmarshal([]byte("{garbage")); err == nil {
		t.Error("Unmarshal accepted garbage")
	}
}

func TestDistSortStyleStrings(t *testing.T) {
	if DistEven.String() != "EVEN" || DistKey.String() != "KEY" || DistAll.String() != "ALL" {
		t.Error("DistStyle names wrong")
	}
	if SortNone.String() != "NONE" || SortCompound.String() != "COMPOUND" || SortInterleaved.String() != "INTERLEAVED" {
		t.Error("SortStyle names wrong")
	}
}

// sliceStats builds one slice's worth of per-column stats over the given
// int64 values, the way load.ComputeStats would: exact count, an HLL
// sketch, and width sums.
func sliceStats(vals []int64) TableStats {
	sk := hll.New()
	cs := ColumnStats{WidthSum: int64(len(vals)) * 8}
	for i, v := range vals {
		sk.AddInt64(v)
		val := types.NewInt(v)
		if i == 0 {
			cs.Min, cs.Max = val, val
			continue
		}
		if types.Compare(val, cs.Min) < 0 {
			cs.Min = val
		}
		if types.Compare(val, cs.Max) > 0 {
			cs.Max = val
		}
	}
	cs.NDV = sk.Estimate()
	cs.Sketch = sk
	return TableStats{Rows: int64(len(vals)), Cols: []ColumnStats{cs}}
}

// Regression for the NDV merge bug: per-slice stats carry HLL sketches, so
// merging four hash-distributed slices (disjoint value ranges) must report
// the union's distinct count — not the max of any one slice's quarter.
func TestMergeUnionsNDVSketches(t *testing.T) {
	const slices, perSlice = 4, 5000
	var merged TableStats
	for s := 0; s < slices; s++ {
		vals := make([]int64, perSlice)
		for i := range vals {
			vals[i] = int64(s*perSlice + i) // disjoint ranges per slice
		}
		merged.Merge(sliceStats(vals))
	}
	merged.EstimateNDV()
	const truth = slices * perSlice
	if merged.Rows != truth {
		t.Fatalf("Rows = %d, want %d", merged.Rows, truth)
	}
	ndv := merged.Cols[0].NDV
	if lo, hi := int64(truth*95/100), int64(truth*105/100); ndv < lo || ndv > hi {
		t.Errorf("merged NDV = %d, want within 5%% of %d", ndv, truth)
	}
	if ndv <= perSlice*105/100 {
		t.Errorf("merged NDV = %d looks like one slice's max, not the union", ndv)
	}
	if w := merged.Cols[0].WidthSum; w != truth*8 {
		t.Errorf("WidthSum = %d, want %d", w, truth*8)
	}
}

// Without sketches the merge degrades to the old max-of-NDV bound rather
// than inventing counts.
func TestMergeWithoutSketchesFallsBackToMax(t *testing.T) {
	a := TableStats{Rows: 10, Cols: []ColumnStats{{NDV: 7}}}
	b := TableStats{Rows: 10, Cols: []ColumnStats{{NDV: 9}}}
	a.Merge(b)
	if a.Cols[0].NDV != 9 {
		t.Errorf("NDV = %d, want max fallback 9", a.Cols[0].NDV)
	}
}

// NullFrac and AvgWidth derive from the merged counters.
func TestNullFracAndAvgWidth(t *testing.T) {
	cs := ColumnStats{NullCount: 25, WidthSum: 300}
	if f := cs.NullFrac(100); f != 0.25 {
		t.Errorf("NullFrac = %v", f)
	}
	if f := cs.NullFrac(0); f != 0 {
		t.Errorf("NullFrac(0 rows) = %v", f)
	}
	// 75 non-null rows share 300 bytes -> 4 bytes/value.
	if w := cs.AvgWidth(100, 16); w != 4 {
		t.Errorf("AvgWidth = %v", w)
	}
	if w := (&ColumnStats{}).AvgWidth(100, 16); w != 16 {
		t.Errorf("AvgWidth default = %v", w)
	}
}

// A copy made of a snapshot by Merge owns its sketches: folding more values
// into the copy's registers leaves the stored sketch as it was.
func TestStatsCopyDoesNotAliasSketches(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	st := sliceStats([]int64{1, 2, 3})
	st.Cols = append(st.Cols, ColumnStats{}, ColumnStats{}) // 3 columns
	st.Cols[0], st.Cols[1] = st.Cols[1], st.Cols[0]         // product_id carries the sketch
	if err := c.ReplaceStats(def.ID, st); err != nil {
		t.Fatal(err)
	}
	got1, _ := c.Stats(def.ID)
	var cp TableStats
	cp.Merge(*got1)
	for v := int64(100); v < 5000; v++ {
		cp.Cols[1].Sketch.AddInt64(v) // scribble on the copy
	}
	got2, _ := c.Stats(def.ID)
	if est := got2.Cols[1].Sketch.Estimate(); est != 3 || got2.Cols[1].NDV != 3 {
		t.Errorf("stored sketch corrupted through copy: estimate %d, NDV %d", est, got2.Cols[1].NDV)
	}
}

func TestCatalogVersionBumpsOnDDL(t *testing.T) {
	c := New()
	v0 := c.Version()
	if v0 < 1 {
		t.Fatalf("initial version = %d, want >= 1", v0)
	}
	def := clickTable()
	if err := c.Create(def); err != nil {
		t.Fatal(err)
	}
	v1 := c.Version()
	if v1 <= v0 {
		t.Errorf("Create did not bump version: %d -> %d", v0, v1)
	}
	// A failed Create (duplicate) must not bump.
	c.Create(clickTable())
	if c.Version() != v1 {
		t.Errorf("failed Create bumped version to %d", c.Version())
	}
	if err := c.Drop("clicks"); err != nil {
		t.Fatal(err)
	}
	if c.Version() <= v1 {
		t.Errorf("Drop did not bump version: %d -> %d", v1, c.Version())
	}
}

func TestDataVersionLifecycle(t *testing.T) {
	c := New()
	if got := c.DataVersion(42); got != 0 {
		t.Errorf("unknown table data version = %d, want 0", got)
	}
	def := clickTable()
	if err := c.Create(def); err != nil {
		t.Fatal(err)
	}
	if got := c.DataVersion(def.ID); got != 1 {
		t.Errorf("fresh table data version = %d, want 1", got)
	}
	c.BumpDataVersion(def.ID)
	c.BumpDataVersion(def.ID)
	if got := c.DataVersion(def.ID); got != 3 {
		t.Errorf("after two bumps data version = %d, want 3", got)
	}
	// Bumping an unknown ID is a no-op, not a resurrection.
	c.BumpDataVersion(999)
	if got := c.DataVersion(999); got != 0 {
		t.Errorf("bump of unknown id materialized version %d", got)
	}
	if err := c.Drop("clicks"); err != nil {
		t.Fatal(err)
	}
	if got := c.DataVersion(def.ID); got != 0 {
		t.Errorf("dropped table data version = %d, want 0", got)
	}
}

func TestUnmarshalSeedsDataVersions(t *testing.T) {
	c := New()
	def := clickTable()
	if err := c.Create(def); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DataVersion(def.ID); got != 1 {
		t.Errorf("restored data version = %d, want 1", got)
	}
}
