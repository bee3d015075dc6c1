package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/hll"
	"redshift/internal/s3sim"
	"redshift/internal/storage"
	"redshift/internal/types"
	"redshift/internal/zorder"
)

// rowOracle is the write path as it stood before it moved column vectors:
// cluster.DistributeRows, load's chooseEncodings, sorter and ComputeStats,
// storage.Builder.Append, and core's vacuumSlice and ANALYZE loop, every
// value a boxed types.Value in a types.Row. It keeps what the table should
// hold — each slice's segments, the encodings, the statistics — for
// TestVectorWriterMatchesRowOracle to hold the vector writer to.
type rowOracle struct {
	cl    *cluster.Cluster // topology and key hashing only
	def   *catalog.TableDef
	cap   int
	rr    int // the EVEN round-robin cursor
	encs  []compress.Encoding
	stats catalog.TableStats
	segs  [][]*storage.Segment // [slice]
}

// distribute is cluster.DistributeRows.
func (o *rowOracle) distribute(rows []types.Row) [][]types.Row {
	out := make([][]types.Row, o.cl.NumSlices())
	switch o.def.DistStyle {
	case catalog.DistAll:
		for n := 0; n < o.cl.NumNodes(); n++ {
			s := n * o.cl.Config().SlicesPerNode
			out[s] = append(out[s], rows...)
		}
	case catalog.DistKey:
		for _, row := range rows {
			s := o.cl.TargetSliceKey(row[o.def.DistKeyCol])
			out[s] = append(out[s], row)
		}
	default: // EVEN
		for _, row := range rows {
			s := o.rr
			o.rr = (s + 1) % o.cl.NumSlices()
			out[s] = append(out[s], row)
		}
	}
	return out
}

// chooseEncodings is load's.
func (o *rowOracle) chooseEncodings(rows []types.Row) {
	const sampleMax = 4096
	for ci, col := range o.def.Columns {
		if !col.AutoEncoding {
			continue
		}
		vec := types.NewVector(col.Type, min(len(rows), sampleMax))
		for _, r := range rows {
			vec.Append(r[ci])
			if vec.Len() >= 4*sampleMax {
				break
			}
		}
		o.encs[ci] = compress.Choose(compress.Sample(vec, sampleMax))
	}
}

// oracleSorter is load's sorter.
type oracleSorter struct {
	less    func(a, b types.Row) bool
	curve   *zorder.Curve
	norms   []zorder.Normalizer
	keyCols []int
}

func newOracleSorter(def *catalog.TableDef, all []types.Row) *oracleSorter {
	switch def.SortStyle {
	case catalog.SortCompound:
		keys := def.SortKeyCols
		return &oracleSorter{less: func(a, b types.Row) bool {
			for _, k := range keys {
				c := types.Compare(a[k], b[k])
				if c != 0 {
					return c < 0
				}
			}
			return false
		}}
	case catalog.SortInterleaved:
		curve, err := zorder.NewCurve(len(def.SortKeyCols))
		if err != nil {
			panic(err)
		}
		norms := make([]zorder.Normalizer, len(def.SortKeyCols))
		for d, k := range def.SortKeyCols {
			lo, hi := oracleColumnBounds(all, k)
			norms[d] = zorder.NewNormalizer(def.Columns[k].Type, lo, hi)
		}
		return &oracleSorter{curve: &curve, norms: norms, keyCols: def.SortKeyCols}
	}
	return &oracleSorter{}
}

func (s *oracleSorter) sort(rows []types.Row) {
	switch {
	case s.curve != nil:
		keys := make([]uint64, len(rows))
		vals := make([]types.Value, len(s.keyCols))
		for i, r := range rows {
			for d, k := range s.keyCols {
				vals[d] = r[k]
			}
			keys[i] = s.curve.Key(s.norms, vals)
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		out := make([]types.Row, len(rows))
		for i, j := range idx {
			out[i] = rows[j]
		}
		copy(rows, out)
	case s.less != nil:
		sort.SliceStable(rows, func(i, j int) bool { return s.less(rows[i], rows[j]) })
	}
}

func oracleColumnBounds(rows []types.Row, col int) (lo, hi types.Value) {
	for _, r := range rows {
		v := r[col]
		if v.Null {
			continue
		}
		if lo.T == types.Invalid || types.Compare(v, lo) < 0 {
			lo = v
		}
		if hi.T == types.Invalid || types.Compare(v, hi) > 0 {
			hi = v
		}
	}
	if lo.T == types.Invalid {
		lo, hi = types.NewInt(0), types.NewInt(0)
	}
	return lo, hi
}

// write is load's SegmentWriter.Write over storage.Builder's Append, flush
// and Finish: rows appended one at a time to a pending vector per column,
// sealed every cap rows.
func (o *rowOracle) write(slice int, xid int64, sorter *oracleSorter, rows []types.Row) (*storage.Segment, error) {
	sorter.sort(rows)
	schema := o.def.Schema()
	seg := &storage.Segment{
		Table: o.def.ID, Slice: int32(slice), Seq: int32(xid), Cap: o.cap,
		Schema: schema, Cols: make([][]*storage.Block, schema.Len()),
	}
	pending := make([]*types.Vector, schema.Len())
	reset := func() {
		for i, col := range schema.Columns {
			pending[i] = types.NewVector(col.Type, o.cap)
		}
	}
	reset()
	blockIdx := int32(0)
	flush := func() error {
		if pending[0].Len() == 0 {
			return nil
		}
		for c := range pending {
			id := storage.BlockID{Table: seg.Table, Slice: seg.Slice, Segment: seg.Seq, Column: int32(c), Index: blockIdx}
			blk, err := storage.Seal(id, pending[c], o.encs[c])
			if err != nil {
				return err
			}
			seg.Cols[c] = append(seg.Cols[c], blk)
		}
		blockIdx++
		reset()
		return nil
	}
	for _, r := range rows {
		for i, col := range o.def.Columns {
			if col.NotNull && r[i].Null {
				return nil, fmt.Errorf("load: null value in NOT NULL column %s", col.Name)
			}
		}
		for i, v := range r {
			pending[i].Append(v)
		}
		seg.Rows++
		if pending[0].Len() == seg.Cap {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	seg.Sorted = true
	return seg, nil
}

// computeStats is load's ComputeStats.
func oracleComputeStats(def *catalog.TableDef, rows []types.Row) catalog.TableStats {
	stats := catalog.TableStats{Rows: int64(len(rows)), Cols: make([]catalog.ColumnStats, len(def.Columns))}
	sketches := make([]*hll.Sketch, len(def.Columns))
	for i := range sketches {
		sketches[i] = hll.New()
	}
	for _, r := range rows {
		for ci, v := range r {
			cs := &stats.Cols[ci]
			if v.Null {
				cs.NullCount++
				continue
			}
			if cs.Min.T == types.Invalid || types.Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.T == types.Invalid || types.Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
			switch v.T {
			case types.String:
				cs.WidthSum += int64(len(v.S))
				sketches[ci].AddString(v.S)
			case types.Float64:
				cs.WidthSum += 8
				sketches[ci].AddInt64(int64(v.F*1e6) ^ v.I)
			default:
				cs.WidthSum += 8
				sketches[ci].AddInt64(v.I)
			}
		}
	}
	for ci := range stats.Cols {
		stats.Cols[ci].NDV = sketches[ci].Estimate()
		stats.Cols[ci].Sketch = sketches[ci].Marshal()
	}
	return stats
}

// appendRows is load's AppendRows: the write path of COPY and INSERT.
func (o *rowOracle) appendRows(rows []types.Row, xid int64) error {
	tableEmpty := o.stats.Rows == 0
	if tableEmpty {
		o.chooseEncodings(rows)
	}
	parts := o.distribute(rows)
	sorter := newOracleSorter(o.def, rows)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		seg, err := o.write(s, xid, sorter, part)
		if err != nil {
			return err
		}
		o.segs[s] = append(o.segs[s], seg)
	}
	delta := oracleComputeStats(o.def, rows)
	if !tableEmpty {
		delta.UnsortedRows = int64(len(rows))
	}
	o.stats.Merge(delta)
	return nil
}

// vacuum is core's vacuumTable over vacuumSlice.
func (o *rowOracle) vacuum(t *testing.T, xid int64) {
	for sl, segs := range o.segs {
		if len(segs) <= 1 && (len(segs) == 0 || segs[0].Sorted) {
			continue
		}
		var rows []types.Row
		for _, seg := range segs {
			segRows, err := seg.ReadRows(nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, segRows...)
		}
		seg, err := o.write(sl, xid, newOracleSorter(o.def, rows), rows)
		if err != nil {
			t.Fatal(err)
		}
		o.segs[sl] = []*storage.Segment{seg}
	}
	o.stats.UnsortedRows = 0
}

// analyze is core's runAnalyze loop.
func (o *rowOracle) analyze(t *testing.T) {
	slices := o.cl.NumSlices()
	if o.def.DistStyle == catalog.DistAll {
		slices = o.cl.Config().SlicesPerNode
	}
	stats := catalog.TableStats{Cols: make([]catalog.ColumnStats, len(o.def.Columns))}
	for _, segs := range o.segs[:slices] {
		for si, seg := range segs {
			segRows, err := seg.ReadRows(nil)
			if err != nil {
				t.Fatal(err)
			}
			delta := oracleComputeStats(o.def, segRows)
			if si > 0 || !seg.Sorted {
				delta.UnsortedRows = int64(seg.Rows)
			}
			stats.Merge(delta)
		}
	}
	o.stats = stats
}

// check holds the database's table to the oracle's: every segment block for
// block, the encodings and the statistics, and nothing left held.
func (o *rowOracle) check(t *testing.T, db *Database, step string) {
	t.Helper()
	for sl := range o.segs {
		got := db.cl.VisibleSegments(sl, o.def.ID, db.txm.CurrentXid())
		if len(got) != len(o.segs[sl]) {
			t.Fatalf("%s: slice %d holds %d segments, oracle %d", step, sl, len(got), len(o.segs[sl]))
		}
		for si, want := range o.segs[sl] {
			g := got[si]
			if g.Table != want.Table || g.Slice != want.Slice || g.Seq != want.Seq || g.Rows != want.Rows ||
				g.Cap != want.Cap || g.Sorted != want.Sorted || len(g.Cols) != len(want.Cols) {
				t.Fatalf("%s: slice %d segment %d is %+v, oracle %+v", step, sl, si, *g, *want)
			}
			for c := range want.Cols {
				if len(g.Cols[c]) != len(want.Cols[c]) {
					t.Fatalf("%s: slice %d segment %d column %d has %d blocks, oracle %d", step, sl, si, c, len(g.Cols[c]), len(want.Cols[c]))
				}
				for bi, wb := range want.Cols[c] {
					gb := g.Cols[c][bi]
					if gb.ID != wb.ID || gb.Rows != wb.Rows || gb.Zone != wb.Zone || gb.Hash != wb.Hash || !bytes.Equal(gb.Payload(), wb.Payload()) {
						t.Fatalf("%s: block %s differs: rows %d/%d zone %+v/%+v encoding %s/%s", step, wb.ID, gb.Rows, wb.Rows, gb.Zone, wb.Zone, gb.Encoding(), wb.Encoding())
					}
				}
			}
		}
	}
	encs, err := db.cat.Encodings(o.def.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(encs, o.encs) {
		t.Fatalf("%s: encodings %v, oracle %v", step, encs, o.encs)
	}
	stats, err := db.cat.Stats(o.def.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != o.stats.Rows || stats.UnsortedRows != o.stats.UnsortedRows {
		t.Fatalf("%s: stats rows %d unsorted %d, oracle rows %d unsorted %d", step, stats.Rows, stats.UnsortedRows, o.stats.Rows, o.stats.UnsortedRows)
	}
	for c := range o.stats.Cols {
		if g, w := stats.Cols[c], o.stats.Cols[c]; !reflect.DeepEqual(g, w) {
			g.Sketch, w.Sketch = nil, nil
			t.Fatalf("%s: column %s stats %+v, oracle %+v (sketches equal: %v)", step, o.def.Columns[c].Name, g, w,
				bytes.Equal(stats.Cols[c].Sketch, o.stats.Cols[c].Sketch))
		}
	}
	if err := db.Quiescent(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// oracleCase is one generated table of the differential test.
type oracleCase struct {
	dist, sortKey, format, nulls, order string
	objects, rows                       int
}

func (c oracleCase) String() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s/%d", c.dist, c.sortKey, c.format, c.nulls, c.order, c.objects)
}

// genRows generates n rows of the test table (k, d, g, f, s, b, n): k is
// unique, so the stable order of rows with equal sort keys (d, g) shows.
func (c oracleCase) genRows(rng *rand.Rand, n, firstKey int, stringNulls bool) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		at := i
		switch c.order {
		case "reversed":
			at = n - 1 - i
		case "duplicates":
			at = rng.Intn(3) * 100
		}
		row := types.Row{
			types.NewInt(int64(firstKey + i)),
			types.NewDate(int64(16436 + at/4)),
			types.NewInt(int64(at % 4 / 2)),
			types.NewFloat(float64(rng.Intn(400)) * 0.25),
			types.NewString(fmt.Sprintf("s%d", rng.Intn(20))),
			types.NewBool(rng.Intn(2) == 0),
			types.NewInt(int64(rng.Intn(1 << 20))),
		}
		if c.nulls != "none" {
			for ci := 1; ci < len(row); ci++ {
				if rng.Intn(10) == 0 && (ci != 4 || stringNulls) {
					row[ci] = types.NewNull(row[ci].T)
				}
			}
		}
		if c.nulls == "column" {
			row[6] = types.NewNull(types.Int64)
		}
		rows[i] = row
	}
	return rows
}

// render writes rows as the case's COPY source objects, dealt round-robin,
// and returns them in the order COPY reads them: object by object.
func (c oracleCase) render(t *testing.T, store *s3sim.Store, prefix string, rows []types.Row) []types.Row {
	bufs := make([]bytes.Buffer, c.objects)
	inOrder := make([][]types.Row, c.objects)
	names := []string{"k", "d", "g", "f", "s", "b", "n"}
	for i, row := range rows {
		buf := &bufs[i%c.objects]
		inOrder[i%c.objects] = append(inOrder[i%c.objects], row)
		for ci, v := range row {
			text := v.String()
			if v.T == types.Float64 && !v.Null {
				text = strconv.FormatFloat(v.F, 'g', -1, 64)
			}
			if c.format == "json" {
				switch {
				case v.Null:
					text = "null"
				case v.T == types.String || v.T == types.Date:
					text = strconv.Quote(text)
				}
				fmt.Fprintf(buf, "%s%q: %s", map[bool]string{true: "{", false: ", "}[ci == 0], names[ci], text)
				continue
			}
			if v.Null {
				text = ""
			}
			if ci > 0 {
				buf.WriteByte('|')
			}
			buf.WriteString(text)
		}
		if c.format == "json" {
			buf.WriteByte('}')
		}
		buf.WriteByte('\n')
	}
	var out []types.Row
	for i := range bufs {
		data := bufs[i].Bytes()
		if c.format == "gzip" {
			var z bytes.Buffer
			w := gzip.NewWriter(&z)
			w.Write(data)
			w.Close()
			data = z.Bytes()
		}
		if err := store.Put(fmt.Sprintf("%spart%02d", prefix, i), data); err != nil {
			t.Fatal(err)
		}
		out = append(out, inOrder[i]...)
	}
	return out
}

// insertSQL renders rows as one INSERT … VALUES statement.
func insertSQL(rows []types.Row) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		for ci, v := range row {
			text := v.String()
			switch {
			case v.Null:
			case v.T == types.String || v.T == types.Date:
				text = "'" + text + "'"
			case v.T == types.Float64:
				text = strconv.FormatFloat(v.F, 'f', 2, 64)
			}
			b.WriteString(map[bool]string{true: "(", false: ", "}[ci == 0] + text)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// TestVectorWriterMatchesRowOracle drives COPY, two INSERTs, VACUUM, a third
// INSERT and ANALYZE over generated tables — every distribution style, sort
// key style, source format, NULL pattern, input order and object count — and
// after each statement holds the table's segments (payload bytes, zone maps,
// hashes, row counts, Sorted), encodings and statistics (HLL sketch bytes
// and UnsortedRows included) to the row-at-a-time writer's.
func TestVectorWriterMatchesRowOracle(t *testing.T) {
	var cases []oracleCase
	for _, dist := range []string{"KEY", "EVEN", "ALL"} {
		for _, sortKey := range []string{"", "COMPOUND", "INTERLEAVED"} {
			for _, format := range []string{"csv", "json", "gzip"} {
				for _, nulls := range []string{"none", "sparse", "column"} {
					for _, order := range []string{"sorted", "reversed", "duplicates"} {
						for _, objects := range []int{1, 8} {
							// The race detector's subject is the slices working at
							// once, on shared chunks under DISTSTYLE ALL: the
							// eight-object tables of one data shape show it all.
							if raceEnabled && (objects == 1 || nulls != "sparse" || order != "duplicates") {
								continue
							}
							cases = append(cases, oracleCase{dist, sortKey, format, nulls, order, objects, 300})
						}
					}
				}
			}
		}
	}
	// More rows than the compression analyzer samples, in objects of unequal
	// size: the sample is the head of the first objects.
	if !raceEnabled {
		cases = append(cases, oracleCase{"KEY", "COMPOUND", "csv", "sparse", "reversed", 3, 5*4096 + 7})
	}
	for i, c := range cases {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			c.run(t, int64(i))
		})
	}
}

func (c oracleCase) run(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db, err := Open(Config{Cluster: cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16}, DataStore: s3sim.New()})
	if err != nil {
		t.Fatal(err)
	}
	ddl := `CREATE TABLE t (k BIGINT NOT NULL, d DATE, g BIGINT, f DOUBLE PRECISION, s VARCHAR(16), b BOOLEAN, n BIGINT) DISTSTYLE ` + c.dist
	if c.dist == "KEY" {
		ddl += " DISTKEY(k)"
	}
	if c.sortKey != "" {
		ddl += " " + c.sortKey + " SORTKEY(d, g)"
	}
	mustExec(t, db, ddl)
	def, err := db.cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	o := &rowOracle{cl: db.cl, def: def, cap: 16, segs: make([][]*storage.Segment, db.cl.NumSlices())}
	if o.encs, err = db.cat.Encodings(def.ID); err != nil {
		t.Fatal(err)
	}
	if o.stats, err = db.cat.Stats(def.ID); err != nil {
		t.Fatal(err)
	}
	o.check(t, db, "CREATE")

	// Delimited text cannot say NULL for a VARCHAR; JSON and VALUES can.
	rows := c.render(t, db.cfg.DataStore, "lake/t/", c.genRows(rng, c.rows, 0, c.format == "json"))
	copySQL := `COPY t FROM 's3://lake/t/'`
	switch c.format {
	case "json":
		copySQL += " FORMAT JSON"
	case "gzip":
		copySQL += " GZIP"
	}
	mustExec(t, db, copySQL)
	if err := o.appendRows(rows, db.txm.CurrentXid()); err != nil {
		t.Fatal(err)
	}
	o.check(t, db, "COPY")

	for i, n := range []int{50, 1} {
		rows = c.genRows(rng, n, 1_000_000*(i+1), true)
		mustExec(t, db, insertSQL(rows))
		if err := o.appendRows(rows, db.txm.CurrentXid()); err != nil {
			t.Fatal(err)
		}
		o.check(t, db, fmt.Sprintf("INSERT %d", n))
	}

	mustExec(t, db, "ANALYZE t")
	o.analyze(t)
	o.check(t, db, "ANALYZE of three runs")

	mustExec(t, db, "VACUUM t")
	o.vacuum(t, db.txm.CurrentXid())
	o.check(t, db, "VACUUM")

	rows = c.genRows(rng, 20, 3_000_000, true)
	mustExec(t, db, insertSQL(rows))
	if err := o.appendRows(rows, db.txm.CurrentXid()); err != nil {
		t.Fatal(err)
	}
	o.check(t, db, "INSERT after VACUUM")

	mustExec(t, db, "ANALYZE t")
	o.analyze(t)
	o.check(t, db, "ANALYZE")
	mustExec(t, db, "VACUUM t")
	o.vacuum(t, db.txm.CurrentXid())
	o.check(t, db, "second VACUUM")
}
