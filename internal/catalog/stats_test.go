package catalog

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"redshift/internal/hll"
	"redshift/internal/types"
)

// A snapshot a reader holds never changes: neither UpdateStats nor
// ReplaceStats writes to it, down to its sketches' registers, and the new
// snapshot reflects the merge.
func TestStatsSnapshotIsStable(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	load := func(lo, hi int64) TableStats {
		st := sliceStats(seq(lo, hi))
		st.Cols = append([]ColumnStats{{}}, append(st.Cols, ColumnStats{})...) // product_id carries the sketch
		return st
	}
	if err := c.UpdateStats(def.ID, load(0, 1000)); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Stats(def.ID)
	held := *s1
	held.Cols = append([]ColumnStats(nil), s1.Cols...)
	regs := *s1.Cols[1].Sketch

	if err := c.UpdateStats(def.ID, load(1000, 3000)); err != nil {
		t.Fatal(err)
	}
	s2, _ := c.Stats(def.ID)
	if s2.Rows != 3000 || s2.Cols[1].NDV < 2850 || s2.Cols[1].NDV > 3150 || s2.Cols[1].Max.I != 2999 {
		t.Errorf("after UpdateStats: rows %d, NDV %d, max %v; want 3000, ~3000, 2999", s2.Rows, s2.Cols[1].NDV, s2.Cols[1].Max)
	}
	next := *s2
	next.UnsortedRows = 0
	if err := c.ReplaceStats(def.ID, next); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceStats(def.ID, TableStats{Cols: make([]ColumnStats, 3)}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s1, held) || *s1.Cols[1].Sketch != regs {
		t.Errorf("a held snapshot changed: %+v, was %+v", *s1, held)
	}
	if s1.Rows != 1000 || s1.Cols[1].NDV < 950 || s1.Cols[1].NDV > 1050 {
		t.Errorf("held snapshot: rows %d, NDV %d; want 1000, ~1000", s1.Rows, s1.Cols[1].NDV)
	}
	if s3, _ := c.Stats(def.ID); s3.Rows != 0 || s3.Cols[1].Sketch != nil {
		t.Errorf("after ReplaceStats: %+v", *s3)
	}
}

// Reading statistics costs a lock and a map lookup, no copy.
func TestStatsAllocatesNothing(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	c.UpdateStats(def.ID, sliceStats(seq(0, 100)))
	if n := testing.AllocsPerRun(100, func() { c.Stats(def.ID) }); n != 0 {
		t.Errorf("Stats allocates %v times a call, want 0", n)
	}
}

// A backup round-trips every sketch, register for register, and writes it
// as the base64 string a []byte field was written as, so a backup from
// before sketches were kept as registers restores the same.
func TestMarshalRoundTripsSketches(t *testing.T) {
	c := New()
	def := clickTable()
	c.Create(def)
	st := sliceStats(seq(0, 5000))
	st.Cols = append(st.Cols, ColumnStats{}, ColumnStats{})
	c.UpdateStats(def.ID, st)
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var shape struct {
		Stats map[string]struct{ Cols []struct{ Sketch []byte } }
	}
	if err := json.Unmarshal(blob, &shape); err != nil {
		t.Fatal(err)
	}
	want, _ := c.Stats(def.ID)
	regs := shape.Stats[fmt.Sprint(def.ID)].Cols[0].Sketch
	if len(regs) != 4096 || *unmarshalSketch(t, base64.StdEncoding.AppendEncode(nil, regs)) != *want.Cols[0].Sketch {
		t.Errorf("backup holds %d sketch bytes, not the 4096 registers as a []byte", len(regs))
	}
	restored, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := restored.Stats(def.ID)
	if !reflect.DeepEqual(got, want) || got.Cols[1].Sketch != nil {
		t.Errorf("restored stats %+v, want %+v", *got, *want)
	}
}

func seq(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// oracleColumn is a column's statistics as the catalog kept them when every
// merge round-tripped the registers through their serialized form:
// unmarshal both sides, merge, marshal and estimate, once per merge.
type oracleColumn struct {
	ColumnStats
	text []byte // the marshalled registers; nil: no sketch
}

type oracleStats struct {
	rows, unsorted int64
	cols           []oracleColumn
}

func unmarshalSketch(t *testing.T, text []byte) *hll.Sketch {
	t.Helper()
	sk := hll.New()
	if err := sk.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	return sk
}

// merge is TableStats.Merge with the per-merge round trip.
func (s *oracleStats) merge(t *testing.T, o oracleStats) {
	s.rows += o.rows
	s.unsorted += o.unsorted
	if len(s.cols) == 0 {
		s.cols = append([]oracleColumn(nil), o.cols...)
		return
	}
	for i := range s.cols {
		d, oc := &s.cols[i], o.cols[i]
		d.NullCount += oc.NullCount
		d.WidthSum += oc.WidthSum
		if oc.Min.T != types.Invalid && (d.Min.T == types.Invalid || types.Compare(oc.Min, d.Min) < 0) {
			d.Min = oc.Min
		}
		if oc.Max.T != types.Invalid && (d.Max.T == types.Invalid || types.Compare(oc.Max, d.Max) > 0) {
			d.Max = oc.Max
		}
		switch {
		case oc.text != nil && d.text != nil:
			a, b := unmarshalSketch(t, d.text), unmarshalSketch(t, oc.text)
			a.Merge(b)
			d.text, _ = a.MarshalText()
			d.NDV = a.Estimate()
		case oc.text != nil && d.NDV == 0:
			d.text, d.NDV = oc.text, oc.NDV
		case oc.NDV > d.NDV:
			d.NDV = oc.NDV
		}
	}
}

// genColumn is one generated column of a delta: its registers (nil for a
// sketch-less column) and counters.
type genColumn struct {
	sketch *hll.Sketch
	ColumnStats
}

// genDelta draws a delta of ncols integer columns over rows values, each
// column disjoint from every other delta's, overlapping them, NULL-only, or,
// if sketchless, without a sketch (statistics written before sketches were
// kept).
func genDelta(rng *rand.Rand, ncols int, next *int64, sketchless bool) ([]genColumn, int64) {
	rows := rng.Intn(3) * rng.Intn(400) // a third of the deltas are empty
	cols := make([]genColumn, ncols)
	for i := range cols {
		c := &cols[i]
		switch kind := rng.Intn(5); {
		case kind == 0 && rows > 0 && sketchless: // sketch-less: an NDV with nothing behind it
			c.NDV = 1 + rng.Int63n(int64(rows))
			c.Min, c.Max = types.NewInt(rng.Int63n(100)), types.NewInt(100+rng.Int63n(100))
		case kind == 1: // NULL-only
			c.sketch = hll.New()
			c.NullCount = int64(rows)
		default: // values drawn from a fresh range or a shared one
			c.sketch = hll.New()
			base := int64(0)
			if kind == 2 {
				base, *next = *next, *next+int64(rows)
			}
			for r := 0; r < rows; r++ {
				v := base + int64(r)
				if kind != 2 {
					v = rng.Int63n(5000)
				}
				c.sketch.AddInt64(v)
				val := types.NewInt(v)
				if c.Min.T == types.Invalid || types.Compare(val, c.Min) < 0 {
					c.Min = val
				}
				if c.Max.T == types.Invalid || types.Compare(val, c.Max) > 0 {
					c.Max = val
				}
				c.WidthSum += 8
			}
		}
	}
	return cols, int64(rows)
}

// forCatalog is the delta as a load hands it over now: its own registers,
// and, as a StatsBuilder leaves it, no estimate behind a sketch (or, for a
// delta built elsewhere, the estimate).
func forCatalog(rng *rand.Rand, cols []genColumn, rows int64) TableStats {
	st := TableStats{Rows: rows, Cols: make([]ColumnStats, len(cols))}
	for i, c := range cols {
		st.Cols[i] = c.ColumnStats
		if c.sketch != nil {
			sk := *c.sketch
			st.Cols[i].Sketch = &sk
			if rng.Intn(2) == 0 {
				st.Cols[i].NDV = sk.Estimate()
			}
		}
	}
	return st
}

// forOracle is the delta as a load handed it over before: marshalled
// registers, and the estimate behind every sketch.
func forOracle(cols []genColumn, rows int64) oracleStats {
	st := oracleStats{rows: rows, cols: make([]oracleColumn, len(cols))}
	for i, c := range cols {
		st.cols[i].ColumnStats = c.ColumnStats
		if c.sketch != nil {
			st.cols[i].text, _ = c.sketch.MarshalText()
			st.cols[i].NDV = c.sketch.Estimate()
		}
	}
	return st
}

// Folding registers in place and estimating once where a snapshot is
// published gives every NDV, bound, count and register the per-merge round
// trip gave, over random sequences of loads (disjoint, overlapping, empty,
// sketch-less and NULL-only columns), ANALYZE-shaped replacements,
// VACUUM's republication and TRUNCATE.
func TestMergeMatchesRoundTripOracle(t *testing.T) {
	const ncols = 4
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		def := &TableDef{Name: "t", DistKeyCol: -1}
		for i := 0; i < ncols; i++ {
			def.Columns = append(def.Columns, ColumnDef{Name: fmt.Sprint("c", i), Type: types.Int64})
		}
		if err := c.Create(def); err != nil {
			t.Fatal(err)
		}
		oracle := oracleStats{cols: make([]oracleColumn, ncols)}
		next := int64(1 << 20)
		for step := 0; step < 30; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 6:
				op = "update"
				cols, rows := genDelta(rng, ncols, &next, true)
				unsorted := rows * int64(rng.Intn(2))
				delta := forCatalog(rng, cols, rows)
				delta.UnsortedRows = unsorted
				if err := c.UpdateStats(def.ID, delta); err != nil {
					t.Fatal(err)
				}
				o := forOracle(cols, rows)
				o.unsorted = unsorted
				oracle.merge(t, o)
			case r < 8:
				// ANALYZE's parts are StatsBuilders': every column has a
				// sketch. Merge is symmetric; the one rule that tells the
				// older side from the newer (statistics without a sketch
				// stay a lower bound) is UpdateStats', which the loads test.
				op = "analyze"
				parts := 1 + rng.Intn(4)
				stats := TableStats{Cols: make([]ColumnStats, ncols)}
				o := oracleStats{cols: make([]oracleColumn, ncols)}
				for p := 0; p < parts; p++ {
					cols, rows := genDelta(rng, ncols, &next, false)
					stats.Merge(forCatalog(rng, cols, rows))
					o.merge(t, forOracle(cols, rows))
				}
				if err := c.ReplaceStats(def.ID, stats); err != nil {
					t.Fatal(err)
				}
				oracle = o
			case r < 9:
				op = "vacuum"
				cur, _ := c.Stats(def.ID)
				vac := *cur
				vac.UnsortedRows = 0
				if err := c.ReplaceStats(def.ID, vac); err != nil {
					t.Fatal(err)
				}
				oracle.unsorted = 0
			default:
				op = "truncate"
				if err := c.ReplaceStats(def.ID, TableStats{Cols: make([]ColumnStats, ncols)}); err != nil {
					t.Fatal(err)
				}
				oracle = oracleStats{cols: make([]oracleColumn, ncols)}
			}
			got, _ := c.Stats(def.ID)
			if got.Rows != oracle.rows || got.UnsortedRows != oracle.unsorted {
				t.Fatalf("seed %d step %d (%s): rows %d unsorted %d, oracle %d %d", seed, step, op, got.Rows, got.UnsortedRows, oracle.rows, oracle.unsorted)
			}
			for i, g := range got.Cols {
				w := oracle.cols[i]
				var text []byte
				if g.Sketch != nil {
					text, _ = g.Sketch.MarshalText()
				}
				g.Sketch, w.Sketch = nil, nil
				if !reflect.DeepEqual(g, w.ColumnStats) || string(text) != string(w.text) {
					t.Fatalf("seed %d step %d (%s) column %d: %+v (sketch %v), oracle %+v (sketch %v)",
						seed, step, op, i, g, text != nil, w.ColumnStats, w.text != nil)
				}
			}
		}
	}
}

// BenchmarkUpdateStats publishes a trickle load's delta into a nine-column
// table's statistics: merge the current snapshot's registers into the
// delta's and estimate each column once.
func BenchmarkUpdateStats(b *testing.B) {
	const ncols = 9
	c := New()
	def := &TableDef{Name: "fact", DistKeyCol: -1}
	for i := 0; i < ncols; i++ {
		def.Columns = append(def.Columns, ColumnDef{Name: fmt.Sprint("c", i), Type: types.Int64})
	}
	if err := c.Create(def); err != nil {
		b.Fatal(err)
	}
	delta := func(lo int64) TableStats {
		st := TableStats{Rows: 50, Cols: make([]ColumnStats, ncols)}
		for i := range st.Cols {
			st.Cols[i] = sliceStats(seq(lo, lo+50)).Cols[0]
			st.Cols[i].NDV = 0
		}
		return st
	}
	c.UpdateStats(def.ID, delta(0))
	deltas := make([]TableStats, b.N)
	for i := range deltas {
		deltas[i] = delta(int64(i) * 50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateStats(def.ID, deltas[i]); err != nil {
			b.Fatal(err)
		}
	}
}
