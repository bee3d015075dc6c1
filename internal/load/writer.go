package load

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/types"
	"redshift/internal/zorder"
)

// SegmentWriter turns each slice's share of one write into that slice's
// new segment: the only place segments are built, for loads and VACUUM. One
// writer serves every slice of the write, concurrently.
type SegmentWriter struct {
	def  *catalog.TableDef
	encs []compress.Encoding
	cap  int
	xid  int64
	// Interleaved sort key: the z-curve, and the value ranges its
	// coordinates are scaled to — nil to take them from each slice's rows.
	curve *zorder.Curve
	norms []zorder.Normalizer

	// What the slices spent and moved, summed: Record reports it.
	sortNs, encodeNs    atomic.Int64
	rows, bytesIn, size atomic.Int64
}

// NewSegmentWriter prepares the write committing under xid. all is where an
// interleaved sort key's value ranges come from: the load's rows, or nil for
// each slice's own when VACUUM rewrites the slices one by one.
func NewSegmentWriter(c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	all []Columns, xid int64) (*SegmentWriter, error) {

	encs, err := cat.Encodings(def.ID)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{def: def, encs: encs, cap: c.Config().BlockCap, xid: xid}
	switch def.SortStyle {
	case catalog.SortNone, catalog.SortCompound:
	case catalog.SortInterleaved:
		curve, err := zorder.NewCurve(len(def.SortKeyCols))
		if err != nil {
			return nil, err
		}
		w.curve = &curve
		if all != nil {
			w.norms = keyRanges(def, all)
		}
	default:
		return nil, fmt.Errorf("load: unknown sort style %v", def.SortStyle)
	}
	return w, nil
}

// Write builds the slice's segment from its chunks, whose rows in chunk
// order are the slice's rows in arrival order: it finds the local sort order
// once from the key columns, and then assembles, permutes and seals one
// column at a time, so that beside the chunks only a column or two is ever
// in flight. The segment is numbered by the writing xid: a writer registers
// at most one segment per table and slice and an xid is handed out once, so
// a BlockID never names two different contents.
func (w *SegmentWriter) Write(slice int, chunks []Chunk) (*storage.Segment, error) {
	start := time.Now()
	rows := 0
	for _, chunk := range chunks {
		if chunk.Sel == nil {
			rows += chunk.Cols.Rows()
		} else {
			rows += len(chunk.Sel)
		}
	}
	column := func(c int) *types.Vector {
		if len(chunks) == 1 && chunks[0].Sel == nil {
			return chunks[0].Cols[c]
		}
		v := types.NewVector(w.def.Columns[c].Type, rows)
		for _, chunk := range chunks {
			if chunk.Sel == nil {
				v.AppendRange(chunk.Cols[c], 0, chunk.Cols[c].Len())
			} else {
				v.AppendSel(chunk.Cols[c], chunk.Sel)
			}
		}
		return v
	}
	keys := make(Columns, len(w.def.Columns)) // the sort-key columns, by ordinal
	if w.def.SortStyle != catalog.SortNone {
		for _, k := range w.def.SortKeyCols {
			keys[k] = column(k)
		}
	}
	order := w.order(keys)

	b, err := storage.NewBuilder(w.def.ID, int32(slice), int32(w.xid), w.def.Schema(), w.encs, w.cap)
	if err != nil {
		return nil, err
	}
	var encodeNs time.Duration
	for c := range w.def.Columns {
		v := keys[c]
		if v == nil {
			v = column(c)
		}
		if order != nil {
			v = v.Gather(order)
		}
		w.bytesIn.Add(v.ByteSize())
		t := time.Now()
		if err := b.Column(c, v); err != nil {
			return nil, err
		}
		encodeNs += time.Since(t)
	}
	seg, err := b.Finish(true)
	if err != nil {
		return nil, err
	}
	w.rows.Add(int64(seg.Rows))
	w.size.Add(seg.ByteSize())
	w.encodeNs.Add(int64(encodeNs))
	w.sortNs.Add(int64(time.Since(start) - encodeNs))
	return seg, nil
}

// Record reports the slices' work as two child spans of trace. Sorting and
// encoding alternate column by column inside every slice's goroutine, so
// wall — how long the caller waited for the slices — is split between the
// two in proportion to the time the slices spent in each.
func (w *SegmentWriter) Record(trace *telemetry.Span, wall time.Duration) {
	sortNs, encodeNs := w.sortNs.Load(), w.encodeNs.Load()
	sortWall := wall
	if busy := sortNs + encodeNs; busy > 0 {
		sortWall = time.Duration(float64(wall) * float64(sortNs) / float64(busy))
	}
	sort := trace.StartChild("distribute+sort")
	sort.SetDuration(sortWall)
	sort.Add("rows", w.rows.Load())
	sort.Add("bytes", w.bytesIn.Load())
	encode := trace.StartChild("encode")
	encode.SetDuration(wall - sortWall)
	encode.Add("rows", w.rows.Load())
	encode.Add("bytes", w.size.Load())
}

// order returns the stable permutation that puts a slice's rows in
// sort-key order, given its key columns (by ordinal): nil when the rows are
// in order as they stand, or the table has no sort key.
func (w *SegmentWriter) order(keys Columns) []int {
	if w.def.SortStyle == catalog.SortNone || len(w.def.SortKeyCols) == 0 {
		return nil
	}
	n := keys[w.def.SortKeyCols[0]].Len()
	var compare func(a, b int) int
	if w.curve != nil {
		// Each row's z-value is computed once, then sorted by.
		norms := w.norms
		if norms == nil {
			norms = keyRanges(w.def, []Columns{keys})
		}
		z := make([]uint64, n)
		coords := make([]uint64, len(norms))
		for i := range z {
			for d, k := range w.def.SortKeyCols {
				coords[d] = norms[d].Rank(keys[k].Get(i), w.curve.Bits())
			}
			z[i] = w.curve.Encode(coords)
		}
		compare = func(a, b int) int { return cmp.Compare(z[a], z[b]) }
	} else {
		for _, k := range w.def.SortKeyCols {
			byKey, prior := comparator(keys[k]), compare
			compare = byKey
			if prior != nil {
				compare = func(a, b int) int {
					if r := prior(a, b); r != 0 {
						return r
					}
					return byKey(a, b)
				}
			}
		}
	}
	ordered := true
	for i := 1; i < n && ordered; i++ {
		ordered = compare(i-1, i) <= 0
	}
	if ordered {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, compare)
	return order
}

// comparator orders two positions of v the way types.Compare orders their
// values, NULLs first — but a NaN, which Compare calls equal to everything,
// sorts before every other number here, so that the order is one.
func comparator(v *types.Vector) func(a, b int) int {
	switch v.T {
	case types.Float64:
		return compareAt(v.Floats, v.Nulls)
	case types.String:
		return compareAt(v.Strs, v.Nulls)
	default:
		return compareAt(v.Ints, v.Nulls)
	}
}

func compareAt[T cmp.Ordered](vals []T, nulls []bool) func(a, b int) int {
	return func(a, b int) int {
		if nulls != nil && (nulls[a] || nulls[b]) {
			switch {
			case nulls[a] && nulls[b]:
				return 0
			case nulls[a]:
				return -1
			}
			return 1
		}
		return cmp.Compare(vals[a], vals[b])
	}
}

// keyRanges finds, for each column of an interleaved sort key, the range of
// its values across all: what its z-curve coordinates are scaled to.
func keyRanges(def *catalog.TableDef, all []Columns) []zorder.Normalizer {
	norms := make([]zorder.Normalizer, len(def.SortKeyCols))
	for d, k := range def.SortKeyCols {
		var lo, hi types.Value
		for _, cols := range all {
			widen(&lo, &hi, cols[k])
		}
		norms[d] = zorder.NewNormalizer(def.Columns[k].Type, lo, hi)
	}
	return norms
}

// widen stretches [*lo, *hi] — unset while its type is Invalid — over v's
// non-null values. Of equal values the first seen stays.
func widen(lo, hi *types.Value, v *types.Vector) {
	min, max, ok := v.MinMax()
	if !ok {
		return
	}
	if lo.T == types.Invalid || types.Compare(min, *lo) < 0 {
		*lo = min
	}
	if hi.T == types.Invalid || types.Compare(max, *hi) > 0 {
		*hi = max
	}
}
