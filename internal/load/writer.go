package load

import (
	"cmp"
	"context"
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
	def    *catalog.TableDef
	schema types.Schema // def's, built once for every slice's segment
	encs   []compress.Encoding
	cap    int
	xid    int64
	fetch  func(*storage.Block) error // pages in a folded run's block
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
// each slice's own when VACUUM rewrites the slices one by one (a slice that
// folds runs takes its own too, so that no folded row is clamped).
func NewSegmentWriter(c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	all []Columns, xid int64) (*SegmentWriter, error) {

	encs, err := cat.Encodings(def.ID)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{def: def, schema: def.Schema(), encs: encs, cap: c.Config().BlockCap, xid: xid, fetch: c.FetchBlock}
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

// Write builds the slice's new run from the rows of the runs it folds,
// decoded block by block, then its share of the write: chunks whose rows in
// chunk order are the share's rows in arrival order. It finds the local sort
// order once from the key columns, and then assembles, hashes, permutes and
// seals one column at a time, so that beside the chunks only a column or two
// is ever in flight. Only the share's rows are hashed into statistics, which
// Write returns: the run's are the folded runs' merged with them, in run
// order. A run that folds others takes an interleaved key's value ranges
// from its own rows. The segment is numbered by the writing xid: a writer
// registers at most one segment per table and slice and an xid is handed out
// once, so a BlockID never names two different contents.
func (w *SegmentWriter) Write(slice int, share []Chunk, folds []*storage.Segment) (*storage.Segment, catalog.TableStats, error) {
	start := time.Now()
	var chunks []Chunk
	if err := EachBlock(folds, w.fetch, func(cols Columns) { chunks = append(chunks, Chunk{Cols: cols}) }); err != nil {
		return nil, catalog.TableStats{}, err
	}
	folded := chunkRows(chunks)
	chunks = append(chunks, share...)
	rows := chunkRows(chunks)
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
	order := w.order(keys, len(folds) > 0)

	b, err := storage.NewBuilder(w.def.ID, int32(slice), int32(w.xid), w.schema, w.encs, w.cap)
	if err != nil {
		return nil, catalog.TableStats{}, err
	}
	sb := NewStatsBuilder(len(w.def.Columns))
	sb.stats.Rows = int64(rows - folded)
	var encodeNs time.Duration
	for c := range w.def.Columns {
		v := keys[c]
		if v == nil {
			v = column(c)
		}
		sb.foldColumn(c, v.Slice(folded, rows))
		if order != nil {
			v = v.Gather(order)
		}
		w.bytesIn.Add(v.ByteSize())
		t := time.Now()
		if err := b.Column(c, v); err != nil {
			return nil, catalog.TableStats{}, err
		}
		encodeNs += time.Since(t)
	}
	seg, err := b.Finish(true)
	if err != nil {
		return nil, catalog.TableStats{}, err
	}
	part := sb.Stats()
	if seg.Stats = part; len(folds) > 0 {
		// Sketches of the run's own: the folded runs' are installed, and
		// Merge writes only into its receiver's.
		seg.Stats = NewStatsBuilder(len(w.def.Columns)).stats
		for _, f := range folds {
			seg.Stats.Merge(f.Stats)
		}
		seg.Stats.Merge(part)
	}
	w.rows.Add(int64(seg.Rows))
	w.size.Add(seg.ByteSize())
	w.encodeNs.Add(int64(encodeNs))
	w.sortNs.Add(int64(time.Since(start) - encodeNs))
	return seg, part, nil
}

// write writes each slice's new run under xid (SegmentWriter.Write) and
// installs it in place of the runs it folds, replicated; all is as
// NewSegmentWriter's. Once ctx is done no further slice starts. Of the Stats
// it fills in Segments and BytesWritten; the phases are recorded under
// trace, from start on.
//
// The runs a share folds make a size-tiered merge capped at one block:
// walking back from the slice's newest live run, each run is folded that
// has fewer than a block's rows and at most twice the rows gathered so far
// (the share plus the runs already folded), up to the first that has not.
// So a slice holds at most log2 BlockCap runs smaller than a block, each
// more than twice the next, and a row is rewritten only while its run grows
// by half again, at most ⌈log1.5 BlockCap⌉ times. Without sources (all
// nil) it is VACUUM: every run of a slice is folded, unless the slice is one
// sorted run already. The runs are read at xid, under the table lock: every
// live one comes from a writer that has published, while a view's
// contiguous-prefix snapshot would miss a writer that published past one
// still unpublished on another table, and drop its rows unread.
//
// parts are the statistics of each slice's share (SegmentWriter.Write), and
// unsorted is the write's change to the table's UnsortedRows, kept what
// ANALYZE counts — the rows past each slice's first run, on the first
// node's slices only for DISTSTYLE ALL: a share is unsorted unless its new
// run becomes the slice's first, which then takes back what the runs it
// folds had counted.
func write(ctx context.Context, c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef, all []Columns,
	shares [][]Chunk, xid int64, trace *telemetry.Span, start time.Time, stats *Stats) (parts []catalog.TableStats, unsorted int64, err error) {

	w, err := NewSegmentWriter(c, cat, def, all, xid)
	if err != nil {
		return nil, 0, err
	}
	folds := make([][]*storage.Segment, c.NumSlices())
	for s := range folds {
		runs := c.VisibleSegments(s, def.ID, xid)
		i := len(runs)
		switch {
		case all == nil:
			if i > 1 || i == 1 && !runs[0].Sorted {
				i = 0
			}
		case len(shares[s]) > 0:
			n := chunkRows(shares[s])
			g := n // the rows gathered
			for ; i > 0 && runs[i-1].Rows < w.cap && runs[i-1].Rows <= 2*g; i-- {
				g += runs[i-1].Rows
			}
			switch {
			case def.DistStyle == catalog.DistAll && s > 0: // another node's copy
			case i > 0:
				unsorted += int64(n)
			case len(runs) > 0: // all folded: what was past the first run
				unsorted -= int64(g - n - runs[0].Rows)
			}
		}
		folds[s] = runs[i:]
	}
	segs := make([]*storage.Segment, len(folds))
	parts = make([]catalog.TableStats, len(folds))
	err = c.EachSlice(func(s int) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(folds[s]) > 0 || len(shares[s]) > 0 {
			segs[s], parts[s], err = w.Write(s, shares[s], folds[s])
		}
		return err
	})
	w.Record(trace, time.Since(start))
	if err != nil {
		return nil, 0, err
	}
	replicate := trace.StartChild("replicate")
	defer replicate.End()
	for s, seg := range segs {
		if seg == nil {
			continue
		}
		if err := c.Install(s, seg, folds[s], xid); err != nil {
			return nil, 0, err
		}
		stats.Segments++
		stats.BytesWritten += seg.ByteSize()
		replicate.Add("rows", int64(seg.Rows))
	}
	replicate.Add("bytes", stats.BytesWritten)
	return parts, unsorted, nil
}

// Vacuum rewrites each slice's runs of the table as one sorted run under
// xid — the fold Append makes of a slice's small runs, made of them all —
// and installs it in their place. Once ctx is done no further slice starts.
func Vacuum(ctx context.Context, c *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef,
	xid int64, trace *telemetry.Span) error {

	_, _, err := write(ctx, c, cat, def, nil, make([][]Chunk, c.NumSlices()), xid, trace, time.Now(), &Stats{})
	return err
}

// EachBlock hands fn the rows of segs a block at a time, in order: block bi
// of every column, decoded — fetch pages in a block that is not resident.
func EachBlock(segs []*storage.Segment, fetch func(*storage.Block) error, fn func(Columns)) error {
	for _, seg := range segs {
		for bi := 0; bi < seg.NumBlocks(); bi++ {
			cols := make(Columns, len(seg.Cols))
			for c := range cols {
				v, err := seg.Block(c, bi).Read(fetch)
				if err != nil {
					return err
				}
				cols[c] = v
			}
			fn(cols)
		}
	}
	return nil
}

// chunkRows counts the rows of chunks.
func chunkRows(chunks []Chunk) int {
	rows := 0
	for _, chunk := range chunks {
		if chunk.Sel == nil {
			rows += chunk.Cols.Rows()
		} else {
			rows += len(chunk.Sel)
		}
	}
	return rows
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
func (w *SegmentWriter) order(keys Columns, own bool) []int {
	if w.def.SortStyle == catalog.SortNone || len(w.def.SortKeyCols) == 0 {
		return nil
	}
	n := keys[w.def.SortKeyCols[0]].Len()
	var compare func(a, b int) int
	if w.curve != nil {
		// Each row's z-value is computed once, then sorted by.
		norms := w.norms
		if norms == nil || own {
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
