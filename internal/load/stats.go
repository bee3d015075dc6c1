package load

import (
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/hll"
	"redshift/internal/types"
)

// StatsBuilder folds runs of rows, column vector by column vector, into
// table statistics — shared by the statistics a load updates and ANALYZE.
// The per-column HLL sketches are serialized into the stats so later Merges
// union them losslessly instead of falling back to max-NDV lower bounds, and
// per-column width sums feed the cost model's row-width estimates.
type StatsBuilder struct {
	rows     int64
	cols     []catalog.ColumnStats
	sketches []*hll.Sketch
}

// NewStatsBuilder starts the statistics of a table of ncols columns.
func NewStatsBuilder(ncols int) *StatsBuilder {
	s := &StatsBuilder{cols: make([]catalog.ColumnStats, ncols), sketches: make([]*hll.Sketch, ncols)}
	for i := range s.sketches {
		s.sketches[i] = hll.New()
	}
	return s
}

// Fold adds a run of rows.
func (s *StatsBuilder) Fold(cols Columns) {
	s.rows += int64(cols.Rows())
	for c, v := range cols {
		cs, sketch := &s.cols[c], s.sketches[c]
		nulls := int64(v.NullCount())
		cs.NullCount += nulls
		if v.T != types.String {
			cs.WidthSum += 8 * (int64(v.Len()) - nulls)
		}
		widen(&cs.Min, &cs.Max, v)
		switch v.T {
		case types.String:
			each(v.Strs, v.Nulls, func(x string) {
				cs.WidthSum += int64(len(x))
				sketch.AddString(x)
			})
		case types.Float64:
			each(v.Floats, v.Nulls, func(x float64) { sketch.AddInt64(int64(x * 1e6)) })
		default:
			each(v.Ints, v.Nulls, sketch.AddInt64)
		}
	}
}

// each visits the non-null values.
func each[T any](vals []T, nulls []bool, visit func(T)) {
	for i, x := range vals {
		if nulls == nil || !nulls[i] {
			visit(x)
		}
	}
}

// Stats returns the statistics of the rows folded so far. String bounds are
// copied out of whatever text or block they were read from.
func (s *StatsBuilder) Stats() catalog.TableStats {
	stats := catalog.TableStats{Rows: s.rows, Cols: make([]catalog.ColumnStats, len(s.cols))}
	for c, cs := range s.cols {
		cs.Min.S, cs.Max.S = strings.Clone(cs.Min.S), strings.Clone(cs.Max.S)
		cs.NDV = s.sketches[c].Estimate()
		cs.Sketch = s.sketches[c].Marshal()
		stats.Cols[c] = cs
	}
	return stats
}
