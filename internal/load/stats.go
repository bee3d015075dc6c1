package load

import (
	"math"
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/hll"
	"redshift/internal/types"
)

// StatsBuilder folds runs of rows, column vector by column vector, into
// table statistics: those of a write's share of a slice, which become its
// new run's and the write's delta.
// Each column carries its HLL sketch, so later Merges union registers
// losslessly instead of falling back to max-NDV lower bounds; the NDV is
// estimated where the catalog publishes the result. Per-column width sums
// feed the cost model's row-width estimates.
type StatsBuilder struct{ stats catalog.TableStats }

// NewStatsBuilder starts the statistics of a table of ncols columns, with
// an empty sketch of its own per column: those Merge unions into.
func NewStatsBuilder(ncols int) *StatsBuilder {
	s := &StatsBuilder{catalog.TableStats{Cols: make([]catalog.ColumnStats, ncols)}}
	sketches := make([]hll.Sketch, ncols) // one allocation for all
	for i := range s.stats.Cols {
		s.stats.Cols[i].Sketch = &sketches[i]
	}
	return s
}

// Fold adds a run of rows.
func (s *StatsBuilder) Fold(cols Columns) {
	s.stats.Rows += int64(cols.Rows())
	for c, v := range cols {
		s.foldColumn(c, v)
	}
}

// foldColumn adds the values of column c of a run of rows; the rows are
// the caller's to count.
func (s *StatsBuilder) foldColumn(c int, v *types.Vector) {
	cs := &s.stats.Cols[c]
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
			cs.Sketch.AddString(x)
		})
	case types.Float64:
		each(v.Floats, v.Nulls, func(x float64) { cs.Sketch.AddInt64(floatKey(x)) })
	default:
		each(v.Ints, v.Nulls, cs.Sketch.AddInt64)
	}
}

// floatKey is the value a DOUBLE's distinct count hashes: the value in
// millionths, or its bits where that is out of int64's range (|x| ≥ ~9.2e12,
// ±Inf, NaN), which would otherwise all convert to one integer.
func floatKey(x float64) int64 {
	if y := x * 1e6; -1<<63 <= y && y < 1<<63 {
		return int64(y)
	}
	return int64(math.Float64bits(x))
}

// each visits the non-null values.
func each[T any](vals []T, nulls []bool, visit func(T)) {
	for i, x := range vals {
		if nulls == nil || !nulls[i] {
			visit(x)
		}
	}
}

// Stats hands over the statistics of the rows folded so far, sketches
// included; the builder takes no more rows. String bounds are copied out of
// whatever text or block they were read from.
func (s *StatsBuilder) Stats() catalog.TableStats {
	for c := range s.stats.Cols {
		cs := &s.stats.Cols[c]
		cs.Min.S, cs.Max.S = strings.Clone(cs.Min.S), strings.Clone(cs.Max.S)
	}
	return s.stats
}
