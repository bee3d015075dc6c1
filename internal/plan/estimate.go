package plan

import (
	"math"

	"redshift/internal/catalog"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// Selectivity and width defaults — the textbook System-R constants, used
// whenever statistics cannot answer precisely.
const (
	// defaultSel prices a predicate the estimator cannot model.
	defaultSel = 1.0 / 3
	// likeSel prices a LIKE pattern match.
	likeSel = 0.1
	// minSel keeps conjunction products from rounding row counts to zero
	// (the "sanity clamp": estimates stay positive however many conjuncts
	// stack up).
	minSel = 1e-7
	// eqSelUnknownNDV prices an equality when the column's NDV is unknown.
	eqSelUnknownNDV = 0.005
	// fixedColBytes / stringColBytes are fallback per-value widths when a
	// column has no recorded width statistics.
	fixedColBytes  = 8.0
	stringColBytes = 16.0
	// hashEntryBytes approximates the hash-table bookkeeping per build row
	// (slots, stored hash, key copy, chain links — what exec.HashJoin
	// charges as tableBytes — with headroom for slice growth) on top of
	// payload bytes when sizing join builds.
	hashEntryBytes = 72.0
)

// colResolver maps a Col index (in whatever layout the expression is bound
// over) to its column statistics and the owning table's row count. Either
// return may be nil/-1 when unknown.
type colResolver func(idx int) (*catalog.ColumnStats, int64)

// scanResolver resolves table-local column indexes against one scan.
func scanResolver(scan *TableScan) colResolver {
	return func(idx int) (*catalog.ColumnStats, int64) {
		if scan.Stats == nil || idx < 0 || idx >= len(scan.Stats.Cols) {
			return nil, -1
		}
		return &scan.Stats.Cols[idx], scan.Stats.Rows
	}
}

// layoutResolver resolves joined-layout column indexes across the plan's
// tables.
func layoutResolver(p *Plan) colResolver {
	return func(idx int) (*catalog.ColumnStats, int64) {
		for i := len(p.Tables) - 1; i >= 0; i-- {
			scan := p.Tables[i]
			if idx >= scan.BaseCol {
				return scanResolver(scan)(idx - scan.BaseCol)
			}
		}
		return nil, -1
	}
}

// clampSel bounds a selectivity to the sane (minSel, 1] band.
func clampSel(s float64) float64 {
	switch {
	case math.IsNaN(s), s < minSel:
		return minSel
	case s > 1:
		return 1
	default:
		return s
	}
}

// selectivity estimates the fraction of rows a boolean expression keeps:
// equality via 1/NDV, ranges via min/max interpolation, conjunctions under
// the independence assumption with a sanity clamp.
func selectivity(e Expr, res colResolver) float64 {
	if e == nil {
		return 1
	}
	switch x := e.(type) {
	case *Bin:
		switch x.Op {
		case sql.OpAnd:
			return clampSel(selectivity(x.L, res) * selectivity(x.R, res))
		case sql.OpOr:
			l, r := selectivity(x.L, res), selectivity(x.R, res)
			return clampSel(l + r - l*r)
		case sql.OpEq:
			return clampSel(eqSelectivity(x, res))
		case sql.OpNe:
			return clampSel(1 - eqSelectivity(x, res))
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return clampSel(rangeSelectivity(x, res))
		}
		return defaultSel
	case *Not:
		return clampSel(1 - selectivity(x.E, res))
	case *IsNull:
		if col, ok := x.E.(*Col); ok {
			if cs, rows := res(col.Index); cs != nil && rows > 0 {
				f := cs.NullFrac(rows)
				if x.Not {
					f = 1 - f
				}
				return clampSel(f)
			}
		}
		return defaultSel
	case *InList:
		s := defaultSel
		if col, ok := x.E.(*Col); ok {
			if cs, _ := res(col.Index); cs != nil && cs.NDV > 0 {
				s = float64(len(x.Vals)) / float64(cs.NDV)
			}
		}
		if x.Not {
			s = 1 - s
		}
		return clampSel(s)
	case *Like:
		if x.Not {
			return clampSel(1 - likeSel)
		}
		return likeSel
	case *Const:
		if !x.V.Null && x.V.T == types.Bool && x.V.I != 0 {
			return 1
		}
		return minSel
	}
	return defaultSel
}

// eqSelectivity prices `col = const` and `col = col` as 1/NDV (the larger
// NDV for col-col, matching the join-cardinality rule).
func eqSelectivity(b *Bin, res colResolver) float64 {
	ndvOf := func(e Expr) int64 {
		if col, ok := e.(*Col); ok {
			if cs, _ := res(col.Index); cs != nil {
				return cs.NDV
			}
		}
		return 0
	}
	dl, dr := ndvOf(b.L), ndvOf(b.R)
	_, lIsCol := b.L.(*Col)
	_, rIsCol := b.R.(*Col)
	if !lIsCol && !rIsCol {
		return defaultSel
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d <= 0 {
		return eqSelUnknownNDV
	}
	return 1 / float64(d)
}

// rangeSelectivity interpolates `col OP const` within the column's
// [min, max] statistics; non-numeric columns and missing bounds fall back
// to the default.
func rangeSelectivity(b *Bin, res colResolver) float64 {
	col, v, op, ok := colConstCmp(b)
	if !ok {
		return defaultSel
	}
	cs, _ := res(col.Index)
	if cs == nil {
		return defaultSel
	}
	lo, okLo := asFloat(cs.Min)
	hi, okHi := asFloat(cs.Max)
	cv, okV := asFloat(v)
	if !okLo || !okHi || !okV || hi <= lo {
		return defaultSel
	}
	frac := (cv - lo) / (hi - lo)
	if op == sql.OpGt || op == sql.OpGe {
		frac = 1 - frac
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// asFloat projects an ordered value onto the number line for range
// interpolation.
func asFloat(v types.Value) (float64, bool) {
	if v.Null {
		return 0, false
	}
	switch v.T {
	case types.Int64, types.Timestamp:
		return float64(v.I), true
	case types.Float64:
		return v.F, true
	default:
		return 0, false
	}
}

// roundRows converts a fractional cardinality back to rows, never
// rounding a nonzero estimate down to nothing.
func roundRows(f float64) int64 {
	if f <= 0 {
		return 0
	}
	if f < 1 {
		return 1
	}
	if f > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(f + 0.5)
}

// estScanOut estimates a scan's emitted rows: table cardinality times the
// pushed-down filter's selectivity. -1 when the table's size is unknown.
func estScanOut(scan *TableScan) int64 {
	if scan.EstRows < 0 {
		return -1
	}
	if scan.Filter == nil || scan.EstRows == 0 {
		return scan.EstRows
	}
	return roundRows(float64(scan.EstRows) * selectivity(scan.Filter, scanResolver(scan)))
}

// estJoinRows estimates a join step's output: |L|·|R| / Π max(NDVl, NDVr)
// over the equi-key pairs, times the residual's selectivity. Falls back to
// the FK-style probe-side heuristic when key NDVs are unknown; LEFT JOINs
// never estimate below the preserved side.
func estJoinRows(p *Plan, step *JoinStep, leftRows, rightRows int64) int64 {
	if leftRows < 0 {
		return -1
	}
	if rightRows < 0 {
		return leftRows
	}
	if leftRows == 0 || rightRows == 0 {
		if step.Kind == sql.LeftJoin {
			return leftRows
		}
		return 0
	}
	right := p.Tables[step.Right]
	layout := layoutResolver(p)
	out := float64(leftRows) * float64(rightRows)
	known := false
	for i := range step.LeftKeys {
		var dl, dr int64
		if lc, ok := step.LeftKeys[i].(*Col); ok {
			if cs, _ := layout(lc.Index); cs != nil {
				dl = cs.NDV
			}
		}
		if rc, ok := step.RightKeys[i].(*Col); ok {
			if cs, _ := scanResolver(right)(rc.Index); cs != nil {
				dr = cs.NDV
			}
		}
		d := dl
		if dr > d {
			d = dr
		}
		if d > 0 {
			out /= float64(d)
			known = true
		}
	}
	if !known {
		return leftRows
	}
	if step.Residual != nil {
		out *= selectivity(step.Residual, layout)
	}
	if step.Kind == sql.LeftJoin && out < float64(leftRows) {
		return leftRows
	}
	return roundRows(out)
}

// estGroups estimates distinct groups as the product of the group keys'
// NDVs, clamped to the input cardinality; an unknown key NDV degrades the
// estimate to the input bound. Scalar aggregation is exactly one row.
func estGroups(p *Plan, inRows int64) int64 {
	if len(p.GroupBy) == 0 {
		return 1
	}
	if inRows < 0 {
		return -1
	}
	layout := layoutResolver(p)
	groups := 1.0
	for _, g := range p.GroupBy {
		col, ok := g.(*Col)
		if !ok {
			return inRows
		}
		cs, _ := layout(col.Index)
		if cs == nil || cs.NDV <= 0 {
			return inRows
		}
		groups *= float64(cs.NDV)
		if groups > float64(inRows) {
			return inRows
		}
	}
	return roundRows(groups)
}

// colBytes prices one value of a column: recorded average width when
// statistics have one, else a per-type default.
func colBytes(t types.Type, cs *catalog.ColumnStats, rows int64) float64 {
	def := fixedColBytes
	if t == types.String {
		def = stringColBytes
	}
	if cs != nil {
		return cs.AvgWidth(rows, def)
	}
	return def
}

// estRowBytes prices one full row of a scanned table in bytes — the unit
// the data-movement cost model multiplies cardinalities by.
func estRowBytes(scan *TableScan) float64 {
	w := 0.0
	for ci, col := range scan.Def.Columns {
		var cs *catalog.ColumnStats
		var rows int64 = -1
		if scan.Stats != nil && ci < len(scan.Stats.Cols) {
			cs = &scan.Stats.Cols[ci]
			rows = scan.Stats.Rows
		}
		w += colBytes(col.Type, cs, rows)
	}
	return w
}

// BuildDemand estimates join ji's query-wide build-side memory demand in
// bytes (payload plus hash-table overhead, across every concurrently
// building slice) and the rows one slice's build is expected to hold. The
// executor compares the demand against the query's grant to spill
// preemptively — and presizes the hash table — instead of guess-building.
// Returns (0, 0) when the build side's cardinality is unknown.
func (ph *Physical) BuildDemand(ji, nslices int) (totalBytes, perSliceRows int64) {
	if ji < 0 || ji >= len(ph.Joins) || nslices <= 0 {
		return 0, 0
	}
	pj := &ph.Joins[ji]
	rows := pj.BuildScan.EstRows
	if rows <= 0 {
		return 0, 0
	}
	step := pj.Probe.Join
	right := ph.Plan.Tables[step.Right]
	perRow := estRowBytes(right) + hashEntryBytes
	switch step.Strategy {
	case StrategyBroadcast:
		// Every slice builds the full inner side.
		return roundRows(float64(rows) * perRow * float64(nslices)), rows
	default:
		// Collocated/shuffled builds partition the inner side; all
		// partitions are resident at once.
		return roundRows(float64(rows) * perRow), (rows + int64(nslices) - 1) / int64(nslices)
	}
}
