package plan

import (
	"fmt"
	"math"
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// BindScalar binds an expression that references no tables — the leader
// evaluates such expressions locally (SELECT 1, SELECT UPPER('x')).
func BindScalar(e sql.Expr) (Expr, error) {
	b := &binder{plan: &Plan{}}
	return b.bindExpr(e)
}

// Build plans a SELECT against the catalog with default options.
func Build(cat *catalog.Catalog, stmt *sql.Select) (*Plan, error) {
	return BuildWith(cat, stmt, DefaultOptions())
}

// BuildWith plans a SELECT with explicit options.
func BuildWith(cat *catalog.Catalog, stmt *sql.Select, opts Options) (*Plan, error) {
	b := &binder{cat: cat, opts: opts, plan: &Plan{Limit: stmt.Limit}}
	stmt = b.reorderJoins(stmt)
	if err := b.bindFrom(stmt); err != nil {
		return nil, err
	}
	if err := b.bindWhere(stmt.Where); err != nil {
		return nil, err
	}
	if err := b.bindSelectList(stmt); err != nil {
		return nil, err
	}
	if err := b.bindOrderBy(stmt.OrderBy); err != nil {
		return nil, err
	}
	b.pruneColumns()
	b.plan.physical = BuildPhysical(b.plan)
	b.plan.EstCost = estPlanCost(b.plan)
	return b.plan, nil
}

// estPlanCost folds the lowered physical tree's per-node cardinality
// estimates into one scalar: total estimated rows flowing through the
// plan. Any node with unknown cardinality poisons the estimate to -1 — the
// WLM fast lane must never admit a query it cannot size.
func estPlanCost(p *Plan) int64 {
	var total int64
	for _, n := range p.Physical().Nodes {
		if n.EstRows < 0 {
			return -1
		}
		total += n.EstRows
	}
	return total
}

type binder struct {
	cat  *catalog.Catalog
	opts Options
	plan *Plan
	// refNames[i] is the name table i is referenced by (alias or name).
	refNames []string
	// leftDistCol is the joined layout column the accumulated left side is
	// currently hash-distributed by; -1 when not key-distributed.
	leftDistCol int
	// leftRows / leftRowBytes track the accumulated left side's estimated
	// cardinality and per-row width as joins bind, feeding the data-movement
	// cost model. leftRows is -1 when unknown.
	leftRows     int64
	leftRowBytes float64
}

// errf builds a uniform planner error.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf("plan: %s", fmt.Sprintf(format, args...))
}

// bindFrom resolves the FROM table and each JOIN, choosing strategies.
func (b *binder) bindFrom(stmt *sql.Select) error {
	if stmt.From == nil {
		return errf("queries without FROM are handled by the leader directly")
	}
	base, err := b.addTable(stmt.From)
	if err != nil {
		return err
	}
	b.leftDistCol = -1
	if base.Def.DistStyle == catalog.DistKey {
		b.leftDistCol = base.BaseCol + base.Def.DistKeyCol
	}
	b.leftRows = base.EstRows
	b.leftRowBytes = estRowBytes(base)
	for _, j := range stmt.Joins {
		if err := b.bindJoin(j); err != nil {
			return err
		}
	}
	return nil
}

// addTable registers a table reference and returns its scan.
func (b *binder) addTable(ref *sql.TableRef) (*TableScan, error) {
	def, err := b.cat.Get(ref.Table)
	if err != nil {
		return nil, errf("%v", err)
	}
	name := ref.Name()
	for _, existing := range b.refNames {
		if strings.EqualFold(existing, name) {
			return nil, errf("duplicate table reference %q (use an alias)", name)
		}
	}
	base := 0
	if n := len(b.plan.Tables); n > 0 {
		last := b.plan.Tables[n-1]
		base = last.BaseCol + len(last.Def.Columns)
	}
	scan := &TableScan{Def: def, Alias: ref.Alias, BaseCol: base}
	scan.EstRows, scan.Stats = b.tableEstRows(def)
	b.plan.Tables = append(b.plan.Tables, scan)
	b.refNames = append(b.refNames, name)
	return scan, nil
}

// tableEstRows estimates a table's cardinality: catalog statistics when the
// table has been ANALYZEd (Rows > 0 — the catalog keeps zeroed stats for
// fresh tables), else the storage layer's visible-segment count, else -1.
func (b *binder) tableEstRows(def *catalog.TableDef) (int64, *catalog.TableStats) {
	if stats, err := b.cat.Stats(def.ID); err == nil && stats.Rows > 0 {
		return stats.Rows, stats
	}
	if b.opts.TableRows != nil {
		if n := b.opts.TableRows(def.ID); n >= 0 {
			return n, nil
		}
	}
	return -1, nil
}

// layoutWidth is the number of columns in the joined layout so far.
func (b *binder) layoutWidth() int {
	if len(b.plan.Tables) == 0 {
		return 0
	}
	last := b.plan.Tables[len(b.plan.Tables)-1]
	return last.BaseCol + len(last.Def.Columns)
}

func (b *binder) bindJoin(j sql.Join) error {
	leftWidth := b.layoutWidth()
	right, err := b.addTable(j.Table)
	if err != nil {
		return err
	}
	rightIdx := len(b.plan.Tables) - 1

	on, err := b.bindExpr(j.On)
	if err != nil {
		return err
	}
	step := JoinStep{Kind: j.Kind, Right: rightIdx}
	var residuals []Expr
	for _, conj := range splitAnd(on) {
		l, r, ok := equiPair(conj, leftWidth, right)
		if ok {
			step.LeftKeys = append(step.LeftKeys, l)
			step.RightKeys = append(step.RightKeys, r)
			continue
		}
		if j.Kind == sql.LeftJoin {
			// A conjunct over the joined table alone limits what can match,
			// never which left rows appear: its scan filters on it.
			if b.singleTable(conj) != rightIdx {
				return errf("LEFT JOIN supports only equality conditions, got %s", conj)
			}
			right.Filter = andAll(append(splitAnd(right.Filter), shiftCols(conj, -right.BaseCol)))
			right.Ranges = extractRanges(right.Filter)
			continue
		}
		residuals = append(residuals, conj)
	}
	if len(step.LeftKeys) == 0 {
		return errf("join ON must contain at least one equality between the two sides")
	}
	step.Residual = andAll(residuals)
	b.chooseStrategy(&step, right)
	b.plan.Joins = append(b.plan.Joins, step)
	b.leftRows = estJoinRows(b.plan, &step, b.leftRows, right.EstRows)
	b.leftRowBytes += estRowBytes(right)
	return nil
}

// equiPair splits an equality conjunct into (left-side, right-table-local)
// keys when one operand uses only already-joined columns and the other only
// the new table's columns.
func equiPair(e Expr, leftWidth int, right *TableScan) (l, r Expr, ok bool) {
	bin, isBin := e.(*Bin)
	if !isBin || bin.Op != sql.OpEq {
		return nil, nil, false
	}
	rightLo, rightHi := right.BaseCol, right.BaseCol+len(right.Def.Columns)
	side := func(x Expr) int { // 0=left only, 1=right only, -1=mixed/none
		set := map[int]bool{}
		ColsUsed(x, set)
		if len(set) == 0 {
			return -1
		}
		allLeft, allRight := true, true
		for c := range set {
			if c >= leftWidth {
				allLeft = false
			}
			if c < rightLo || c >= rightHi {
				allRight = false
			}
		}
		switch {
		case allLeft:
			return 0
		case allRight:
			return 1
		default:
			return -1
		}
	}
	ls, rs := side(bin.L), side(bin.R)
	switch {
	case ls == 0 && rs == 1:
		return bin.L, shiftCols(bin.R, -right.BaseCol), true
	case ls == 1 && rs == 0:
		return bin.R, shiftCols(bin.L, -right.BaseCol), true
	}
	return nil, nil, false
}

// chooseStrategy decides data movement for a join (§2.1) from distribution
// styles and statistics, and tracks the left side's resulting distribution.
func (b *binder) chooseStrategy(step *JoinStep, right *TableScan) {
	// DISTSTYLE ALL: the inner side is already on every node.
	if right.Def.DistStyle == catalog.DistAll {
		step.Strategy = StrategyBroadcast
		return
	}
	// Co-located: left side hash-distributed by one of the left keys and
	// the right table hash-distributed by the matching right key.
	if b.leftDistCol >= 0 && right.Def.DistStyle == catalog.DistKey {
		for i := range step.LeftKeys {
			lc, lok := step.LeftKeys[i].(*Col)
			rc, rok := step.RightKeys[i].(*Col)
			if lok && rok && lc.Index == b.leftDistCol && rc.Index == right.Def.DistKeyCol {
				step.Strategy = StrategyCollocated
				return
			}
		}
	}
	// Cost the movement alternatives over estimated bytes: a broadcast
	// replicates the inner side to every node; a shuffle redistributes one
	// copy of each side. Pick whichever moves fewer bytes. BroadcastRows
	// survives as an override cap — inner sides estimated above it never
	// broadcast — and as the whole decision when one side's cardinality is
	// unknown (legacy small-inner-side threshold).
	if right.EstRows >= 0 && right.EstRows <= b.opts.BroadcastRows {
		if b.leftRows < 0 {
			step.Strategy = StrategyBroadcast
			return
		}
		nodes := b.opts.NumNodes
		if nodes < 1 {
			nodes = 1
		}
		rightBytes := float64(right.EstRows) * estRowBytes(right)
		leftBytes := float64(b.leftRows) * b.leftRowBytes
		if rightBytes*float64(nodes) <= rightBytes+leftBytes {
			step.Strategy = StrategyBroadcast
			return
		}
	}
	step.Strategy = StrategyShuffle
	// After a shuffle both sides are redistributed by the first join key.
	if lc, ok := step.LeftKeys[0].(*Col); ok {
		b.leftDistCol = lc.Index
	} else {
		b.leftDistCol = -1
	}
}

// bindWhere binds the WHERE clause, splits its conjuncts, pushes
// single-table conjuncts down to scans (when join kinds allow) and keeps
// the rest as the residual filter.
func (b *binder) bindWhere(where sql.Expr) error {
	if where == nil {
		return nil
	}
	bound, err := b.bindExpr(where)
	if err != nil {
		return err
	}
	if bound.Type() != types.Bool {
		return errf("WHERE must be boolean, got %s", bound.Type())
	}
	var residual []Expr
	for _, conj := range splitAnd(bound) {
		ti := b.singleTable(conj)
		if ti >= 0 && b.pushable(ti) {
			scan := b.plan.Tables[ti]
			local := shiftCols(conj, -scan.BaseCol)
			scan.Filter = andAll(append(splitAnd(scan.Filter), local))
			continue
		}
		residual = append(residual, conj)
	}
	b.plan.Where = andAll(residual)
	for _, scan := range b.plan.Tables {
		scan.Ranges = extractRanges(scan.Filter)
	}
	return nil
}

// singleTable returns the index of the only table a bound expression
// references, or -1.
func (b *binder) singleTable(e Expr) int {
	set := map[int]bool{}
	ColsUsed(e, set)
	if len(set) == 0 {
		return -1
	}
	found := -1
	for c := range set {
		ti := b.tableOfCol(c)
		if found == -1 {
			found = ti
		} else if found != ti {
			return -1
		}
	}
	return found
}

func (b *binder) tableOfCol(c int) int {
	for i := len(b.plan.Tables) - 1; i >= 0; i-- {
		if c >= b.plan.Tables[i].BaseCol {
			return i
		}
	}
	return 0
}

// pushable reports whether a WHERE predicate on table ti commutes with the
// joins: always for the base table and inner-joined tables, never for the
// null-extended side of a LEFT JOIN.
func (b *binder) pushable(ti int) bool {
	if ti == 0 {
		return true
	}
	for _, j := range b.plan.Joins {
		if j.Right == ti {
			return j.Kind == sql.InnerJoin
		}
	}
	return false
}

// bindSelectList expands *, detects aggregation and binds projections.
func (b *binder) bindSelectList(stmt *sql.Select) error {
	// Expand * into per-table column refs (a reordered join's statement
	// arrives with its * already expanded in written order).
	var items []sql.SelectItem
	for _, item := range stmt.Items {
		if !item.Star {
			items = append(items, item)
			continue
		}
		for ti, scan := range b.plan.Tables {
			for _, col := range scan.Def.Columns {
				items = append(items, sql.SelectItem{
					Expr: &sql.ColumnRef{Table: b.refNames[ti], Column: col.Name},
				})
			}
		}
	}
	if len(items) == 0 {
		return errf("empty select list")
	}

	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range items {
		if containsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	// DISTINCT over rows is the GROUP BY of its select list, so it
	// deduplicates — and spills — the way an aggregation does. Only
	// DISTINCT over groups keeps a leader-side dedup.
	keys := stmt.GroupBy
	if stmt.Distinct && !hasAgg {
		keys = make([]sql.Expr, len(items))
		for i, item := range items {
			keys[i] = item.Expr
		}
	}
	b.plan.HasAgg = hasAgg || stmt.Distinct
	b.plan.Distinct = stmt.Distinct && hasAgg

	// GROUP BY keys bind over the joined layout, and first: under an
	// aggregation, projections and HAVING bind over [groups..., aggs...].
	for _, g := range keys {
		e, err := b.bindExpr(g)
		if err != nil {
			return err
		}
		b.plan.GroupBy = append(b.plan.GroupBy, e)
	}
	for _, item := range items {
		e, err := b.bindOutput(item.Expr)
		if err != nil {
			return err
		}
		b.plan.Project = append(b.plan.Project, e)
		b.plan.FieldNames = append(b.plan.FieldNames, fieldName(item))
	}
	if stmt.Having != nil {
		e, err := b.bindOutput(stmt.Having)
		if err != nil {
			return err
		}
		if e.Type() != types.Bool {
			return errf("HAVING must be boolean, got %s", e.Type())
		}
		b.plan.Having = e
	}
	return nil
}

// fieldName picks the output name for a select item.
func fieldName(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sql.ColumnRef:
		return e.Column
	case *sql.FuncCall:
		return strings.ToLower(string(e.Name))
	default:
		return strings.ToLower(e.String())
	}
}

// containsAggregate reports whether a parse-tree expression contains an
// aggregate function call.
func containsAggregate(e sql.Expr) bool {
	return !sql.Walk(e, func(x sql.Expr) bool {
		call, ok := x.(*sql.FuncCall)
		return !ok || !call.IsAggregate()
	})
}

// bindOrderBy resolves ORDER BY keys to output columns.
func (b *binder) bindOrderBy(order []sql.OrderItem) error {
	for _, o := range order {
		idx, err := b.resolveOutput(o.Expr)
		if err != nil {
			return err
		}
		b.plan.OrderBy = append(b.plan.OrderBy, OrderKey{Index: idx, Desc: o.Desc})
	}
	return nil
}

// resolveOutput maps an ORDER BY expression to a projected column index:
// by alias/name first, then by structural equality with a projection.
func (b *binder) resolveOutput(e sql.Expr) (int, error) {
	if ref, ok := e.(*sql.ColumnRef); ok && ref.Table == "" {
		for i, name := range b.plan.FieldNames {
			if strings.EqualFold(name, ref.Column) {
				return i, nil
			}
		}
	}
	bound, err := b.bindOutput(e)
	if err != nil {
		return 0, errf("ORDER BY: %v", err)
	}
	want := bound.String()
	for i, p := range b.plan.Project {
		if p.String() == want {
			return i, nil
		}
	}
	return 0, errf("ORDER BY expression %s is not in the select list", e)
}

// pruneColumns computes each scan's NeedCols from every bound expression in
// the plan, so slices decode only the columns the query touches.
func (b *binder) pruneColumns() {
	global := map[int]bool{}
	collect := func(e Expr) { ColsUsed(e, global) } // a nil e reads nothing
	collect(b.plan.Where)
	for _, j := range b.plan.Joins {
		for _, k := range j.LeftKeys {
			collect(k)
		}
		collect(j.Residual)
		// RightKeys are table-local; account for them below.
	}
	for _, g := range b.plan.GroupBy {
		collect(g)
	}
	for _, a := range b.plan.Aggs {
		collect(a.Arg)
	}
	if !b.plan.HasAgg {
		for _, p := range b.plan.Project {
			collect(p)
		}
	}
	// Note: when HasAgg, Project/Having are over the aggregate layout and
	// reference no base columns.

	for ti, scan := range b.plan.Tables {
		read := map[int]bool{} // the columns read past the scan
		for c := range global {
			if b.tableOfCol(c) == ti {
				read[c-scan.BaseCol] = true
			}
		}
		for _, j := range b.plan.Joins {
			if j.Right == ti {
				for _, k := range j.RightKeys {
					ColsUsed(k, read)
				}
			}
		}
		// Filter input columns come first so the scan can evaluate the
		// pushed-down predicate before materializing anything else
		// (predicate-first late materialization).
		inFilter := map[int]bool{}
		ColsUsed(scan.Filter, inFilter)
		scan.NeedCols, scan.FilterOnly = scan.NeedCols[:0], nil
		for c := 0; c < len(scan.Def.Columns); c++ {
			if inFilter[c] {
				scan.NeedCols = append(scan.NeedCols, c)
				if !read[c] {
					scan.FilterOnly = append(scan.FilterOnly, c)
				}
			}
		}
		for c := 0; c < len(scan.Def.Columns); c++ {
			if read[c] && !inFilter[c] {
				scan.NeedCols = append(scan.NeedCols, c)
			}
		}
		// A scan that feeds only COUNT(*) keeps NeedCols empty: the
		// executor serves row counts from block metadata, decoding
		// nothing at all.
	}
}

// splitAnd flattens nested AND conjuncts; nil input yields nil.
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == sql.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// andAll rebuilds a conjunction; nil for an empty list.
func andAll(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &Bin{Op: sql.OpAnd, L: out, R: c, T: types.Bool}
		}
	}
	return out
}

// extractRanges derives zone-map bounds from a pushed-down filter's
// conjuncts: col = v, col </<=/>/>= v, col IN (v...), and the bound forms
// BETWEEN desugars into.
func extractRanges(filter Expr) []ColRange {
	var out []ColRange
	for _, conj := range splitAnd(filter) {
		switch x := conj.(type) {
		case *Bin:
			col, v, op, ok := colConstCmp(x)
			if !ok {
				continue
			}
			r := ColRange{Col: col.Index}
			switch op {
			case sql.OpEq:
				r.Lo, r.Hi, r.HasLo, r.HasHi = v, v, true, true
				if !isNaN(v) {
					r.Eq = []types.Value{v}
				}
			case sql.OpGt, sql.OpGe:
				r.Lo, r.HasLo = v, true
			case sql.OpLt, sql.OpLe:
				r.Hi, r.HasHi = v, true
			default:
				continue
			}
			out = append(out, r)
		case *InList:
			// A NULL item matches no row, so only the others bound the column;
			// a NaN item matches every row interpreted, so it bounds nothing.
			col, ok := x.E.(*Col)
			if !ok || x.Not {
				continue
			}
			r := ColRange{Col: col.Index, HasLo: true, HasHi: true}
			for _, v := range x.Vals {
				if v.Null {
					continue
				}
				if v.T != col.T || isNaN(v) {
					r.Eq = nil
					break
				}
				if r.Eq == nil || types.Compare(v, r.Lo) < 0 {
					r.Lo = v
				}
				if r.Eq == nil || types.Compare(v, r.Hi) > 0 {
					r.Hi = v
				}
				r.Eq = append(r.Eq, v)
			}
			if r.Eq != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// isNaN reports a float NaN, which types.Compare calls equal to everything.
func isNaN(v types.Value) bool { return v.T == types.Float64 && math.IsNaN(v.F) }

// colConstCmp matches `col OP const` or `const OP col` (flipping the
// operator), with matching types.
func colConstCmp(b *Bin) (*Col, types.Value, sql.BinOp, bool) {
	if col, ok := b.L.(*Col); ok {
		if c, ok2 := b.R.(*Const); ok2 && !c.V.Null && c.V.T == col.T {
			return col, c.V, b.Op, true
		}
	}
	if col, ok := b.R.(*Col); ok {
		if c, ok2 := b.L.(*Const); ok2 && !c.V.Null && c.V.T == col.T {
			flip := map[sql.BinOp]sql.BinOp{
				sql.OpEq: sql.OpEq, sql.OpLt: sql.OpGt, sql.OpLe: sql.OpGe,
				sql.OpGt: sql.OpLt, sql.OpGe: sql.OpLe,
			}
			if f, ok3 := flip[b.Op]; ok3 {
				return col, c.V, f, true
			}
		}
	}
	return nil, types.Value{}, 0, false
}
