package plan

import (
	"redshift/internal/sql"
)

// reorderJoins greedily reorders an inner-join chain before binding: the
// largest estimated relation anchors the left side and each step joins the
// smallest remaining relation that has an equality edge to the placed set,
// keeping hash-join build sides small. Names resolve the binder's way: a
// scratch binder binds the FROM list and each ON conjunct in written order,
// and a conjunct's relations are the tables of the columns it uses. The
// rewrite happens on the parse tree — before any table registers a column
// layout — so binding proceeds unchanged over the new order; a `SELECT *`
// is expanded in written order first, so its columns come out as written.
// It returns stmt untouched whenever reordering is disabled, unsafe (outer
// joins are order barriers), uninformed (any relation's cardinality
// unknown) or the statement does not bind (the binder then reports the
// error over the written order).
func (b *binder) reorderJoins(stmt *sql.Select) *sql.Select {
	// Relation sets are bitmasks, one bit per table.
	if b.opts.SyntaxJoinOrder || stmt.From == nil || len(stmt.Joins) == 0 || len(stmt.Joins) >= 64 {
		return stmt
	}
	refs := []*sql.TableRef{stmt.From}
	for _, j := range stmt.Joins {
		if j.Kind != sql.InnerJoin {
			return stmt
		}
		refs = append(refs, j.Table)
	}
	s := &binder{cat: b.cat, opts: b.opts, plan: &Plan{}}
	for _, ref := range refs {
		if scan, err := s.addTable(ref); err != nil || scan.EstRows < 0 {
			return stmt
		}
	}
	cols := map[int]bool{}
	relsOf := func(e Expr) uint64 {
		clear(cols)
		ColsUsed(e, cols)
		var rels uint64
		for c := range cols {
			rels |= 1 << s.tableOfCol(c)
		}
		return rels
	}

	// Pool the ON conjuncts with the relations each references and, for an
	// equality, the relations of each side.
	type conjunct struct {
		expr       sql.Expr
		rels, l, r uint64
	}
	var pool []conjunct
	for _, j := range stmt.Joins {
		for _, c := range splitAndAST(j.On) {
			e, err := s.bindExpr(c)
			if err != nil {
				return stmt
			}
			cj := conjunct{expr: c, rels: relsOf(e)}
			if bin, ok := e.(*Bin); ok && bin.Op == sql.OpEq {
				cj.l, cj.r = relsOf(bin.L), relsOf(bin.R)
			}
			pool = append(pool, cj)
		}
	}
	// joinable: an equality with one side within placed and the other
	// referencing only relation r.
	joinable := func(placed uint64, r int) bool {
		for _, c := range pool {
			if c.l != 0 && c.l&^placed == 0 && c.r == 1<<r || c.r != 0 && c.r&^placed == 0 && c.l == 1<<r {
				return true
			}
		}
		return false
	}

	// Greedy order: largest relation first (it becomes the outermost probe
	// side), then repeatedly the smallest joinable remaining relation.
	tables := s.plan.Tables
	base := 0
	for i := range tables {
		if tables[i].EstRows > tables[base].EstRows {
			base = i
		}
	}
	placed := uint64(1) << base
	order := []int{base}
	for len(order) < len(tables) {
		pick := -1
		for r := range tables {
			if placed&(1<<r) == 0 && (pick == -1 || tables[r].EstRows < tables[pick].EstRows) && joinable(placed, r) {
				pick = r
			}
		}
		if pick == -1 {
			return stmt // no equality edge into the placed set: keep order
		}
		placed |= 1 << pick
		order = append(order, pick)
	}
	unchanged := true
	for i, r := range order {
		unchanged = unchanged && r == i
	}
	if unchanged {
		return stmt
	}

	// Reassemble: each conjunct attaches to the first step at which all its
	// relations are placed.
	assigned := make([]bool, len(pool))
	out := *stmt
	out.From = refs[order[0]]
	out.Joins = make([]sql.Join, 0, len(order)-1)
	placed = 1 << order[0]
	for _, r := range order[1:] {
		placed |= 1 << r
		var on sql.Expr
		for ci, c := range pool {
			if assigned[ci] || c.rels&^placed != 0 {
				continue
			}
			assigned[ci] = true
			if on == nil {
				on = c.expr
			} else {
				on = &sql.Binary{Op: sql.OpAnd, Left: on, Right: c.expr}
			}
		}
		out.Joins = append(out.Joins, sql.Join{Kind: sql.InnerJoin, Table: refs[r], On: on})
	}
	out.Items = nil
	for _, item := range stmt.Items {
		if !item.Star {
			out.Items = append(out.Items, item)
			continue
		}
		for ti, scan := range tables {
			for _, col := range scan.Def.Columns {
				out.Items = append(out.Items, sql.SelectItem{Expr: &sql.ColumnRef{Table: s.refNames[ti], Column: col.Name}})
			}
		}
	}
	return &out
}

// splitAndAST flattens a parse-tree conjunction.
func splitAndAST(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if bin, ok := e.(*sql.Binary); ok && bin.Op == sql.OpAnd {
		return append(splitAndAST(bin.Left), splitAndAST(bin.Right)...)
	}
	return []sql.Expr{e}
}
