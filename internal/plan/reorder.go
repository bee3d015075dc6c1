package plan

import (
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/sql"
)

// reorderJoins greedily reorders an inner-join chain before binding: the
// largest estimated relation anchors the left side and each step joins the
// smallest remaining relation that has an equality edge to the placed set,
// keeping hash-join build sides small. The rewrite happens on the parse
// tree — before any table registers a column layout — so binding proceeds
// unchanged over the new order. It bails out (returning stmt untouched)
// whenever reordering is disabled, unsafe (outer joins are order barriers)
// or uninformed (any relation's cardinality unknown).
func (b *binder) reorderJoins(stmt *sql.Select) *sql.Select {
	if b.opts.SyntaxJoinOrder || stmt == nil || stmt.From == nil || len(stmt.Joins) == 0 {
		return stmt
	}
	for _, j := range stmt.Joins {
		if j.Kind != sql.InnerJoin {
			return stmt
		}
	}

	// Resolve every relation and its cardinality estimate.
	type rel struct {
		ref *sql.TableRef
		def *catalog.TableDef
		est int64
	}
	refs := append([]*sql.TableRef{stmt.From}, make([]*sql.TableRef, 0, len(stmt.Joins))...)
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	rels := make([]rel, len(refs))
	for i, ref := range refs {
		def, err := b.cat.Get(ref.Table)
		if err != nil {
			return stmt // binder will report the error
		}
		for k := 0; k < i; k++ {
			if strings.EqualFold(refs[k].Name(), ref.Name()) {
				return stmt // duplicate reference; binder reports it
			}
		}
		est, _ := b.tableEstRows(def)
		if est < 0 {
			return stmt // unknown cardinality: keep syntax order
		}
		rels[i] = rel{ref: ref, def: def, est: est}
	}

	// Pool the ON conjuncts with the set of relations each references.
	type conjunct struct {
		expr sql.Expr
		refs map[int]bool
	}
	var pool []conjunct
	for _, j := range stmt.Joins {
		for _, c := range splitAndAST(j.On) {
			used := map[int]bool{}
			if !b.relationsUsed(c, refs, used) {
				return stmt // unresolvable/ambiguous reference: keep order
			}
			pool = append(pool, conjunct{expr: c, refs: used})
		}
	}

	// relsOf splits an equality's operand reference sets; an edge usable at
	// this step has one side entirely within `placed` and the other
	// referencing only the candidate.
	sideRefs := func(e sql.Expr) (map[int]bool, bool) {
		used := map[int]bool{}
		if !b.relationsUsed(e, refs, used) {
			return nil, false
		}
		return used, true
	}
	subset := func(set, of map[int]bool) bool {
		for k := range set {
			if !of[k] {
				return false
			}
		}
		return true
	}
	only := func(set map[int]bool, r int) bool {
		return len(set) == 1 && set[r]
	}

	// Greedy order: largest relation first (it becomes the outermost probe
	// side), then repeatedly the smallest joinable remaining relation.
	n := len(rels)
	base := 0
	for i := 1; i < n; i++ {
		if rels[i].est > rels[base].est {
			base = i
		}
	}
	placed := map[int]bool{base: true}
	order := []int{base}
	for len(order) < n {
		pick := -1
		for r := 0; r < n; r++ {
			if placed[r] {
				continue
			}
			joinable := false
			for _, c := range pool {
				bin, ok := c.expr.(*sql.Binary)
				if !ok || bin.Op != sql.OpEq || !c.refs[r] || !subsetPlus(c.refs, placed, r) {
					continue
				}
				l, lok := sideRefs(bin.Left)
				rr, rok := sideRefs(bin.Right)
				if !lok || !rok {
					continue
				}
				if (len(l) > 0 && subset(l, placed) && only(rr, r)) ||
					(len(rr) > 0 && subset(rr, placed) && only(l, r)) {
					joinable = true
					break
				}
			}
			if joinable && (pick == -1 || rels[r].est < rels[pick].est) {
				pick = r
			}
		}
		if pick == -1 {
			return stmt // no equality edge into the placed set: keep order
		}
		placed[pick] = true
		order = append(order, pick)
	}

	unchanged := true
	for i, r := range order {
		if r != i {
			unchanged = false
			break
		}
	}
	if unchanged {
		return stmt
	}

	// Reassemble: each conjunct attaches to the first step at which all its
	// relations are placed.
	assigned := make([]bool, len(pool))
	out := *stmt
	out.From = rels[order[0]].ref
	out.Joins = make([]sql.Join, 0, n-1)
	placedSoFar := map[int]bool{order[0]: true}
	for _, r := range order[1:] {
		placedSoFar[r] = true
		var on sql.Expr
		for ci, c := range pool {
			if assigned[ci] || !subset(c.refs, placedSoFar) {
				continue
			}
			assigned[ci] = true
			if on == nil {
				on = c.expr
			} else {
				on = &sql.Binary{Op: sql.OpAnd, Left: on, Right: c.expr}
			}
		}
		out.Joins = append(out.Joins, sql.Join{Kind: sql.InnerJoin, Table: rels[r].ref, On: on})
	}

	// Remember the original FROM order so `*` expands identically.
	b.starOrder = make([]int, n)
	for pos, r := range order {
		b.starOrder[r] = pos
	}
	return &out
}

// subsetPlus reports set ⊆ placed ∪ {r}.
func subsetPlus(set, placed map[int]bool, r int) bool {
	for k := range set {
		if k != r && !placed[k] {
			return false
		}
	}
	return true
}

// starTables returns table indexes in the order `SELECT *` should expand
// them: the query's written FROM order, whatever order the planner joined
// the tables in.
func (b *binder) starTables() []int {
	out := make([]int, len(b.plan.Tables))
	if b.starOrder != nil {
		copy(out, b.starOrder)
		return out
	}
	for i := range out {
		out[i] = i
	}
	return out
}

// relationsUsed collects (into `used`) the relations a parse-tree
// expression references. Qualified columns match reference names;
// unqualified columns resolve only when exactly one relation has the
// column. Returns false when any reference cannot be resolved uniquely —
// the caller then abandons reordering and lets the binder report errors
// over the original order.
func (b *binder) relationsUsed(e sql.Expr, refs []*sql.TableRef, used map[int]bool) bool {
	return sql.Walk(e, func(x sql.Expr) bool {
		col, ok := x.(*sql.ColumnRef)
		if !ok {
			return true
		}
		r := b.relationOf(col, refs)
		if r >= 0 {
			used[r] = true
		}
		return r >= 0
	})
}

// relationOf resolves a column reference to the one relation it can name,
// or -1.
func (b *binder) relationOf(col *sql.ColumnRef, refs []*sql.TableRef) int {
	found := -1
	for i, ref := range refs {
		if col.Table != "" {
			if strings.EqualFold(ref.Name(), col.Table) {
				return i
			}
			continue
		}
		def, err := b.cat.Get(ref.Table)
		if err != nil {
			return -1
		}
		if def.Ordinal(col.Column) >= 0 {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
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
