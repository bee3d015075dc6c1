package plan

import (
	"fmt"
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/sql"
)

// PhysKind identifies one physical operator in the lowered dataflow.
type PhysKind uint8

const (
	// PhysScan reads one base table's slice-local blocks.
	PhysScan PhysKind = iota
	// PhysExchange moves batches between slices (shuffle/broadcast) or to
	// the leader (gather).
	PhysExchange
	// PhysHashJoin builds a hash table from its first child and probes it
	// with batches from its second.
	PhysHashJoin
	// PhysFilter applies the residual WHERE predicate.
	PhysFilter
	// PhysPartialAgg accumulates slice-local groups (pipeline breaker).
	PhysPartialAgg
	// PhysLeaderAgg merges per-slice group tables on the leader and emits
	// final aggregate values.
	PhysLeaderAgg
	// PhysHaving filters final aggregate rows.
	PhysHaving
	// PhysProject computes the output expressions.
	PhysProject
	// PhysSliceTopN keeps each slice's top LIMIT rows under ORDER BY.
	PhysSliceTopN
	// PhysLeaderMerge gathers slice streams on the leader, in slice order.
	PhysLeaderMerge
	// PhysFinalize applies leader-only DISTINCT / ORDER BY / LIMIT.
	PhysFinalize
)

// ExchangeKind is the data-movement pattern of a PhysExchange node.
type ExchangeKind uint8

const (
	// ExchangeShuffle repartitions rows by key hash across all slices.
	ExchangeShuffle ExchangeKind = iota
	// ExchangeBroadcast replicates every batch to all nodes.
	ExchangeBroadcast
	// ExchangeGather funnels every slice's stream to the leader.
	ExchangeGather
)

// String names the movement pattern as EXPLAIN prints it.
func (k ExchangeKind) String() string {
	switch k {
	case ExchangeShuffle:
		return "Shuffle"
	case ExchangeBroadcast:
		return "Broadcast"
	default:
		return "Gather"
	}
}

// PhysNode is one operator of the physical dataflow tree.
type PhysNode struct {
	Kind PhysKind
	// ID is the node's position in Physical.Nodes (creation order,
	// leaves-first); the driver indexes per-operator stats by it.
	ID int
	// Scan references the accessed table for PhysScan nodes, and the
	// build-side table for PhysHashJoin nodes (span labels name the table).
	Scan *TableScan
	// Join is the logical join step a PhysHashJoin implements.
	Join *JoinStep
	// ExKind qualifies PhysExchange (and PhysLeaderMerge's implicit gather).
	ExKind ExchangeKind
	// Keys are the shuffle partition keys for ExchangeShuffle nodes.
	Keys []Expr
	// EstRows is the statistics-based output cardinality (-1 unknown).
	EstRows int64
	// Width is the number of columns in this operator's output rows.
	Width int
	// Children in render order; a join's build side precedes its probe side.
	Children []*PhysNode
}

// PhysJoin groups the physical nodes implementing one JoinStep.
type PhysJoin struct {
	// Probe is the hash-join operator itself.
	Probe *PhysNode
	// BuildScan reads the build-side table.
	BuildScan *PhysNode
	// BuildEx moves build-side batches (broadcast or shuffle); nil when the
	// build side is read slice-locally (collocated, or DISTSTYLE ALL).
	BuildEx *PhysNode
	// ProbeEx re-shuffles the probe side; nil unless DS_DIST_BOTH.
	ProbeEx *PhysNode
}

// Physical is the lowered operator dataflow for one Plan. Root/Nodes give
// the renderable tree; the named handles let the driver wire per-slice
// operator chains without re-walking it.
type Physical struct {
	Plan *Plan
	Root *PhysNode
	// Nodes lists every operator in creation order (leaves first); a node's
	// ID indexes this slice.
	Nodes []*PhysNode

	Base       *PhysNode  // base-table scan
	Joins      []PhysJoin // parallel to Plan.Joins
	Where      *PhysNode  // nil when no residual predicate
	PartialAgg *PhysNode  // nil unless HasAgg
	LeaderAgg  *PhysNode  // nil unless HasAgg
	Having     *PhysNode  // nil unless HasAgg with HAVING
	Project    *PhysNode
	TopN       *PhysNode // nil unless SliceTopN() applies
	Merge      *PhysNode // gather-to-leader; nil when HasAgg
	Finalize   *PhysNode // always the root
}

// SliceTopN reports whether ORDER BY + LIMIT push down to slices: each
// slice sorts and truncates locally so the leader sorts tiny inputs.
func (p *Plan) SliceTopN() bool {
	return len(p.OrderBy) > 0 && p.Limit >= 0
}

// BuildPhysical lowers a logical plan into the physical operator tree the
// executor runs and EXPLAIN prints.
func BuildPhysical(p *Plan) *Physical {
	ph := &Physical{Plan: p}
	node := func(n *PhysNode) *PhysNode {
		n.ID = len(ph.Nodes)
		ph.Nodes = append(ph.Nodes, n)
		return n
	}
	limited := func(est int64) int64 {
		if p.Limit >= 0 && (est < 0 || est > p.Limit) {
			return p.Limit
		}
		return est
	}

	base := p.Tables[0]
	cur := node(&PhysNode{Kind: PhysScan, Scan: base, EstRows: estScanOut(base), Width: len(base.Def.Columns)})
	ph.Base = cur

	for i := range p.Joins {
		step := &p.Joins[i]
		right := p.Tables[step.Right]
		buildScan := node(&PhysNode{Kind: PhysScan, Scan: right, EstRows: estScanOut(right), Width: len(right.Def.Columns)})
		build := buildScan
		pj := PhysJoin{BuildScan: buildScan}
		switch step.Strategy {
		case StrategyBroadcast:
			// DISTSTYLE ALL tables are already replicated; no movement node.
			if right.Def.DistStyle != catalog.DistAll {
				build = node(&PhysNode{Kind: PhysExchange, ExKind: ExchangeBroadcast,
					EstRows: buildScan.EstRows, Width: buildScan.Width, Children: []*PhysNode{buildScan}})
				pj.BuildEx = build
			}
		case StrategyShuffle:
			build = node(&PhysNode{Kind: PhysExchange, ExKind: ExchangeShuffle, Keys: step.RightKeys,
				EstRows: buildScan.EstRows, Width: buildScan.Width, Children: []*PhysNode{buildScan}})
			pj.BuildEx = build
			probeEx := node(&PhysNode{Kind: PhysExchange, ExKind: ExchangeShuffle, Keys: step.LeftKeys,
				EstRows: cur.EstRows, Width: cur.Width, Children: []*PhysNode{cur}})
			pj.ProbeEx = probeEx
			cur = probeEx
		}
		jn := node(&PhysNode{Kind: PhysHashJoin, Scan: right, Join: step,
			EstRows:  estJoinRows(p, step, cur.EstRows, buildScan.EstRows),
			Width:    cur.Width + len(right.Def.Columns),
			Children: []*PhysNode{build, cur}})
		pj.Probe = jn
		ph.Joins = append(ph.Joins, pj)
		cur = jn
	}

	if p.Where != nil {
		est := int64(-1)
		if cur.EstRows >= 0 {
			est = roundRows(float64(cur.EstRows) * selectivity(p.Where, layoutResolver(p)))
		}
		cur = node(&PhysNode{Kind: PhysFilter, EstRows: est, Width: cur.Width, Children: []*PhysNode{cur}})
		ph.Where = cur
	}

	if p.HasAgg {
		aggWidth := len(p.GroupBy) + len(p.Aggs)
		groups := estGroups(p, cur.EstRows)
		cur = node(&PhysNode{Kind: PhysPartialAgg, EstRows: groups, Width: aggWidth, Children: []*PhysNode{cur}})
		ph.PartialAgg = cur
		cur = node(&PhysNode{Kind: PhysLeaderAgg, ExKind: ExchangeGather, EstRows: groups, Width: aggWidth, Children: []*PhysNode{cur}})
		ph.LeaderAgg = cur
		if p.Having != nil {
			est := int64(-1)
			if groups >= 0 {
				est = roundRows(float64(groups) * defaultSel)
			}
			cur = node(&PhysNode{Kind: PhysHaving, EstRows: est, Width: aggWidth, Children: []*PhysNode{cur}})
			ph.Having = cur
		}
		cur = node(&PhysNode{Kind: PhysProject, EstRows: cur.EstRows, Width: len(p.Project), Children: []*PhysNode{cur}})
		ph.Project = cur
	} else {
		cur = node(&PhysNode{Kind: PhysProject, EstRows: cur.EstRows, Width: len(p.Project), Children: []*PhysNode{cur}})
		ph.Project = cur
		if p.SliceTopN() {
			cur = node(&PhysNode{Kind: PhysSliceTopN, EstRows: limited(cur.EstRows), Width: cur.Width, Children: []*PhysNode{cur}})
			ph.TopN = cur
		}
		cur = node(&PhysNode{Kind: PhysLeaderMerge, ExKind: ExchangeGather, EstRows: cur.EstRows, Width: cur.Width, Children: []*PhysNode{cur}})
		ph.Merge = cur
	}

	fin := node(&PhysNode{Kind: PhysFinalize, EstRows: limited(cur.EstRows), Width: cur.Width, Children: []*PhysNode{cur}})
	ph.Finalize = fin
	ph.Root = fin
	return ph
}

// SpanName labels the node in EXPLAIN ANALYZE trace trees.
func (n *PhysNode) SpanName() string {
	switch n.Kind {
	case PhysScan:
		return "scan " + n.Scan.Def.Name
	case PhysExchange:
		switch n.ExKind {
		case ExchangeBroadcast:
			return "broadcast " + scanName(n)
		default:
			return "shuffle"
		}
	case PhysHashJoin:
		return "join " + n.Scan.Def.Name
	case PhysFilter:
		return "filter"
	case PhysPartialAgg:
		return "partial-agg"
	case PhysLeaderAgg, PhysLeaderMerge:
		return "leader-merge"
	case PhysHaving:
		return "having"
	case PhysProject:
		return "project"
	case PhysSliceTopN:
		return "slice-topn"
	default:
		return "finalize"
	}
}

func scanName(n *PhysNode) string {
	if len(n.Children) > 0 && n.Children[0].Scan != nil {
		return n.Children[0].Scan.Def.Name
	}
	return ""
}

// Explain renders the physical tree in the Redshift-flavored indented
// style, one operator per line with cardinality/width annotations.
func (ph *Physical) Explain() string {
	var b strings.Builder
	var walk func(n *PhysNode, depth int)
	emit := func(depth int, s string) {
		b.WriteString(strings.Repeat("  ", depth))
		if depth > 0 {
			b.WriteString("-> ")
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	walk = func(n *PhysNode, depth int) {
		for _, ln := range ph.lines(n) {
			emit(depth, ln)
			depth++
		}
		for _, c := range n.Children {
			walk(c, depth)
		}
	}
	walk(ph.Root, 0)
	return b.String()
}

// lines renders one node, possibly as several stacked lines (Finalize
// prints each of its leader-side steps the way the old plan tree did).
func (ph *Physical) lines(n *PhysNode) []string {
	p := ph.Plan
	ann := func(s string) string {
		if n.EstRows >= 0 {
			return fmt.Sprintf("%s  (rows=%d width=%d)", s, n.EstRows, n.Width)
		}
		return fmt.Sprintf("%s  (width=%d)", s, n.Width)
	}
	switch n.Kind {
	case PhysFinalize:
		var ls []string
		if p.Limit >= 0 {
			ls = append(ls, fmt.Sprintf("XN Limit (rows=%d)", p.Limit))
		}
		if len(p.OrderBy) > 0 {
			ls = append(ls, fmt.Sprintf("XN Merge (order by: %s)", orderKeys(p)))
		}
		if p.Distinct {
			ls = append(ls, "XN Unique")
		}
		if len(ls) == 0 {
			ls = append(ls, "XN Result")
		}
		ls[0] = ann(ls[0])
		return ls
	case PhysLeaderMerge:
		return []string{ann("XN Network (Gather)")}
	case PhysLeaderAgg:
		return []string{ann("XN " + aggLine(p))}
	case PhysPartialAgg:
		return []string{ann("XN Partial " + aggLine(p))}
	case PhysHaving:
		return []string{ann(fmt.Sprintf("XN Filter: %s", p.Having))}
	case PhysFilter:
		return []string{ann(fmt.Sprintf("XN Filter: %s", p.Where))}
	case PhysProject:
		return []string{ann("XN Project")}
	case PhysSliceTopN:
		return []string{ann(fmt.Sprintf("XN SliceTopN (order by: %s; limit %d)", orderKeys(p), p.Limit))}
	case PhysExchange:
		if n.ExKind == ExchangeBroadcast {
			return []string{ann("XN Network (Broadcast)")}
		}
		keys := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.String()
		}
		return []string{ann(fmt.Sprintf("XN Network (Shuffle: %s)", strings.Join(keys, ", ")))}
	case PhysHashJoin:
		j := n.Join
		kind := "Hash Join"
		if j.Kind == sql.LeftJoin {
			kind = "Hash Left Join"
		}
		keys := make([]string, len(j.LeftKeys))
		for k := range j.LeftKeys {
			keys[k] = fmt.Sprintf("%s = %s", j.LeftKeys[k], j.RightKeys[k])
		}
		return []string{ann(fmt.Sprintf("XN %s %s (%s)", kind, j.Strategy, strings.Join(keys, " AND ")))}
	default: // PhysScan
		return []string{ann(fmt.Sprintf("XN Seq Scan on %s%s", n.Scan.Def.Name, scanDetail(n.Scan)))}
	}
}

func aggLine(p *Plan) string {
	aggs := make([]string, len(p.Aggs))
	for i, a := range p.Aggs {
		aggs[i] = a.String()
	}
	if len(p.GroupBy) > 0 {
		groups := make([]string, len(p.GroupBy))
		for i, g := range p.GroupBy {
			groups[i] = g.String()
		}
		return fmt.Sprintf("HashAggregate (groups: %s) [%s]", strings.Join(groups, ", "), strings.Join(aggs, ", "))
	}
	return fmt.Sprintf("Aggregate [%s]", strings.Join(aggs, ", "))
}

func orderKeys(p *Plan) string {
	keys := make([]string, len(p.OrderBy))
	for i, k := range p.OrderBy {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		keys[i] = fmt.Sprintf("%s %s", p.FieldNames[k.Index], dir)
	}
	return strings.Join(keys, ", ")
}
