package plan

import (
	"fmt"
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// JoinStrategy is how a join's inputs are brought together across slices
// (§2.1: distribution keys allow "join processing on that key to be
// co-located on individual slices ... avoiding the redistribution of
// intermediate results").
type JoinStrategy uint8

const (
	// StrategyCollocated joins slice-local data with no data movement:
	// both sides are distributed by their join key.
	StrategyCollocated JoinStrategy = iota
	// StrategyBroadcast replicates the (small or DISTSTYLE ALL) inner side
	// to every node.
	StrategyBroadcast
	// StrategyShuffle redistributes both sides by the join key hash.
	StrategyShuffle
)

// String names the strategy as EXPLAIN prints it.
func (s JoinStrategy) String() string {
	switch s {
	case StrategyCollocated:
		return "DS_DIST_NONE"
	case StrategyBroadcast:
		return "DS_BCAST_INNER"
	case StrategyShuffle:
		return "DS_DIST_BOTH"
	default:
		return "DS_UNKNOWN"
	}
}

// ColRange is a per-column value bound extracted from a pushed predicate;
// the scan prunes any block whose zone map cannot intersect it.
type ColRange struct {
	Col    int // table-local column ordinal
	Lo, Hi types.Value
	HasLo  bool
	HasHi  bool
	// Eq lists the non-NULL values an = or an IN list pins the column to;
	// nil for a one-sided bound.
	Eq []types.Value
}

// TableScan is one base-table access.
type TableScan struct {
	Def   *catalog.TableDef
	Alias string
	// BaseCol is the offset of this table's first column in the joined row
	// layout.
	BaseCol int
	// Filter is the pushed-down predicate over table-local column indexes;
	// nil when nothing was pushable.
	Filter Expr
	// Ranges are the zone-map-prunable bounds derived from Filter.
	Ranges []ColRange
	// NeedCols lists the table-local columns the query reads: the
	// filter's input columns first (each group ascending), so the scan
	// can evaluate the predicate before materializing the rest. Unused
	// columns are never decoded, and an empty NeedCols means the scan
	// needs row counts only (COUNT(*) with no filter) — served from
	// block metadata with zero decodes.
	NeedCols []int
	// FilterOnly lists the NeedCols only Filter reads: the scan drops them
	// once the predicate has run, so they are never gathered or carried.
	FilterOnly []int
	// EstRows is the table's estimated row count: catalog statistics when
	// present, else the visible-segment fallback, else -1 (unknown).
	EstRows int64
	// Stats is the table's catalog statistics snapshot at plan time (nil
	// when the table has never been ANALYZEd or loaded with stats); the
	// selectivity estimator and cost model read per-column NDV, bounds,
	// null fractions and widths from it.
	Stats *catalog.TableStats
}

// JoinStep joins the accumulated left side with one more table.
type JoinStep struct {
	Kind  sql.JoinKind
	Right int // index into Plan.Tables
	// LeftKeys are equi-join keys over the current joined layout;
	// RightKeys are the matching keys over the right table's local layout.
	LeftKeys  []Expr
	RightKeys []Expr
	// Residual is an extra inner-join predicate evaluated on joined rows.
	Residual Expr
	Strategy JoinStrategy
}

// AggSpec is one aggregate computation, split into a mergeable partial
// phase (per slice) and a final phase (leader).
type AggSpec struct {
	Func sql.FuncName
	// Arg is the input expression over the joined layout; nil for COUNT(*).
	Arg      Expr
	Distinct bool
	// Approx selects the HLL sketch implementation of COUNT(DISTINCT).
	Approx bool
	T      types.Type
}

// String renders the aggregate for EXPLAIN.
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	name := string(a.Func)
	if a.Approx {
		name = "APPROXIMATE " + name
	}
	return fmt.Sprintf("%s(%s)", name, arg)
}

// OrderKey orders final output by one projected column.
type OrderKey struct {
	Index int
	Desc  bool
}

// Plan is the physical plan for one SELECT.
type Plan struct {
	Tables []*TableScan
	Joins  []JoinStep
	// Where is the residual predicate over the joined layout after
	// pushdown; nil when fully pushed to scans.
	Where Expr
	// HasAgg marks an aggregating query. GroupBy/Aggs/Having are only
	// meaningful then; Project is over [group keys..., agg results...].
	HasAgg  bool
	GroupBy []Expr
	Aggs    []AggSpec
	Having  Expr
	// Project computes the output columns (over the joined layout, or over
	// the aggregate layout when HasAgg).
	Project    []Expr
	FieldNames []string
	// Distinct drops duplicate output rows at the leader: DISTINCT over
	// groups only, since DISTINCT over rows binds as a GROUP BY.
	Distinct bool
	OrderBy  []OrderKey
	Limit    int64 // -1 = none
	// EstCost is the plan's scalar cost estimate — the sum of estimated
	// rows flowing through every physical node — or -1 when any node's
	// cardinality is unknown. The WLM's short-query fast lane compares it
	// against its admission threshold.
	EstCost int64

	// physical is the lowered tree BuildWith priced EstCost from, kept for
	// every execution and EXPLAIN of the plan (the plan cache shares plans
	// between sessions): read-only once set.
	physical *Physical
}

// Physical returns the plan's lowered operator tree: the one BuildWith
// built, or a fresh lowering for a plan assembled by hand. Callers must not
// modify it.
func (p *Plan) Physical() *Physical {
	if p.physical != nil {
		return p.physical
	}
	return BuildPhysical(p)
}

// FieldTypes returns the output column types.
func (p *Plan) FieldTypes() []types.Type {
	ts := make([]types.Type, len(p.Project))
	for i, e := range p.Project {
		ts[i] = e.Type()
	}
	return ts
}

// Schema returns the output schema.
func (p *Plan) Schema() types.Schema {
	cols := make([]types.Column, len(p.Project))
	for i := range p.Project {
		cols[i] = types.Column{Name: p.FieldNames[i], Type: p.Project[i].Type()}
	}
	return types.NewSchema(cols...)
}

// Explain renders the plan as its lowered physical operator tree — what
// the executor actually runs — in a Redshift-flavored indented style.
func (p *Plan) Explain() string {
	return p.Physical().Explain()
}

// ExplainWithMemory renders Explain plus the query's memory grant when
// one is in effect (grant > 0); ungoverned plans render unchanged so the
// plain EXPLAIN output stays stable.
func (p *Plan) ExplainWithMemory(grant int64) string {
	out := p.Explain()
	if grant > 0 {
		out += fmt.Sprintf("Memory Grant: %d bytes (spills to disk beyond it)\n", grant)
	}
	return out
}

func scanDetail(s *TableScan) string {
	var parts []string
	if s.Filter != nil {
		parts = append(parts, "filter: "+s.Filter.String())
	}
	if len(s.Ranges) > 0 {
		parts = append(parts, fmt.Sprintf("zone-map ranges: %d", len(s.Ranges)))
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, "; ") + ")"
}

// Options tunes planning decisions.
type Options struct {
	// BroadcastRows is the inner-table row-count threshold below which a
	// join broadcasts the inner side instead of shuffling both. Since the
	// cost model prices broadcast vs shuffle from statistics, this is an
	// override that only decides when one side's cardinality is unknown.
	BroadcastRows int64
	// TableRows estimates a table's current visible row count straight
	// from the storage layer (summing visible segment rows). It is the
	// planner's fallback for tables that have never been ANALYZEd or
	// loaded with STATUPDATE — without it such tables would always look
	// unknown and shuffle even when tiny. Returns -1 for unknown; nil
	// disables the fallback.
	TableRows func(tableID int64) int64
	// NumNodes is the cluster's node count, pricing broadcast replication
	// (a broadcast ships the inner side to every node). 0 is costed as 1.
	NumNodes int
	// SyntaxJoinOrder disables greedy join reordering so joins execute in
	// literal FROM order — the pre-cost-based behavior, kept for plan
	// regression baselines and the plan-quality benchmark's worst case.
	SyntaxJoinOrder bool
}

// DefaultOptions returns the planner defaults.
func DefaultOptions() Options { return Options{BroadcastRows: 100_000} }
