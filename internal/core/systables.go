package core

import (
	"slices"
	"strings"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// System tables are Redshift's stl_ (log) and stv_ (snapshot) views: they
// answer "what has this cluster been doing" with the same SQL surface as
// user tables, but execute entirely at the leader against materialized
// in-memory rows. They live in a transient per-query catalog, never in the
// user catalog, so ANALYZE/VACUUM/resize/backup sweeps don't see them.

// systemTable pairs a table definition with its row materializer. Every one
// is built by sysTable.
type systemTable struct {
	name string
	cols []catalog.ColumnDef
	rows func(db *Database) []types.Row
}

// sysCol is one column of a system table over row sources of type R: its
// name, its type, and how a source yields its value.
type sysCol[R any] struct {
	name string
	typ  types.Type
	get  func(R) types.Value
}

func intCol[R any](name string, get func(R) int64) sysCol[R] {
	return sysCol[R]{name, types.Int64, func(r R) types.Value { return types.NewInt(get(r)) }}
}

func floatCol[R any](name string, get func(R) float64) sysCol[R] {
	return sysCol[R]{name, types.Float64, func(r R) types.Value { return types.NewFloat(get(r)) }}
}

func strCol[R any](name string, get func(R) string) sysCol[R] {
	return sysCol[R]{name, types.String, func(r R) types.Value { return types.NewString(get(r)) }}
}

func timeCol[R any](name string, get func(R) time.Time) sysCol[R] {
	return sysCol[R]{name, types.Timestamp, func(r R) types.Value { return types.NewTimestamp(get(r).UnixMicro()) }}
}

// oneIf is a boolean as system tables report it: a 0/1 BIGINT.
func oneIf(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sysTable declares a system table with one row per source rows returns,
// valued by cols in order.
func sysTable[R any](name string, rows func(*Database) []R, cols ...sysCol[R]) systemTable {
	t := systemTable{name: name, rows: func(db *Database) []types.Row {
		src := rows(db)
		out := make([]types.Row, len(src))
		for i, r := range src {
			out[i] = make(types.Row, len(cols))
			for j, c := range cols {
				out[i][j] = c.get(r)
			}
		}
		return out
	}}
	for _, c := range cols {
		t.cols = append(t.cols, catalog.ColumnDef{Name: c.name, Type: c.typ})
	}
	return t
}

// stageCol is stl_query's column for one telemetry.Stage, in milliseconds.
func stageCol(name string, st telemetry.Stage) sysCol[telemetry.QueryRecord] {
	return floatCol(name, func(r telemetry.QueryRecord) float64 { return float64(r.Stages[st]) / 1e6 })
}

var systemTables = []systemTable{
	sysTable("stl_query", func(db *Database) []telemetry.QueryRecord { return db.qlog.Records() },
		intCol("query", func(r telemetry.QueryRecord) int64 { return r.ID }),
		strCol("querytxt", func(r telemetry.QueryRecord) string { return r.SQL }),
		timeCol("starttime", func(r telemetry.QueryRecord) time.Time { return r.Start }),
		timeCol("endtime", func(r telemetry.QueryRecord) time.Time { return r.End }),
		stageCol("queue_ms", telemetry.StageQueue),
		stageCol("plan_ms", telemetry.StagePlan),
		stageCol("exec_ms", telemetry.StageExec),
		intCol("rows", func(r telemetry.QueryRecord) int64 { return r.Rows }),
		intCol("blocks_read", func(r telemetry.QueryRecord) int64 { return r.BlocksRead }),
		intCol("blocks_skipped", func(r telemetry.QueryRecord) int64 { return r.BlocksSkipped }),
		intCol("net_bytes", func(r telemetry.QueryRecord) int64 { return r.NetBytes }),
		intCol("aborted", func(r telemetry.QueryRecord) int64 { return oneIf(r.State != "success") }),
		strCol("state", func(r telemetry.QueryRecord) string { return r.State }),
		intCol("mem_peak", func(r telemetry.QueryRecord) int64 { return r.MemPeak }),
		intCol("spill_bytes", func(r telemetry.QueryRecord) int64 { return r.SpillBytes }),
		strCol("queue", func(r telemetry.QueryRecord) string { return r.Queue }),
		// With queue_ms, plan_ms and exec_ms above, the nine stages of
		// telemetry.Stage: they sum to endtime − starttime.
		stageCol("parse_ms", telemetry.StageParse),
		stageCol("normalize_ms", telemetry.StageNormalize),
		stageCol("cache_ms", telemetry.StageCache),
		stageCol("leader_ms", telemetry.StageLeader),
		stageCol("serialize_ms", telemetry.StageSerialize),
		stageCol("other_ms", telemetry.StageOther),
	),
	// Queue configuration plus cumulative service counters — the
	// "service class" view. Live occupancy is stv_wlm_queue_state.
	sysTable("stv_wlm_queues", func(db *Database) []WLMQueueStats { return db.wlm.QueueStats() },
		strCol("queue", func(q WLMQueueStats) string { return q.Name }),
		intCol("slots", func(q WLMQueueStats) int64 { return int64(q.Slots) }),
		intCol("priority", func(q WLMQueueStats) int64 { return int64(q.Priority) }),
		intCol("mem_per_slot", func(q WLMQueueStats) int64 { return q.MemPerSlot }),
		intCol("short_query_rows", func(q WLMQueueStats) int64 { return q.MaxEstRows }),
		intCol("timeout_ms", func(q WLMQueueStats) int64 { return q.Timeout.Milliseconds() }),
		intCol("total_queries", func(q WLMQueueStats) int64 { return q.TotalRun }),
		floatCol("total_wait_ms", func(q WLMQueueStats) float64 { return float64(q.TotalWait.Microseconds()) / 1e3 }),
		intCol("timeouts", func(q WLMQueueStats) int64 { return q.Timeouts }),
		intCol("evictions", func(q WLMQueueStats) int64 { return q.Evictions }),
		intCol("peak_active", func(q WLMQueueStats) int64 { return int64(q.PeakActive) }),
		intCol("peak_queued", func(q WLMQueueStats) int64 { return int64(q.PeakQueued) }),
	),
	// Live per-queue occupancy. System selects bypass WLM admission, so
	// this stays queryable while every queue is saturated — the whole
	// point of a queue-depth monitoring view.
	sysTable("stv_wlm_queue_state", func(db *Database) []WLMQueueStats { return db.wlm.QueueStats() },
		strCol("queue", func(q WLMQueueStats) string { return q.Name }),
		intCol("active", func(q WLMQueueStats) int64 { return int64(q.Active) }),
		intCol("queued", func(q WLMQueueStats) int64 { return int64(q.Queued) }),
		floatCol("oldest_wait_ms", func(q WLMQueueStats) float64 { return float64(q.OldestWait.Microseconds()) / 1e3 }),
	),
	sysTable("stv_slice_stats", sliceRows,
		intCol("slice", func(r sliceRow) int64 { return r.slice }),
		intCol("node", func(r sliceRow) int64 { return r.node }),
		intCol("scans", func(r sliceRow) int64 { return r.st.scans.Load() }),
		intCol("blocks_read", func(r sliceRow) int64 { return r.st.blocksRead.Load() }),
		intCol("blocks_skipped", func(r sliceRow) int64 { return r.st.blocksSkipped.Load() }),
		intCol("rows_read", func(r sliceRow) int64 { return r.st.rowsRead.Load() }),
		intCol("bytes_read", func(r sliceRow) int64 { return r.st.bytesRead.Load() }),
	),
	sysTable("stv_exec_workers",
		func(db *Database) []inflight {
			return slices.DeleteFunc(db.runningQueries(), func(q inflight) bool { return q.par == nil }) // DOP not chosen yet
		},
		intCol("query", func(q inflight) int64 { return q.id }),
		intCol("dop", func(q inflight) int64 { return int64(q.par.DOP) }),
		intCol("workers", func(q inflight) int64 { return q.par.Workers.Load() }),
		intCol("morsels_dispatched", func(q inflight) int64 { return q.par.Morsels.Load() }),
	),
	sysTable("stv_inflight", (*Database).runningQueries,
		intCol("query", func(q inflight) int64 { return q.id }),
		strCol("querytxt", func(q inflight) string { return q.sql }),
		timeCol("starttime", func(q inflight) time.Time { return q.start }),
	),
	sysTable("stv_query_memory",
		func(db *Database) []inflight {
			return slices.DeleteFunc(db.runningQueries(), func(q inflight) bool { return q.mem == nil }) // no grant issued yet
		},
		intCol("query", func(q inflight) int64 { return q.id }),
		intCol("grant_bytes", func(q inflight) int64 { return q.grant }),
		intCol("used_bytes", func(q inflight) int64 { return q.mem.Used() }),
		intCol("peak_bytes", func(q inflight) int64 { return q.mem.Peak() }),
		intCol("spill_bytes", func(q inflight) int64 { return q.spill.Bytes() }),
	),
	sysTable("stv_faults", faultRows,
		intCol("site", func(r faultRow) int64 { return r.site }),
		strCol("name", func(r faultRow) string { return r.snap.Site }),
		floatCol("prob", func(r faultRow) float64 { return r.snap.Rule.Prob }),
		intCol("hits", func(r faultRow) int64 { return r.snap.Hits }),
		intCol("injected", func(r faultRow) int64 { return r.snap.Injected }),
		intCol("delayed", func(r faultRow) int64 { return r.snap.Delayed }),
		intCol("enabled", func(r faultRow) int64 { return oneIf(r.enabled) }),
	),
	sysTable("stv_node_health", func(db *Database) []cluster.NodeHealth { return db.cl.Health().Snapshot(db.cl.NumNodes()) },
		intCol("node", func(h cluster.NodeHealth) int64 { return int64(h.Node) }),
		intCol("consecutive_failures", func(h cluster.NodeHealth) int64 { return int64(h.Consecutive) }),
		intCol("quarantined", func(h cluster.NodeHealth) int64 { return oneIf(h.Quarantined) }),
	),
	cacheTable("stv_block_cache", func(db *Database) storage.CacheStats { return db.cache.Stats() },
		"hits", "misses", "evictions", "bytes_cached", "budget_bytes", "entries", "saved_ms", "resident_cost_ms"),
	cacheTable("stv_plan_cache", func(db *Database) storage.CacheStats { return db.planCache.Stats() },
		"hits", "misses", "evictions", "invalidations", "entries", "budget_entries", "saved_ms", "resident_cost_ms"),
	cacheTable("stv_result_cache", func(db *Database) storage.CacheStats { return db.resultCache.Stats() },
		"hits", "misses", "evictions", "invalidations", "entries", "bytes_cached", "budget_bytes", "saved_ms", "resident_cost_ms"),
	sysTable("stv_resize",
		func(db *Database) []ResizeProgress {
			if p := db.ResizeProgress(); p.Phase != "" {
				return []ResizeProgress{p}
			}
			return nil
		},
		intCol("active", func(p ResizeProgress) int64 { return oneIf(p.Active) }),
		strCol("phase", func(p ResizeProgress) string { return p.Phase }),
		intCol("from_nodes", func(p ResizeProgress) int64 { return int64(p.FromNodes) }),
		intCol("to_nodes", func(p ResizeProgress) int64 { return int64(p.ToNodes) }),
		intCol("tables_total", func(p ResizeProgress) int64 { return p.TablesTotal }),
		intCol("tables_copied", func(p ResizeProgress) int64 { return p.TablesCopied }),
		intCol("rows_copied", func(p ResizeProgress) int64 { return p.RowsCopied }),
		intCol("catchup_rounds", func(p ResizeProgress) int64 { return p.CatchupRounds }),
	),
	sysTable("stv_burst_clusters", (*Database).burstInfoRows,
		intCol("burst_cluster", func(b BurstClusterInfo) int64 { return b.ID }),
		strCol("state", func(b BurstClusterInfo) string { return b.State }),
		strCol("backup_id", func(b BurstClusterInfo) string { return b.BackupID }),
		intCol("snapshot_xid", func(b BurstClusterInfo) int64 { return b.SnapshotXid }),
		intCol("routed_queries", func(b BurstClusterInfo) int64 { return b.RoutedQueries }),
		intCol("fallbacks", func(b BurstClusterInfo) int64 { return b.Fallbacks }),
	),
}

// sliceRow is one slice's stv_slice_stats source: its scan counters and the
// node it lives on.
type sliceRow struct {
	slice, node int64
	st          *sliceStat
}

func sliceRows(db *Database) []sliceRow {
	out := make([]sliceRow, len(db.sliceStats))
	for sl := range out {
		out[sl] = sliceRow{int64(sl), int64(db.cl.Slice(sl).Node.ID), &db.sliceStats[sl]}
	}
	return out
}

// faultRow is one fault site's stv_faults source: its position, its rule
// and counters, and whether injection was live when the table was read.
type faultRow struct {
	site    int64
	snap    faults.SiteSnapshot
	enabled bool
}

func faultRows(db *Database) []faultRow {
	enabled := db.inj.Enabled()
	snap := db.inj.Snapshot()
	out := make([]faultRow, len(snap))
	for i, s := range snap {
		out[i] = faultRow{int64(i), s, enabled}
	}
	return out
}

// cacheColumns are the columns a cache's stv_ table may have, by name, each
// read from its storage.CacheStats.
var cacheColumns = func(cols ...sysCol[storage.CacheStats]) map[string]sysCol[storage.CacheStats] {
	m := make(map[string]sysCol[storage.CacheStats], len(cols))
	for _, c := range cols {
		m[c.name] = c
	}
	return m
}(
	intCol("hits", func(s storage.CacheStats) int64 { return s.Hits }),
	intCol("misses", func(s storage.CacheStats) int64 { return s.Misses }),
	intCol("evictions", func(s storage.CacheStats) int64 { return s.Evictions }),
	intCol("invalidations", func(s storage.CacheStats) int64 { return s.Invalidations }),
	intCol("entries", func(s storage.CacheStats) int64 { return s.Entries }),
	intCol("bytes_cached", func(s storage.CacheStats) int64 { return s.Bytes }),
	intCol("budget_bytes", func(s storage.CacheStats) int64 { return s.Budget }),
	intCol("budget_entries", func(s storage.CacheStats) int64 { return s.Budget }),
	floatCol("saved_ms", func(s storage.CacheStats) float64 { return float64(s.SavedNs) / 1e6 }),
	floatCol("resident_cost_ms", func(s storage.CacheStats) float64 { return float64(s.ResidentCostNs) / 1e6 }),
)

// cacheTable is a one-row stv_ view of a cache's stats with the named
// cacheColumns, in order.
func cacheTable(name string, stats func(*Database) storage.CacheStats, cols ...string) systemTable {
	picked := make([]sysCol[storage.CacheStats], len(cols))
	for i, c := range cols {
		picked[i] = cacheColumns[c]
	}
	return sysTable(name, func(db *Database) []storage.CacheStats { return []storage.CacheStats{stats(db)} }, picked...)
}

// isSystemTable reports whether name is a leader-resolved system table.
func isSystemTable(name string) bool {
	n := strings.ToLower(name)
	for _, st := range systemTables {
		if st.name == n {
			return true
		}
	}
	return false
}

// sysCatalog builds the transient catalog the system tables live in, with
// each table's rows materialized. Both system SELECTs and system EXPLAINs
// must plan against this catalog — the persistent catalog has no stl_/stv_
// definitions.
func (db *Database) sysCatalog() (*catalog.Catalog, map[*catalog.TableDef][]types.Row, error) {
	cat := catalog.New()
	sys := map[*catalog.TableDef][]types.Row{}
	for _, st := range systemTables {
		def := &catalog.TableDef{Name: st.name, DistStyle: catalog.DistEven, DistKeyCol: -1}
		for _, c := range st.cols {
			c.Encoding = compress.Raw
			def.Columns = append(def.Columns, c)
		}
		if err := cat.Create(def); err != nil {
			return nil, nil, err
		}
		sys[def] = st.rows(db)
	}
	return cat, sys, nil
}

// runSystemSelect executes a SELECT over system tables: the full plan and
// execution pipeline runs, but against a transient catalog of materialized
// rows, on a single leader "slice". System queries are not themselves
// logged into stl_query (monitoring shouldn't fill the log it reads) nor
// shown in stv_inflight.
func (db *Database) runSystemSelect(run *stmtRun, s *sql.Select) (*Result, error) {
	cat, sys, err := db.sysCatalog()
	if err != nil {
		return nil, err
	}
	p, err := plan.BuildWith(cat, s, db.cfg.Plan)
	if err != nil {
		return nil, err
	}
	q := &queryRun{
		db:    db,
		p:     p,
		mode:  db.cfg.Mode,
		scans: &exec.ScanStats{},
		run:   run,
		sys:   sys,
	}
	final, err := q.execute(run.deadline())
	if err != nil {
		return nil, err
	}
	return &Result{Schema: p.Schema(), Rows: final.Rows()}, nil
}
