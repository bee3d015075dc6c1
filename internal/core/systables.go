package core

import (
	"strings"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/exec"
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

// systemTable pairs a table definition with its row materializer.
type systemTable struct {
	name string
	cols []catalog.ColumnDef
	rows func(db *Database) []types.Row
}

var systemTables = []systemTable{
	{
		name: "stl_query",
		cols: []catalog.ColumnDef{
			{Name: "query", Type: types.Int64},
			{Name: "querytxt", Type: types.String},
			{Name: "starttime", Type: types.Timestamp},
			{Name: "endtime", Type: types.Timestamp},
			{Name: "queue_ms", Type: types.Float64},
			{Name: "plan_ms", Type: types.Float64},
			{Name: "exec_ms", Type: types.Float64},
			{Name: "rows", Type: types.Int64},
			{Name: "blocks_read", Type: types.Int64},
			{Name: "blocks_skipped", Type: types.Int64},
			{Name: "net_bytes", Type: types.Int64},
			{Name: "aborted", Type: types.Int64},
			{Name: "state", Type: types.String},
			{Name: "mem_peak", Type: types.Int64},
			{Name: "spill_bytes", Type: types.Int64},
			{Name: "queue", Type: types.String},
			// With queue_ms, plan_ms and exec_ms above, the nine stages of
			// telemetry.Stage: they sum to endtime − starttime.
			{Name: "parse_ms", Type: types.Float64},
			{Name: "normalize_ms", Type: types.Float64},
			{Name: "cache_ms", Type: types.Float64},
			{Name: "leader_ms", Type: types.Float64},
			{Name: "serialize_ms", Type: types.Float64},
			{Name: "other_ms", Type: types.Float64},
		},
		rows: func(db *Database) []types.Row {
			recs := db.qlog.Records()
			rows := make([]types.Row, 0, len(recs))
			for _, r := range recs {
				ms := func(st telemetry.Stage) types.Value { return types.NewFloat(float64(r.Stages[st]) / 1e6) }
				aborted := int64(0)
				if r.State != "success" {
					aborted = 1
				}
				rows = append(rows, types.Row{
					types.NewInt(r.ID),
					types.NewString(r.SQL),
					types.NewTimestamp(r.Start.UnixMicro()),
					types.NewTimestamp(r.End.UnixMicro()),
					ms(telemetry.StageQueue),
					ms(telemetry.StagePlan),
					ms(telemetry.StageExec),
					types.NewInt(r.Rows),
					types.NewInt(r.BlocksRead),
					types.NewInt(r.BlocksSkipped),
					types.NewInt(r.NetBytes),
					types.NewInt(aborted),
					types.NewString(r.State),
					types.NewInt(r.MemPeak),
					types.NewInt(r.SpillBytes),
					types.NewString(r.Queue),
					ms(telemetry.StageParse),
					ms(telemetry.StageNormalize),
					ms(telemetry.StageCache),
					ms(telemetry.StageLeader),
					ms(telemetry.StageSerialize),
					ms(telemetry.StageOther),
				})
			}
			return rows
		},
	},
	{
		// Queue configuration plus cumulative service counters — the
		// "service class" view. Live occupancy is stv_wlm_queue_state.
		name: "stv_wlm_queues",
		cols: []catalog.ColumnDef{
			{Name: "queue", Type: types.String},
			{Name: "slots", Type: types.Int64},
			{Name: "priority", Type: types.Int64},
			{Name: "mem_per_slot", Type: types.Int64},
			{Name: "short_query_rows", Type: types.Int64},
			{Name: "timeout_ms", Type: types.Int64},
			{Name: "total_queries", Type: types.Int64},
			{Name: "total_wait_ms", Type: types.Float64},
			{Name: "timeouts", Type: types.Int64},
			{Name: "evictions", Type: types.Int64},
			{Name: "peak_active", Type: types.Int64},
			{Name: "peak_queued", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			var rows []types.Row
			for _, q := range db.wlm.QueueStats() {
				rows = append(rows, types.Row{
					types.NewString(q.Name),
					types.NewInt(int64(q.Slots)),
					types.NewInt(int64(q.Priority)),
					types.NewInt(q.MemPerSlot),
					types.NewInt(q.MaxEstRows),
					types.NewInt(q.Timeout.Milliseconds()),
					types.NewInt(q.TotalRun),
					types.NewFloat(float64(q.TotalWait.Microseconds()) / 1e3),
					types.NewInt(q.Timeouts),
					types.NewInt(q.Evictions),
					types.NewInt(int64(q.PeakActive)),
					types.NewInt(int64(q.PeakQueued)),
				})
			}
			return rows
		},
	},
	{
		// Live per-queue occupancy. System selects bypass WLM admission, so
		// this stays queryable while every queue is saturated — the whole
		// point of a queue-depth monitoring view.
		name: "stv_wlm_queue_state",
		cols: []catalog.ColumnDef{
			{Name: "queue", Type: types.String},
			{Name: "active", Type: types.Int64},
			{Name: "queued", Type: types.Int64},
			{Name: "oldest_wait_ms", Type: types.Float64},
		},
		rows: func(db *Database) []types.Row {
			var rows []types.Row
			for _, q := range db.wlm.QueueStats() {
				rows = append(rows, types.Row{
					types.NewString(q.Name),
					types.NewInt(int64(q.Active)),
					types.NewInt(int64(q.Queued)),
					types.NewFloat(float64(q.OldestWait.Microseconds()) / 1e3),
				})
			}
			return rows
		},
	},
	{
		name: "stv_slice_stats",
		cols: []catalog.ColumnDef{
			{Name: "slice", Type: types.Int64},
			{Name: "node", Type: types.Int64},
			{Name: "scans", Type: types.Int64},
			{Name: "blocks_read", Type: types.Int64},
			{Name: "blocks_skipped", Type: types.Int64},
			{Name: "rows_read", Type: types.Int64},
			{Name: "bytes_read", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			rows := make([]types.Row, 0, len(db.sliceStats))
			for sl := range db.sliceStats {
				st := &db.sliceStats[sl]
				rows = append(rows, types.Row{
					types.NewInt(int64(sl)),
					types.NewInt(int64(db.cl.Slice(sl).Node.ID)),
					types.NewInt(st.scans.Load()),
					types.NewInt(st.blocksRead.Load()),
					types.NewInt(st.blocksSkipped.Load()),
					types.NewInt(st.rowsRead.Load()),
					types.NewInt(st.bytesRead.Load()),
				})
			}
			return rows
		},
	},
	{
		name: "stv_exec_workers",
		cols: []catalog.ColumnDef{
			{Name: "query", Type: types.Int64},
			{Name: "dop", Type: types.Int64},
			{Name: "workers", Type: types.Int64},
			{Name: "morsels_dispatched", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			var rows []types.Row
			for _, q := range db.runningQueries() {
				if q.par == nil {
					continue // DOP not chosen yet
				}
				rows = append(rows, types.Row{
					types.NewInt(q.id),
					types.NewInt(int64(q.par.DOP)),
					types.NewInt(q.par.Workers.Load()),
					types.NewInt(q.par.Morsels.Load()),
				})
			}
			return rows
		},
	},
	{
		name: "stv_inflight",
		cols: []catalog.ColumnDef{
			{Name: "query", Type: types.Int64},
			{Name: "querytxt", Type: types.String},
			{Name: "starttime", Type: types.Timestamp},
		},
		rows: func(db *Database) []types.Row {
			rqs := db.runningQueries()
			rows := make([]types.Row, 0, len(rqs))
			for _, rq := range rqs {
				rows = append(rows, types.Row{
					types.NewInt(rq.id),
					types.NewString(rq.sql),
					types.NewTimestamp(rq.start.UnixMicro()),
				})
			}
			return rows
		},
	},
	{
		name: "stv_query_memory",
		cols: []catalog.ColumnDef{
			{Name: "query", Type: types.Int64},
			{Name: "grant_bytes", Type: types.Int64},
			{Name: "used_bytes", Type: types.Int64},
			{Name: "peak_bytes", Type: types.Int64},
			{Name: "spill_bytes", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			var rows []types.Row
			for _, q := range db.runningQueries() {
				if q.mem == nil {
					continue // no grant issued yet
				}
				rows = append(rows, types.Row{
					types.NewInt(q.id),
					types.NewInt(q.grant),
					types.NewInt(q.mem.Used()),
					types.NewInt(q.mem.Peak()),
					types.NewInt(q.spill.Bytes()),
				})
			}
			return rows
		},
	},
	{
		name: "stv_faults",
		cols: []catalog.ColumnDef{
			{Name: "site", Type: types.Int64},
			{Name: "name", Type: types.String},
			{Name: "prob", Type: types.Float64},
			{Name: "hits", Type: types.Int64},
			{Name: "injected", Type: types.Int64},
			{Name: "delayed", Type: types.Int64},
			{Name: "enabled", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			if db.inj == nil {
				return nil
			}
			enabled := int64(0)
			if db.inj.Enabled() {
				enabled = 1
			}
			snap := db.inj.Snapshot()
			rows := make([]types.Row, 0, len(snap))
			for i, s := range snap {
				rows = append(rows, types.Row{
					types.NewInt(int64(i)),
					types.NewString(s.Site),
					types.NewFloat(s.Rule.Prob),
					types.NewInt(s.Hits),
					types.NewInt(s.Injected),
					types.NewInt(s.Delayed),
					types.NewInt(enabled),
				})
			}
			return rows
		},
	},
	{
		name: "stv_node_health",
		cols: []catalog.ColumnDef{
			{Name: "node", Type: types.Int64},
			{Name: "consecutive_failures", Type: types.Int64},
			{Name: "quarantined", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			snap := db.cl.Health().Snapshot(db.cl.NumNodes())
			rows := make([]types.Row, 0, len(snap))
			for _, nh := range snap {
				q := int64(0)
				if nh.Quarantined {
					q = 1
				}
				rows = append(rows, types.Row{
					types.NewInt(int64(nh.Node)),
					types.NewInt(int64(nh.Consecutive)),
					types.NewInt(q),
				})
			}
			return rows
		},
	},
	cacheTable("stv_block_cache", func(db *Database) storage.CacheStats { return db.cache.Stats() },
		"hits", "misses", "evictions", "bytes_cached", "budget_bytes", "entries", "saved_ms", "resident_cost_ms"),
	cacheTable("stv_plan_cache", func(db *Database) storage.CacheStats { return db.planCache.Stats() },
		"hits", "misses", "evictions", "invalidations", "entries", "budget_entries", "saved_ms", "resident_cost_ms"),
	cacheTable("stv_result_cache", func(db *Database) storage.CacheStats { return db.resultCache.Stats() },
		"hits", "misses", "evictions", "invalidations", "entries", "bytes_cached", "budget_bytes", "saved_ms", "resident_cost_ms"),
	{
		name: "stv_resize",
		cols: []catalog.ColumnDef{
			{Name: "active", Type: types.Int64},
			{Name: "phase", Type: types.String},
			{Name: "from_nodes", Type: types.Int64},
			{Name: "to_nodes", Type: types.Int64},
			{Name: "tables_total", Type: types.Int64},
			{Name: "tables_copied", Type: types.Int64},
			{Name: "rows_copied", Type: types.Int64},
			{Name: "catchup_rounds", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			p := db.ResizeProgress()
			if p.Phase == "" {
				return nil
			}
			active := int64(0)
			if p.Active {
				active = 1
			}
			return []types.Row{{
				types.NewInt(active),
				types.NewString(p.Phase),
				types.NewInt(int64(p.FromNodes)),
				types.NewInt(int64(p.ToNodes)),
				types.NewInt(p.TablesTotal),
				types.NewInt(p.TablesCopied),
				types.NewInt(p.RowsCopied),
				types.NewInt(p.CatchupRounds),
			}}
		},
	},
	{
		name: "stv_burst_clusters",
		cols: []catalog.ColumnDef{
			{Name: "burst_cluster", Type: types.Int64},
			{Name: "state", Type: types.String},
			{Name: "backup_id", Type: types.String},
			{Name: "snapshot_xid", Type: types.Int64},
			{Name: "routed_queries", Type: types.Int64},
			{Name: "fallbacks", Type: types.Int64},
		},
		rows: func(db *Database) []types.Row {
			infos := db.burstInfoRows()
			rows := make([]types.Row, 0, len(infos))
			for _, b := range infos {
				rows = append(rows, types.Row{
					types.NewInt(b.ID),
					types.NewString(b.State),
					types.NewString(b.BackupID),
					types.NewInt(b.SnapshotXid),
					types.NewInt(b.RoutedQueries),
					types.NewInt(b.Fallbacks),
				})
			}
			return rows
		},
	},
}

// cacheColumns are the columns a cache's stv_ table may have, each read
// from its storage.CacheStats.
var cacheColumns = map[string]func(storage.CacheStats) types.Value{
	"hits":             func(s storage.CacheStats) types.Value { return types.NewInt(s.Hits) },
	"misses":           func(s storage.CacheStats) types.Value { return types.NewInt(s.Misses) },
	"evictions":        func(s storage.CacheStats) types.Value { return types.NewInt(s.Evictions) },
	"invalidations":    func(s storage.CacheStats) types.Value { return types.NewInt(s.Invalidations) },
	"entries":          func(s storage.CacheStats) types.Value { return types.NewInt(s.Entries) },
	"bytes_cached":     func(s storage.CacheStats) types.Value { return types.NewInt(s.Bytes) },
	"budget_bytes":     func(s storage.CacheStats) types.Value { return types.NewInt(s.Budget) },
	"budget_entries":   func(s storage.CacheStats) types.Value { return types.NewInt(s.Budget) },
	"saved_ms":         func(s storage.CacheStats) types.Value { return types.NewFloat(float64(s.SavedNs) / 1e6) },
	"resident_cost_ms": func(s storage.CacheStats) types.Value { return types.NewFloat(float64(s.ResidentCostNs) / 1e6) },
}

// cacheTable is a one-row stv_ view of a cache's stats with the named
// cacheColumns, in order.
func cacheTable(name string, stats func(*Database) storage.CacheStats, cols ...string) systemTable {
	t := systemTable{name: name, rows: func(db *Database) []types.Row {
		s := stats(db)
		row := make(types.Row, len(cols))
		for i, c := range cols {
			row[i] = cacheColumns[c](s)
		}
		return []types.Row{row}
	}}
	for _, c := range cols {
		t.cols = append(t.cols, catalog.ColumnDef{Name: c, Type: cacheColumns[c](storage.CacheStats{}).T})
	}
	return t
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
