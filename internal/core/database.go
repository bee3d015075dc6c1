// Package core is the data plane of §2: the leader node's SQL surface over
// a cluster of compute nodes. It glues the substrates together — parser and
// planner at the leader, per-slice compiled execution at the compute nodes,
// distribution-aware joins, two-phase aggregation, COPY loading,
// snapshot-isolated commits, VACUUM and ANALYZE — behind one Database type
// with a single Execute(sql) entry point.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/load"
	"redshift/internal/plan"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/txn"
	"redshift/internal/types"
)

// Config sizes and tunes a database.
type Config struct {
	// Cluster is the data plane topology.
	Cluster cluster.Config
	// Mode selects the execution engine; Compiled unless overridden.
	Mode exec.Mode
	// Plan tunes the optimizer; zero value uses defaults.
	Plan plan.Options
	// DataStore is the object store COPY reads from (the "data lake").
	// Optional; COPY fails without it.
	DataStore *s3sim.Store
	// QuerySlots bounds concurrent SELECTs (the WLM queue); 0 means
	// unlimited. Ignored when WLMQueues is set.
	QuerySlots int
	// WLMQueues configures named WLM queues (slots, memory shares,
	// priorities, a short-query fast lane, wait timeouts). Empty means one
	// default queue of QuerySlots.
	WLMQueues []QueueSpec
	// Metrics is the shared telemetry registry; a private one is created
	// when nil, so emission code never nil-checks. Passing one in lets the
	// warehouse layer keep fleet counters across resize and restore.
	Metrics *telemetry.Registry
	// QueryLogSize caps the stl_query ring buffer (default 1024).
	QueryLogSize int
	// BlockCacheBytes budgets the node-level decoded-block buffer cache.
	// 0 means the default (64 MiB); negative disables the cache.
	BlockCacheBytes int64
	// Faults is the fault injector threaded through the storage, cluster
	// and exchange paths; nil leaves every site inert.
	Faults *faults.Injector
	// StatementTimeout bounds every data-plane statement's wall-clock time —
	// reads and writes alike; 0 disables.
	// SET statement_timeout overrides it at runtime.
	StatementTimeout time.Duration
	// WLMSlotMemBytes is the execution-memory pool divided evenly across
	// WLM slots; each SELECT gets pool/slots as its grant and spills to
	// disk beyond it. 0 disables memory governance. SET work_mem overrides
	// the per-query grant at runtime.
	WLMSlotMemBytes int64
	// SpillDir is where queries create per-query scratch directories when
	// they exceed their grant; empty uses the OS temp dir.
	SpillDir string
	// PlanCacheEntries bounds the shared plan cache (entries, not bytes —
	// plans are small and uniform). 0 means the default (256); negative
	// disables plan caching.
	PlanCacheEntries int
	// ResultCacheBytes budgets the shared result cache. 0 means the
	// default (32 MiB); negative disables result caching.
	ResultCacheBytes int64
	// MaxParallelWorkers caps the intra-slice morsel parallelism of a
	// single query. 0 means runtime.GOMAXPROCS(0); negative forces serial
	// execution (dop=1). SET max_parallel_workers overrides per session.
	MaxParallelWorkers int
}

// Database is one warehouse cluster's SQL engine.
type Database struct {
	cfg Config
	cat *catalog.Catalog
	cl  *cluster.Cluster
	txm *txn.Manager
	wlm *WLM

	// metrics is the telemetry registry every layer emits into; qlog is
	// the ring buffer behind stl_query; sliceStats (one per slice) backs
	// stv_slice_stats.
	metrics    *telemetry.Registry
	qlog       *telemetry.QueryLog
	sliceStats []sliceStat

	// cache holds decoded column vectors across queries; nil when the
	// cache is disabled (every method on it is nil-receiver safe).
	cache *storage.BlockCache

	// ddlMu serializes DDL and utility statements.
	ddlMu sync.Mutex

	// writeState rejects writes (see elasticity.go): writable, read-only
	// during a resize cutover (retryable rejection), or decommissioned after
	// the endpoint moved (fatal rejection). writeGate drains in-flight write
	// statements when QuiesceWrites opens the cutover window.
	writeState atomic.Int32
	writeGate  sync.RWMutex

	// resizeProgress and burstInfo back stv_resize / stv_burst_clusters;
	// both are published by the control plane (see elasticity.go).
	resizeProgress atomic.Pointer[ResizeProgress]
	burstInfo      atomic.Pointer[func() []BurstClusterInfo]

	// inj is the shared fault injector (nil-receiver safe, may be nil).
	inj *faults.Injector

	// planCache and resultCache are the serving-path caches, shared across
	// sessions and keyed on normalized SQL; entries carry catalog/table
	// versions for lazy invalidation. Either may be nil (disabled).
	planCache   *lruCache
	resultCache *lruCache

	// defaultSession backs the Database-level Execute entry points, so
	// embedded users and tests that SET options through db.Execute keep
	// the pre-session semantics. Wire connections get their own sessions.
	defaultSession *Session

	// loadNs is the time committed COPYs and INSERTs have taken, behind
	// load_seconds_total; counters are the handles stmtRun.finish bumps.
	loadNs   atomic.Int64
	counters stmtCounters

	// nextQID hands out stl_query ids before execution so CANCEL <id> can
	// find in-flight statements; qmu guards the running set — the registered
	// statements, behind CANCEL and stv_inflight — and the fields of a
	// stmtRun the stv_ tables read while it runs.
	nextQID atomic.Int64
	qmu     sync.Mutex
	running map[int64]*stmtRun
}

// ExecStats reports what one statement cost.
type ExecStats struct {
	BlocksRead    int64
	BlocksSkipped int64
	RowsScanned   int64
	NetBytes      int64
	PlanTime      time.Duration
	// QueueWait is time spent waiting for a WLM slot; Queue names the WLM
	// queue that admitted the query ("" for statements that bypass WLM).
	QueueWait time.Duration
	ExecTime  time.Duration
	Queue     string
}

// Result is one statement's outcome.
type Result struct {
	// Schema and Rows are set for row-returning statements.
	Schema types.Schema
	Rows   []types.Row
	// Message summarizes non-row statements ("CREATE TABLE", "COPY 500").
	Message string
	Stats   ExecStats
	// Cached marks a result served from the result cache: no plan, no WLM
	// slot, no operator execution, Stats all zero.
	Cached bool
	// Trace is the statement's span tree (nil for a statement stl_query
	// does not log, and for a result-cache hit): a `query` span over the
	// plan and operators of a SELECT, or over the phases a COPY, INSERT,
	// VACUUM or ANALYZE ran — parse, distribute+sort, encode, replicate and
	// stats, each with rows and bytes.
	Trace *telemetry.Span
	// QueryID is the statement's stl_query id (0 when it is not logged);
	// qlog is the log holding that row.
	QueryID int64
	qlog    *telemetry.QueryLog
}

// ReportSerialize charges d — what encoding and writing this result's reply
// took, once the statement had finished — to its stl_query row's serialize
// stage. The wire calls it after the write.
func (r *Result) ReportSerialize(d time.Duration) {
	if r != nil && r.qlog != nil {
		r.qlog.AddStage(r.QueryID, telemetry.StageSerialize, d)
	}
}

// sliceStat is one slice's cumulative scan accounting, updated by every
// query's scan phase and surfaced through stv_slice_stats.
type sliceStat struct {
	scans         atomic.Int64
	blocksRead    atomic.Int64
	blocksSkipped atomic.Int64
	rowsRead      atomic.Int64
	bytesRead     atomic.Int64
}

// Open builds an empty database on a fresh cluster.
func Open(cfg Config) (*Database, error) {
	if cfg.Plan.BroadcastRows == 0 {
		cfg.Plan.BroadcastRows = plan.DefaultOptions().BroadcastRows
	}
	ownMetrics := cfg.Metrics == nil
	if ownMetrics {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.QueryLogSize <= 0 {
		cfg.QueryLogSize = 1024
	}
	if cfg.BlockCacheBytes == 0 {
		cfg.BlockCacheBytes = 64 << 20
	}
	if cfg.PlanCacheEntries == 0 {
		cfg.PlanCacheEntries = 256
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 32 << 20
	}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	cl.SetMetrics(cfg.Metrics)
	cl.SetFaults(cfg.Faults)
	cfg.Faults.SetMetrics(cfg.Metrics)
	wlm := NewWLM(cfg.QuerySlots, cfg.WLMSlotMemBytes, cfg.Metrics)
	if len(cfg.WLMQueues) > 0 {
		if wlm, err = NewWLMQueues(cfg.WLMQueues, cfg.WLMSlotMemBytes, cfg.Metrics); err != nil {
			return nil, err
		}
	}
	db := &Database{
		cfg:        cfg,
		cat:        catalog.New(),
		cl:         cl,
		txm:        txn.NewManager(),
		wlm:        wlm,
		metrics:    cfg.Metrics,
		qlog:       telemetry.NewQueryLog(cfg.QueryLogSize),
		sliceStats: make([]sliceStat, cl.NumSlices()),
		cache:      storage.NewBlockCache(cfg.BlockCacheBytes),
		inj:        cfg.Faults,
		counters:   newStmtCounters(cfg.Metrics),
		running:    map[int64]*stmtRun{},
	}
	db.planCache = newLRUCache(int64(cfg.PlanCacheEntries))
	db.resultCache = newLRUCache(cfg.ResultCacheBytes)
	db.defaultSession = db.NewSession()
	// Give the planner the cluster's shape and a storage-level row-count
	// fallback so never-ANALYZEd tables still get cardinality estimates.
	db.cfg.Plan.NumNodes = cfg.Cluster.Nodes
	db.cfg.Plan.TableRows = db.visibleRowCount
	if ownMetrics {
		// A registry passed in outlives this database: whoever shares it
		// (the endpoint) says which database its cache gauges describe.
		db.ExportCacheGauges()
	}
	return db, nil
}

// ExportCacheGauges points the registry's block / plan / result cache gauges
// at this database's caches. They are read when /metrics is rendered, not
// pushed per statement: the caches already keep these counters, and
// stv_block_cache / stv_plan_cache / stv_result_cache read the same ones.
func (db *Database) ExportCacheGauges() {
	g := db.metrics.GaugeFunc
	g("block_cache_hits", func() int64 { return db.cache.Stats().Hits })
	g("block_cache_misses", func() int64 { return db.cache.Stats().Misses })
	g("block_cache_evictions", func() int64 { return db.cache.Stats().Evictions })
	g("block_cache_bytes", func() int64 { return db.cache.Stats().Bytes })
	g("block_cache_budget_bytes", func() int64 { return db.cache.Stats().Budget })
	g("block_cache_entries", func() int64 { return db.cache.Stats().Entries })
	g("block_cache_saved_ns", func() int64 { return db.cache.Stats().SavedNs })
	g("block_cache_resident_cost_ns", func() int64 { return db.cache.Stats().ResidentCostNs })
	for name, c := range map[string]*lruCache{"plan_cache_": db.planCache, "result_cache_": db.resultCache} {
		g(name+"hits", func() int64 { return c.Stats().Hits })
		g(name+"misses", func() int64 { return c.Stats().Misses })
		g(name+"evictions", func() int64 { return c.Stats().Evictions })
		g(name+"invalidations", func() int64 { return c.Stats().Invalidations })
		g(name+"entries", func() int64 { return c.Stats().Entries })
	}
	g("result_cache_bytes", func() int64 { return db.resultCache.Stats().Used })
}

// visibleRowCount sums a table's currently visible segment rows straight
// from the storage layer — the planner's statistics fallback for tables
// that were never ANALYZEd. DISTSTYLE ALL counts one replica only.
func (db *Database) visibleRowCount(tableID int64) int64 {
	def, err := db.cat.GetByID(tableID)
	if err != nil {
		return -1
	}
	view := db.beginRead(nil)
	defer view.release()
	var total int64
	for _, segs := range view.tableSegments(def) {
		for _, seg := range segs {
			total += int64(seg.Rows)
		}
	}
	return total
}

// spillBase is the directory under which per-query scratch dirs are
// created (lazily, on first spill).
func (db *Database) spillBase() string {
	if db.cfg.SpillDir != "" {
		return db.cfg.SpillDir
	}
	return filepath.Join(os.TempDir(), "redshift-spill")
}

// attachMem publishes a query's memory tracker and scratch dir so
// stv_query_memory can observe it in flight.
func (r *stmtRun) attachMem(mem *exec.MemTracker, spill *exec.SpillDir, grant int64) {
	r.db.qmu.Lock()
	r.mem, r.spill, r.grant = mem, spill, grant
	r.db.qmu.Unlock()
}

// attachExec publishes a query's chosen DOP and live worker counters so
// stv_exec_workers can observe it in flight.
func (r *stmtRun) attachExec(par *exec.FanoutStats) {
	r.db.qmu.Lock()
	r.par = par
	r.db.qmu.Unlock()
}

// maxParallelWorkers resolves the configured intra-slice DOP cap: 0 means
// every available core, negative means serial.
func (db *Database) maxParallelWorkers() int {
	n := db.cfg.MaxParallelWorkers
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// BlockCache exposes the decoded-block buffer cache (nil when disabled).
func (db *Database) BlockCache() *storage.BlockCache { return db.cache }

// Telemetry exposes the database's metrics registry.
func (db *Database) Telemetry() *telemetry.Registry { return db.metrics }

// QueryLog exposes the completed-query ring buffer behind stl_query.
func (db *Database) QueryLog() *telemetry.QueryLog { return db.qlog }

// Catalog exposes the system catalog (admin tooling, backup).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Cluster exposes the data plane (control plane workflows, backup).
func (db *Database) Cluster() *cluster.Cluster { return db.cl }

// Txns exposes the transaction manager (restore fast-forwards it).
func (db *Database) Txns() *txn.Manager { return db.txm }

// Mode returns the configured execution engine.
func (db *Database) Mode() exec.Mode { return db.cfg.Mode }

// DataStore returns the object store COPY reads from (nil when unset).
func (db *Database) DataStore() *s3sim.Store { return db.cfg.DataStore }

// WLMStats snapshots the workload manager's aggregate counters.
func (db *Database) WLMStats() WLMStats { return db.wlm.Stats() }

// WLMQueueStats snapshots every WLM queue's configuration and counters.
func (db *Database) WLMQueueStats() []WLMQueueStats { return db.wlm.QueueStats() }

// AdoptCatalog replaces the database's catalog — the final step of
// restoring a backup into a fresh cluster, after RestoreMetadata has
// registered the segment skeletons.
func (db *Database) AdoptCatalog(cat *catalog.Catalog) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	db.cat = cat
	// Whatever was cached belonged to the pre-restore world. The plan and
	// result caches must go too: the adopted catalog restarts its version
	// counters, so stale entries could otherwise version-match by accident.
	db.cache.Clear()
	db.planCache.Clear()
	db.resultCache.Clear()
}

// Execute parses and runs one SQL statement with auto-commit, against the
// database's default session.
func (db *Database) Execute(query string) (*Result, error) {
	return db.defaultSession.Execute(query)
}

// ExecuteContext parses and runs one SQL statement; ctx cancellation or
// deadline aborts the statement within one batch boundary.
func (db *Database) ExecuteContext(ctx context.Context, query string) (*Result, error) {
	return db.defaultSession.ExecuteContext(ctx, query)
}

// ExecuteStmt runs a parsed statement.
func (db *Database) ExecuteStmt(stmt sql.Statement) (*Result, error) {
	return db.defaultSession.ExecuteStmt(stmt)
}

// ExecuteStmtContext runs a parsed statement under ctx.
func (db *Database) ExecuteStmtContext(ctx context.Context, stmt sql.Statement) (*Result, error) {
	return db.defaultSession.ExecuteStmtContext(ctx, stmt)
}

// runCancel aborts a running query by id (the wire-level CANCEL verb).
func (db *Database) runCancel(s *sql.Cancel) (*Result, error) {
	if !db.Cancel(s.ID) {
		return nil, fmt.Errorf("core: query %d is not running", s.ID)
	}
	return &Result{Message: fmt.Sprintf("CANCEL %d", s.ID)}, nil
}

// errQueryCancelled is the cancellation cause a user CANCEL plants; it
// distinguishes "cancelled on request" from a caller's own ctx expiring.
var errQueryCancelled = fmt.Errorf("cancelled on user request")

// Cancel aborts the running query with the given stl_query id, reporting
// whether such a query was found. The query unwinds within one batch
// boundary, releasing its pooled batches and WLM slot.
func (db *Database) Cancel(id int64) bool {
	db.qmu.Lock()
	rq := db.running[id]
	db.qmu.Unlock()
	if rq == nil {
		return false
	}
	rq.cancel(errQueryCancelled)
	return true
}

// StatementTimeout returns the default session's statement_timeout
// (0 = disabled).
func (db *Database) StatementTimeout() time.Duration {
	return db.defaultSession.StatementTimeout()
}

// Faults exposes the shared fault injector (nil when unconfigured).
func (db *Database) Faults() *faults.Injector { return db.inj }

// registerQuery assigns the statement's stl_query id up front and enters it
// in the running set, where Database.Cancel finds its cancel hook.
func (db *Database) registerQuery(r *stmtRun) {
	r.rec.ID = db.nextQID.Add(1)
	db.qmu.Lock()
	db.running[r.rec.ID] = r
	db.qmu.Unlock()
}

// unregisterQuery removes a finished statement from the running set.
func (db *Database) unregisterQuery(id int64) {
	db.qmu.Lock()
	delete(db.running, id)
	db.qmu.Unlock()
}

// inflight is one registered statement as the stv_ tables see it while it
// runs: its identity, and — once attached — its memory tracker, scratch dir,
// grant and parallelism counters, whose methods are safe from any goroutine.
type inflight struct {
	id    int64
	sql   string
	start time.Time
	mem   *exec.MemTracker
	spill *exec.SpillDir
	grant int64
	par   *exec.FanoutStats
}

// runningQueries snapshots the running set under qmu (attachMem and
// attachExec write a run's fields under it) for stv_inflight,
// stv_query_memory and stv_exec_workers.
func (db *Database) runningQueries() []inflight {
	db.qmu.Lock()
	defer db.qmu.Unlock()
	out := make([]inflight, 0, len(db.running))
	for _, r := range db.running {
		out = append(out, inflight{r.rec.ID, r.rec.SQL, r.rec.Start, r.mem, r.spill, r.grant, r.par})
	}
	return out
}

func (db *Database) runCreateTable(ctx context.Context, s *sql.CreateTable) (*Result, error) {
	endWrite, err := db.beginWrite(ctx)
	if err != nil {
		return nil, err
	}
	defer endWrite()
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if s.IfNotExists {
		if _, err := db.cat.Get(s.Name); err == nil {
			return &Result{Message: "CREATE TABLE (exists, skipped)"}, nil
		}
	}
	def := &catalog.TableDef{Name: s.Name, DistKeyCol: -1}
	for _, col := range s.Columns {
		cd := catalog.ColumnDef{
			Name:    col.Name,
			Type:    col.Type,
			NotNull: col.NotNull,
		}
		if col.HasEncoding {
			cd.Encoding = col.Encoding
		} else {
			// The dusty knob: default RAW now, chosen by sampling at first
			// COPY (§1 design goal 5).
			cd.Encoding = compress.Raw
			cd.AutoEncoding = true
		}
		def.Columns = append(def.Columns, cd)
	}
	switch strings.ToUpper(s.DistStyle) {
	case "ALL":
		def.DistStyle = catalog.DistAll
	case "KEY":
		def.DistStyle = catalog.DistKey
	case "EVEN":
		def.DistStyle = catalog.DistEven
	case "":
		if s.DistKey != "" {
			def.DistStyle = catalog.DistKey
		}
	default:
		return nil, fmt.Errorf("core: bad DISTSTYLE %q", s.DistStyle)
	}
	if def.DistStyle == catalog.DistKey {
		if s.DistKey == "" {
			return nil, fmt.Errorf("core: DISTSTYLE KEY requires DISTKEY(col)")
		}
		ord := def.Ordinal(s.DistKey)
		if ord < 0 {
			return nil, fmt.Errorf("core: DISTKEY column %q does not exist", s.DistKey)
		}
		def.DistKeyCol = ord
	} else if s.DistKey != "" {
		return nil, fmt.Errorf("core: DISTKEY requires DISTSTYLE KEY")
	}
	if len(s.SortKeys) > 0 {
		def.SortStyle = catalog.SortCompound
		if strings.EqualFold(s.SortStyle, "INTERLEAVED") {
			def.SortStyle = catalog.SortInterleaved
		}
		for _, name := range s.SortKeys {
			ord := def.Ordinal(name)
			if ord < 0 {
				return nil, fmt.Errorf("core: SORTKEY column %q does not exist", name)
			}
			def.SortKeyCols = append(def.SortKeyCols, ord)
		}
	}
	if err := db.cat.Create(def); err != nil {
		return nil, err
	}
	return &Result{Message: "CREATE TABLE"}, nil
}

func (db *Database) runDropTable(ctx context.Context, s *sql.DropTable) (*Result, error) {
	endWrite, err := db.beginWrite(ctx)
	if err != nil {
		return nil, err
	}
	defer endWrite()
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	def, err := db.cat.Get(s.Name)
	if err != nil {
		if s.IfExists {
			return &Result{Message: "DROP TABLE (missing, skipped)"}, nil
		}
		return nil, err
	}
	if err := db.cat.Drop(s.Name); err != nil {
		return nil, err
	}
	db.cl.DropTable(def.ID)
	db.cache.InvalidateTable(def.ID)
	return &Result{Message: "DROP TABLE"}, nil
}

func (db *Database) runTruncate(ctx context.Context, run *stmtRun, s *sql.Truncate) (*Result, error) {
	if err := db.writeTable(ctx, run, s.Table, true, db.supersedeAll); err != nil {
		return nil, err
	}
	return &Result{Message: "TRUNCATE"}, nil
}

// supersedeAll drops every segment of the table as of xid and zeroes its
// statistics: all of TRUNCATE, and the first half of ReplaceTable.
func (db *Database) supersedeAll(def *catalog.TableDef, xid int64) error {
	for sl := 0; sl < db.cl.NumSlices(); sl++ {
		db.cl.ReplaceSegments(sl, def.ID, nil, xid)
	}
	return db.cat.ReplaceStats(def.ID, catalog.TableStats{Cols: make([]catalog.ColumnStats, len(def.Columns))})
}

func (db *Database) runInsert(ctx context.Context, run *stmtRun, s *sql.Insert) (*Result, error) {
	err := db.writeTable(ctx, run, s.Table, false, func(def *catalog.TableDef, xid int64) error {
		rows, err := insertRows(def, s)
		if err != nil {
			return err
		}
		run.load, err = load.AppendRows(db.cl, db.cat, def, rows, load.Options{}, xid, run.rec.Trace)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("INSERT %d", len(s.Rows))}, nil
}

// insertRows evaluates an INSERT's VALUES lists into full-width rows.
func insertRows(def *catalog.TableDef, s *sql.Insert) ([]types.Row, error) {
	// Resolve the column list to ordinals (positional when absent).
	ords := make([]int, 0, len(def.Columns))
	if len(s.Columns) == 0 {
		for i := range def.Columns {
			ords = append(ords, i)
		}
	} else {
		for _, name := range s.Columns {
			ord := def.Ordinal(name)
			if ord < 0 {
				return nil, fmt.Errorf("core: column %q does not exist", name)
			}
			ords = append(ords, ord)
		}
	}
	rows := make([]types.Row, 0, len(s.Rows))
	for ri, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return nil, fmt.Errorf("core: VALUES row %d has %d values, expected %d", ri+1, len(exprRow), len(ords))
		}
		row := make(types.Row, len(def.Columns))
		for i := range row {
			row[i] = types.NewNull(def.Columns[i].Type)
		}
		for i, e := range exprRow {
			v, err := evalConstExpr(e)
			if err != nil {
				return nil, fmt.Errorf("core: VALUES row %d: %w", ri+1, err)
			}
			cv, err := coerceInsertValue(v, def.Columns[ords[i]].Type)
			if err != nil {
				return nil, fmt.Errorf("core: VALUES row %d column %s: %w", ri+1, def.Columns[ords[i]].Name, err)
			}
			row[ords[i]] = cv
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// evalConstExpr binds and evaluates a VALUES expression, which may use
// literals and arithmetic but no column references.
func evalConstExpr(e sql.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.Unary:
		if x.Op == "-" {
			v, err := evalConstExpr(x.Expr)
			if err != nil {
				return types.Value{}, err
			}
			switch {
			case v.Null:
				return v, nil
			case v.T == types.Float64:
				return types.NewFloat(-v.F), nil
			case v.T == types.Int64:
				return types.NewInt(-v.I), nil
			}
			return types.Value{}, fmt.Errorf("VALUES must be literals, cannot negate %s", x.Expr)
		}
	}
	return types.Value{}, fmt.Errorf("VALUES must be literals, got %s", e)
}

// coerceInsertValue adapts a literal to the column type.
func coerceInsertValue(v types.Value, t types.Type) (types.Value, error) {
	if v.Null {
		return types.NewNull(t), nil
	}
	if v.T == t {
		return v, nil
	}
	switch {
	case v.T == types.Int64 && t == types.Float64:
		return types.NewFloat(float64(v.I)), nil
	case v.T == types.Float64 && t == types.Int64 && v.F == float64(int64(v.F)):
		return types.NewInt(int64(v.F)), nil
	case v.T == types.String && t == types.Date:
		return types.ParseDate(v.S)
	case v.T == types.String && t == types.Timestamp:
		return types.ParseTimestamp(v.S)
	case v.T == types.Int64 && (t == types.Date || t == types.Timestamp):
		return types.Value{T: t, I: v.I}, nil
	}
	return types.Value{}, fmt.Errorf("cannot store %s value %s in %s column", v.T, v, t)
}

func (db *Database) runCopy(ctx context.Context, run *stmtRun, s *sql.Copy) (*Result, error) {
	if db.cfg.DataStore == nil {
		return nil, fmt.Errorf("core: no data store configured for COPY")
	}
	err := db.writeTable(ctx, run, s.Table, false, func(def *catalog.TableDef, xid int64) (err error) {
		opts := load.Options{
			Format:     s.Format,
			Delimiter:  s.Delimiter,
			CompUpdate: s.CompUpdate,
			StatUpdate: s.StatUpdate,
			GZip:       s.GZip,
		}
		run.load, err = load.Run(db.cl, db.cat, def, db.cfg.DataStore, strings.TrimPrefix(s.From, "s3://"), opts, xid, run.rec.Trace)
		return err
	})
	if err != nil {
		return nil, err
	}
	run.rec.RowsScanned = run.load.Rows
	return &Result{Message: fmt.Sprintf("COPY %d", run.load.Rows)}, nil
}

func (db *Database) runVacuum(ctx context.Context, run *stmtRun, s *sql.Vacuum) (*Result, error) {
	defs, err := db.maintenanceTargets(s.Table)
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		if err := db.vacuumTable(ctx, run, def.Name); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("VACUUM %d table(s)", len(defs))}, nil
}

// maintenanceTargets is VACUUM's and ANALYZE's operand: one table, or all.
func (db *Database) maintenanceTargets(name string) ([]*catalog.TableDef, error) {
	if name == "" {
		return db.cat.List(), nil
	}
	def, err := db.cat.Get(name)
	return []*catalog.TableDef{def}, err
}

// vacuumTable merges each slice's sorted runs into one fully sorted
// segment and clears the unsorted-rows counter; the rewrite is recorded
// under run's span. A cancelled ctx stops it between slices; writeTable,
// between tables.
func (db *Database) vacuumTable(ctx context.Context, run *stmtRun, name string) error {
	return db.writeTable(ctx, run, name, true, func(def *catalog.TableDef, xid int64) error {
		start := time.Now()
		w, err := load.NewSegmentWriter(db.cl, db.cat, def, nil, xid)
		if err != nil {
			return err
		}
		err = db.cl.EachSlice(func(sl int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return db.vacuumSlice(def, sl, xid, w)
		})
		w.Record(run.rec.Trace, time.Since(start))
		if err != nil {
			return err
		}
		stats, err := db.cat.Stats(def.ID)
		if err != nil {
			return err
		}
		stats.UnsortedRows = 0
		return db.cat.ReplaceStats(def.ID, stats)
	})
}

// vacuumSlice rewrites one slice's runs as the single segment xid names:
// the runs are decoded block by block and handed to the writer as the
// slice's chunks, which it concatenates and sorts.
// It reads at xid, not through a read view: under the table write lock
// every live segment comes from a writer that has published, and
// ReplaceSegments supersedes them all, so the merge must read them all. A
// view's contiguous-prefix snapshot would miss a writer that published past
// one still unpublished on another table, and drop its rows unread.
func (db *Database) vacuumSlice(def *catalog.TableDef, sl int, xid int64, w *load.SegmentWriter) error {
	segs := db.cl.VisibleSegments(sl, def.ID, xid)
	if len(segs) <= 1 && (len(segs) == 0 || segs[0].Sorted) {
		return nil // already a single sorted run
	}
	var chunks []load.Chunk
	for _, seg := range segs {
		for bi := 0; bi < seg.NumBlocks(); bi++ {
			cols, err := decodeBlocks(seg, bi, db.cl.FetchBlock)
			if err != nil {
				return err
			}
			chunks = append(chunks, load.Chunk{Cols: cols})
		}
	}
	seg, err := w.Write(sl, chunks)
	if err != nil {
		return err
	}
	db.cl.ReplaceSegments(sl, def.ID, []*storage.Segment{seg}, xid)
	return nil
}

// decodeBlocks decodes block bi of every column of seg: the segment's rows
// [bi*Cap, (bi+1)*Cap), column-wise.
func decodeBlocks(seg *storage.Segment, bi int, fetch func(*storage.Block) error) (load.Columns, error) {
	cols := make(load.Columns, len(seg.Cols))
	for c := range cols {
		v, err := seg.Block(c, bi).Read(fetch)
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	return cols, nil
}

// ReadTable returns every logical row of a table visible right now —
// resize's node-to-node copy and the admin tools use it.
func (db *Database) ReadTable(name string) ([]types.Row, error) {
	def, err := db.cat.Get(name)
	if err != nil {
		return nil, err
	}
	view := db.beginRead(nil)
	defer view.release()
	var rows []types.Row
	for _, segs := range view.tableSegments(def) {
		for _, seg := range segs {
			segRows, err := seg.ReadRows(db.cl.FetchBlock)
			if err != nil {
				return nil, err
			}
			rows = append(rows, segRows...)
		}
	}
	return rows, nil
}

// ReplaceTable atomically replaces the named table's contents with rows —
// how an online resize installs a table on the target. Old segments are
// superseded and the copy appended under one xid: readers never see a half
// table, and a failure discards the attempt wholesale (idempotent retries).
func (db *Database) ReplaceTable(name string, rows []types.Row) error {
	return db.writeTable(context.Background(), db.offStatement(), name, true, func(def *catalog.TableDef, xid int64) error {
		if err := db.supersedeAll(def, xid); err != nil {
			return err
		}
		_, err := load.AppendRows(db.cl, db.cat, def, rows, load.Options{}, xid, nil)
		return err
	})
}

// runAnalyze refreshes statistics. A cancelled ctx stops it between tables
// and between slices; a table's statistics are replaced whole or not at all.
func (db *Database) runAnalyze(ctx context.Context, run *stmtRun, s *sql.Analyze) (*Result, error) {
	defs, err := db.maintenanceTargets(s.Table)
	if err != nil {
		return nil, err
	}
	run.enter(telemetry.StageExec)
	if s.Compression {
		return db.analyzeCompression(defs)
	}
	view := db.beginRead(nil)
	defer view.release()
	for _, def := range defs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run.enter(telemetry.StageExec)
		// Per-segment streaming: compute each segment's stats in isolation,
		// one decoded block at a time and slices in parallel, and Merge them
		// in segment and then slice order, so ANALYZE's memory is bounded by
		// a block per slice regardless of table size. The merge is lossless
		// because ColumnStats carries the HLL sketch bytes. A replicated
		// table is scanned on one node only, which yields logical counters
		// directly (Rows, NullCount, UnsortedRows) instead of
		// replica-multiplied ones that then need dividing.
		span := run.rec.Trace.StartChild("stats")
		bySlice := view.tableSegments(def)
		parts := make([]catalog.TableStats, len(bySlice))
		err := db.cl.EachSlice(func(sl int) error {
			if sl >= len(bySlice) {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			parts[sl].Cols = make([]catalog.ColumnStats, len(def.Columns))
			for si, seg := range bySlice[sl] {
				sb := load.NewStatsBuilder(len(def.Columns))
				for bi := 0; bi < seg.NumBlocks(); bi++ {
					cols, err := decodeBlocks(seg, bi, db.cl.FetchBlock)
					if err != nil {
						return err
					}
					sb.Fold(cols)
				}
				delta := sb.Stats()
				if si > 0 || !seg.Sorted {
					// Everything beyond the slice's first sorted run is
					// unsorted work for VACUUM, same bookkeeping the
					// incremental COPY path maintains.
					delta.UnsortedRows = int64(seg.Rows)
				}
				parts[sl].Merge(delta)
				span.Add("bytes", seg.ByteSize())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		stats := catalog.TableStats{Cols: make([]catalog.ColumnStats, len(def.Columns))}
		for _, part := range parts {
			stats.Merge(part)
		}
		span.Add("rows", stats.Rows)
		span.End()
		run.enter(telemetry.StageLeader)
		if err := db.cat.ReplaceStats(def.ID, stats); err != nil {
			return nil, err
		}
		// ANALYZE changes no data but does change the statistics baked into
		// cached plans, so it moves the data version too; the result cache
		// takes a harmless spurious miss.
		db.cat.BumpDataVersion(def.ID)
	}
	return &Result{Message: fmt.Sprintf("ANALYZE %d table(s)", len(defs))}, nil
}

// analyzeCompression reports per-encoding sizes on a sample of each column,
// like ANALYZE COMPRESSION.
func (db *Database) analyzeCompression(defs []*catalog.TableDef) (*Result, error) {
	res := &Result{
		Schema: types.NewSchema(
			types.Column{Name: "table", Type: types.String},
			types.Column{Name: "column", Type: types.String},
			types.Column{Name: "encoding", Type: types.String},
			types.Column{Name: "est_reduction_pct", Type: types.Float64},
		),
	}
	view := db.beginRead(nil)
	defer view.release()
	for _, def := range defs {
		for ci, col := range def.Columns {
			sample := types.NewVector(col.Type, 0)
			for sl := 0; sl < db.cl.NumSlices() && sample.Len() < 4096; sl++ {
				for _, seg := range view.segments(sl, def.ID) {
					if seg.NumBlocks() == 0 {
						continue
					}
					v, err := seg.Block(ci, 0).Read(db.cl.FetchBlock)
					if err != nil {
						return nil, err
					}
					for i := 0; i < v.Len() && sample.Len() < 4096; i++ {
						sample.Append(v.Get(i))
					}
				}
			}
			if sample.Len() == 0 {
				continue
			}
			results := compress.Analyze(sample)
			for _, r := range results {
				if !r.Applicable {
					continue
				}
				reduction := (1 - 1/r.Ratio) * 100
				res.Rows = append(res.Rows, types.Row{
					types.NewString(def.Name),
					types.NewString(col.Name),
					types.NewString(r.Encoding.String()),
					types.NewFloat(reduction),
				})
			}
		}
	}
	return res, nil
}

func (db *Database) runExplain(run *stmtRun, s *sql.Explain) (*Result, error) {
	sel, ok := s.Stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT only")
	}
	if s.Analyze {
		return db.runExplainAnalyze(run, sel)
	}
	// System tables live in a transient catalog, not db.cat; bind EXPLAIN
	// against the same catalog the query itself would run against. User
	// tables go through the plan cache, same as execution would.
	var p *plan.Plan
	var err error
	if sel.From != nil && isSystemTable(sel.From.Table) {
		sysCat, _, err := db.sysCatalog()
		if err != nil {
			return nil, err
		}
		p, err = plan.BuildWith(sysCat, sel, db.cfg.Plan)
		if err != nil {
			return nil, err
		}
	} else {
		p, _, err = db.planFor(sel, sql.Normalize(sel))
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Schema: types.NewSchema(types.Column{Name: "QUERY PLAN", Type: types.String})}
	text := p.ExplainWithMemory(run.sess.effectiveMemBudget())
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(line)})
	}
	return res, nil
}

// runExplainAnalyze runs the query as a SELECT statement would — same
// lifecycle, same stl_query row — and renders its span tree with actual
// times, rows, bytes and block counts. A result-cache hit has no span tree
// — no operator ran — so it renders as the single line production Redshift
// prints: "cache: result hit".
func (db *Database) runExplainAnalyze(run *stmtRun, sel *sql.Select) (*Result, error) {
	if sel.From == nil {
		return nil, fmt.Errorf("core: EXPLAIN ANALYZE needs a FROM table")
	}
	if isSystemTable(sel.From.Table) {
		return nil, fmt.Errorf("core: EXPLAIN ANALYZE does not cover system tables")
	}
	ran, err := db.runSelect(run, sel, "")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Schema: types.NewSchema(types.Column{Name: "QUERY PLAN", Type: types.String}),
		Cached: ran.Cached,
	}
	if ran.Cached {
		res.Rows = append(res.Rows, types.Row{types.NewString("cache: result hit")})
		return res, nil
	}
	run.enter(telemetry.StageLeader)
	run.rec.Trace.End()
	for _, line := range strings.Split(strings.TrimRight(run.rec.Trace.Render(), "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(line)})
	}
	return res, nil
}
