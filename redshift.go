// Package redshift is a from-scratch, stdlib-only Go reproduction of the
// system described in "Amazon Redshift and the Case for Simpler Data
// Warehouses" (SIGMOD 2015): a managed, columnar, massively-parallel data
// warehouse whose data plane (SQL over distributed slices, compiled
// vectorized execution, zone maps, interleaved z-order sort keys,
// distribution-aware joins, COPY loading, snapshot isolation) and control
// plane (provisioning, patching, incremental backup, streaming restore,
// elastic resize, node replacement) are both real, miniature
// implementations rather than mocks.
//
// The one-call experience the paper calls "time to first report":
//
//	wh, _ := redshift.Launch(redshift.Options{Nodes: 2})
//	wh.Execute(`CREATE TABLE t (a BIGINT, b VARCHAR(16))`)
//	wh.Execute(`INSERT INTO t VALUES (1, 'hello')`)
//	res, _ := wh.Execute(`SELECT COUNT(*) FROM t`)
package redshift

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"redshift/internal/backup"
	"redshift/internal/cluster"
	"redshift/internal/controlplane"
	"redshift/internal/core"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/kms"
	"redshift/internal/plan"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// FaultPlan re-exports the fault-injection schedule type so callers can
// configure chaos without importing the internal package.
type FaultPlan = faults.Plan

// FaultRule re-exports one site's injection rule.
type FaultRule = faults.Rule

// Options configure a warehouse. The paper's point is that these few knobs
// (§3.3: "instance type and number of nodes") are all a customer sets.
type Options struct {
	// Nodes is the number of compute nodes (default 2).
	Nodes int
	// SlicesPerNode is slices (cores) per node (default 2).
	SlicesPerNode int
	// BlockCap is rows per column block (default storage.BlockCap); tests
	// and benchmarks lower it to exercise multi-block behavior on small
	// data.
	BlockCap int
	// Interpreted selects the row-at-a-time engine instead of the compiled
	// vectorized one — only the A4 ablation wants this.
	Interpreted bool
	// DisasterRecovery enables continuous cross-region backup copies
	// (§3.2's "setting a checkbox").
	DisasterRecovery bool
	// Encrypted enables §3.2's encryption: block-specific keys wrapped by
	// a cluster key wrapped by a master key, applied to all at-rest backup
	// data. Also a checkbox.
	Encrypted bool
	// BroadcastRows overrides the planner's broadcastable-inner-side cap
	// (0 keeps the default). The cost model prices broadcast vs shuffle
	// from statistics; this cap bounds what it may broadcast and decides
	// alone when cardinalities are unknown.
	BroadcastRows int64
	// SyntaxJoinOrder disables cost-based join reordering so joins run in
	// literal FROM order (plan-quality baselines, debugging).
	SyntaxJoinOrder bool
	// CohortSize overrides the replication cohort size (default 2).
	CohortSize int
	// WLMQueues configures named WLM queues — per-queue slots, memory
	// shares, priorities, an EstRows-thresholded short-query fast lane and
	// wait timeouts. Sessions route with SET query_group TO <name>; empty
	// means one unlimited default queue, and {{Name: "default", Slots: n}}
	// bounds it to n concurrent SELECTs. See core.QueueSpec.
	WLMQueues []QueueSpec
	// BlockCacheBytes budgets the per-cluster decoded-block buffer cache:
	// 0 keeps the default (64 MiB), negative disables caching (ablations
	// and allocation-sensitive benchmarks use that).
	BlockCacheBytes int64
	// FaultPlan seeds a deterministic fault injector across the storage,
	// replication, object-store and exchange paths (nil = no injection).
	// Toggle at runtime with SET fault_injection TO on|off; inspect with
	// SELECT * FROM stv_faults.
	FaultPlan *FaultPlan
	// WLMSlotMemBytes is the execution-memory pool split evenly across WLM
	// slots: each SELECT runs under pool/slots bytes and spills its joins,
	// sorts and aggregations to disk beyond that. 0 disables governance.
	// SET work_mem TO '<size>' overrides the per-query grant per session.
	WLMSlotMemBytes int64
	// SpillDir overrides where per-query scratch directories are created
	// (default: a redshift-spill dir under the OS temp dir).
	SpillDir string
	// PlanCacheEntries bounds the leader's plan cache (normalized SQL →
	// compiled plan, invalidated by DDL and by table-statistics changes).
	// 0 keeps the default (256 entries), negative disables it.
	PlanCacheEntries int
	// ResultCacheBytes budgets the leader's result cache: repeated
	// read-only queries whose referenced tables are unchanged are answered
	// from stored results with zero execution. 0 keeps the default
	// (32 MiB), negative disables it. Sessions opt out with
	// SET result_cache TO off.
	ResultCacheBytes int64
	// BurstThreshold enables concurrency scaling: when the WLM queue's
	// aggregate pain (depth × oldest wait, in queue-seconds) crosses this
	// value, a read-only burst cluster is hydrated from a fresh backup and
	// cache-ineligible reads are routed to it until the queue has stayed
	// empty for half a second. 0 disables the feature. Inspect with
	// SELECT * FROM stv_burst_clusters.
	BurstThreshold float64
}

// Result is one statement's outcome.
type Result = core.Result

// Session is one connection's execution context: prepared statements and
// SET variables are scoped to it.
type Session = core.Session

// QueueSpec configures one named WLM queue (see core.QueueSpec).
type QueueSpec = core.QueueSpec

// ParseWLMQueues parses the textual queue-spec syntax the server's
// -wlm-queues flag uses, e.g.
// "express=2,short=20000;dash=4,prio=5;etl=2,mem=50%,timeout=60s".
func ParseWLMQueues(s string) ([]QueueSpec, error) { return core.ParseQueueSpecs(s) }

// Row is one result tuple.
type Row = types.Row

// Value is one result scalar.
type Value = types.Value

// Warehouse is a managed cluster: a SQL endpoint plus the control-plane
// services around it.
type Warehouse struct {
	endpoint *controlplane.Endpoint
	opts     Options
	metrics  *telemetry.Registry // survives resize/restore cluster swaps

	dataLake *s3sim.Store // COPY sources
	backupS3 *s3sim.Store // backup region
	drS3     *s3sim.Store // optional second region
	master   *kms.Master
	cipher   *kms.ClusterCipher
	backups  *backup.Manager
	// active is the manager serving the current cluster's page faults and
	// background restore — usually backups, but the DR region's manager
	// after a disaster restore.
	active *backup.Manager

	// bmu guards the backup counter: user backups and burst hydrations can
	// race.
	bmu      sync.Mutex
	nBackups int

	// burst is the concurrency-scaling manager (nil unless BurstThreshold
	// is set).
	burst *controlplane.BurstManager

	// inj is the shared fault injector (nil when no FaultPlan was given).
	inj *faults.Injector
}

// Launch provisions a warehouse. It is the programmatic analogue of the
// console's create-cluster flow.
func Launch(opts Options) (*Warehouse, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.SlicesPerNode <= 0 {
		opts.SlicesPerNode = 2
	}
	w := &Warehouse{
		opts:     opts,
		metrics:  telemetry.NewRegistry(),
		dataLake: s3sim.New(),
		backupS3: s3sim.New(),
	}
	if opts.FaultPlan != nil {
		w.inj = faults.NewInjector(opts.FaultPlan)
		w.dataLake.WithFaults(w.inj, "s3.data")
		w.backupS3.WithFaults(w.inj, "s3.backup")
	}
	db, err := core.Open(w.coreConfig(opts.Nodes))
	if err != nil {
		return nil, err
	}
	w.endpoint = controlplane.NewEndpoint(db)
	w.backups = backup.New(w.backupS3, "wh")
	w.active = w.backups
	// Install the S3 read tier from day one: page-fault reads and node
	// recovery fall back to backed-up blocks when both local replicas are
	// gone, without waiting for an explicit restore.
	db.Cluster().SetBackupFetcher(w.backups.FetchPayload)
	if opts.DisasterRecovery {
		w.drS3 = s3sim.New()
		w.backups.WithRemote(w.drS3)
	}
	if opts.Encrypted {
		master, err := kms.NewMaster()
		if err != nil {
			return nil, err
		}
		cipher, err := kms.NewClusterCipher(master)
		if err != nil {
			return nil, err
		}
		w.master = master
		w.cipher = cipher
		w.backups.WithCipher(cipher)
	}
	if opts.BurstThreshold > 0 {
		w.burst = controlplane.NewBurstManager(w.endpoint, opts.BurstThreshold, w.hydrateBurst, w.metrics)
		db.SetBurstInfoSource(w.burst.Snapshot)
	}
	return w, nil
}

// Close releases background control-plane services (the burst janitor).
// The warehouse must not be used afterwards.
func (w *Warehouse) Close() {
	w.burst.Stop()
}

// hydrateBurst provisions a read-only concurrency-scaling cluster: take a
// fresh incremental backup, open a same-topology cluster, restore the
// metadata skeleton and let block payloads page-fault in from the backup
// store on demand (the same GET-on-fault path node recovery uses).
func (w *Warehouse) hydrateBurst() (*core.Database, string, int64, error) {
	id, _, err := w.Backup()
	if err != nil {
		return nil, "", 0, err
	}
	db, err := core.Open(w.coreConfig(w.Nodes()))
	if err != nil {
		return nil, "", 0, err
	}
	xid, err := restoreInto(w.active, id, db)
	if err != nil {
		return nil, "", 0, err
	}
	return db, id, xid, nil
}

// restoreInto restores backup id into db's fresh cluster: the segment
// skeletons and the catalog, open for SQL at once. A KEY table restored to
// another slice count is then rewritten through the loader, which places
// every row on the slice its key hashes to — as a resize does.
func restoreInto(mgr *backup.Manager, id string, db *core.Database) (int64, error) {
	cat, xid, misplaced, err := mgr.RestoreMetadata(id, db.Cluster())
	if err != nil {
		return 0, err
	}
	db.AdoptCatalog(cat)
	db.Txns().SetCommitXid(xid)
	for _, name := range misplaced {
		rows, err := db.ReadTable(name)
		if err == nil {
			err = db.ReplaceTable(name, rows)
		}
		if err != nil {
			return 0, fmt.Errorf("redshift: restore: re-placing %s: %w", name, err)
		}
	}
	return xid, nil
}

// Encrypted reports whether at-rest encryption is on.
func (w *Warehouse) Encrypted() bool { return w.cipher != nil }

// RotateClusterKey rotates the cluster key and rewraps every stored block
// envelope — §3.2: rotation "only involves re-encrypting block keys or
// cluster keys, not the entire database". It returns how many envelopes
// were rewrapped.
func (w *Warehouse) RotateClusterKey() (int, error) {
	if w.cipher == nil {
		return 0, fmt.Errorf("redshift: encryption is not enabled")
	}
	if err := w.cipher.RotateClusterKey(); err != nil {
		return 0, err
	}
	n := 0
	for _, key := range w.backupS3.List("wh/blocks/") {
		hash := key[len("wh/blocks/"):]
		env, err := w.backupS3.Get(key)
		if err != nil {
			return n, err
		}
		rewrapped, err := w.cipher.Rewrap([]byte(hash), env)
		if err != nil {
			return n, err
		}
		if err := w.backupS3.Put(key, rewrapped); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RotateMasterKey rotates the master key; only the wrapped cluster key
// needs re-encryption.
func (w *Warehouse) RotateMasterKey() error {
	if w.master == nil {
		return fmt.Errorf("redshift: encryption is not enabled")
	}
	if _, err := w.master.Rotate(); err != nil {
		return err
	}
	return w.cipher.RewrapMaster()
}

// Repudiate destroys the master key: at-rest backups become unreadable
// (the running cluster keeps its unwrapped keys until it terminates).
func (w *Warehouse) Repudiate() error {
	if w.master == nil {
		return fmt.Errorf("redshift: encryption is not enabled")
	}
	w.master.Repudiate()
	return nil
}

func (w *Warehouse) coreConfig(nodes int) core.Config {
	mode := exec.Compiled
	if w.opts.Interpreted {
		mode = exec.Interpreted
	}
	planOpts := plan.DefaultOptions()
	if w.opts.BroadcastRows > 0 {
		planOpts.BroadcastRows = w.opts.BroadcastRows
	}
	planOpts.SyntaxJoinOrder = w.opts.SyntaxJoinOrder
	return core.Config{
		Cluster: cluster.Config{
			Nodes:         nodes,
			SlicesPerNode: w.opts.SlicesPerNode,
			BlockCap:      w.opts.BlockCap,
			CohortSize:    w.opts.CohortSize,
		},
		Mode:             mode,
		Plan:             planOpts,
		DataStore:        w.dataLake,
		WLMQueues:        w.opts.WLMQueues,
		Metrics:          w.metrics,
		BlockCacheBytes:  w.opts.BlockCacheBytes,
		Faults:           w.inj,
		WLMSlotMemBytes:  w.opts.WLMSlotMemBytes,
		SpillDir:         w.opts.SpillDir,
		PlanCacheEntries: w.opts.PlanCacheEntries,
		ResultCacheBytes: w.opts.ResultCacheBytes,
	}
}

// DB returns the database currently behind the endpoint.
func (w *Warehouse) DB() *core.Database { return w.endpoint.DB() }

// Metrics returns the warehouse-wide telemetry registry. It is shared by
// every database the endpoint has pointed at, so counters survive resize
// and restore.
func (w *Warehouse) Metrics() *telemetry.Registry { return w.metrics }

// Execute runs one SQL statement.
func (w *Warehouse) Execute(query string) (*Result, error) {
	return w.ExecuteContext(context.Background(), query)
}

// ExecuteContext runs one SQL statement under ctx: cancellation or a
// deadline aborts the statement within one batch boundary. With
// concurrency scaling enabled, eligible reads may be served by the burst
// cluster; everything else runs on the primary. A statement that raced the
// final resize swap onto the just-decommissioned source (rejected there
// before any effect) is transparently replayed on the new primary.
func (w *Warehouse) ExecuteContext(ctx context.Context, query string) (*Result, error) {
	return w.route(ctx, query, func(db *core.Database) executor { return db })
}

// executor is what the endpoint routing loop runs a statement on: a
// database (its default session) or one connection's session.
type executor interface {
	ExecuteContext(ctx context.Context, query string) (*core.Result, error)
	ExecuteStmtContext(ctx context.Context, stmt sql.Statement) (*core.Result, error)
}

// route is the endpoint's routing loop, shared by every entry point: offer
// the statement to the burst tier, otherwise run it on the executor pick
// returns for the database currently behind the endpoint, and replay it (at most
// three times) when it raced a swap onto the decommissioned source, which
// rejected it before any effect. It keeps no state of its own, so concurrent
// callers share nothing but the endpoint.
func (w *Warehouse) route(ctx context.Context, query string, pick func(*core.Database) executor) (*core.Result, error) {
	var stmt sql.Statement
	if w.burst != nil {
		if s, err := sql.Parse(query); err == nil {
			stmt = s
		}
	}
	for attempt := 0; ; attempt++ {
		db := w.endpoint.DB()
		ex := pick(db)
		var res *core.Result
		var err error
		if stmt != nil {
			if r, ok := w.burst.TryRoute(ctx, stmt); ok {
				return r, nil
			}
			res, err = ex.ExecuteStmtContext(ctx, stmt)
		} else {
			res, err = ex.ExecuteContext(ctx, query)
		}
		if err != nil && core.IsDecommissioned(err) && w.endpoint.DB() != db && attempt < 3 {
			continue
		}
		return res, err
	}
}

// Cancel aborts the running query with the given stl_query id, reporting
// whether such a query was found.
func (w *Warehouse) Cancel(id int64) bool { return w.endpoint.DB().Cancel(id) }

// NewSession opens a session against the current database. Wire servers
// bind one session per client connection so prepared statements and SET
// variables live exactly as long as the connection.
func (w *Warehouse) NewSession() *Session { return w.endpoint.DB().NewSession() }

// Faults exposes the warehouse's fault injector (nil without a FaultPlan).
func (w *Warehouse) Faults() *faults.Injector { return w.inj }

// MustExecute runs a statement and panics on error — for examples and
// fixtures where failure is a bug.
func (w *Warehouse) MustExecute(query string) *Result {
	res, err := w.Execute(query)
	if err != nil {
		panic(fmt.Sprintf("redshift: %s: %v", query, err))
	}
	return res
}

// PutObject uploads bytes into the warehouse's data lake for COPY.
func (w *Warehouse) PutObject(key string, data []byte) error {
	return w.dataLake.Put(key, data)
}

// DataLake exposes the COPY source store.
func (w *Warehouse) DataLake() *s3sim.Store { return w.dataLake }

// BackupStore exposes the backup region's object store (benchmarks attach
// latency models to it; tests inject failures).
func (w *Warehouse) BackupStore() *s3sim.Store { return w.backupS3 }

// Nodes returns the current node count.
func (w *Warehouse) Nodes() int { return w.endpoint.DB().Cluster().NumNodes() }

// Backup takes an incremental block-level backup and returns its ID.
func (w *Warehouse) Backup() (string, backup.Stats, error) {
	return w.backupDB(w.endpoint.DB())
}

// backupDB backs up a specific database — the endpoint's for user
// backups, a resize target during cutover (warming its S3 read tier
// before the swap), or the primary when hydrating a burst cluster.
func (w *Warehouse) backupDB(db *core.Database) (string, backup.Stats, error) {
	w.bmu.Lock()
	w.nBackups++
	id := fmt.Sprintf("backup-%03d", w.nBackups)
	w.bmu.Unlock()
	_, stats, err := w.backups.Backup(db.Cluster(), db.Catalog(), db.Txns().CurrentXid(), id)
	if err == nil {
		w.metrics.Counter("backup_runs_total").Inc()
		w.metrics.Counter("backup_blocks_uploaded_total").Add(int64(stats.BlocksUploaded))
		w.metrics.Counter("backup_bytes_uploaded_total").Add(stats.BytesUploaded)
	}
	return id, stats, err
}

// Backups lists available backup IDs.
func (w *Warehouse) Backups() []string { return w.backups.List() }

// DeleteBackup removes a backup; shared blocks are kept until GC.
func (w *Warehouse) DeleteBackup(id string) error { return w.backups.Delete(id) }

// GCBackups reclaims unreferenced backup blocks.
func (w *Warehouse) GCBackups() (int, error) { return w.backups.GC() }

// Restore performs the streaming restore of §2.3 into a brand-new cluster
// of the given size and moves the endpoint to it: the database is open for
// SQL when Restore returns, while block payloads page-fault in on demand.
// Call FinishRestore to background-fetch the remainder.
func (w *Warehouse) Restore(id string, nodes int) error {
	if nodes <= 0 {
		nodes = w.Nodes()
	}
	db, err := core.Open(w.coreConfig(nodes))
	if err != nil {
		return err
	}
	mgr := w.backups
	if w.drS3 != nil && !w.backupS3.Exists("wh/manifests/"+id) {
		// Primary region lost this backup: restore from the DR copy.
		mgr = backup.New(w.drS3, "wh")
		if w.cipher != nil {
			mgr.WithCipher(w.cipher)
		}
	}
	if _, err := restoreInto(mgr, id, db); err != nil {
		return err
	}
	if w.burst != nil {
		db.SetBurstInfoSource(w.burst.Snapshot)
	}
	w.endpoint.Swap(db)
	w.active = mgr
	return nil
}

// FinishRestore background-fetches every block still in S3 (the streaming
// restore's tail) and returns how many were fetched.
func (w *Warehouse) FinishRestore(parallelism int) (int, error) {
	return w.active.BackgroundRestore(w.endpoint.DB().Cluster(), parallelism)
}

// Resize moves the warehouse to a new node count with the phased online
// workflow (§3.1): snapshot copy and catch-up while writes continue,
// quiesce only for the final delta, endpoint flipped, source
// decommissioned. Writes racing the cutover window see retryable errors;
// progress is visible in stv_resize.
func (w *Warehouse) Resize(nodes int) (controlplane.ResizeStats, error) {
	// finalize runs inside the cutover window, before the endpoint swap:
	// install the target's S3 read tier, wire its system-table sources, and
	// warm the backup store with the target's blocks so the very first
	// post-swap page fault can fail over to S3.
	finalize := func(dst *core.Database) error {
		dst.Cluster().SetBackupFetcher(w.active.FetchPayload)
		if w.burst != nil {
			dst.SetBurstInfoSource(w.burst.Snapshot)
		}
		_, _, err := w.backupDB(dst)
		return err
	}
	return controlplane.ResizeOnline(w.endpoint, w.coreConfig(nodes), finalize)
}

// WireSession is a wire.SessionExecutor that survives endpoint swaps: when
// a resize or restore moves the endpoint to a new database, the session
// transparently reopens against it (prepared statements and SET variables
// are per-cluster and reset — the paper's clients reconnect; ours re-bind).
// It also understands the admin verb `RESIZE <n>`, which runs the online
// resize workflow inline, and offers reads to the concurrency-scaling tier.
type WireSession struct {
	w    *Warehouse
	db   *core.Database
	sess *core.Session
}

// NewWireSession opens a swap-following session for one wire connection.
func (w *Warehouse) NewWireSession() *WireSession {
	db := w.endpoint.DB()
	return &WireSession{w: w, db: db, sess: db.NewSession()}
}

// ExecuteContext runs one statement for a wire client.
func (s *WireSession) ExecuteContext(ctx context.Context, query string) (*core.Result, error) {
	if n, ok := parseResize(query); ok {
		stats, err := s.w.Resize(n)
		if err != nil {
			return nil, err
		}
		return &core.Result{Message: fmt.Sprintf(
			"RESIZE %d -> %d nodes (%d tables, %d rows, %d catch-up rounds, cutover %s)",
			stats.FromNodes, stats.ToNodes, stats.Tables, stats.Rows,
			stats.CatchupRounds, stats.CutoverWindow.Round(time.Microsecond))}, nil
	}
	return s.w.route(ctx, query, func(cur *core.Database) executor {
		if cur != s.db {
			s.sess.Close()
			s.db = cur
			s.sess = cur.NewSession()
		}
		return s.sess
	})
}

// Close releases the underlying session.
func (s *WireSession) Close() { s.sess.Close() }

// parseResize recognizes the admin verb `RESIZE <nodes>`.
func parseResize(query string) (int, bool) {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(query), ";"))
	if len(fields) != 2 || !strings.EqualFold(fields[0], "RESIZE") {
		return 0, false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// FailNode injects a node failure (its disk contents are lost); queries
// keep working off secondary replicas and S3.
func (w *Warehouse) FailNode(n int) { w.endpoint.DB().Cluster().FailNode(n) }

// ReplaceNode rebuilds a failed node from its cohort and S3.
func (w *Warehouse) ReplaceNode(n int) (blocks int, bytes int64, err error) {
	return w.endpoint.DB().Cluster().RecoverNode(n)
}
