package controlplane

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/core"
	"redshift/internal/faults"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
)

// Concurrency scaling (§3.1's burst capacity, productized as Redshift's
// concurrency-scaling clusters): when the WLM queue on the main cluster
// backs up, a read-only cluster is hydrated on demand from a fresh backup
// and cache-ineligible read queries are routed to it until the queue
// drains. Routed results are bit-identical to what the primary would have
// answered at the routed snapshot version — a query whose tables moved past
// the snapshot simply stays on the primary.

// burstRetireAfter is how long the queue must stay empty (and no routed
// query in flight) before the burst cluster is retired.
const burstRetireAfter = 500 * time.Millisecond

// HydrateFunc provisions a read-only cluster from a fresh backup of the
// primary, returning the database, the backup it was restored from, and
// the snapshot xid it serves at. The warehouse supplies this — the control
// plane doesn't know where backups live.
type HydrateFunc func() (db *core.Database, backupID string, snapshotXid int64, err error)

// burstCluster is one hydrated read-only cluster.
type burstCluster struct {
	id       int64
	db       *core.Database
	backupID string
	snapXid  int64
	started  time.Time
	// versions pins each table's primary data version captured BEFORE the
	// hydration backup was taken: if the primary's version still matches,
	// the burst copy cannot be staler than the primary (writers bump the
	// version only after publishing, so the conservative failure mode is a
	// needless fallback, never a stale answer).
	versions  map[string]int64
	routed    atomic.Int64
	fallbacks atomic.Int64
}

// BurstManager owns the concurrency-scaling lifecycle: watch queue
// pressure, hydrate, route, retire.
type BurstManager struct {
	ep *Endpoint
	// threshold is the queue pain — depth × oldest wait, in queue-seconds —
	// at which a burst cluster is worth hydrating; <= 0 disables
	// concurrency scaling.
	threshold float64
	hydrate   HydrateFunc
	reg       *telemetry.Registry

	mu        sync.Mutex
	cur       *burstCluster
	hydrating bool
	nextID    int64
	lastBusy  time.Time
	history   []core.BurstClusterInfo

	inflight atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewBurstManager builds a manager and starts its retirement janitor. Stop
// must be called to release it. reg may be nil.
func NewBurstManager(ep *Endpoint, threshold float64, hydrate HydrateFunc, reg *telemetry.Registry) *BurstManager {
	m := &BurstManager{
		ep:        ep,
		threshold: threshold,
		hydrate:   hydrate,
		reg:       reg,
		stop:      make(chan struct{}),
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Stop halts the janitor and retires any live burst cluster.
func (m *BurstManager) Stop() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	m.mu.Lock()
	m.retireLocked("retired")
	m.mu.Unlock()
}

// Snapshot returns every burst cluster's row for stv_burst_clusters:
// retired/failed history first, then the live cluster.
func (m *BurstManager) Snapshot() []core.BurstClusterInfo {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]core.BurstClusterInfo(nil), m.history...)
	if m.cur != nil {
		out = append(out, m.infoLocked(m.cur, "serving"))
	}
	return out
}

func (m *BurstManager) infoLocked(c *burstCluster, state string) core.BurstClusterInfo {
	return core.BurstClusterInfo{
		ID:            c.id,
		State:         state,
		BackupID:      c.backupID,
		SnapshotXid:   c.snapXid,
		RoutedQueries: c.routed.Load(),
		Fallbacks:     c.fallbacks.Load(),
		Started:       c.started,
	}
}

// retireLocked moves the live cluster (if any) into history.
func (m *BurstManager) retireLocked(state string) {
	if m.cur == nil {
		return
	}
	m.history = append(m.history, m.infoLocked(m.cur, state))
	m.cur = nil
	if m.reg != nil && state == "retired" {
		m.reg.Counter("burst_retirements_total").Inc()
	}
}

// shouldScale weighs the current queue pain against the threshold.
func (m *BurstManager) shouldScale(primary *core.Database) bool {
	depth, oldest := primary.QueuePressure()
	if depth == 0 {
		return false
	}
	return float64(depth)*oldest.Seconds() >= m.threshold
}

// TryRoute offers stmt to the concurrency-scaling tier. It returns
// (result, true) only when the burst cluster answered with a result
// bit-identical to the primary's at the routed snapshot version; any other
// outcome — policy says no, no cluster and pressure below threshold,
// hydration in progress or failed, table moved past the snapshot, injected
// route fault, execution error — returns (nil, false) and the caller runs
// the query on the primary as if this tier didn't exist. Routing can delay
// a read, never corrupt or drop it.
func (m *BurstManager) TryRoute(ctx context.Context, stmt sql.Statement) (*core.Result, bool) {
	if m == nil || m.threshold <= 0 {
		return nil, false
	}
	norm, tables, ok := core.RoutableSelect(stmt)
	if !ok {
		return nil, false
	}
	primary := m.ep.DB()
	if primary.HasFreshResult(norm) {
		// A version-valid cached result is cheaper than any routing.
		return nil, false
	}

	m.mu.Lock()
	cur := m.cur
	if cur == nil {
		if m.hydrating || !m.shouldScale(primary) {
			m.mu.Unlock()
			return nil, false
		}
		m.hydrating = true
		m.mu.Unlock()
		cur = m.hydrateNow(primary)
		if cur == nil {
			return nil, false
		}
	} else {
		m.lastBusy = time.Now()
		m.mu.Unlock()
	}

	// Staleness gate: every referenced table must still be at the version
	// pinned before the hydration backup.
	for _, name := range tables {
		def, err := primary.Catalog().Get(name)
		if err != nil {
			return nil, false
		}
		pinned, have := cur.versions[name]
		if !have || primary.Catalog().DataVersion(def.ID) != pinned {
			return nil, false
		}
	}

	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	fallback := func() (*core.Result, bool) {
		cur.fallbacks.Add(1)
		if m.reg != nil {
			m.reg.Counter("burst_fallbacks_total").Inc()
		}
		return nil, false
	}
	if err := primary.Faults().Hit(faults.SiteBurstRoute); err != nil {
		return fallback()
	}
	res, err := cur.db.ExecuteStmtContext(ctx, stmt)
	if err != nil {
		return fallback()
	}
	cur.routed.Add(1)
	if m.reg != nil {
		m.reg.Counter("burst_routed_queries_total").Inc()
	}
	m.mu.Lock()
	m.lastBusy = time.Now()
	m.mu.Unlock()
	return res, true
}

// hydrateNow provisions a burst cluster synchronously (the caller holds
// the hydrating flag, not the lock). Table versions are pinned BEFORE the
// backup is triggered so a write racing the backup can only cause a
// needless fallback, never a stale routed answer.
func (m *BurstManager) hydrateNow(primary *core.Database) *burstCluster {
	versions := map[string]int64{}
	for _, def := range primary.Catalog().List() {
		versions[def.Name] = primary.Catalog().DataVersion(def.ID)
	}
	start := time.Now()
	finish := func(c *burstCluster, failErr error) *burstCluster {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.hydrating = false
		if failErr != nil {
			m.nextID++
			m.history = append(m.history, core.BurstClusterInfo{
				ID: m.nextID, State: "failed", Started: start,
			})
			return nil
		}
		m.cur = c
		m.lastBusy = time.Now()
		return c
	}
	if err := primary.Faults().Hit(faults.SiteBurstHydrate); err != nil {
		return finish(nil, err)
	}
	db, backupID, snapXid, err := m.hydrate()
	if err != nil {
		return finish(nil, err)
	}
	db.SetReadOnly(true)
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	if m.reg != nil {
		m.reg.Counter("burst_hydrations_total").Inc()
	}
	return finish(&burstCluster{
		id: id, db: db, backupID: backupID, snapXid: snapXid,
		started: start, versions: versions,
	}, nil)
}

// janitor retires the burst cluster once the primary's queue has stayed
// empty (and no routed query is in flight) for burstRetireAfter.
func (m *BurstManager) janitor() {
	defer m.wg.Done()
	t := time.NewTicker(burstRetireAfter / 4)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		depth, _ := m.ep.DB().QueuePressure()
		m.mu.Lock()
		idle := m.cur != nil && depth == 0 && m.inflight.Load() == 0 &&
			time.Since(m.lastBusy) >= burstRetireAfter
		if idle {
			m.retireLocked("retired")
		}
		m.mu.Unlock()
	}
}
