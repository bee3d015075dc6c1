package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"redshift/internal/faults"
	"redshift/internal/sql"
)

// This file is the data plane's side of online elasticity (§3.1): the
// write-state machine an online resize drives on the source cluster, the
// observability hooks behind stv_resize / stv_burst_clusters, and the read
// classification the concurrency-scaling router uses.

// Write-state values. A database accepts writes, rejects them transiently
// (the resize cutover window — the client should back off and resend), or
// rejects them permanently (a decommissioned source after the endpoint
// moved — stale handles must never write data the new cluster won't have).
const (
	stateWritable int32 = iota
	stateReadOnly
	stateDecommissioned
)

// SetReadOnly toggles transient write rejection ("we ... put the original
// cluster in read-only mode", §3.1). Rejections in this state are
// classified retryable.
func (db *Database) SetReadOnly(ro bool) {
	if ro {
		db.writeState.Store(stateReadOnly)
	} else {
		db.writeState.Store(stateWritable)
	}
}

// ReadOnly reports whether writes are currently rejected.
func (db *Database) ReadOnly() bool { return db.writeState.Load() != stateWritable }

// Decommission marks the database permanently write-dead: the endpoint has
// moved to a resize target, so a write accepted here would be silently
// lost. Unlike the cutover window this rejection is NOT retryable — the
// caller must reconnect to the endpoint.
func (db *Database) Decommission() { db.writeState.Store(stateDecommissioned) }

// Decommissioned reports whether the endpoint has moved away for good.
func (db *Database) Decommissioned() bool { return db.writeState.Load() == stateDecommissioned }

// errDecommissioned is the fatal write rejection of a decommissioned
// source. It is rejected before any mutation, so an endpoint that
// re-resolves the current database may safely replay the statement there.
var errDecommissioned = errors.New("core: cluster is decommissioned (resize complete; reconnect to the endpoint)")

// IsDecommissioned reports whether err is the decommissioned-cluster write
// rejection (the endpoint uses this to replay a statement that raced the
// final swap onto the new primary).
func IsDecommissioned(err error) bool { return errors.Is(err, errDecommissioned) }

// errIfReadOnly guards write statements, classifying the rejection per the
// retryable-error taxonomy.
func (db *Database) errIfReadOnly() error {
	switch db.writeState.Load() {
	case stateReadOnly:
		return faults.MarkRetryable(fmt.Errorf("core: cluster is in read-only mode (resize in progress)"))
	case stateDecommissioned:
		return errDecommissioned
	}
	return nil
}

// beginWrite admits one write statement: it fails fast when writes are
// rejected — or the statement is already cancelled — and otherwise registers
// the statement with the quiesce gate so QuiesceWrites can wait for it to
// finish publishing. The returned release MUST run on every exit path.
func (db *Database) beginWrite(ctx context.Context) (release func(), err error) {
	if err := db.errIfReadOnly(); err != nil {
		return nil, err
	}
	db.writeGate.RLock()
	// Re-check under the gate: a quiesce that won the race flipped the
	// state before blocking on the gate, so this write must not slip in.
	err = db.errIfReadOnly()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		db.writeGate.RUnlock()
		return nil, err
	}
	return db.writeGate.RUnlock, nil
}

// QuiesceWrites opens the resize cutover window: new writes fail
// immediately with a retryable error, and the call returns only once every
// in-flight write statement has finished publishing — after it returns the
// table set is frozen, so the final delta copy misses nothing that was
// acknowledged to a client.
func (db *Database) QuiesceWrites() {
	db.writeState.Store(stateReadOnly)
	db.writeGate.Lock()
	//lint:ignore SA2001 the empty critical section is the drain barrier
	db.writeGate.Unlock()
}

// ResumeWrites closes the cutover window after a failed resize rolls back:
// the source is authoritative again.
func (db *Database) ResumeWrites() { db.writeState.Store(stateWritable) }

// ResizeProgress is the live state of an online resize, published on the
// source (and, once done, the target) database by the control-plane
// workflow and surfaced through stv_resize.
type ResizeProgress struct {
	Active        bool
	Phase         string // provision|schema|snapshot-copy|catch-up|cutover|done|failed: <phase>
	FromNodes     int
	ToNodes       int
	TablesTotal   int64
	TablesCopied  int64
	RowsCopied    int64
	CatchupRounds int64
	Started       time.Time
}

// SetResizeProgress publishes the current resize state.
func (db *Database) SetResizeProgress(p ResizeProgress) { db.resizeProgress.Store(&p) }

// ResizeProgress returns the last published resize state (zero value when
// no resize ever touched this database).
func (db *Database) ResizeProgress() ResizeProgress {
	if p := db.resizeProgress.Load(); p != nil {
		return *p
	}
	return ResizeProgress{}
}

// BurstClusterInfo is one concurrency-scaling cluster's row in
// stv_burst_clusters.
type BurstClusterInfo struct {
	ID            int64
	State         string // hydrating | serving | retired | failed
	BackupID      string
	SnapshotXid   int64
	RoutedQueries int64
	Fallbacks     int64
	Started       time.Time
}

// SetBurstInfoSource installs the provider behind stv_burst_clusters (the
// control plane's burst manager). A nil source yields an empty table.
func (db *Database) SetBurstInfoSource(fn func() []BurstClusterInfo) {
	db.burstInfo.Store(&fn)
}

func (db *Database) burstInfoRows() []BurstClusterInfo {
	if fn := db.burstInfo.Load(); fn != nil && *fn != nil {
		return (*fn)()
	}
	return nil
}

// QueuePressure reports the WLM queue depth and the longest current queue
// wait — the burst scale-out policy's signal.
func (db *Database) QueuePressure() (depth int, oldestWait time.Duration) {
	return db.wlm.QueuePressure()
}

// RoutableSelect reports whether stmt is a data-plane SELECT the
// concurrency-scaling tier may serve — it has a FROM and references no
// system tables (those describe the cluster answering them, so they must
// not leave the primary). It returns the normalized text for result-cache
// probing and the referenced table names for the router's staleness check.
func RoutableSelect(stmt sql.Statement) (norm string, tables []string, ok bool) {
	sel, isSel := stmt.(*sql.Select)
	if !isSel || sel.From == nil || isSystemTable(sel.From.Table) {
		return "", nil, false
	}
	tables = append(tables, sel.From.Table)
	for _, j := range sel.Joins {
		if isSystemTable(j.Table.Table) {
			return "", nil, false
		}
		tables = append(tables, j.Table.Table)
	}
	return sql.Normalize(sel), tables, true
}

// HasFreshResult reports whether the normalized statement currently has a
// version-valid result-cache entry. The probe is a peek: it touches
// neither the LRU order nor the hit/miss counters, so routing decisions
// don't distort stv_result_cache.
func (db *Database) HasFreshResult(norm string) bool {
	v, ok := db.resultCache.Peek(norm)
	if !ok {
		return false
	}
	return db.versionsMatch(v.(*resultEntry).tables)
}
