package core

import (
	"context"

	"redshift/internal/catalog"
	"redshift/internal/plan"
	"redshift/internal/storage"
	"redshift/internal/telemetry"
	"redshift/internal/txn"
)

// The commit protocol for table data (DESIGN.md "Commit protocol"): nothing
// outside this file begins a transaction, reserves or publishes an xid,
// takes a snapshot, or prunes superseded segments.

// writeTable runs one mutation of the named table. fn registers the
// write's segments under xid — invisible until Publish — and, last, leaves
// the statistics describing the table as it will be. In order: the write
// gate (a resize cutover rejects the write before it takes anything); ddlMu
// for a write that supersedes segments; the table lock and, under it, the
// xid that also numbers the segments; fn, rolled back wholesale on error;
// Publish; prune, which only now can reach xid; the superseded table's
// cached blocks handed back (memory, not coherence: a BlockID is never
// reused); the data-version bump last, as readers pin versions first.
//
// ctx is observed at the two points where stopping is clean — before
// anything is taken, and after fn but before Publish — so a cancelled or
// timed-out write is rolled back whole or committed whole, never reported
// cancelled after it published. run's clock reads the three steps as queue,
// exec and leader.
func (db *Database) writeTable(ctx context.Context, run *stmtRun, name string, supersede bool,
	fn func(def *catalog.TableDef, xid int64) error) error {

	run.enter(telemetry.StageQueue)
	endWrite, err := db.beginWrite(ctx)
	if err != nil {
		return err
	}
	defer endWrite()
	if supersede {
		db.ddlMu.Lock()
		defer db.ddlMu.Unlock()
	}
	def, err := db.cat.Get(name)
	if err != nil {
		return err
	}
	t := db.txm.Begin()
	if err := db.txm.LockTable(t, def.ID); err != nil {
		db.txm.Abort(t)
		return err
	}
	xid, err := db.txm.Reserve(t)
	if err != nil {
		db.txm.Abort(t)
		return err
	}
	run.enter(telemetry.StageExec)
	err = fn(def, xid)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		db.cl.DiscardXid(def.ID, xid)
		db.txm.Abort(t)
		return err
	}
	run.enter(telemetry.StageLeader)
	if err := db.txm.Publish(t); err != nil {
		return err
	}
	db.cl.PruneDropped(db.txm.OldestActiveSnapshot())
	if supersede {
		db.cache.InvalidateTable(def.ID)
	}
	db.cat.BumpDataVersion(def.ID)
	return nil
}

// readView is a registered snapshot: what a SELECT, ANALYZE or table read
// sees for as long as it runs. Rewrites supersede the segments an open view
// can see; they are not pruned until it is released.
type readView struct {
	db       *Database
	t        *txn.Txn
	versions []tableVersion // of the pinned plan's tables; nil without a pin
}

// beginRead opens a read view — the only place a snapshot is taken; release
// must follow on every exit path. A non-nil pin has its tables' data
// versions pinned first, for a result that may be cached: writers bump after
// publishing, so what publishes from here on either misses the snapshot too
// or invalidates what is stored under the pinned versions. Scans attach
// their block cache before resolving segments (epoch before segments).
func (db *Database) beginRead(pin *plan.Plan) *readView {
	v := &readView{db: db}
	if pin != nil {
		v.versions = db.captureTableVersions(pin)
	}
	v.t = db.txm.Begin()
	return v
}

// segments returns the table's segments on one slice as of the view.
func (v *readView) segments(slice int, tableID int64) []*storage.Segment {
	return v.db.cl.VisibleSegments(slice, tableID, v.t.Snapshot)
}

// tableSegments returns, slice by slice, the segments holding each logical
// row once: of a DISTSTYLE ALL table, the first node's copy only.
func (v *readView) tableSegments(def *catalog.TableDef) [][]*storage.Segment {
	slices := v.db.cl.NumSlices()
	if def.DistStyle == catalog.DistAll {
		slices = v.db.cl.Config().SlicesPerNode
	}
	out := make([][]*storage.Segment, slices)
	for sl := range out {
		out[sl] = v.segments(sl, def.ID)
	}
	return out
}

// release closes the view. One that a commit overtook may have been all
// that kept superseded segments alive, so it prunes on the way out.
func (v *readView) release() {
	txm := v.db.txm
	txm.Abort(v.t)
	if horizon := txm.OldestActiveSnapshot(); horizon > v.t.Snapshot {
		v.db.cl.PruneDropped(horizon)
	}
}
