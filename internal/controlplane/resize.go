package controlplane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/core"
	"redshift/internal/faults"
)

// Endpoint is the SQL endpoint customers connect to. Resize swaps the
// database behind it atomically ("we move the SQL endpoint and
// decommission the source", §3.1).
type Endpoint struct {
	db atomic.Pointer[core.Database]
}

// NewEndpoint wraps a database.
func NewEndpoint(db *core.Database) *Endpoint {
	e := &Endpoint{}
	e.Swap(db)
	return e
}

// DB returns the current database.
func (e *Endpoint) DB() *core.Database { return e.db.Load() }

// Swap atomically moves the endpoint to a new database, and the shared
// registry's cache gauges with it: the registry outlives the swap.
func (e *Endpoint) Swap(db *core.Database) {
	e.db.Store(db)
	db.ExportCacheGauges()
}

// ResizeStats reports what a resize moved and what it cost the client.
type ResizeStats struct {
	Tables    int
	Rows      int64
	FromNodes int
	ToNodes   int
	// CatchupRounds is how many incremental delta copies ran between the
	// initial snapshot copy and the cutover.
	CatchupRounds int
	// CutoverWindow is how long writes saw retryable rejections: from
	// QuiesceWrites to the endpoint swap.
	CutoverWindow time.Duration
}

// ResizeOptions tunes the online workflow; the zero value is sane.
type ResizeOptions struct {
	// MaxCatchupRounds bounds the incremental copy loop before the
	// workflow gives up chasing the write backlog and cuts over anyway
	// (the final delta under quiesce is exact regardless). Default 3.
	MaxCatchupRounds int
	// Retry wraps each per-table copy so transient faults (injected or
	// real) don't abort the whole resize. Zero value = faults.DefaultPolicy.
	Retry faults.Policy
	// Finalize runs inside the cutover window, after the final delta copy
	// and before the endpoint swap — the warehouse hooks it to install the
	// target's S3 read tier and warm it with a fresh backup, so the first
	// post-swap page fault never lands on a cold backup store. An error
	// here aborts the cutover and rolls back to the source.
	Finalize func(dst *core.Database) error
}

func (o ResizeOptions) withDefaults() ResizeOptions {
	if o.MaxCatchupRounds <= 0 {
		o.MaxCatchupRounds = 3
	}
	return o
}

// ResizeOnline performs a phased online resize: writes keep flowing during
// the bulk of the copy and are rejected (retryably) only during the final
// cutover window.
//
//	provision      target cluster with the new topology
//	schema         recreate every table definition (serial; stable IDs)
//	snapshot-copy  parallel per-table copy while the source keeps serving
//	               reads AND writes; each table's data version is recorded
//	               before its snapshot is read
//	catch-up       bounded rounds of incremental re-copy for tables whose
//	               data version moved since they were copied
//	cutover        quiesce writes (in-flight statements drain, new ones get
//	               retryable errors), copy the final delta, swap the
//	               endpoint, decommission the source
//
// Any failure rolls back cleanly: the source resumes writes and stays
// authoritative, the partially-built target is discarded, and the endpoint
// never observes it. After a successful swap the source stays permanently
// non-writable (decommissioned) — a stale handle must not accept writes the
// new cluster will never see.
func ResizeOnline(ep *Endpoint, target core.Config, opts ResizeOptions) (ResizeStats, error) {
	opts = opts.withDefaults()
	src := ep.DB()
	inj := src.Faults()
	reg := target.Metrics
	if reg == nil {
		reg = src.Telemetry()
	}
	var stats ResizeStats
	stats.FromNodes = src.Cluster().NumNodes()
	stats.ToNodes = target.Cluster.Nodes

	prog := core.ResizeProgress{
		Active:    true,
		FromNodes: stats.FromNodes,
		ToNodes:   stats.ToNodes,
		Started:   time.Now(),
	}
	publish := func(phase string) {
		prog.Phase = phase
		src.SetResizeProgress(prog)
	}
	fail := func(phase string, err error) (ResizeStats, error) {
		// Roll back: the source is authoritative again; the half-built
		// target is garbage (never visible through the endpoint).
		src.ResumeWrites()
		prog.Active = false
		publish("failed: " + phase)
		if reg != nil {
			reg.Counter("resize_failures_total").Inc()
		}
		return stats, fmt.Errorf("controlplane: resize %s: %w", phase, err)
	}

	publish("provision")
	dst, err := core.Open(target)
	if err != nil {
		return fail("provision", err)
	}

	publish("schema")
	defs := src.Catalog().List()
	prog.TablesTotal = int64(len(defs))
	for _, def := range defs {
		cp := &catalog.TableDef{
			Name:        def.Name,
			Columns:     append([]catalog.ColumnDef(nil), def.Columns...),
			DistStyle:   def.DistStyle,
			DistKeyCol:  def.DistKeyCol,
			SortStyle:   def.SortStyle,
			SortKeyCols: append([]int(nil), def.SortKeyCols...),
		}
		if err := dst.Catalog().Create(cp); err != nil {
			return fail("schema", err)
		}
	}

	// copied tracks, per table, the source data version its last copy was
	// taken at. A table is stale while the live version differs.
	copied := make(map[string]int64, len(defs))
	var copiedMu sync.Mutex

	// copyOne re-copies one table replace-style (idempotent: safe to retry
	// and safe to run again in a later round), recording the version seen
	// BEFORE the snapshot read. Writers bump the version only after
	// publishing, so a racing write is either visible to the snapshot
	// (harmlessly re-copied later if the version moved) or caught by a
	// catch-up round — never silently missed.
	copyOne := func(site, name string) error {
		return retryCopy(opts.Retry, func() error {
			if err := inj.Hit(site); err != nil {
				return err
			}
			def, err := src.Catalog().Get(name)
			if err != nil {
				return err
			}
			ver := src.Catalog().DataVersion(def.ID)
			rows, err := src.ReadTable(name)
			if err != nil {
				return err
			}
			if err := dst.ReplaceTable(name, rows); err != nil {
				return err
			}
			copiedMu.Lock()
			if _, again := copied[name]; !again {
				prog.TablesCopied++
			}
			copied[name] = ver
			prog.RowsCopied += int64(len(rows))
			stats.Rows += int64(len(rows))
			src.SetResizeProgress(prog)
			copiedMu.Unlock()
			return nil
		})
	}

	publish("snapshot-copy")
	var wg sync.WaitGroup
	errs := make([]error, len(defs))
	for i, def := range defs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = copyOne(faults.SiteResizeCopy, name)
		}(i, def.Name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail("snapshot-copy", err)
		}
	}

	// staleTables lists the tables whose source data version moved since
	// their last copy (writes landed while we copied).
	staleTables := func() []string {
		copiedMu.Lock()
		defer copiedMu.Unlock()
		var out []string
		for _, def := range defs {
			if src.Catalog().DataVersion(def.ID) != copied[def.Name] {
				out = append(out, def.Name)
			}
		}
		return out
	}

	publish("catch-up")
	for round := 0; round < opts.MaxCatchupRounds; round++ {
		stale := staleTables()
		if len(stale) == 0 {
			break
		}
		stats.CatchupRounds++
		prog.CatchupRounds++
		src.SetResizeProgress(prog)
		if reg != nil {
			reg.Counter("resize_catchup_rounds_total").Inc()
		}
		for _, name := range stale {
			if err := copyOne(faults.SiteResizeCatchup, name); err != nil {
				return fail("catch-up", err)
			}
		}
	}

	// Cutover: freeze the table set, copy the exact final delta, move the
	// endpoint. From QuiesceWrites to Swap every new write statement fails
	// with a retryable error — the documented cutover window.
	publish("cutover")
	cutStart := time.Now()
	src.QuiesceWrites()
	if err := inj.Hit(faults.SiteResizeCutover); err != nil {
		return fail("cutover", err)
	}
	for _, name := range staleTables() {
		if err := copyOne(faults.SiteResizeCutover, name); err != nil {
			return fail("cutover", err)
		}
	}
	// The target starts its commit-xid horizon at the source's, so a client
	// that saw xid N on the source never observes an older snapshot after
	// the swap.
	dst.Txns().SetCommitXid(src.Txns().CurrentXid())
	if opts.Finalize != nil {
		if err := opts.Finalize(dst); err != nil {
			return fail("cutover", err)
		}
	}
	ep.Swap(dst)
	src.Decommission()
	stats.CutoverWindow = time.Since(cutStart)

	stats.Tables = len(defs)
	prog.Active = false
	publish("done")
	dst.SetResizeProgress(prog)
	if reg != nil {
		reg.Counter("resize_runs_total").Inc()
		reg.Counter("resize_rows_moved_total").Add(stats.Rows)
		reg.Counter("resize_tables_moved_total").Add(int64(stats.Tables))
	}
	return stats, nil
}

// retryCopy runs fn under the policy, treating every error as transient
// (per-table copies are idempotent replace-style writes).
func retryCopy(p faults.Policy, fn func() error) error {
	_, err := p.Do(context.Background(), fn)
	return err
}
