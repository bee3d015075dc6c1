package core

import (
	"fmt"
	"strings"

	"redshift/internal/exec"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// runSelect executes a SELECT: plan at the leader, per-slice parallel
// execution with strategy-appropriate data movement, final merge at the
// leader (§2.1's query processing flow). norm is s normalized when the
// caller holds it, else empty. A FROM-less or system-table SELECT runs at
// the leader under the session's deadline and is not logged (monitoring
// should not fill the log it reads); a data-plane SELECT is, whichever way
// it ends: cache-served, failed, cancelled, timed out or evicted.
func (db *Database) runSelect(run *stmtRun, s *sql.Select, norm string) (*Result, error) {
	if s.From == nil {
		return db.runLeaderSelect(s)
	}
	if isSystemTable(s.From.Table) {
		return db.runSystemSelect(run, s)
	}
	sess, rec := run.sess, &run.rec
	norm = run.text(s, norm)

	// Result-cache lookup runs before the timeout clock, the WLM queue and
	// the planner: a hit holds no slot, reads no blocks, runs no operator —
	// and has nothing to cancel, so it draws an id without registering.
	run.enter(telemetry.StageCache)
	cacheable := db.resultCacheable(sess, s)
	if cacheable {
		if res, ok := db.resultLookup(norm); ok {
			rec.ID, rec.Rows = db.nextQID.Add(1), int64(len(res.Rows))
			return res, nil
		}
	}
	ctx := run.register()

	// Bind/plan, through the shared plan cache. Planning happens BEFORE WLM
	// admission — it is leader-side work that holds no slot, and the plan's
	// cost estimate is what routes short queries into the fast-lane queue.
	run.enter(telemetry.StagePlan)
	planSpan := rec.Trace.StartChild("plan")
	p, _, err := db.planFor(s, norm)
	planSpan.End()
	if err != nil {
		return nil, err
	}

	// WLM admission: the fast lane claims queries whose cost estimate is
	// under its threshold; otherwise the session's query_group names the
	// queue, else the default queue. On failure the slot was never
	// acquired: nothing to release.
	run.enter(telemetry.StageQueue)
	rec.Queue = db.wlm.Route(sess.QueryGroup(), p.EstCost)
	ticket, err := db.wlm.AcquireQueueCtx(ctx, rec.Queue)
	if err != nil {
		return nil, err
	}
	defer db.wlm.ReleaseTicket(ticket)
	rec.Queue = ticket.Queue

	// The read view opens once the slot is held, so a query waiting in the
	// WLM queue neither holds the prune horizon back nor reads a snapshot
	// older than its admission.
	run.enter(telemetry.StageExec)
	var pin *plan.Plan
	if cacheable {
		pin = p
	}
	view := db.beginRead(pin)
	defer view.release()

	// Memory governance: the query's grant comes from work_mem (session
	// override) or the admitting queue's per-slot budget; the tracker
	// charges blocking operators against it and the scratch dir receives
	// their spills. The deferred cleanup runs on EVERY exit — success,
	// error, cancel, timeout — so scratch files never outlive the query and
	// exec_mem_bytes returns to zero.
	grant := sess.memBudgetFor(ticket.Grant)
	mem := exec.NewMemTracker(grant, db.metrics.Gauge("exec_mem_bytes"))
	spillDir := exec.NewSpillDir(db.spillBase(), fmt.Sprintf("query-%d", rec.ID))
	defer func() {
		mem.ReleaseAll()
		spillDir.Cleanup()
	}()
	run.attachMem(mem, spillDir, grant)

	q := &queryRun{
		db:       db,
		p:        p,
		mode:     db.cfg.Mode,
		view:     view,
		scans:    &exec.ScanStats{},
		run:      run,
		reqDOP:   sess.maxParallel.Load(),
		mem:      mem,
		spillDir: spillDir,
	}
	netBefore := db.cl.NetBytes()
	final, err := q.execute(ctx)
	rec.MemPeak, rec.SpillBytes = mem.Peak(), spillDir.Bytes()
	rec.BlocksRead, rec.BlocksSkipped = q.scans.BlocksRead.Load(), q.scans.BlocksSkipped.Load()
	rec.RowsScanned, rec.NetBytes = q.scans.RowsRead.Load(), db.cl.NetBytes()-netBefore
	db.metrics.Counter("spill_files_total").Add(spillDir.Files())
	db.metrics.Counter("query_retries_total").Add(q.scans.Retries.Load())
	db.metrics.Counter("failover_reads_total").Add(q.scans.FailoverReads.Load())
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: p.Schema()}
	// The rows outlive the query (the caller keeps them, the result cache
	// may): their strings must not hold the scanned blocks' arenas.
	final.PackStrings()
	for i := 0; i < final.N; i++ {
		res.Rows = append(res.Rows, final.Row(i))
	}
	rec.Rows = int64(len(res.Rows))
	if cacheable {
		run.enter(telemetry.StageCache)
		db.resultStore(norm, res, view.versions)
	}
	// What is left is handing back the slot, the view and the grant.
	run.enter(telemetry.StageOther)
	return res, nil
}

// runLeaderSelect evaluates a FROM-less SELECT entirely at the leader —
// the connection-test queries every driver sends (SELECT 1).
func (db *Database) runLeaderSelect(s *sql.Select) (*Result, error) {
	if s.Distinct || len(s.GroupBy) > 0 || s.Having != nil || len(s.Joins) > 0 {
		return nil, fmt.Errorf("core: clauses other than the select list need a FROM table")
	}
	keep := s.Limit != 0
	if s.Where != nil {
		pred, err := plan.BindScalar(s.Where)
		if err != nil {
			return nil, err
		}
		if pred.Type() != types.Bool {
			return nil, fmt.Errorf("core: WHERE must be boolean, got %s", pred.Type())
		}
		v, err := exec.EvalRow(pred, nil)
		if err != nil {
			return nil, err
		}
		// NULL is not true: the one candidate row is filtered out.
		keep = keep && !v.Null && v.I != 0
	}
	res := &Result{}
	var row types.Row
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("core: SELECT * needs a FROM table")
		}
		bound, err := plan.BindScalar(item.Expr)
		if err != nil {
			return nil, err
		}
		v, err := exec.EvalRow(bound, nil)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = strings.ToLower(item.Expr.String())
		}
		res.Schema.Columns = append(res.Schema.Columns, types.Column{Name: name, Type: bound.Type()})
		row = append(row, v)
	}
	if keep {
		res.Rows = []types.Row{row}
	}
	return res, nil
}
