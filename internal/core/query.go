package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// runSelect executes a SELECT: plan at the leader, per-slice parallel
// execution with strategy-appropriate data movement, final merge at the
// leader (§2.1's query processing flow). norm is s normalized, or empty for
// runSelect to render it.
func (db *Database) runSelect(ctx context.Context, sess *Session, s *sql.Select, norm string) (*Result, error) {
	if s.From == nil {
		return db.runLeaderSelect(s)
	}
	if isSystemTable(s.From.Table) {
		return db.runSystemSelect(ctx, s)
	}
	if norm == "" {
		norm = sql.Normalize(s)
	}
	res, _, err := db.runSelectTraced(ctx, sess, s, norm)
	return res, err
}

// classifyQueryErr folds a run error into its stl_query terminal state and
// a user-facing error. A context error is rewritten so the user sees why
// the query died ("cancelled on user request" / "statement timeout"), not
// a bare context.Canceled.
func classifyQueryErr(ctx context.Context, qid int64, err error) (string, error) {
	switch {
	case err == nil:
		return "success", nil
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", fmt.Errorf("core: query %d aborted: statement timeout", qid)
	case errors.Is(err, context.Canceled):
		cause := context.Cause(ctx)
		if cause == nil || errors.Is(cause, context.Canceled) {
			cause = errors.New("context cancelled")
		}
		if errors.Is(cause, context.DeadlineExceeded) {
			return "timeout", fmt.Errorf("core: query %d aborted: statement timeout", qid)
		}
		return "cancelled", fmt.Errorf("core: query %d aborted: %v", qid, cause)
	default:
		return "error", err
	}
}

// runSelectTraced executes a data-plane SELECT through the staged
// lifecycle — normalize, result-cache lookup, bind/plan (cached), execute,
// result-cache store — and returns the result with its span tree (nil on a
// cache hit: nothing executed). Every run — including failed, cancelled
// and cache-served ones — is appended to the query log and counted in the
// metrics registry.
//
// Stage 2, normalize, is the caller's: norm is sql.Normalize(s), rendered per
// statement or once at PREPARE. Rendering the AST canonicalizes whitespace,
// comments, keyword case and redundant parens; the result is the stl_query
// text and the key both caches share.
func (db *Database) runSelectTraced(ctx context.Context, sess *Session, s *sql.Select, norm string) (*Result, *telemetry.Span, error) {
	// rec accumulates the run's stl_query row as the stages below complete.
	rec := &telemetry.QueryRecord{Start: time.Now(), SQL: norm, State: "success"}

	// Result-cache lookup runs before the timeout clock, the WLM queue and
	// the planner: a hit holds no slot, reads no blocks, runs no operator.
	cacheable := db.resultCacheable(sess, s)
	if cacheable {
		if res, ok := db.resultLookup(norm); ok {
			var cancel context.CancelCauseFunc
			rec.ID, _, cancel = db.registerQuery(ctx, norm)
			cancel(nil)
			db.unregisterQuery(rec.ID)
			db.recordQuery(rec, res)
			return res, nil, nil
		}
	}

	if d := sess.StatementTimeout(); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		defer cancelT()
	}
	qid, ctx, cancel := db.registerQuery(ctx, norm)
	defer cancel(nil)
	defer db.unregisterQuery(qid)
	rec.ID = qid
	// fail logs the run as aborted in the given terminal state.
	fail := func(state string, err error) (*Result, *telemetry.Span, error) {
		rec.Trace.End()
		rec.State, rec.Error = state, err.Error()
		db.recordQuery(rec, nil)
		return nil, rec.Trace, err
	}

	// Stage 3: bind/plan, through the shared plan cache. Planning happens
	// BEFORE WLM admission — it is leader-side work that holds no slot, and
	// the plan's cost estimate is what routes short queries into the
	// fast-lane queue.
	rec.Trace = telemetry.StartSpan("query")
	planSpan := rec.Trace.StartChild("plan")
	planStart := time.Now()
	p, _, err := db.planFor(s, norm)
	rec.PlanTime = time.Since(planStart)
	planSpan.End()
	if err != nil {
		return fail("error", err)
	}

	// WLM admission: the fast lane claims queries whose cost estimate is
	// under its threshold; otherwise the session's query_group names the
	// queue, else the default queue.
	rec.Queue = db.wlm.Route(sess.QueryGroup(), p.EstCost)
	ticket, err := db.wlm.AcquireQueueCtx(ctx, rec.Queue)
	if err != nil {
		// The slot was never acquired: nothing to release.
		state := "evicted"
		if !IsQueueTimeout(err) {
			state, err = classifyQueryErr(ctx, qid, err)
			if state == "timeout" {
				// The query never started executing, so resending it is
				// always safe — unlike a mid-execution statement timeout, an
				// admission timeout is retryable.
				err = faults.MarkRetryable(err)
			}
		}
		return fail(state, err)
	}
	defer db.wlm.ReleaseTicket(ticket)
	rec.Queue, rec.QueueWait = ticket.Queue, ticket.Wait

	// The read view opens once the slot is held, so a query waiting in the
	// WLM queue neither holds the prune horizon back nor reads a snapshot
	// older than its admission.
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
	spillDir := exec.NewSpillDir(db.spillBase(), fmt.Sprintf("query-%d", qid))
	defer func() {
		mem.ReleaseAll()
		spillDir.Cleanup()
	}()
	db.attachQueryMem(qid, mem, spillDir, grant)

	q := &queryRun{
		db:       db,
		p:        p,
		mode:     db.cfg.Mode,
		view:     view,
		scans:    &exec.ScanStats{},
		qid:      qid,
		reqDOP:   sess.maxParallel.Load(),
		trace:    rec.Trace,
		mem:      mem,
		spillDir: spillDir,
	}
	netBefore := db.cl.NetBytes()
	execStart := time.Now()
	final, err := q.execute(ctx)
	rec.ExecTime = time.Since(execStart)
	rec.MemPeak, rec.SpillBytes = mem.Peak(), spillDir.Bytes()
	db.metrics.Counter("spill_files_total").Add(spillDir.Files())
	db.metrics.Counter("query_retries_total").Add(q.scans.Retries.Load())
	db.metrics.Counter("failover_reads_total").Add(q.scans.FailoverReads.Load())
	if err != nil {
		return fail(classifyQueryErr(ctx, qid, err))
	}
	rec.Trace.End()
	res := &Result{
		Schema: p.Schema(),
		Stats: ExecStats{
			BlocksRead:    q.scans.BlocksRead.Load(),
			BlocksSkipped: q.scans.BlocksSkipped.Load(),
			RowsScanned:   q.scans.RowsRead.Load(),
			NetBytes:      db.cl.NetBytes() - netBefore,
			PlanTime:      rec.PlanTime,
			QueueWait:     rec.QueueWait,
			ExecTime:      rec.ExecTime,
			Queue:         rec.Queue,
		},
	}
	// The rows outlive the query (the caller keeps them, the result cache
	// may): their strings must not hold the scanned blocks' arenas.
	final.PackStrings()
	for i := 0; i < final.N; i++ {
		res.Rows = append(res.Rows, final.Row(i))
	}
	if cacheable {
		db.resultStore(norm, res, view.versions)
	}
	db.recordQuery(rec, res)
	return res, rec.Trace, nil
}

// recordQuery stamps a finished SELECT's record with its end time and
// result counters (res is nil for aborted runs), appends it to the query
// log and emits its counters into the registry.
func (db *Database) recordQuery(rec *telemetry.QueryRecord, res *Result) {
	rec.End = time.Now()
	if res != nil {
		rec.Rows = int64(len(res.Rows))
		rec.BlocksRead = res.Stats.BlocksRead
		rec.BlocksSkipped = res.Stats.BlocksSkipped
		rec.RowsScanned = res.Stats.RowsScanned
		rec.NetBytes = res.Stats.NetBytes
	}
	db.qlog.Append(*rec)

	m := db.metrics
	m.Counter("query_total").Inc()
	m.Gauge("exec_mem_peak").Set(rec.MemPeak)
	if rec.SpillBytes > 0 {
		m.Counter("spill_bytes_total").Add(rec.SpillBytes)
		m.Counter("spilled_queries_total").Inc()
	}
	switch rec.State {
	case "success":
		m.Counter("query_blocks_read_total").Add(rec.BlocksRead)
		m.Counter("query_blocks_skipped_total").Add(rec.BlocksSkipped)
		m.Counter("query_rows_scanned_total").Add(rec.RowsScanned)
		m.Histogram("query_seconds").Observe(rec.End.Sub(rec.Start).Seconds())
		m.Histogram("query_plan_seconds").Observe(rec.PlanTime.Seconds())
		m.Histogram("query_queue_seconds").Observe(rec.QueueWait.Seconds())
		db.publishCacheGauges()
	case "cancelled":
		m.Counter("query_cancelled_total").Inc()
	case "timeout":
		m.Counter("query_timeout_total").Inc()
	case "evicted":
		m.Counter("query_evicted_total").Inc()
	default:
		m.Counter("query_errors_total").Inc()
	}
}

// publishCacheGauges mirrors the block, plan and result caches' counters
// into the registry.
func (db *Database) publishCacheGauges() {
	m := db.metrics
	cs := db.cache.Stats()
	m.Gauge("block_cache_hits").Set(cs.Hits)
	m.Gauge("block_cache_misses").Set(cs.Misses)
	m.Gauge("block_cache_evictions").Set(cs.Evictions)
	m.Gauge("block_cache_bytes").Set(cs.Bytes)
	m.Gauge("block_cache_budget_bytes").Set(cs.Budget)
	m.Gauge("block_cache_entries").Set(cs.Entries)
	m.Gauge("block_cache_saved_ns").Set(cs.SavedNs)
	m.Gauge("block_cache_resident_cost_ns").Set(cs.ResidentCostNs)

	pcs := db.planCache.Stats()
	m.Gauge("plan_cache_hits").Set(pcs.Hits)
	m.Gauge("plan_cache_misses").Set(pcs.Misses)
	m.Gauge("plan_cache_evictions").Set(pcs.Evictions)
	m.Gauge("plan_cache_invalidations").Set(pcs.Invalidations)
	m.Gauge("plan_cache_entries").Set(pcs.Entries)
	rcs := db.resultCache.Stats()
	m.Gauge("result_cache_hits").Set(rcs.Hits)
	m.Gauge("result_cache_misses").Set(rcs.Misses)
	m.Gauge("result_cache_evictions").Set(rcs.Evictions)
	m.Gauge("result_cache_invalidations").Set(rcs.Invalidations)
	m.Gauge("result_cache_entries").Set(rcs.Entries)
	m.Gauge("result_cache_bytes").Set(rcs.Used)
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
