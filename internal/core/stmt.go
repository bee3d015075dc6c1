package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/load"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
)

// stmtRun is one statement's lifecycle, the same for every statement: the
// session entry point opens it before the parser runs, the dispatch arm that
// reaches the data plane registers it (an id, statement_timeout, the CANCEL
// hook, the root span), the stages it crosses advance its clock, and finish
// closes it — terminal state, Result.Stats, the stl_query row, the counters.
// A statement that never registers (SET, PREPARE, DDL, a FROM-less or
// system-table SELECT, a parse error) runs inside it and is not logged; nor
// is maintenance outside any statement (Database.offStatement), which
// crosses the same write path under a run nobody finishes.
type stmtRun struct {
	db   *Database
	sess *Session
	// ctx is the caller's context until deadline and register derive the
	// statement's own; stopTimer and cancel release what they took.
	ctx       context.Context
	stopTimer context.CancelFunc
	cancel    context.CancelCauseFunc
	// rec is the statement's stl_query row, filled in as it runs. A zero
	// rec.ID at finish means the statement is not logged.
	rec telemetry.QueryRecord
	// stage is the stage the clock stands in, since at. Every interval
	// between rec.Start and rec.End is added to exactly one stage, so they
	// sum to End − Start by construction.
	stage telemetry.Stage
	at    time.Time
	// load is what a COPY or INSERT wrote, behind the load_*_total counters.
	load load.Stats

	// What stv_query_memory and stv_exec_workers show of a running query:
	// its grant, tracker and scratch dir once the grant is issued, its
	// parallelism once the DOP is chosen. Guarded by db.qmu.
	mem   *exec.MemTracker
	spill *exec.SpillDir
	grant int64
	par   *exec.FanoutStats
}

// now is the stage clock's reading; a test counts the readings a statement
// takes by swapping it.
var now = time.Now

// begin opens a statement's lifecycle with its clock in stage first.
func (s *Session) begin(ctx context.Context, first telemetry.Stage) *stmtRun {
	r := &stmtRun{db: s.db, sess: s, ctx: ctx, stage: first, at: now()}
	r.rec.Start = r.at
	return r
}

// enter moves the clock into stage st: one clock reading, the interval since
// the last one charged to the stage being left. Stages may be re-entered
// (VACUUM of many tables queues, executes and publishes once per table).
func (r *stmtRun) enter(st telemetry.Stage) {
	t := now()
	r.rec.Stages[r.stage] += t.Sub(r.at)
	r.stage, r.at = st, t
}

// offStatement opens a run for maintenance no statement asked for —
// AutoMaintain's VACUUM and ANALYZE, resize's ReplaceTable: it is never
// registered, finished or logged.
func (db *Database) offStatement() *stmtRun {
	return db.defaultSession.begin(context.Background(), telemetry.StageOther)
}

// text settles the statement's normalized text: rendered from the AST —
// which canonicalizes whitespace, comments, keyword case and redundant
// parens — unless the caller holds it already (EXECUTE: PREPARE rendered it
// once). It is stl_query's querytxt and the key both caches share. An INSERT
// is logged by table and row count instead.
func (r *stmtRun) text(stmt sql.Statement, norm string) string {
	r.enter(telemetry.StageNormalize)
	if ins, ok := stmt.(*sql.Insert); ok {
		// An INSERT's literals are its data, not its identity: rendering
		// them costs an allocation a value, and the ring would hold them all.
		norm = fmt.Sprintf("INSERT INTO %s (%d rows)", ins.Table, len(ins.Rows))
	} else if norm == "" {
		norm = sql.Normalize(stmt)
	}
	r.rec.SQL = norm
	return norm
}

// deadline puts the statement under the session's statement_timeout.
func (r *stmtRun) deadline() context.Context {
	if d := r.sess.StatementTimeout(); d > 0 {
		r.ctx, r.stopTimer = context.WithTimeout(r.ctx, d)
	}
	return r.ctx
}

// register makes the statement one the data plane runs: under its deadline,
// in the running set with an id CANCEL can find, traced from a root span,
// and logged by finish. The returned context is the statement's own.
func (r *stmtRun) register() context.Context {
	r.enter(telemetry.StageOther)
	r.ctx, r.cancel = context.WithCancelCause(r.deadline())
	r.rec.Trace = telemetry.StartSpan("query")
	r.db.registerQuery(r)
	return r.ctx
}

// admit is text then register: every data-plane statement but SELECT, whose
// result-cache lookup comes between the two.
func (r *stmtRun) admit(stmt sql.Statement, norm string) context.Context {
	r.text(stmt, norm)
	return r.register()
}

// finish closes the lifecycle, on every exit path: it stops the clock,
// names the terminal state, releases the deadline and the CANCEL hook, and —
// for a statement that drew an id — fills res.Stats from the stages, appends
// the stl_query row and bumps the counters.
func (r *stmtRun) finish(res *Result, err error) (*Result, error) {
	rec := &r.rec
	rec.End = now()
	rec.Stages[r.stage] += rec.End.Sub(r.at)
	rec.State, err = classifyQueryErr(r.ctx, rec.ID, err)
	if rec.State == "timeout" && r.stage == telemetry.StageQueue {
		// The deadline passed while the statement still waited for its slot
		// or its locks: nothing ran, so resending it is always safe — unlike
		// a timeout mid-execution.
		err = faults.MarkRetryable(err)
	}
	if r.cancel != nil {
		r.cancel(nil)
		r.db.unregisterQuery(rec.ID)
	}
	if r.stopTimer != nil {
		r.stopTimer()
	}
	if rec.ID == 0 {
		return res, err
	}
	rec.Trace.End()
	if err != nil {
		rec.Error = err.Error()
	}
	st := &rec.Stages
	if res != nil {
		res.QueryID, res.qlog, res.Trace = rec.ID, r.db.qlog, rec.Trace
		res.Stats = ExecStats{
			BlocksRead:    rec.BlocksRead,
			BlocksSkipped: rec.BlocksSkipped,
			RowsScanned:   rec.RowsScanned,
			NetBytes:      rec.NetBytes,
			PlanTime:      st[telemetry.StagePlan],
			QueueWait:     st[telemetry.StageQueue],
			ExecTime:      st[telemetry.StageExec] + st[telemetry.StageLeader],
			Queue:         rec.Queue,
		}
	}
	r.db.qlog.Append(*rec)

	c := &r.db.counters
	c.total.Inc()
	c.memPeak.Set(rec.MemPeak)
	if rec.SpillBytes > 0 {
		c.spillBytes.Add(rec.SpillBytes)
		c.spilled.Inc()
	}
	if rec.State != "success" {
		c.aborted[rec.State].Inc()
		return res, err
	}
	wall := rec.End.Sub(rec.Start)
	c.blocksRead.Add(rec.BlocksRead)
	c.blocksSkipped.Add(rec.BlocksSkipped)
	c.rowsScanned.Add(rec.RowsScanned)
	c.seconds.Observe(wall.Seconds())
	c.planSeconds.Observe(st[telemetry.StagePlan].Seconds())
	c.queueSeconds.Observe(st[telemetry.StageQueue].Seconds())
	if r.load.Rows > 0 {
		// Whole seconds carry over from the nanoseconds accumulated so far.
		c.loadRows.Add(r.load.Rows)
		c.loadBytes.Add(r.load.BytesWritten)
		ns := r.db.loadNs.Add(int64(wall))
		c.loadSeconds.Add(ns/1e9 - (ns-int64(wall))/1e9)
	}
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
	case IsQueueTimeout(err):
		return "evicted", err
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

// stmtCounters are the registry handles finish bumps, resolved once per
// database instead of by name per statement.
type stmtCounters struct {
	total, spilled, spillBytes, blocksRead, blocksSkipped, rowsScanned,
	loadRows, loadBytes, loadSeconds *telemetry.Counter
	// aborted is keyed by the terminal states other than success.
	aborted                            map[string]*telemetry.Counter
	seconds, planSeconds, queueSeconds *telemetry.Histogram
	memPeak                            *telemetry.Gauge
}

func newStmtCounters(m *telemetry.Registry) stmtCounters {
	return stmtCounters{
		total:         m.Counter("query_total"),
		spilled:       m.Counter("spilled_queries_total"),
		spillBytes:    m.Counter("spill_bytes_total"),
		blocksRead:    m.Counter("query_blocks_read_total"),
		blocksSkipped: m.Counter("query_blocks_skipped_total"),
		rowsScanned:   m.Counter("query_rows_scanned_total"),
		loadRows:      m.Counter("load_rows_total"),
		loadBytes:     m.Counter("load_bytes_total"),
		loadSeconds:   m.Counter("load_seconds_total"),
		aborted: map[string]*telemetry.Counter{
			"error":     m.Counter("query_errors_total"),
			"cancelled": m.Counter("query_cancelled_total"),
			"timeout":   m.Counter("query_timeout_total"),
			"evicted":   m.Counter("query_evicted_total"),
		},
		seconds:      m.Histogram("query_seconds"),
		planSeconds:  m.Histogram("query_plan_seconds"),
		queueSeconds: m.Histogram("query_queue_seconds"),
		memPeak:      m.Gauge("exec_mem_peak"),
	}
}
