package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/sql"
	"redshift/internal/telemetry"
)

// Session is one client connection's view of the database: its prepared
// statements and its SET overrides (statement_timeout, work_mem,
// result_cache). Every statement enters through a session, which opens its
// lifecycle (stmtRun) — the session supplies stage-relevant state (prepared
// ASTs, cache opt-out, statement_timeout), the Database owns the shared
// artifacts (plan cache, result cache, running set, query log).
//
// Sessions are safe for concurrent use; the embedded Database handle keeps
// working after Close (Close only discards session-local state).
type Session struct {
	db *Database

	// stmtTimeout and workMem are this session's SET overrides.
	// stmtTimeout is nanoseconds (0 = disabled); workMem is bytes, -1
	// deferring to the WLM grant.
	stmtTimeout atomic.Int64
	workMem     atomic.Int64
	// maxParallel is the SET max_parallel_workers override: -1 defers to
	// the automatic DOP policy, n >= 1 forces every data-plane query in
	// this session to exactly n morsel workers per slice (bypassing the
	// EstRows threshold and the grant cap — the twin batteries use this to
	// pin the DOP on arbitrarily small tables).
	maxParallel atomic.Int64
	// resultCacheOff is the SET result_cache TO off escape hatch: a session
	// that turns any result-affecting knob off the beaten path gives up
	// result-cache hits and stores (but keeps plan-cache reuse, which is
	// settings-independent).
	resultCacheOff atomic.Bool
	// queryGroup is the SET query_group WLM routing tag: the named queue
	// this session's SELECTs are admitted through ("" = default queue; the
	// short-query fast lane overrides it for cheap queries either way).
	queryGroup atomic.Value // string

	// mu guards the prepared-statement registry.
	mu       sync.Mutex
	prepared map[string]*preparedStmt
}

// preparedStmt is one PREPARE'd statement: its parsed AST (parse stage,
// done once) and normalized text (the shared cache key, so EXECUTE hits
// the same plan/result entries as the equivalent ad-hoc statement).
type preparedStmt struct {
	stmt sql.Statement
	norm string
}

// NewSession opens a session with every setting at its default: no
// statement_timeout, work_mem and max_parallel_workers deferring to the
// WLM grant and the core count.
func (db *Database) NewSession() *Session {
	s := &Session{db: db, prepared: map[string]*preparedStmt{}}
	s.workMem.Store(-1)
	s.maxParallel.Store(-1)
	return s
}

// Close discards the session's prepared statements. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.prepared = map[string]*preparedStmt{}
	s.mu.Unlock()
}

// StatementTimeout returns the session's statement_timeout (0 = disabled).
func (s *Session) StatementTimeout() time.Duration {
	return time.Duration(s.stmtTimeout.Load())
}

// QueryGroup returns the session's SET query_group value ("" = unset).
func (s *Session) QueryGroup() string {
	if v, ok := s.queryGroup.Load().(string); ok {
		return v
	}
	return ""
}

// effectiveMemBudget resolves the session's per-query memory grant: the
// SET work_mem override when one is in effect, else the default WLM slot
// grant. 0 means ungoverned.
func (s *Session) effectiveMemBudget() int64 {
	return s.memBudgetFor(s.db.wlm.Grant())
}

// memBudgetFor resolves the grant for a query admitted with the given
// queue slot budget: the SET work_mem override wins, else the queue's.
func (s *Session) memBudgetFor(queueGrant int64) int64 {
	if wm := s.workMem.Load(); wm >= 0 {
		return wm
	}
	return queueGrant
}

// Execute parses and runs one SQL statement with auto-commit.
func (s *Session) Execute(query string) (*Result, error) {
	return s.ExecuteContext(context.Background(), query)
}

// ExecuteContext is the session entry point: it opens the statement's
// lifecycle, parses (pooled) and runs it. ctx cancellation or deadline aborts
// the statement within one batch boundary.
func (s *Session) ExecuteContext(ctx context.Context, query string) (*Result, error) {
	run := s.begin(ctx, telemetry.StageParse)
	stmt, err := sql.Parse(query)
	if err != nil {
		return run.finish(nil, err)
	}
	return run.finish(s.dispatch(run, stmt, ""))
}

// ExecuteStmt runs a parsed statement.
func (s *Session) ExecuteStmt(stmt sql.Statement) (*Result, error) {
	return s.ExecuteStmtContext(context.Background(), stmt)
}

// ExecuteStmtContext runs a parsed statement under ctx.
func (s *Session) ExecuteStmtContext(ctx context.Context, stmt sql.Statement) (*Result, error) {
	run := s.begin(ctx, telemetry.StageOther)
	return run.finish(s.dispatch(run, stmt, ""))
}

// dispatch routes a parsed statement. Session-scoped statements (PREPARE,
// EXECUTE, DEALLOCATE, SET) resolve here; everything else goes to the shared
// engine with this session's state, and every arm that reaches the data
// plane is admitted first — SELECT admits itself, past its result-cache
// lookup — and runs under the statement's own context. norm is the
// statement's normalized text when the caller holds it already (EXECUTE:
// PREPARE rendered it once), else empty.
func (s *Session) dispatch(run *stmtRun, stmt sql.Statement, norm string) (*Result, error) {
	db := s.db
	switch st := stmt.(type) {
	case *sql.Prepare:
		return s.runPrepare(run, st)
	case *sql.Execute:
		ps, err := s.lookupPrepared(st.Name)
		if err != nil {
			return nil, err
		}
		return s.dispatch(run, ps.stmt, ps.norm)
	case *sql.Deallocate:
		return s.runDeallocate(st)
	case *sql.Select:
		return db.runSelect(run, st, norm)
	case *sql.Explain:
		return db.runExplain(run, st)
	case *sql.CreateTable:
		return db.runCreateTable(run.ctx, st)
	case *sql.DropTable:
		return db.runDropTable(run.ctx, st)
	case *sql.Truncate:
		return db.runTruncate(run.admit(st, norm), run, st)
	case *sql.Insert:
		return db.runInsert(run.admit(st, norm), run, st)
	case *sql.Copy:
		return db.runCopy(run.admit(st, norm), run, st)
	case *sql.Vacuum:
		return db.runVacuum(run.admit(st, norm), run, st)
	case *sql.Analyze:
		return db.runAnalyze(run.admit(st, norm), run, st)
	case *sql.Set:
		return s.runSet(st)
	case *sql.Cancel:
		return db.runCancel(st)
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// runPrepare registers a prepared statement. SELECTs are bound eagerly —
// a bad reference fails at PREPARE, Postgres-style, and the plan lands in
// the shared plan cache so the first EXECUTE starts warm.
func (s *Session) runPrepare(run *stmtRun, st *sql.Prepare) (*Result, error) {
	name := strings.ToLower(st.Name)
	norm := sql.Normalize(st.Stmt)
	if sel, ok := st.Stmt.(*sql.Select); ok && sel.From != nil && !isSystemTable(sel.From.Table) {
		if _, err := s.db.planFor(run, sel, norm); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.prepared[name]; dup {
		return nil, fmt.Errorf("core: prepared statement %q already exists", st.Name)
	}
	s.prepared[name] = &preparedStmt{stmt: st.Stmt, norm: norm}
	return &Result{Message: "PREPARE"}, nil
}

// lookupPrepared resolves an EXECUTE target.
func (s *Session) lookupPrepared(name string) (*preparedStmt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.prepared[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", name)
	}
	return ps, nil
}

// runDeallocate drops one or all prepared statements.
func (s *Session) runDeallocate(st *sql.Deallocate) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.All {
		s.prepared = map[string]*preparedStmt{}
		return &Result{Message: "DEALLOCATE ALL"}, nil
	}
	name := strings.ToLower(st.Name)
	if _, ok := s.prepared[name]; !ok {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", st.Name)
	}
	delete(s.prepared, name)
	return &Result{Message: "DEALLOCATE"}, nil
}

// runSet handles session options. statement_timeout takes milliseconds
// (Redshift's unit; 0 disables); work_mem and result_cache are
// session-scoped too, so two connections can never observe each other's
// settings; fault_injection toggles the shared injector (a cluster-wide
// test control, deliberately global).
func (s *Session) runSet(st *sql.Set) (*Result, error) {
	switch st.Name {
	case "statement_timeout":
		const maxMs = math.MaxInt64 / int64(time.Millisecond) // the most a Duration holds
		ms, err := strconv.ParseInt(st.Value, 10, 64)
		if err != nil || ms < 0 || ms > maxMs {
			return nil, fmt.Errorf("core: statement_timeout wants milliseconds in [0, %d], got %q", maxMs, st.Value)
		}
		s.stmtTimeout.Store(ms * int64(time.Millisecond))
		return &Result{Message: "SET"}, nil
	case "work_mem":
		n, err := sql.ParseByteSize(st.Value)
		if err != nil {
			return nil, fmt.Errorf("core: work_mem: %w", err)
		}
		s.workMem.Store(n)
		return &Result{Message: "SET"}, nil
	case "max_parallel_workers":
		if strings.EqualFold(st.Value, "default") {
			s.maxParallel.Store(-1)
			return &Result{Message: "SET"}, nil
		}
		n, err := strconv.ParseInt(st.Value, 10, 64)
		if err != nil || n < 1 || n > 64 {
			return nil, fmt.Errorf("core: max_parallel_workers wants 1..64 or default, got %q", st.Value)
		}
		s.maxParallel.Store(n)
		return &Result{Message: "SET"}, nil
	case "result_cache":
		switch strings.ToLower(st.Value) {
		case "on", "true", "1":
			s.resultCacheOff.Store(false)
		case "off", "false", "0":
			s.resultCacheOff.Store(true)
		default:
			return nil, fmt.Errorf("core: result_cache wants on or off, got %q", st.Value)
		}
		return &Result{Message: "SET"}, nil
	case "query_group":
		// Routes this session's SELECTs into a named WLM queue. Validated
		// eagerly so a typo fails at SET, not by silently running in the
		// default queue. "default"/"none" resets.
		v := strings.ToLower(strings.Trim(st.Value, "'\""))
		if v == "" || v == "none" || v == DefaultQueueName {
			s.queryGroup.Store("")
			return &Result{Message: "SET"}, nil
		}
		if !s.db.wlm.HasQueue(v) {
			return nil, fmt.Errorf("core: query_group %q: no such WLM queue (have %s)",
				st.Value, strings.Join(s.db.wlm.QueueNames(), ", "))
		}
		s.queryGroup.Store(v)
		return &Result{Message: "SET"}, nil
	case "fault_injection":
		if s.db.inj == nil {
			return nil, fmt.Errorf("core: no fault plan configured")
		}
		switch strings.ToLower(st.Value) {
		case "on", "true", "1":
			s.db.inj.SetEnabled(true)
		case "off", "false", "0":
			s.db.inj.SetEnabled(false)
		default:
			return nil, fmt.Errorf("core: fault_injection wants on or off, got %q", st.Value)
		}
		return &Result{Message: "SET"}, nil
	default:
		return nil, fmt.Errorf("core: unknown option %q", st.Name)
	}
}
