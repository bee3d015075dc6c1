package telemetry

import (
	"sync"
	"time"
)

// Stage is one of the fixed intervals a statement's wall clock is cut into.
// Every instant between a record's Start and End belongs to exactly one
// stage, so a record's stages sum to End − Start exactly.
type Stage int

const (
	StageParse     Stage = iota // SQL text to AST
	StageNormalize              // AST to the text stl_query and the caches key on
	StageCache                  // result-cache lookup and store
	StagePlan                   // bind and plan, through the plan cache
	StageQueue                  // read: WLM slot; write: write gate, ddlMu, table lock
	StageExec                   // read: the slices' pipelines; write: the closure writeTable runs
	StageLeader                 // read: leader merge and result rows; write: publish, prune, invalidate
	StageSerialize              // the reply's encoding and write, reported by the wire
	StageOther                  // inside the statement, outside every stage above
	NumStages
)

// StageNames are the stages' names, in order: stl_query's <name>_ms columns.
var StageNames = [NumStages]string{"parse", "normalize", "cache", "plan", "queue", "exec", "leader", "serialize", "other"}

// QueryRecord is one completed statement's accounting — the row shape behind
// the stl_query system table and the input a trace-replay harness needs.
type QueryRecord struct {
	// ID is the statement's sequence number, assigned when it registers for
	// CANCEL (a result-cache hit draws one without registering).
	ID int64
	// SQL is the statement text (reconstructed from the AST).
	SQL        string
	Start, End time.Time
	// Queue is the WLM queue that admitted (or evicted) the query; "" for
	// cache hits and statements that bypass WLM.
	Queue string
	// Stages is where the time between Start and End went.
	Stages [NumStages]time.Duration
	// Rows is the result row count.
	Rows          int64
	BlocksRead    int64
	BlocksSkipped int64
	RowsScanned   int64
	NetBytes      int64
	// Error is non-empty for aborted statements.
	Error string
	// State is the statement's terminal state: "success", "error",
	// "cancelled" (user CANCEL / context cancellation), "timeout"
	// (statement_timeout) or "evicted" (WLM queue timeout).
	State string
	// MemPeak is the high-water mark of execution memory tracked against
	// the query's grant; SpillBytes is what its operators wrote to scratch
	// files (0 when the query stayed in memory).
	MemPeak    int64
	SpillBytes int64
	// Trace is the statement's span tree (nil for a result-cache hit).
	Trace *Span
}

// QueryLog is a fixed-capacity ring buffer of completed queries: the
// in-memory stand-in for Redshift's STL system log tables, bounded so a
// long-lived endpoint never grows without limit.
type QueryLog struct {
	mu     sync.Mutex
	buf    []QueryRecord
	next   int // ring write position
	filled bool
	lastID int64
}

// NewQueryLog returns a log holding the most recent capacity queries
// (minimum 1).
func NewQueryLog(capacity int) *QueryLog {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryLog{buf: make([]QueryRecord, capacity)}
}

// Append records a completed query and returns its ID. Records arriving
// with a pre-assigned ID (queries registered for cancellation before they
// ran) keep it; otherwise the log assigns the next sequence number.
func (l *QueryLog) Append(r QueryRecord) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.ID == 0 {
		l.lastID++
		r.ID = l.lastID
	} else if r.ID > l.lastID {
		l.lastID = r.ID
	}
	l.buf[l.next] = r
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.filled = true
	}
	return r.ID
}

// AddStage charges d more to one stage of the retained record id (never 0),
// moving its End out by as much so the stages still sum to End − Start — how
// the wire reports a reply's serialization after the statement finished.
// Newest records are searched first; one the ring has dropped is a no-op.
func (l *QueryLog) AddStage(id int64, st Stage, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 1; i <= len(l.buf); i++ {
		if r := &l.buf[(l.next-i+len(l.buf))%len(l.buf)]; r.ID == id {
			r.Stages[st] += d
			r.End = r.End.Add(d)
			return
		}
	}
}

// Records returns the retained queries, oldest first.
func (l *QueryLog) Records() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.filled {
		return append([]QueryRecord(nil), l.buf[:l.next]...)
	}
	out := make([]QueryRecord, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Len reports how many records are retained.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled {
		return len(l.buf)
	}
	return l.next
}

// Total reports how many queries have ever been appended.
func (l *QueryLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastID
}
