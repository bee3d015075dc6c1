// Package span is the benchmark's own tracer: spans recorded around the
// calls the benchmark makes into each engine layer. Spans live in memory
// and are written out once, at exit, as Chrome trace-event JSON. A nil
// *Recorder records nothing, so the untraced run pays one nil check.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the index of the enclosing span in
// the recorder (-1 for a root); Stmt groups the spans of one statement.
type Span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int
	Stmt   int
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder accumulates spans. It is safe for concurrent use.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id for End and for children's parent.
func (r *Recorder) Begin(name string, parent, stmt int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: now, End: now, Parent: parent, Stmt: stmt})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// End closes the span opened as id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Add records an already-measured child interval — how engine-reported
// stage times (queue wait, plan, exec) become spans: laid end to end from
// start, inside their parent.
func (r *Recorder) Add(name string, parent, stmt int, start, dur time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: start, End: start + dur, Parent: parent, Stmt: stmt})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// StartOf returns when span id began (for laying synthesized children).
func (r *Recorder) StartOf(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Start
}

// Len is how many spans have been recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent).
func SelfTimes(spans []Span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end time.Duration
		end = s.Start
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			if v.lo < end {
				v.lo = end
			}
			covered += v.hi - v.lo
			end = v.hi
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// timestamps are microseconds.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Stmt   int `json:"stmt"`
}

// WriteChrome writes the spans as a Chrome trace-event array (load it in
// chrome://tracing or Perfetto). Each statement gets its own track.
func WriteChrome(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Stmt,
			Args: chromeArgs{ID: i, Parent: s.Parent, Stmt: s.Stmt},
		}
	}
	return json.NewEncoder(w).Encode(events)
}
