package exec

import (
	"context"
	"sync/atomic"
	"time"

	"redshift/internal/plan"
	"redshift/internal/telemetry"
)

// Operator is a pull-based (Volcano-style) batch stream: a Pipeline's
// serial sources (exchange receive, materialized rows, a grace join's
// output) and the leader's final merge chain. Next returns (nil, nil) at
// end of stream. Operators are single-consumer: one goroutine drives a
// chain end to end.
//
// The context flows through every pull so cancellation (Database.Cancel,
// statement_timeout) reaches the leaves: exchange receives select on it,
// bounding abort latency to one batch boundary. Close never takes a
// context — cleanup must run even after cancellation.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
}

// BatchSource replays a fixed batch list — system-table rows and other
// already-materialized inputs.
type BatchSource struct {
	batches []*Batch
	i       int
}

// NewBatchSource wraps batches as an Operator.
func NewBatchSource(batches []*Batch) *BatchSource { return &BatchSource{batches: batches} }

func (s *BatchSource) Open(ctx context.Context) error { return nil }

func (s *BatchSource) Next(ctx context.Context) (*Batch, error) {
	for s.i < len(s.batches) {
		b := s.batches[s.i]
		s.i++
		if b != nil && b.N > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (s *BatchSource) Close() error { return nil }

// FilterOp streams its child through a predicate, dropping emptied batches.
type FilterOp struct {
	child Operator
	f     *Filter
}

// NewFilterOp prepares a streaming filter; a nil predicate passes through.
func NewFilterOp(mode Mode, pred plan.Expr, child Operator) (*FilterOp, error) {
	f, err := NewFilter(mode, pred)
	if err != nil {
		return nil, err
	}
	return &FilterOp{child: child, f: f}, nil
}

func (o *FilterOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *FilterOp) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := o.child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		fb, err := o.f.Apply(b)
		if err != nil {
			return nil, err
		}
		if fb != b {
			// The gather copied the surviving rows; the input batch is
			// consumed and this operator is its sole owner.
			PutBatch(b)
		}
		if fb.N > 0 {
			return fb, nil
		}
		if fb != b {
			PutBatch(fb)
		}
	}
}

func (o *FilterOp) Close() error { return o.child.Close() }

// ProjectOp computes the output columns batch by batch.
type ProjectOp struct {
	child Operator
	proj  *Projector
}

// NewProjectOp prepares a streaming projection.
func NewProjectOp(mode Mode, exprs []plan.Expr, child Operator) (*ProjectOp, error) {
	proj, err := NewProjector(mode, exprs)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{child: child, proj: proj}, nil
}

func (o *ProjectOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *ProjectOp) Next(ctx context.Context) (*Batch, error) {
	b, err := o.child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	return o.proj.Apply(b)
}

func (o *ProjectOp) Close() error { return o.child.Close() }

// GroupMergeOp is the leader's aggregation phase: it merges the per-slice
// partial tables into a fresh leader table and emits the aggregate layout
// once. A dedicated leader table (rather than reusing slice 0's) keeps
// the merge correct when slice tables spilled: draining a spilled table
// interleaves resident and re-aggregated groups, and merging into a table
// with its own pending partitions would double-emit keys. ship observes
// each non-leader table before merging (gather-transfer accounting).
type GroupMergeOp struct {
	leader *GroupTable
	tables []*GroupTable
	ship   func(sl int, t *GroupTable)
	done   bool
}

// NewGroupMergeOp prepares the leader merge; ship may be nil.
func NewGroupMergeOp(leader *GroupTable, tables []*GroupTable, ship func(sl int, t *GroupTable)) *GroupMergeOp {
	return &GroupMergeOp{leader: leader, tables: tables, ship: ship}
}

func (o *GroupMergeOp) Open(ctx context.Context) error { return nil }

func (o *GroupMergeOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	for sl, t := range o.tables {
		if sl > 0 && o.ship != nil {
			o.ship(sl, t)
		}
		if err := o.leader.MergeCtx(ctx, t); err != nil {
			return nil, err
		}
	}
	return o.leader.ResultCtx(ctx)
}

func (o *GroupMergeOp) Close() error {
	o.leader.ReleaseMem()
	for _, t := range o.tables {
		t.ReleaseMem()
	}
	return nil
}

// LeaderMergeOp gathers per-slice result streams at the leader: a sorted
// merge when every slice pre-sorted its output (the top-N pushdown path),
// otherwise a slice-order replay of the gathered batches.
type LeaderMergeOp struct {
	perSlice [][]*Batch
	keys     []plan.OrderKey
	sorted   bool

	flat []*Batch
	i    int
	done bool
}

// NewLeaderMergeOp prepares the gather step. sorted selects the merge of
// pre-sorted single-batch slices.
func NewLeaderMergeOp(perSlice [][]*Batch, keys []plan.OrderKey, sorted bool) *LeaderMergeOp {
	return &LeaderMergeOp{perSlice: perSlice, keys: keys, sorted: sorted}
}

func (o *LeaderMergeOp) Open(ctx context.Context) error {
	if !o.sorted {
		for _, bs := range o.perSlice {
			o.flat = append(o.flat, bs...)
		}
	}
	return nil
}

func (o *LeaderMergeOp) Next(ctx context.Context) (*Batch, error) {
	if o.sorted {
		if o.done {
			return nil, nil
		}
		o.done = true
		var firsts []*Batch
		for _, bs := range o.perSlice {
			if len(bs) > 0 {
				firsts = append(firsts, bs[0])
			}
		}
		return MergeSorted(firsts, o.keys)
	}
	for o.i < len(o.flat) {
		b := o.flat[o.i]
		o.i++
		if b != nil && b.N > 0 {
			return b, nil
		}
	}
	return nil, nil
}

func (o *LeaderMergeOp) Close() error { return nil }

// FinalizeOp applies leader-side DISTINCT, ORDER BY and LIMIT. It is a
// breaker when any of those is set; either way it emits exactly one batch
// so the driver always has a well-formed (possibly empty) result.
// DISTINCT filters streamwise (first occurrence wins, as before), ORDER
// BY runs through an ExternalSorter so a larger-than-memory leader sort
// spills runs instead of holding everything; without ORDER BY the leader
// must materialize the result anyway and the concat is charged (forced)
// so peak accounting stays honest.
type FinalizeOp struct {
	child    Operator
	distinct bool
	keys     []plan.OrderKey
	limit    int64
	width    int
	mc       *MemContext
	done     bool
}

// NewFinalizeOp prepares the leader's final step over a stream of width
// columns.
func NewFinalizeOp(child Operator, distinct bool, keys []plan.OrderKey, limit int64, width int) *FinalizeOp {
	return &FinalizeOp{child: child, distinct: distinct, keys: keys, limit: limit, width: width}
}

// SetMemory attaches the operator to the query's memory governance.
func (o *FinalizeOp) SetMemory(mc *MemContext) { o.mc = mc }

func (o *FinalizeOp) Next(ctx context.Context) (*Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	var dedupe *Deduper
	if o.distinct {
		dedupe = NewDeduper(o.mc)
	}
	var sorter *ExternalSorter
	var merged *Batch
	if len(o.keys) > 0 {
		sorter = NewExternalSorter(o.keys, o.width, o.mc)
	} else {
		merged = NewBatch(o.width)
	}
	for {
		b, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if b.N == 0 {
			continue
		}
		// Leader-merge batches are shared with the gather lists, so the
		// child's batches are never released here; gathered copies are.
		fb := b
		if dedupe != nil {
			sel := dedupe.Select(b)
			if len(sel) == 0 {
				continue
			}
			if len(sel) < b.N {
				fb = b.Gather(sel)
			}
		}
		if sorter != nil {
			err = sorter.Add(fb)
		} else {
			err = merged.Concat(fb)
			o.mc.grow(fb.ByteSize())
		}
		if fb != b {
			PutBatch(fb)
		}
		if err != nil {
			return nil, err
		}
	}
	if sorter != nil {
		return collectSorted(ctx, sorter, o.width, o.limit)
	}
	return TopN(merged, o.limit), nil
}

func (o *FinalizeOp) Open(ctx context.Context) error { return o.child.Open(ctx) }

func (o *FinalizeOp) Close() error {
	o.mc.release()
	return o.child.Close()
}

// FlightTracker counts batches that have been produced but not yet retired
// anywhere in a query's pipelines — including batches parked in exchange
// buffers. The high-water mark is the query's peak count of live
// intermediate batches: O(slices × pipeline depth) for a streaming
// executor, O(table size) for a materializing one. All methods are
// nil-receiver safe.
type FlightTracker struct {
	cur  atomic.Int64
	peak atomic.Int64
	// live, when set, mirrors the current count into a shared gauge
	// (exec_batches_in_flight) so /metrics shows pipeline pressure.
	live *telemetry.Gauge
}

// NewFlightTracker returns a tracker mirroring into live (which may be nil).
func NewFlightTracker(live *telemetry.Gauge) *FlightTracker {
	return &FlightTracker{live: live}
}

// Inc records one batch entering flight.
func (f *FlightTracker) Inc() {
	if f == nil {
		return
	}
	c := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if c <= p || f.peak.CompareAndSwap(p, c) {
			break
		}
	}
	if f.live != nil {
		f.live.Add(1)
	}
}

// Dec records one batch retired.
func (f *FlightTracker) Dec() {
	if f == nil {
		return
	}
	f.cur.Add(-1)
	if f.live != nil {
		f.live.Add(-1)
	}
}

// Current returns the live batch count.
func (f *FlightTracker) Current() int64 {
	if f == nil {
		return 0
	}
	return f.cur.Load()
}

// HighWater returns the peak live batch count.
func (f *FlightTracker) HighWater() int64 {
	if f == nil {
		return 0
	}
	return f.peak.Load()
}

// OpStats accumulates one physical operator's runtime counters, shared by
// all of its per-slice instances. A Pipeline charges each step its own time
// only (exclusive); under the Instrument wrapper — the leader chain — Nanos
// includes the children's, like EXPLAIN ANALYZE actual time.
type OpStats struct {
	Rows    atomic.Int64
	Batches atomic.Int64
	Nanos   atomic.Int64
}

// count records one emitted batch; addNanos adds elapsed time. Both are
// nil-receiver safe so unobserved pipeline steps need no guard.
func (s *OpStats) count(b *Batch) {
	if s != nil {
		s.Batches.Add(1)
		s.Rows.Add(int64(b.N))
	}
}

func (s *OpStats) addNanos(n int64) {
	if s != nil {
		s.Nanos.Add(n)
	}
}

// instrumented decorates an Operator with the per-operator telemetry the
// trace tree is built from — rows, batches, cumulative time — and tracks
// emitted batches in a FlightTracker. A batch is retired when the consumer
// pulls again (or closes): the pull contract means the consumer is done
// with the previous batch by then.
type instrumented struct {
	op          Operator
	st          *OpStats
	fl          *FlightTracker
	outstanding bool
}

// Instrument wraps op; st and fl may each be nil.
func Instrument(op Operator, st *OpStats, fl *FlightTracker) Operator {
	if st == nil && fl == nil {
		return op
	}
	return &instrumented{op: op, st: st, fl: fl}
}

func (o *instrumented) Open(ctx context.Context) error {
	start := time.Now()
	err := o.op.Open(ctx)
	o.st.addNanos(int64(time.Since(start)))
	return err
}

func (o *instrumented) Next(ctx context.Context) (*Batch, error) {
	if o.outstanding {
		o.fl.Dec()
		o.outstanding = false
	}
	start := time.Now()
	b, err := o.op.Next(ctx)
	o.st.addNanos(int64(time.Since(start)))
	if b != nil {
		o.st.count(b)
		if o.fl != nil {
			o.fl.Inc()
			o.outstanding = true
		}
	}
	return b, err
}

func (o *instrumented) Close() error {
	if o.outstanding {
		o.fl.Dec()
		o.outstanding = false
	}
	start := time.Now()
	err := o.op.Close()
	o.st.addNanos(int64(time.Since(start)))
	return err
}
