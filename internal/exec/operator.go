package exec

import (
	"context"
	"sync/atomic"

	"redshift/internal/telemetry"
)

// Operator is a Pipeline's serial source: a batch stream one goroutine
// pulls — exchange receive, materialized rows, a grace join's output, the
// leader's merge of the slice results. It is never composed into chains;
// everything downstream of a source is the pipeline's stages and sink. Next
// returns (nil, nil) at end of stream, and the batch it returns belongs to
// the caller.
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

// LeaderMergeOp is the receive side of the gather to the leader: a
// slice-order replay of the gathered batches. Slices that pre-sorted their
// output (top-N pushdown) need no merge here: the leader's sort is stable, so
// sorting the replay is the merge of the slices' runs with ties in slice
// order. The lists hold batches parked in flight; each one it takes leaves fl
// and its slot, so after an early stop exactly the non-nil remainder is still
// parked.
type LeaderMergeOp struct {
	perSlice [][]*Batch
	fl       *FlightTracker

	sl, i int
}

// NewLeaderMergeOp prepares the gather step over the per-slice lists of
// non-empty batches; fl (may be nil) is where the lists' batches are counted.
func NewLeaderMergeOp(perSlice [][]*Batch, fl *FlightTracker) *LeaderMergeOp {
	return &LeaderMergeOp{perSlice: perSlice, fl: fl}
}

func (o *LeaderMergeOp) Open(ctx context.Context) error { return nil }

// Next walks the lists in slice order, unparking each batch as it comes to it.
func (o *LeaderMergeOp) Next(ctx context.Context) (*Batch, error) {
	for ; o.sl < len(o.perSlice); o.sl, o.i = o.sl+1, 0 {
		if o.i == len(o.perSlice[o.sl]) {
			continue
		}
		b := o.perSlice[o.sl][o.i]
		o.perSlice[o.sl][o.i] = nil
		o.i++
		o.fl.Dec()
		return b, nil
	}
	return nil, nil
}

func (o *LeaderMergeOp) Close() error { return nil }

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
// all of its per-slice instances. The pipeline runner charges each step its
// own time only (exclusive), on the slices and at the leader alike.
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
