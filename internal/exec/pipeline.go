package exec

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/storage"
	"redshift/internal/telemetry"
)

// Morsel is the unit of intra-slice work: one block row-group of one
// segment, tagged with its dense dispatch sequence (0..n-1 in serial scan
// order). Every morsel yields at most one batch, so handling per-morsel
// outputs in Seq order reproduces the one-worker batch stream bit for bit
// — the invariant every Sink's order restoration rests on.
type Morsel struct {
	Seg   *storage.Segment
	Block int
	Seq   int64
}

// MorselQueue is a shared work queue over a slice's visible blocks: an
// atomic cursor over the segments' cumulative block counts, so pulling is
// one atomic add plus a search over the (few) segments, and building the
// queue allocates per segment, not per block.
type MorselQueue struct {
	segs []*storage.Segment
	ends []int64 // ends[i] = blocks in segs[0..i]
	next atomic.Int64
}

// NewMorselQueue queues every block of the given segments in serial scan
// order.
func NewMorselQueue(segs []*storage.Segment) *MorselQueue {
	q := &MorselQueue{segs: segs, ends: make([]int64, len(segs))}
	var total int64
	for i, seg := range segs {
		total += int64(seg.NumBlocks())
		q.ends[i] = total
	}
	return q
}

// Next hands out the next undispatched morsel.
func (q *MorselQueue) Next() (Morsel, bool) {
	seq := q.next.Add(1) - 1
	if n := len(q.ends); n == 0 || seq >= q.ends[n-1] {
		return Morsel{}, false
	}
	si := sort.Search(len(q.ends), func(i int) bool { return q.ends[i] > seq })
	first := int64(0)
	if si > 0 {
		first = q.ends[si-1]
	}
	return Morsel{Seg: q.segs[si], Block: int(seq - first), Seq: seq}, true
}

// ScanSource is a pipeline's morsel-decomposable input: a block queue and
// one Scanner per worker. The scanners share one ScanStats, so the folded
// counters do not depend on how many there are; their count IS the
// pipeline's worker count.
type ScanSource struct {
	Queue    *MorselQueue
	Scanners []*Scanner
}

// StageFn transforms one batch. It follows Filter.Apply's ownership
// contract: the result is either the input itself or a fresh batch, and the
// runner releases the input in the latter case. An empty result means no
// row survived.
type StageFn func(*Batch) (*Batch, error)

// Stage is one per-batch step of a pipeline (join probe, filter,
// projection). New builds one worker's private instance; Stats receives the
// step's time and its non-empty output batches. A stage with nil Stats is
// preparation for the sink (a DISTINCT sieve) and its time is the sink's.
type Stage struct {
	Stats *OpStats
	New   func() (StageFn, error)
}

// Sink is where a pipeline's batches end up, and what restores the
// one-worker order when several workers feed it.
type Sink interface {
	// Open prepares n workers' private state before any Consume.
	Open(n int) error
	// Consume takes ownership of worker w's output for morsel seq. b is nil
	// when the morsel produced nothing (order-restoring sinks still need to
	// see the sequence advance). Calls with distinct w may be concurrent.
	Consume(w int, seq int64, b *Batch) error
	// Finish folds the workers' state into the sink's result. It runs on
	// the driving goroutine after every worker returned without error.
	Finish(ctx context.Context) error
	// Close releases whatever the sink still holds; it runs on every path.
	Close()
}

// FanoutStats counts a query's N > 1 pipeline activity (stv_exec_workers
// and the parallelism telemetry). One-worker pipelines run inline and
// touch none of it. All methods are nil-receiver safe.
type FanoutStats struct {
	DOP     int
	Workers atomic.Int64 // live worker goroutines
	Started atomic.Int64 // worker goroutines ever started
	Morsels atomic.Int64 // morsels dispatched to workers
	// Live, when set, mirrors Workers into a shared gauge
	// (exec_parallel_workers).
	Live *telemetry.Gauge
}

func (f *FanoutStats) worker(delta int64) {
	if f == nil {
		return
	}
	if delta > 0 {
		f.Started.Add(delta)
	}
	f.Workers.Add(delta)
	if f.Live != nil {
		f.Live.Add(delta)
	}
}

// Pipeline is the one way a query executes, on the slices and at the leader:
// batches flow from a source, through per-batch stages, into a sink. A Scan
// source runs with one worker per scanner — a single scanner runs inline on
// the calling goroutine, with no worker goroutine and nothing to reorder —
// while an Op source (exchange receive, materialized rows, a grace join's
// output, the leader's merge of the slice results) is pulled serially.
type Pipeline struct {
	// Exactly one of Scan and Op is set.
	Scan *ScanSource
	Op   Operator
	// SrcStats (may be nil) receives the source's time and output batches.
	SrcStats *OpStats

	Stages []Stage
	Sink   Sink
	// SinkStats (may be nil) receives the time spent inside the sink.
	SinkStats *OpStats

	Flight *FlightTracker // may be nil
	Fanout *FanoutStats   // may be nil
}

// Run drives the pipeline to exhaustion, with one worker per scanner of a
// scan source. Cancellation is checked once per morsel, so an aborted query
// unwinds within one batch boundary.
func (p *Pipeline) Run(ctx context.Context) error {
	n := 1
	if p.Scan != nil {
		n = len(p.Scan.Scanners)
	}
	defer p.Sink.Close()
	if err := p.Sink.Open(n); err != nil {
		return err
	}
	var err error
	switch {
	case p.Scan == nil:
		var seq int64
		err = p.work(ctx, 0, func(ctx context.Context) (int64, *Batch, bool, error) {
			b, err := p.Op.Next(ctx)
			seq++
			return seq - 1, b, b != nil, err
		})
	case n == 1:
		err = p.work(ctx, 0, p.scanPull(0))
	default:
		err = p.fanOut(ctx, n)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	err = p.Sink.Finish(ctx)
	p.SinkStats.addNanos(int64(time.Since(start)))
	return err
}

// pullFn yields a worker's next unit of input: its sequence and batch (nil
// when the unit produced nothing); ok is false at end of input.
type pullFn func(ctx context.Context) (seq int64, b *Batch, ok bool, err error)

// scanPull is worker w's view of the shared block queue. Morsels count as
// dispatched only when there are workers to dispatch them to.
func (p *Pipeline) scanPull(w int) pullFn {
	sc := p.Scan.Scanners[w]
	counted := p.Fanout != nil && len(p.Scan.Scanners) > 1
	return func(ctx context.Context) (int64, *Batch, bool, error) {
		m, ok := p.Scan.Queue.Next()
		if !ok {
			return 0, nil, false, nil
		}
		if counted {
			p.Fanout.Morsels.Add(1)
		}
		if m.Seg.Schema.Len() != sc.width {
			return 0, nil, false, errWidth("segment", m.Seg.Schema.Len(), sc.width)
		}
		b, err := sc.ScanBlock(ctx, m.Seg, m.Block)
		return m.Seq, b, true, err
	}
}

// fanOut runs n workers over the shared queue and joins them, preferring
// the first real failure over the context.Canceled its siblings observed
// after the shared cancel fired.
func (p *Pipeline) fanOut(ctx context.Context, n int) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.Fanout.worker(1)
			defer p.Fanout.worker(-1)
			if errs[w] = p.work(wctx, w, p.scanPull(w)); errs[w] != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// work is one worker's loop: pull a unit, push its batch through this
// worker's private stage instances, hand the result to the sink. Each
// stage drops emptied batches, so OpStats count only non-empty outputs
// whatever the worker count. Stage time is kept in locals and flushed once
// so the hot loop adds no contended atomics for it.
func (p *Pipeline) work(ctx context.Context, w int, pull pullFn) error {
	fns := make([]StageFn, len(p.Stages))
	for i, s := range p.Stages {
		fn, err := s.New()
		if err != nil {
			return err
		}
		fns[i] = fn
	}
	// nanos[0] is the source, nanos[1+i] stage i, the last slot the sink.
	nanos := make([]int64, len(fns)+2)
	defer func() {
		p.SrcStats.addNanos(nanos[0])
		for i, s := range p.Stages {
			st := s.Stats
			if st == nil {
				st = p.SinkStats
			}
			st.addNanos(nanos[1+i])
		}
		p.SinkStats.addNanos(nanos[len(fns)+1])
	}()

	prev := time.Now()
	lap := func(slot int) {
		now := time.Now()
		nanos[slot] += int64(now.Sub(prev))
		prev = now
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		seq, b, ok, err := pull(ctx)
		lap(0)
		if err != nil || !ok {
			return err
		}
		held := b != nil
		if held {
			p.SrcStats.count(b)
			p.Flight.Inc()
			for i, fn := range fns {
				var out *Batch
				if out, err = fn(b); out != b {
					PutBatch(b)
				}
				if err != nil {
					break
				}
				if out.N == 0 {
					PutBatch(out)
					out = nil
				}
				lap(1 + i)
				if b = out; b == nil {
					break
				}
				p.Stages[i].Stats.count(b)
			}
		}
		if err == nil {
			err = p.Sink.Consume(w, seq, b)
			if b != nil {
				lap(len(fns) + 1)
			}
		}
		if held {
			p.Flight.Dec()
		}
		if err != nil {
			return err
		}
	}
}

// OrderedSink hands batches to emit one at a time in sequence order: the
// gather to the leader, a routed exchange send, a join build. With one
// worker batches already arrive in order and go straight through; with
// more, whichever worker completes the next-in-line sequence emits it and
// every parked successor, so the stream downstream is the one-worker
// stream. emit takes ownership of its batch.
//
// mu is held across emit on purpose — it is the backpressure: while a send
// is blocked on a full exchange buffer the other workers stall at their
// next Consume instead of scanning the rest of the table into pending.
// emit never re-enters the sink and returns on cancellation or exchange
// abort, so waiters are never stranded.
type OrderedSink struct {
	emit func(*Batch) error

	reorder bool
	mu      sync.Mutex
	next    int64
	pending map[int64]*Batch
}

// NewOrderedSink returns a sink that feeds emit in sequence order.
func NewOrderedSink(emit func(*Batch) error) *OrderedSink {
	return &OrderedSink{emit: emit}
}

func (s *OrderedSink) Open(n int) error {
	if s.reorder = n > 1; s.reorder {
		s.pending = map[int64]*Batch{}
	}
	return nil
}

func (s *OrderedSink) Consume(_ int, seq int64, b *Batch) error {
	if !s.reorder {
		if b == nil {
			return nil
		}
		return s.emit(b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq != s.next {
		s.pending[seq] = b
		return nil
	}
	for {
		if b != nil {
			if err := s.emit(b); err != nil {
				return err
			}
		}
		s.next++
		nb, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		b = nb
	}
}

func (s *OrderedSink) Finish(context.Context) error { return nil }

// Close returns batches still parked after an early stop to the pool.
func (s *OrderedSink) Close() {
	for seq, b := range s.pending {
		PutBatch(b)
		delete(s.pending, seq)
	}
}
