package exec

import (
	"context"
	"errors"
	"sync"

	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/types"
)

// Exchange moves batches between per-slice pipelines through bounded
// per-(src,dst) channels: the data-movement operator behind shuffle and
// broadcast joins. The small buffers give backpressure — a slow consumer
// throttles its producers instead of the system buffering a whole
// repartitioned table — and the per-pair channels keep consumption
// deterministic: each receiver drains source 0's stream, then source 1's,
// and so on, so a query's output is bit-identical run to run.
type Exchange struct {
	n     int
	chans [][]chan *Batch // [src][dst]
	done  chan struct{}
	once  sync.Once
	err   error // written once before done closes
	// account observes every delivered batch (transfer accounting lives in
	// the exchange now, not in the driver); may be nil.
	account AccountFn
	fl      *FlightTracker
	// inj, when set, fires the exec.exchange.send site on every handoff —
	// the in-process stand-in for a flaky inter-node link.
	inj *faults.Injector
}

// AccountFn observes one batch delivered from src slice to dst slice.
type AccountFn func(src, dst int, b *Batch)

// RouteFn splits one batch into per-destination parts (nil/empty parts are
// skipped). The returned slice is indexed by destination.
type RouteFn func(*Batch) ([]*Batch, error)

// NewExchange creates an n-way exchange with buf batches of slack per
// (src,dst) pair.
func NewExchange(n, buf int, account AccountFn, fl *FlightTracker) *Exchange {
	e := &Exchange{
		n:       n,
		chans:   make([][]chan *Batch, n),
		done:    make(chan struct{}),
		account: account,
		fl:      fl,
	}
	for src := range e.chans {
		e.chans[src] = make([]chan *Batch, n)
		for dst := range e.chans[src] {
			e.chans[src][dst] = make(chan *Batch, buf)
		}
	}
	return e
}

// SetFaults attaches a fault injector to the send path (nil detaches).
func (e *Exchange) SetFaults(inj *faults.Injector) { e.inj = inj }

// Abort cancels the exchange: pending and future sends and receives return
// err. The first abort wins.
func (e *Exchange) Abort(err error) {
	if err == nil {
		err = errors.New("exec: exchange aborted")
	}
	e.once.Do(func() {
		e.err = err
		close(e.done)
	})
}

// Err returns the abort error, or nil while the exchange is healthy.
func (e *Exchange) Err() error {
	select {
	case <-e.done:
		return e.err
	default:
		return nil
	}
}

// Send delivers one batch from src to dst, blocking while dst's buffer is
// full (backpressure) and failing once the exchange is aborted or the
// context is cancelled.
func (e *Exchange) Send(ctx context.Context, src, dst int, b *Batch) error {
	// The fault site fires before accounting or flight tracking: an
	// injected link failure loses the batch before it was ever "on the
	// wire". Latency rules model a slow link.
	if e.inj != nil {
		if err := e.inj.Hit(faults.SiteExchangeSend); err != nil {
			e.Abort(err)
			return err
		}
	}
	// Account before the channel op: ownership passes to the consumer the
	// moment the send succeeds, and a released batch must not be read.
	// (An aborted send over-accounts one batch; the query failed anyway.)
	if e.account != nil {
		e.account(src, dst, b)
	}
	// Inc before the channel op so the consumer's Dec can never observe the
	// batch before it was counted.
	e.fl.Inc()
	select {
	case e.chans[src][dst] <- b:
		return nil
	case <-e.done:
		e.fl.Dec()
		return e.err
	case <-ctx.Done():
		e.fl.Dec()
		return ctx.Err()
	}
}

// closeSend marks src's streams complete for every destination.
func (e *Exchange) closeSend(src int) {
	for _, ch := range e.chans[src] {
		close(ch)
	}
}

// Run drives p as src's producer: p's batches are routed and sent in
// sequence order, so consumers see the one-worker stream however many
// workers p scans with. It always closes src's streams on the way out and
// aborts the exchange on any failure, so consumers never hang. p.Sink is
// set here; the returned error is the one the exchange was aborted with.
func (e *Exchange) Run(ctx context.Context, src int, p *Pipeline, route RouteFn) error {
	defer e.closeSend(src)
	p.Sink = NewOrderedSink(func(b *Batch) error {
		parts, err := route(b)
		if err != nil {
			return err
		}
		for dst, part := range parts {
			if part == nil || part.N == 0 {
				continue
			}
			if err := e.Send(ctx, src, dst, part); err != nil {
				return err
			}
		}
		return nil
	})
	err := p.Run(ctx)
	if err != nil {
		e.Abort(err)
	}
	return err
}

// Produce is Run over an Operator source.
func (e *Exchange) Produce(ctx context.Context, src int, op Operator, route RouteFn) {
	e.Run(ctx, src, &Pipeline{Op: op}, route)
}

// Drain empties every channel after all producers and consumers have
// stopped, retiring parked batches from the flight tracker — the early-
// stop path (error, LIMIT, cancel) otherwise leaks whatever the buffers
// held. Drained batches are dropped to the GC, NOT returned to the pool:
// a broadcast batch may sit in several destination buffers at once, and
// double-pooling one would corrupt every later query sharing the pool.
// It returns how many batches were retired. The caller must guarantee no
// Send or Recv is still running.
func (e *Exchange) Drain() int {
	n := 0
	for _, row := range e.chans {
		for _, ch := range row {
		drainChan:
			for {
				select {
				case b, ok := <-ch:
					if !ok {
						break drainChan // closed and empty
					}
					if b != nil {
						e.fl.Dec()
						n++
					}
				default:
					break drainChan // open but empty
				}
			}
		}
	}
	return n
}

// RecvOp streams one destination's inbound batches, draining sources in
// index order (deterministic assembly).
type RecvOp struct {
	e   *Exchange
	dst int
	src int
}

// NewRecvOp returns dst's receiving operator.
func NewRecvOp(e *Exchange, dst int) *RecvOp { return &RecvOp{e: e, dst: dst} }

func (o *RecvOp) Open(ctx context.Context) error { return nil }

func (o *RecvOp) Next(ctx context.Context) (*Batch, error) {
	for o.src < o.e.n {
		select {
		case b, ok := <-o.e.chans[o.src][o.dst]:
			if !ok {
				o.src++
				continue
			}
			o.e.fl.Dec()
			return b, nil
		case <-o.e.done:
			return nil, o.e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// All producers closed cleanly; surface a late abort if one happened.
	return nil, o.e.Err()
}

func (o *RecvOp) Close() error { return nil }

// BroadcastRoute replicates every batch to all n destinations. Consumers
// must treat inbound batches as read-only (hash-join build does).
func BroadcastRoute(n int) RouteFn {
	return func(b *Batch) ([]*Batch, error) {
		parts := make([]*Batch, n)
		for i := range parts {
			parts[i] = b
		}
		return parts, nil
	}
}

// NewShuffleRouter partitions rows across n destinations by the hash of the
// key expressions — the same hash the cluster layer distributes rows with,
// so planner co-location reasoning and executor shuffles agree.
func NewShuffleRouter(mode Mode, keys []plan.Expr, n int) (RouteFn, error) {
	evs, err := newEvaluators(mode, keys)
	if err != nil {
		return nil, err
	}
	return func(b *Batch) ([]*Batch, error) {
		keyVecs, err := evalKeys(evs, b, make([]*types.Vector, 0, len(evs)))
		if err != nil {
			return nil, err
		}
		sel := make([][]int, n)
		keyRow := make([]types.Value, len(keyVecs))
		for r := 0; r < b.N; r++ {
			for i, v := range keyVecs {
				keyRow[i] = v.Get(r)
			}
			dst := int(types.HashValues(keyRow) % uint64(n))
			sel[dst] = append(sel[dst], r)
		}
		parts := make([]*Batch, n)
		for dst, rows := range sel {
			if len(rows) == 0 {
				continue
			}
			if len(rows) == b.N {
				parts[dst] = b
				continue
			}
			parts[dst] = b.Gather(rows)
		}
		return parts, nil
	}, nil
}
