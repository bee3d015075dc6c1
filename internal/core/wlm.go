package core

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"redshift/internal/faults"
	"redshift/internal/telemetry"
)

// The WLM is the workload manager of §4: the mechanism by which "resources
// [are] distributed across many concurrent queries". It grew from a single
// slot pool into named queues so tenants with different shapes — dashboard
// refreshers firing short repeated SELECTs, ETL batches running heavy
// transforms — stop competing for the same slots: each queue has its own
// slot count, its own share of the execution-memory pool, and optionally a
// wait timeout, and a short-query fast lane admits cheap queries (by
// planner cost estimate) into reserved express slots regardless of tenant.
// Admin statements bypass the WLM entirely; only SELECT competes for slots.

// QueueSpec configures one named WLM queue.
type QueueSpec struct {
	// Name identifies the queue for SET query_group routing and the
	// stv_wlm_* tables. Compared case-insensitively; stored lowercase.
	Name string
	// Slots is the queue's concurrency: how many SELECTs run at once.
	// <= 0 means unlimited (no queuing in this queue).
	Slots int
	// MemFraction is the queue's share of the WLM memory pool (0..1). The
	// per-query grant is pool×MemFraction/Slots. Queues with fraction 0
	// split whatever fraction the explicit queues left over, proportionally
	// to their slot counts — so the splits always sum to the whole pool.
	MemFraction float64
	// Priority orders queues for display and for the pressure signal
	// (higher = more urgent). Slots are never shared across queues, so a
	// high-priority queue structurally cannot starve behind a low-priority
	// one — priority is reporting order, not a scheduling weight.
	Priority int
	// MaxEstRows > 0 marks this queue as the short-query fast lane: any
	// query whose planner cost estimate (estimated rows flowing through
	// the whole physical plan) is known and at most this value is admitted
	// here, regardless of the session's query_group. At most one queue
	// should set it; the first one wins.
	MaxEstRows int64
	// Timeout bounds how long a query may wait in this queue. A waiter
	// past it is evicted with a retryable admission-timeout error (it
	// never held a slot, so resending is always safe). 0 = wait forever.
	Timeout time.Duration
}

// WLMTicket is one admitted query's claim on a queue slot: Release it
// exactly once. Grant is the queue's per-slot memory budget (0 =
// ungoverned) and Wait is the time spent queued before admission.
type WLMTicket struct {
	Queue string
	Grant int64
	Wait  time.Duration
	q     *wlmQueue
}

// wlmWaiter is one queued query. It is either on its queue's waiter list
// (still waiting) or admitted — the transition happens atomically under
// the WLM lock, so the pressure signal can never see an admitted query as
// still queued (the race the old channel-based design had: a waiter held
// its slot before leaving the books, and even uncontended acquires
// appeared queued for an instant, feeding spurious oldest-wait readings
// into the burst-cluster policy).
type wlmWaiter struct {
	ready    chan struct{} // closed on admission, under the lock
	enq      time.Time
	el       *list.Element
	admitted bool
	wait     time.Duration
}

// wlmQueue is one named queue's slots, waiter list and counters. All
// fields are guarded by the owning WLM's mutex.
type wlmQueue struct {
	spec  QueueSpec
	grant int64 // per-slot memory budget

	active     int
	peakActive int
	queued     int
	peakQueued int
	totalRun   int64
	totalWait  time.Duration
	timeouts   int64
	evictions  int64 // waiters removed without admission (cancel + timeout)
	waiters    list.List
	mWait      *telemetry.Histogram
}

// WLM is the workload manager: named queues of query slots, a FIFO waiter
// list per queue, and one mutex under which every admission decision and
// every pressure reading happens. Its gauges are read from these books when
// /metrics is rendered (exportGauges); only the waits, which are
// observations, are pushed.
type WLM struct {
	mu      sync.Mutex
	queues  []*wlmQueue
	byName  map[string]*wlmQueue
	def     *wlmQueue // routing fallback
	express *wlmQueue // fast lane, nil when none configured
	mWait   *telemetry.Histogram
}

// DefaultQueueName is the queue unrouted queries land in.
const DefaultQueueName = "default"

// NewWLMQueues builds a manager with named queues. Queue names must be
// unique and non-empty after normalization; the queue named "default" (or
// the first queue, if none is) receives unrouted queries. memPool is the
// execution-memory budget split across slots (0 = ungoverned). The waits
// are observed into reg's wlm_queue_wait_seconds and per-queue
// wlm_queue_<name>_wait_seconds histograms.
func NewWLMQueues(specs []QueueSpec, memPool int64, reg *telemetry.Registry) (*WLM, error) {
	if len(specs) == 0 {
		specs = []QueueSpec{{Name: DefaultQueueName}}
	}
	w := &WLM{byName: map[string]*wlmQueue{}}
	for _, spec := range specs {
		spec.Name = strings.ToLower(strings.TrimSpace(spec.Name))
		if spec.Name == "" {
			return nil, fmt.Errorf("core: WLM queue with empty name")
		}
		if _, dup := w.byName[spec.Name]; dup {
			return nil, fmt.Errorf("core: duplicate WLM queue %q", spec.Name)
		}
		if !(spec.MemFraction >= 0 && spec.MemFraction <= 1) { // NaN fails both
			return nil, fmt.Errorf("core: WLM queue %q: MemFraction %v outside [0,1]", spec.Name, spec.MemFraction)
		}
		q := &wlmQueue{spec: spec}
		w.queues = append(w.queues, q)
		w.byName[spec.Name] = q
		if spec.MaxEstRows > 0 && w.express == nil {
			w.express = q
		}
	}
	if w.def = w.byName[DefaultQueueName]; w.def == nil {
		w.def = w.queues[0]
	}
	if err := splitMemPool(w.queues, memPool); err != nil {
		return nil, err
	}
	w.mWait = reg.Histogram("wlm_queue_wait_seconds")
	for _, q := range w.queues {
		q.mWait = reg.Histogram("wlm_queue_" + q.spec.Name + "_wait_seconds")
	}
	return w, nil
}

// exportGauges points reg's wlm_active, wlm_queued and wlm_queries_total
// gauges, and each queue's wlm_queue_<name>_active / _queued /
// _queries_total / _timeouts_total, at this manager's books.
func (w *WLM) exportGauges(reg *telemetry.Registry) {
	read := func(f func() int64) func() int64 {
		return func() int64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return f()
		}
	}
	sum := func(f func(q *wlmQueue) int64) func() int64 {
		return read(func() (n int64) {
			for _, q := range w.queues {
				n += f(q)
			}
			return n
		})
	}
	reg.GaugeFunc("wlm_active", sum(func(q *wlmQueue) int64 { return int64(q.active) }))
	reg.GaugeFunc("wlm_queued", sum(func(q *wlmQueue) int64 { return int64(q.queued) }))
	reg.GaugeFunc("wlm_queries_total", sum(func(q *wlmQueue) int64 { return q.totalRun }))
	for _, q := range w.queues {
		name := "wlm_queue_" + q.spec.Name + "_"
		reg.GaugeFunc(name+"active", read(func() int64 { return int64(q.active) }))
		reg.GaugeFunc(name+"queued", read(func() int64 { return int64(q.queued) }))
		reg.GaugeFunc(name+"queries_total", read(func() int64 { return q.totalRun }))
		reg.GaugeFunc(name+"timeouts_total", read(func() int64 { return q.timeouts }))
	}
}

// splitMemPool assigns each queue's per-slot grant so the per-queue
// budgets (grant × slots) sum to the whole pool: explicit fractions are
// honored, and queues without one share the leftover fraction
// proportionally to their slot counts.
func splitMemPool(queues []*wlmQueue, pool int64) error {
	if pool <= 0 {
		return nil
	}
	// Slot counts are summed as floats: a few huge ones must not wrap.
	var explicit, implicitSlots float64
	for _, q := range queues {
		if q.spec.MemFraction > 0 {
			explicit += q.spec.MemFraction
		} else {
			implicitSlots += float64(max(q.spec.Slots, 1))
		}
	}
	if explicit > 1.0000001 {
		return fmt.Errorf("core: WLM queue memory fractions sum to %.3f > 1", explicit)
	}
	// The tolerance above must not hand the implicit queues a negative share.
	leftover := max(1-explicit, 0)
	for _, q := range queues {
		frac := q.spec.MemFraction
		if frac == 0 {
			if implicitSlots == 0 {
				continue
			}
			frac = leftover * float64(max(q.spec.Slots, 1)) / implicitSlots
		}
		budget := int64(float64(pool) * frac)
		if q.spec.Slots > 0 {
			q.grant = budget / int64(q.spec.Slots)
		} else {
			q.grant = budget
		}
	}
	return nil
}

// Grant returns the default queue's per-slot memory budget — the grant a
// query gets when no admission ticket is in play (EXPLAIN's memory line,
// the session fallback). 0 means ungoverned.
func (w *WLM) Grant() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.def.grant
}

// HasQueue reports whether a queue with the given name exists (SET
// query_group validates against it).
func (w *WLM) HasQueue(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.byName[strings.ToLower(name)]
	return ok
}

// QueueNames lists the configured queues in configuration order.
func (w *WLM) QueueNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.queues))
	for i, q := range w.queues {
		out[i] = q.spec.Name
	}
	return out
}

// Route classifies a query: the short-query fast lane captures any query
// whose cost estimate is known and under the express threshold; otherwise
// the session's query_group picks its named queue; otherwise the default
// queue. estCost < 0 means unknown (never express).
func (w *WLM) Route(queryGroup string, estCost int64) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.express != nil && estCost >= 0 && estCost <= w.express.spec.MaxEstRows {
		return w.express.spec.Name
	}
	if queryGroup != "" {
		if q, ok := w.byName[strings.ToLower(queryGroup)]; ok {
			return q.spec.Name
		}
	}
	return w.def.spec.Name
}

// errQueueTimeout marks queue-wait evictions; MarkRetryable wraps it so the
// wire layer reports the failure as safely resendable (the query never held
// a slot, so nothing ran).
type queueTimeoutError struct {
	queue string
	limit time.Duration
}

func (e *queueTimeoutError) Error() string {
	return fmt.Sprintf("core: query evicted from WLM queue %q after waiting %v", e.queue, e.limit)
}

// IsQueueTimeout reports whether err is a WLM queue-wait eviction.
func IsQueueTimeout(err error) bool {
	for err != nil {
		if _, ok := err.(*queueTimeoutError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// AcquireQueueCtx blocks until the named queue (default when empty) admits
// the query, ctx is cancelled, or the queue's wait timeout evicts it. On
// error the query never occupies a slot and the caller must NOT release.
func (w *WLM) AcquireQueueCtx(ctx context.Context, name string) (*WLMTicket, error) {
	w.mu.Lock()
	q := w.def
	if name != "" {
		if named, ok := w.byName[strings.ToLower(name)]; ok {
			q = named
		}
	}
	if q.spec.Slots <= 0 || q.active < q.spec.Slots {
		// A free slot: admit immediately, under the same lock every
		// pressure reading takes — an uncontended query is never visible
		// as queued.
		w.admitLocked(q)
		w.mu.Unlock()
		return &WLMTicket{Queue: q.spec.Name, Grant: q.grant, q: q}, nil
	}
	wt := &wlmWaiter{ready: make(chan struct{}), enq: time.Now()}
	wt.el = q.waiters.PushBack(wt)
	q.queued++
	if q.queued > q.peakQueued {
		q.peakQueued = q.queued
	}
	w.mu.Unlock()

	var timeoutC <-chan time.Time
	if q.spec.Timeout > 0 {
		timer := time.NewTimer(q.spec.Timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	select {
	case <-wt.ready:
		return &WLMTicket{Queue: q.spec.Name, Grant: q.grant, Wait: wt.wait, q: q}, nil
	case <-ctx.Done():
		if w.abandonWait(q, wt, false) {
			return nil, ctx.Err()
		}
		// Lost the race: a releaser admitted us before we left the queue.
		// Take the slot and hand it straight back so accounting balances.
		<-wt.ready
		w.mu.Lock()
		w.releaseLocked(q)
		w.mu.Unlock()
		return nil, ctx.Err()
	case <-timeoutC:
		if w.abandonWait(q, wt, true) {
			return nil, faults.MarkRetryable(&queueTimeoutError{queue: q.spec.Name, limit: q.spec.Timeout})
		}
		<-wt.ready
		// Admitted at the same instant the timer fired: run, don't evict.
		return &WLMTicket{Queue: q.spec.Name, Grant: q.grant, Wait: wt.wait, q: q}, nil
	}
}

// abandonWait removes a still-queued waiter from its queue's books,
// reporting false when the waiter was already admitted (the caller then
// owns a slot). timeout distinguishes eviction accounting from
// cancellation.
func (w *WLM) abandonWait(q *wlmQueue, wt *wlmWaiter, timeout bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if wt.admitted {
		return false
	}
	q.waiters.Remove(wt.el)
	q.queued--
	q.evictions++
	if timeout {
		q.timeouts++
	}
	return true
}

// Release frees the ticket's slot, admitting the queue's oldest waiter if
// one is queued. Release a ticket exactly once.
func (w *WLM) ReleaseTicket(t *WLMTicket) {
	w.mu.Lock()
	w.releaseLocked(t.q)
	w.mu.Unlock()
}

// admitLocked books one admission into q.
func (w *WLM) admitLocked(q *wlmQueue) {
	q.active++
	q.totalRun++
	if q.active > q.peakActive {
		q.peakActive = q.active
	}
}

// releaseLocked frees one slot of q and, atomically under the same lock,
// admits the oldest waiter — a waiter is never both admitted and visible
// as queued.
func (w *WLM) releaseLocked(q *wlmQueue) {
	q.active--
	if q.spec.Slots <= 0 || q.active >= q.spec.Slots {
		return
	}
	el := q.waiters.Front()
	if el == nil {
		return
	}
	wt := el.Value.(*wlmWaiter)
	q.waiters.Remove(el)
	wt.admitted = true
	wt.wait = time.Since(wt.enq)
	q.queued--
	q.totalWait += wt.wait
	q.mWait.Observe(wt.wait.Seconds())
	w.mWait.Observe(wt.wait.Seconds())
	w.admitLocked(q)
	close(wt.ready)
}

// QueuePressure reports the total queue depth across every queue and how
// long the longest-waiting queued query has been waiting. Depth and
// oldest-wait come from one consistent snapshot under the admission lock:
// a query is counted (and its wait measured) only while it is actually
// blocked, never in a post-admission window — the concurrency-scaling
// policy weighs this signal (depth × wait) against hydrating
// a burst cluster, so a stale oldest-wait would hydrate clusters for
// queues that already drained.
func (w *WLM) QueuePressure() (depth int, oldestWait time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	for _, q := range w.queues {
		depth += q.queued
		if el := q.waiters.Front(); el != nil {
			if wait := now.Sub(el.Value.(*wlmWaiter).enq); wait > oldestWait {
				oldestWait = wait
			}
		}
	}
	return depth, oldestWait
}

// WLMQueueStats is one queue's configuration and counters.
type WLMQueueStats struct {
	Name       string
	Slots      int
	Priority   int
	MemPerSlot int64
	MaxEstRows int64
	Timeout    time.Duration
	Active     int
	PeakActive int
	Queued     int
	PeakQueued int
	TotalRun   int64
	TotalWait  time.Duration
	Timeouts   int64
	Evictions  int64
	OldestWait time.Duration
}

// QueueStats snapshots every queue, ordered by descending priority then
// configuration order.
func (w *WLM) QueueStats() []WLMQueueStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	out := make([]WLMQueueStats, 0, len(w.queues))
	for _, q := range w.queues {
		s := WLMQueueStats{
			Name:       q.spec.Name,
			Slots:      q.spec.Slots,
			Priority:   q.spec.Priority,
			MemPerSlot: q.grant,
			MaxEstRows: q.spec.MaxEstRows,
			Timeout:    q.spec.Timeout,
			Active:     q.active,
			PeakActive: q.peakActive,
			Queued:     q.queued,
			PeakQueued: q.peakQueued,
			TotalRun:   q.totalRun,
			TotalWait:  q.totalWait,
			Timeouts:   q.timeouts,
			Evictions:  q.evictions,
		}
		if el := q.waiters.Front(); el != nil {
			s.OldestWait = now.Sub(el.Value.(*wlmWaiter).enq)
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// ParseQueueSpecs parses the server's -wlm-queues flag syntax: queues
// separated by ';', each "name=slots" followed by comma-separated
// attributes "mem=25%", "prio=2", "short=5000" (fast-lane row threshold)
// and "timeout=30s".
//
//	"express=2,mem=20%,short=20000;dash=4,prio=5;etl=2,mem=50%,timeout=60s"
func ParseQueueSpecs(s string) ([]QueueSpec, error) {
	var specs []QueueSpec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var spec QueueSpec
		for i, attr := range strings.Split(part, ",") {
			attr = strings.TrimSpace(attr)
			k, v, ok := strings.Cut(attr, "=")
			if !ok {
				return nil, fmt.Errorf("core: bad WLM queue attribute %q (want key=value)", attr)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if i == 0 {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("core: queue %q: bad slot count %q", k, v)
				}
				spec.Name, spec.Slots = k, n
				continue
			}
			switch strings.ToLower(k) {
			case "mem":
				pct, err := strconv.ParseFloat(strings.TrimSuffix(v, "%"), 64)
				if err != nil || !(pct >= 0 && pct <= 100) {
					return nil, fmt.Errorf("core: queue %q: bad mem share %q", spec.Name, v)
				}
				spec.MemFraction = pct / 100
			case "prio":
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("core: queue %q: bad priority %q", spec.Name, v)
				}
				spec.Priority = n
			case "short":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("core: queue %q: bad short-query threshold %q", spec.Name, v)
				}
				spec.MaxEstRows = n
			case "timeout":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("core: queue %q: bad timeout %q", spec.Name, v)
				}
				spec.Timeout = d
			default:
				return nil, fmt.Errorf("core: queue %q: unknown attribute %q", spec.Name, k)
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
