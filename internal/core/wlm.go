package core

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
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

	mActive   *telemetry.Gauge
	mQueued   *telemetry.Gauge
	mWait     *telemetry.Histogram
	mQueries  *telemetry.Counter
	mTimeouts *telemetry.Counter
}

// WLM is the workload manager: named queues of query slots, a FIFO waiter
// list per queue, and one mutex under which every admission decision and
// every pressure reading happens.
type WLM struct {
	mu      *lockedWLM
	memPool int64
}

// lockedWLM is the mutex-guarded state. (Split from WLM so the zero-value
// misuse of copying a WLM is caught by vet's lock analysis.)
type lockedWLM struct {
	sync  chan struct{} // 1-slot semaphore used as the mutex (select-free)
	state wlmState
}

type wlmState struct {
	queues  []*wlmQueue
	byName  map[string]*wlmQueue
	def     *wlmQueue // routing fallback
	express *wlmQueue // fast lane, nil when none configured

	// Aggregate mirrors of the legacy single-queue counters/gauges.
	activeTotal int
	queuedTotal int
	mActive     *telemetry.Gauge
	mQueued     *telemetry.Gauge
	mWait       *telemetry.Histogram
	mQueries    *telemetry.Counter
}

func (l *lockedWLM) lock()   { l.sync <- struct{}{} }
func (l *lockedWLM) unlock() { <-l.sync }

// DefaultQueueName is the queue unrouted queries land in.
const DefaultQueueName = "default"

// NewWLM builds a single-queue manager with the given concurrency
// (Redshift's default queue has 5 slots). n <= 0 disables queuing. memPool
// is the execution-memory budget split across slots (0 = ungoverned).
func NewWLM(n int, memPool int64, reg *telemetry.Registry) *WLM {
	w, err := NewWLMQueues([]QueueSpec{{Name: DefaultQueueName, Slots: n}}, memPool, reg)
	if err != nil { // a single default spec cannot fail validation
		panic(err)
	}
	return w
}

// NewWLMQueues builds a manager with named queues. Queue names must be
// unique and non-empty after normalization; the queue named "default" (or
// the first queue, if none is) receives unrouted queries. When reg is
// non-nil the manager emits the legacy wlm_active/wlm_queued gauges and
// wlm_queue_wait_seconds/wlm_queries_total aggregates plus per-queue
// wlm_queue_<name>_* series.
func NewWLMQueues(specs []QueueSpec, memPool int64, reg *telemetry.Registry) (*WLM, error) {
	if len(specs) == 0 {
		specs = []QueueSpec{{Name: DefaultQueueName}}
	}
	w := &WLM{
		mu:      &lockedWLM{sync: make(chan struct{}, 1)},
		memPool: memPool,
	}
	st := &w.mu.state
	st.byName = map[string]*wlmQueue{}
	for _, spec := range specs {
		spec.Name = strings.ToLower(strings.TrimSpace(spec.Name))
		if spec.Name == "" {
			return nil, fmt.Errorf("core: WLM queue with empty name")
		}
		if _, dup := st.byName[spec.Name]; dup {
			return nil, fmt.Errorf("core: duplicate WLM queue %q", spec.Name)
		}
		if spec.MemFraction < 0 || spec.MemFraction > 1 {
			return nil, fmt.Errorf("core: WLM queue %q: MemFraction %v outside [0,1]", spec.Name, spec.MemFraction)
		}
		q := &wlmQueue{spec: spec}
		st.queues = append(st.queues, q)
		st.byName[spec.Name] = q
		if spec.MaxEstRows > 0 && st.express == nil {
			st.express = q
		}
	}
	if st.def = st.byName[DefaultQueueName]; st.def == nil {
		st.def = st.queues[0]
	}
	if err := splitMemPool(st.queues, memPool); err != nil {
		return nil, err
	}
	if reg != nil {
		st.mActive = reg.Gauge("wlm_active")
		st.mQueued = reg.Gauge("wlm_queued")
		st.mWait = reg.Histogram("wlm_queue_wait_seconds")
		st.mQueries = reg.Counter("wlm_queries_total")
		for _, q := range st.queues {
			q.mActive = reg.Gauge("wlm_queue_" + q.spec.Name + "_active")
			q.mQueued = reg.Gauge("wlm_queue_" + q.spec.Name + "_queued")
			q.mWait = reg.Histogram("wlm_queue_" + q.spec.Name + "_wait_seconds")
			q.mQueries = reg.Counter("wlm_queue_" + q.spec.Name + "_queries_total")
			q.mTimeouts = reg.Counter("wlm_queue_" + q.spec.Name + "_timeouts_total")
		}
	}
	return w, nil
}

// splitMemPool assigns each queue's per-slot grant so the per-queue
// budgets (grant × slots) sum to the whole pool: explicit fractions are
// honored, and queues without one share the leftover fraction
// proportionally to their slot counts.
func splitMemPool(queues []*wlmQueue, pool int64) error {
	if pool <= 0 {
		return nil
	}
	var explicit float64
	var implicitSlots int
	for _, q := range queues {
		if q.spec.MemFraction > 0 {
			explicit += q.spec.MemFraction
		} else {
			implicitSlots += max(q.spec.Slots, 1)
		}
	}
	if explicit > 1.0000001 {
		return fmt.Errorf("core: WLM queue memory fractions sum to %.3f > 1", explicit)
	}
	leftover := 1 - explicit
	for _, q := range queues {
		frac := q.spec.MemFraction
		if frac == 0 {
			if implicitSlots == 0 {
				continue
			}
			frac = leftover * float64(max(q.spec.Slots, 1)) / float64(implicitSlots)
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
	w.mu.lock()
	defer w.mu.unlock()
	return w.mu.state.def.grant
}

// HasQueue reports whether a queue with the given name exists (SET
// query_group validates against it).
func (w *WLM) HasQueue(name string) bool {
	w.mu.lock()
	defer w.mu.unlock()
	_, ok := w.mu.state.byName[strings.ToLower(name)]
	return ok
}

// QueueNames lists the configured queues in configuration order.
func (w *WLM) QueueNames() []string {
	w.mu.lock()
	defer w.mu.unlock()
	out := make([]string, len(w.mu.state.queues))
	for i, q := range w.mu.state.queues {
		out[i] = q.spec.Name
	}
	return out
}

// Route classifies a query: the short-query fast lane captures any query
// whose cost estimate is known and under the express threshold; otherwise
// the session's query_group picks its named queue; otherwise the default
// queue. estCost < 0 means unknown (never express).
func (w *WLM) Route(queryGroup string, estCost int64) string {
	w.mu.lock()
	defer w.mu.unlock()
	st := &w.mu.state
	if st.express != nil && estCost >= 0 && estCost <= st.express.spec.MaxEstRows {
		return st.express.spec.Name
	}
	if queryGroup != "" {
		if q, ok := st.byName[strings.ToLower(queryGroup)]; ok {
			return q.spec.Name
		}
	}
	return st.def.spec.Name
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
	w.mu.lock()
	st := &w.mu.state
	q := st.def
	if name != "" {
		if named, ok := st.byName[strings.ToLower(name)]; ok {
			q = named
		}
	}
	if q.spec.Slots <= 0 || q.active < q.spec.Slots {
		// A free slot: admit immediately, under the same lock every
		// pressure reading takes — an uncontended query is never visible
		// as queued.
		w.admitLocked(q)
		w.mu.unlock()
		return &WLMTicket{Queue: q.spec.Name, Grant: q.grant, q: q}, nil
	}
	wt := &wlmWaiter{ready: make(chan struct{}), enq: time.Now()}
	wt.el = q.waiters.PushBack(wt)
	q.queued++
	st.queuedTotal++
	if q.queued > q.peakQueued {
		q.peakQueued = q.queued
	}
	w.setQueuedGauges(q)
	w.mu.unlock()

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
		w.mu.lock()
		w.releaseLocked(q)
		w.mu.unlock()
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
	w.mu.lock()
	defer w.mu.unlock()
	if wt.admitted {
		return false
	}
	q.waiters.Remove(wt.el)
	q.queued--
	w.mu.state.queuedTotal--
	q.evictions++
	if timeout {
		q.timeouts++
		if q.mTimeouts != nil {
			q.mTimeouts.Inc()
		}
	}
	w.setQueuedGauges(q)
	return true
}

// Release frees the ticket's slot, admitting the queue's oldest waiter if
// one is queued. Release a ticket exactly once.
func (w *WLM) ReleaseTicket(t *WLMTicket) {
	w.mu.lock()
	w.releaseLocked(t.q)
	w.mu.unlock()
}

// admitLocked books one admission into q.
func (w *WLM) admitLocked(q *wlmQueue) {
	st := &w.mu.state
	q.active++
	q.totalRun++
	st.activeTotal++
	if q.active > q.peakActive {
		q.peakActive = q.active
	}
	if q.mActive != nil {
		q.mActive.Set(int64(q.active))
	}
	if q.mQueries != nil {
		q.mQueries.Inc()
	}
	if st.mActive != nil {
		st.mActive.Set(int64(st.activeTotal))
	}
	if st.mQueries != nil {
		st.mQueries.Inc()
	}
}

// releaseLocked frees one slot of q and, atomically under the same lock,
// admits the oldest waiter — a waiter is never both admitted and visible
// as queued.
func (w *WLM) releaseLocked(q *wlmQueue) {
	st := &w.mu.state
	q.active--
	st.activeTotal--
	if q.mActive != nil {
		q.mActive.Set(int64(q.active))
	}
	if st.mActive != nil {
		st.mActive.Set(int64(st.activeTotal))
	}
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
	st.queuedTotal--
	q.totalWait += wt.wait
	if q.mWait != nil {
		q.mWait.Observe(wt.wait.Seconds())
	}
	if st.mWait != nil {
		st.mWait.Observe(wt.wait.Seconds())
	}
	w.setQueuedGauges(q)
	w.admitLocked(q)
	close(wt.ready)
}

func (w *WLM) setQueuedGauges(q *wlmQueue) {
	if q.mQueued != nil {
		q.mQueued.Set(int64(q.queued))
	}
	if st := &w.mu.state; st.mQueued != nil {
		st.mQueued.Set(int64(st.queuedTotal))
	}
}

// QueuePressure reports the total queue depth across every queue and how
// long the longest-waiting queued query has been waiting. Depth and
// oldest-wait come from one consistent snapshot under the admission lock:
// a query is counted (and its wait measured) only while it is actually
// blocked, never in a post-admission window — the concurrency-scaling
// policy prices this signal (depth × wait × slot cost) against hydrating
// a burst cluster, so a stale oldest-wait would hydrate clusters for
// queues that already drained.
func (w *WLM) QueuePressure() (depth int, oldestWait time.Duration) {
	w.mu.lock()
	defer w.mu.unlock()
	now := time.Now()
	for _, q := range w.mu.state.queues {
		depth += q.queued
		if el := q.waiters.Front(); el != nil {
			if wait := now.Sub(el.Value.(*wlmWaiter).enq); wait > oldestWait {
				oldestWait = wait
			}
		}
	}
	return depth, oldestWait
}

// WLMStats is an aggregate snapshot across every queue (the legacy
// single-queue shape).
type WLMStats struct {
	Active        int
	PeakActive    int
	Queued        int
	PeakQueued    int
	TotalQueries  int64
	TotalWaitTime time.Duration
}

// Stats snapshots the aggregate counters. PeakActive/PeakQueued are sums
// of per-queue peaks (an upper bound on the true concurrent peak).
func (w *WLM) Stats() WLMStats {
	w.mu.lock()
	defer w.mu.unlock()
	var s WLMStats
	st := &w.mu.state
	s.Active = st.activeTotal
	s.Queued = st.queuedTotal
	for _, q := range st.queues {
		s.PeakActive += q.peakActive
		s.PeakQueued += q.peakQueued
		s.TotalQueries += q.totalRun
		s.TotalWaitTime += q.totalWait
	}
	return s
}

// WLMQueueStats is one queue's configuration and counters.
type WLMQueueStats struct {
	Name        string
	Slots       int
	Priority    int
	MemPerSlot  int64
	MaxEstRows  int64
	Timeout     time.Duration
	Active      int
	PeakActive  int
	Queued      int
	PeakQueued  int
	TotalRun    int64
	TotalWait   time.Duration
	Timeouts    int64
	Evictions   int64
	OldestWait  time.Duration
}

// QueueStats snapshots every queue, ordered by descending priority then
// configuration order.
func (w *WLM) QueueStats() []WLMQueueStats {
	w.mu.lock()
	defer w.mu.unlock()
	now := time.Now()
	out := make([]WLMQueueStats, 0, len(w.mu.state.queues))
	for _, q := range w.mu.state.queues {
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
				if err != nil || pct < 0 || pct > 100 {
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
