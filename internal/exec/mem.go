package exec

import (
	"sync/atomic"

	"redshift/internal/telemetry"
)

// MemTracker is the execution engine's memory-governance ledger: a
// hierarchical charge counter (query root → per-operator children) that
// blocking operators debit for every build batch, hash-table entry and
// sort-run allocation they retain. Only the query root carries a limit —
// a WLM-granted budget — so the first operator whose retained set would
// push the whole query past its grant is the one that spills, wherever it
// sits in the tree. All methods are nil-receiver safe: a nil tracker is
// the unlimited, untracked pre-governance behavior.
type MemTracker struct {
	parent *MemTracker
	// limit is the root's budget in bytes; 0 means unlimited. Children
	// never carry limits: the budget is a per-query grant.
	limit int64
	cur   atomic.Int64
	peak  atomic.Int64
	// live, when set on the root, mirrors the current charge into a shared
	// gauge (exec_mem_bytes) so /metrics shows engine memory pressure.
	live *telemetry.Gauge
}

// NewMemTracker builds a root tracker with the given budget (0 =
// unlimited) mirroring into live (which may be nil).
func NewMemTracker(limit int64, live *telemetry.Gauge) *MemTracker {
	return &MemTracker{limit: limit, live: live}
}

// Child returns a sub-tracker whose charges propagate to t and up to the
// root. Operators charge through their own child so a Close can release
// exactly what that operator still holds.
func (t *MemTracker) Child() *MemTracker {
	if t == nil {
		return nil
	}
	return &MemTracker{parent: t}
}

func (t *MemTracker) root() *MemTracker {
	r := t
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// chargeSelf moves this node's counter by n, maintaining the high-water
// mark and the mirrored gauge.
func (t *MemTracker) chargeSelf(n int64) {
	v := t.cur.Add(n)
	for {
		p := t.peak.Load()
		if v <= p || t.peak.CompareAndSwap(p, v) {
			break
		}
	}
	if t.live != nil {
		t.live.Add(n)
	}
}

// charge moves every node from t up to the root by n.
func (t *MemTracker) charge(n int64) {
	for c := t; c != nil; c = c.parent {
		c.chargeSelf(n)
	}
}

// TryGrow attempts to charge n bytes against the query budget. It returns
// false — charging nothing — when the root's limit would be exceeded;
// that is the operator's signal to spill. Unlimited roots always succeed.
func (t *MemTracker) TryGrow(n int64) bool {
	if t == nil || n <= 0 {
		return true
	}
	r := t.root()
	if r.limit > 0 {
		// Optimistic reservation at the budget holder; concurrent slices
		// race through the atomic add, so the sum of successful grows
		// never exceeds the limit.
		if v := r.cur.Add(n); v > r.limit {
			r.cur.Add(-n)
			return false
		}
		for {
			p := r.peak.Load()
			v := r.cur.Load()
			if v <= p || r.peak.CompareAndSwap(p, v) {
				break
			}
		}
		if r.live != nil {
			r.live.Add(n)
		}
		for c := t; c != r; c = c.parent {
			c.chargeSelf(n)
		}
		return true
	}
	t.charge(n)
	return true
}

// Grow charges n bytes unconditionally — for allocations that must happen
// regardless of the budget (the engine degrades to disk, it never
// OOM-kills a query). Tracked overshoot still shows in Used and Peak.
func (t *MemTracker) Grow(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.charge(n)
}

// Shrink releases n bytes.
func (t *MemTracker) Shrink(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.charge(-n)
}

// ReleaseAll returns every byte this node still holds, unwinding the
// charge from its ancestors too — the Close-time safety net that keeps
// exec_mem_bytes at zero between queries even on error paths.
func (t *MemTracker) ReleaseAll() {
	if t == nil {
		return
	}
	n := t.cur.Swap(0)
	if n == 0 {
		return
	}
	if t.live != nil {
		t.live.Add(-n)
	}
	for c := t.parent; c != nil; c = c.parent {
		c.chargeSelf(-n)
	}
}

// Used returns the bytes currently charged to this node.
func (t *MemTracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}

// Peak returns this node's charge high-water mark.
func (t *MemTracker) Peak() int64 {
	if t == nil {
		return 0
	}
	return t.peak.Load()
}

// Limit returns the query budget (0 = unlimited).
func (t *MemTracker) Limit() int64 {
	if t == nil {
		return 0
	}
	return t.root().limit
}

// SpillStats accumulates one operator's (or one physical plan node's)
// spill activity for EXPLAIN ANALYZE and the spill_* counters.
type SpillStats struct {
	// Bytes is the total written to scratch files.
	Bytes atomic.Int64
	// Files counts scratch files created: one per spilling operator instance.
	Files atomic.Int64
	// Partitions counts partitions opened by grace joins and partitioned
	// aggregation restarts.
	Partitions atomic.Int64
	// Runs counts sorted runs written by external sorts.
	Runs atomic.Int64
}

// MemContext bundles what a blocking operator needs to participate in
// memory governance: its tracker child, the query's scratch directory and
// its spill accounting. A nil MemContext (or nil fields) reproduces the
// ungoverned in-memory behavior, so operators need no configuration to
// run in tests or system queries.
type MemContext struct {
	T     *MemTracker
	Dir   *SpillDir
	Stats *SpillStats
}

// tryGrow charges n against the budget, reporting false when the
// operator should spill instead. Without a scratch dir the operator
// cannot spill, so the charge is forced and growth always succeeds.
func (mc *MemContext) tryGrow(n int64) bool {
	if mc == nil || mc.T == nil {
		return true
	}
	if mc.Dir == nil {
		mc.T.Grow(n)
		return true
	}
	return mc.T.TryGrow(n)
}

// grow charges unconditionally.
func (mc *MemContext) grow(n int64) {
	if mc != nil {
		mc.T.Grow(n)
	}
}

// shrink releases n bytes.
func (mc *MemContext) shrink(n int64) {
	if mc != nil {
		mc.T.Shrink(n)
	}
}

// release returns everything the operator's tracker still holds.
func (mc *MemContext) release() {
	if mc != nil {
		mc.T.ReleaseAll()
	}
}

// addRun counts one sorted run written.
func (mc *MemContext) addRun() {
	if mc != nil && mc.Stats != nil {
		mc.Stats.Runs.Add(1)
	}
}

// addPartitions counts partitions opened.
func (mc *MemContext) addPartitions(n int64) {
	if mc != nil && mc.Stats != nil {
		mc.Stats.Partitions.Add(n)
	}
}

// spillStats exposes the stats sink for spill-file writers (may be nil).
func (mc *MemContext) spillStats() *SpillStats {
	if mc == nil {
		return nil
	}
	return mc.Stats
}
