package exec

import (
	"context"
	"errors"
	"sync"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// HashJoin joins a probe (left) stream against a fully built (right) side.
// The build side is the inner table — the side the planner chose to
// broadcast, shuffle or read locally.
//
// Build only charges and keeps each batch; FinishBuild then builds the
// table once from all the rows. A KeyTable numbers the distinct build keys;
// every key's build rows hang off it as a chain threaded through next,
// ascending in build position, so a probe emits its matches in build order.
// NULL keys never match and are neither inserted nor probed.
type HashJoin struct {
	kind       sql.JoinKind
	mode       Mode
	leftKeys   []*Evaluator // over the left (probe) layout
	buildKeys  []*Evaluator // over the right (build) local layout
	rightWidth int
	kt         *KeyTable
	head       []int32      // per key id: 1 + the first build row of its chain
	next       []int32      // per build row: the key's next build row, -1 ends
	build      *Batch       // concatenated build rows (right-local layout)
	buildTypes []types.Type // right-side column types, noted from build input
	residual   *Filter      // over the joined layout, inner joins only

	mc      *MemContext // nil → ungoverned (unlimited in-memory build)
	charged int64       // bytes currently charged for build rows + table
	spill   *graceSpill // non-nil once the build exceeded its grant

	hint int64 // the planner's query-wide build demand, until the first Build

	workers  int     // goroutines FinishBuild evaluates keys on
	retained []Batch // the build batches FinishBuild has yet to take in
	rows     int     // the rows Build has taken
	finish   sync.Once
	finErr   error
}

// SetMemory attaches the join to the query's memory governance. Must be
// called before Build.
func (j *HashJoin) SetMemory(mc *MemContext) { j.mc = mc }

// SetSizeHint primes the join with the planner's estimate of the
// query-wide resident build demand across every concurrently building
// slice. A demand already past the query's grant flips the join straight
// into grace-spill mode on its first Build — skipping the doomed in-memory
// attempt and the wasted work of building, overflowing and repartitioning.
// Zero (no estimate) leaves the join's reactive behavior unchanged. The
// table itself is sized by FinishBuild from the real rows.
func (j *HashJoin) SetSizeHint(totalBytes int64) { j.hint = totalBytes }

// SetBuildWorkers makes FinishBuild evaluate and hash the build keys on n
// goroutines. The table comes out identical to the one-worker build. Must be
// called before Build.
func (j *HashJoin) SetBuildWorkers(n int) { j.workers = n }

// Spilled reports whether the build side went to disk.
func (j *HashJoin) Spilled() bool { return j.spill != nil }

// ReleaseMem returns every byte the join still has charged, and a spilled
// join's scratch file if reading its output to the end has not already.
func (j *HashJoin) ReleaseMem() {
	j.mc.release()
	j.charged = 0
	if j.spill != nil {
		j.spill.sf.Close()
	}
}

// NewHashJoin prepares a join. rightWidth is the number of columns in the
// right table's local layout.
func NewHashJoin(mode Mode, step plan.JoinStep, rightWidth int) (*HashJoin, error) {
	j := &HashJoin{
		kind:       step.Kind,
		mode:       mode,
		rightWidth: rightWidth,
		kt:         NewKeyTable(),
		build:      NewBatch(rightWidth),
	}
	var err error
	if j.leftKeys, err = newEvaluators(mode, step.LeftKeys); err != nil {
		return nil, err
	}
	if j.buildKeys, err = newEvaluators(mode, step.RightKeys); err != nil {
		return nil, err
	}
	residual, err := NewFilter(mode, step.Residual)
	if err != nil {
		return nil, err
	}
	j.residual = residual
	return j, nil
}

// Build takes one batch of the inner side: it charges the batch against the
// query's memory grant and keeps its vectors for FinishBuild. The batch
// that would exceed the grant flips the join into grace-spill mode,
// repartitioning everything kept so far out to the scratch dir.
func (j *HashJoin) Build(b *Batch) error {
	j.noteBuildTypes(b)
	j.rows += b.N
	over := j.hint > 0 && j.mc != nil && j.mc.T != nil && j.mc.Dir != nil &&
		j.mc.T.Limit() > 0 && j.hint > j.mc.T.Limit()
	j.hint = 0 // acted on once, before the first batch is kept
	if j.spill == nil && (over || !j.mc.tryGrow(b.ByteSize())) {
		if err := j.enterSpill(); err != nil {
			return err
		}
	}
	if j.spill != nil {
		return j.spill.addBuild(b)
	}
	j.charged += b.ByteSize()
	if b.N > 0 {
		// The vectors, not the batch: a drained frame's batch is recycled.
		cols := make([]*types.Vector, j.rightWidth)
		copy(cols, b.Cols)
		j.retained = append(j.retained, Batch{Cols: cols, N: b.N})
	}
	return nil
}

// keyScratch is one batch's worth of key-side working memory: the evaluated
// key vectors, their hashes, the NULL-key mask and the ids a KeyTable
// answered with.
type keyScratch struct {
	vecs   []*types.Vector
	hashes []uint64
	nullb  []bool // backs skip
	skip   []bool // the NULL-key rows, nil when no key column has NULLs
	ids    []uint32
}

// eval evaluates the key expressions over b and marks the NULL-key rows. It
// hashes every row when hash is set; otherwise hashes only holds b.N
// entries, for a dense KeyTable, which does not read them.
func (sc *keyScratch) eval(evs []*Evaluator, b *Batch, hash bool) (err error) {
	if sc.vecs, err = evalKeys(evs, b, sc.vecs); err != nil {
		return err
	}
	if sc.hashes = growTo(sc.hashes[:0], b.N); hash {
		sc.hashes = hashKeys(sc.vecs, b.N, sc.hashes)
	}
	sc.skip = nullRows(sc.vecs, b.N, &sc.nullb)
	return nil
}

// tableBytes is the resident size of the hash table and its chains — what
// the join charges on top of the build rows themselves.
func (j *HashJoin) tableBytes() int64 {
	return j.kt.Bytes() + int64(4*(cap(j.head)+cap(j.next)))
}

// FinishBuild builds the table once the build side is exhausted; Probe
// calls it first if the caller has not. It concatenates the kept rows at
// their exact size, evaluates and hashes their keys — on SetBuildWorkers
// goroutines when there are more than one — sizes the KeyTable from the
// real row count and key range, and inserts every key in build order. The
// table's size is charged as one lump; if that fails the join flips into
// grace-spill mode. A no-op once the join has spilled: the grace path
// replays build rows in their original order from disk.
func (j *HashJoin) FinishBuild(ctx context.Context) error {
	j.finish.Do(func() { j.finErr = j.finishBuild(ctx) })
	return j.finErr
}

func (j *HashJoin) finishBuild(ctx context.Context) error {
	kept := j.retained
	if j.spill != nil || len(kept) == 0 {
		return nil
	}
	// The rows, concatenated once at their exact size; each batch's key
	// hashes and ids land in its range of arrays the whole build shares.
	build, keyed := NewBatch(j.rightWidth), make([]keyScratch, len(kept))
	for c, v := range kept[0].Cols {
		if v != nil {
			build.Cols[c] = types.NewVector(v.T, j.rows)
		}
	}
	hashes, ids := make([]uint64, j.rows), make([]uint32, j.rows)
	for i := range kept {
		lo, hi := build.N, build.N+kept[i].N
		keyed[i].hashes, keyed[i].ids = hashes[lo:hi:hi], ids[lo:hi:hi]
		if err := build.Concat(&kept[i]); err != nil {
			return err
		}
	}
	j.build, j.retained = build, nil
	// Worker w evaluates the keys of batches w, w+workers, …
	errs := make([]error, min(max(j.workers, 1), len(kept)))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(kept) && errs[w] == nil; i += len(errs) {
				errs[w] = keyed[i].eval(j.buildKeys, &kept[i], true)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return err
	}
	// The table, sized from the real row count and key range.
	var span keySpan
	for _, sc := range keyed {
		span = span.addKeys(sc.vecs, sc.skip)
	}
	j.kt.relay(j.rows, span, 1)
	for _, sc := range keyed {
		j.kt.FindOrInsert(sc.vecs, sc.hashes, sc.skip, sc.ids)
	}
	// Chains, threaded back to front so each runs in build order: a chain's
	// last row takes its key's still-zero head, -1 once the 1 is taken off.
	j.head, j.next = make([]int32, j.kt.Len()), make([]int32, j.rows)
	for pos := j.rows - 1; pos >= 0; pos-- {
		if id := ids[pos]; id != NoID {
			j.next[pos], j.head[id] = j.head[id]-1, int32(pos)+1
		}
	}
	if !j.mc.tryGrow(j.tableBytes()) {
		// enterSpill resets the table and re-partitions the build rows; the
		// shrink it performs returns their charge.
		return j.enterSpill()
	}
	j.charged += j.tableBytes()
	return nil
}

// enterSpill switches to grace-join mode: the build rows kept so far are
// hash-partitioned to disk and their memory charge released.
func (j *HashJoin) enterSpill() error {
	g, err := newGraceSpill(j)
	if err != nil {
		return err
	}
	j.spill = g
	all := append(j.retained, *j.build) // only one of the two holds rows
	j.kt, j.head, j.next, j.retained, j.build = NewKeyTable(), nil, nil, nil, NewBatch(j.rightWidth)
	for i := range all {
		if err := g.addBuild(&all[i]); err != nil {
			return err
		}
	}
	j.mc.shrink(j.charged)
	j.charged = 0
	return nil
}

// noteBuildTypes remembers the build side's column types from the first
// batch that carries them, or that carries rows: a column such a batch
// lacks is pruned (Invalid). LEFT JOIN null-extension needs the types to
// materialize NULL columns when a build side (or a grace-spill partition
// of it) ends up with zero rows — e.g. every build key was NULL.
func (j *HashJoin) noteBuildTypes(b *Batch) {
	if j.buildTypes != nil || b == nil {
		return
	}
	seen := false
	ts := make([]types.Type, j.rightWidth)
	for c, v := range b.Cols {
		if v != nil {
			ts[c] = v.T
			seen = true
		}
	}
	if seen || b.N > 0 {
		j.buildTypes = ts
	}
}

// BuildRows returns how many rows Build has taken.
func (j *HashJoin) BuildRows() int { return j.rows }

// shadow builds a fresh in-memory join sharing j's compiled evaluators —
// the per-partition join used when replaying grace-spill partitions. The
// shadow is ungoverned (the caller reserved the partition's bytes).
func (j *HashJoin) shadow() *HashJoin {
	return &HashJoin{
		kind:       j.kind,
		mode:       j.mode,
		leftKeys:   j.leftKeys,
		buildKeys:  j.buildKeys,
		rightWidth: j.rightWidth,
		kt:         NewKeyTable(),
		build:      NewBatch(j.rightWidth),
		buildTypes: j.buildTypes,
		residual:   j.residual,
	}
}

// Probe joins one left batch, returning the joined batch (left columns
// followed by right columns). When every left row yields exactly one output
// row — each matched at most one build row and, unless LEFT JOIN
// null-extends it, at least one — the output holds left's own vectors, not
// copies: the aliasing Filter.Apply's all-pass path and projections already
// do, safe because PutBatch never recycles vectors.
func (j *HashJoin) Probe(left *Batch) (*Batch, error) {
	if err := j.FinishBuild(context.TODO()); err != nil {
		return nil, err
	}
	// The join is shared by every probing worker, so the scratch is not its
	// own.
	sc := probeScratch.Get().(*probeBufs)
	defer probeScratch.Put(sc)
	if err := sc.eval(j.leftKeys, left, j.kt.dtag == 0); err != nil {
		return nil, err
	}
	sc.ids = j.kt.Find(sc.vecs, sc.hashes, sc.skip, sc.ids)
	clear(sc.vecs)
	leftSel, rightSel := sc.left[:0], sc.right[:0]
	dup := false
	for r, id := range sc.ids {
		if id == NoID {
			if j.kind == sql.LeftJoin {
				leftSel = append(leftSel, r)
				rightSel = append(rightSel, -1) // null-extended
			}
			continue
		}
		dup = dup || j.next[j.head[id]-1] >= 0
		for m := j.head[id] - 1; m >= 0; m = j.next[m] {
			leftSel = append(leftSel, r)
			rightSel = append(rightSel, int(m))
		}
	}
	sc.left, sc.right = leftSel, rightSel
	// No row emitted twice and none dropped: leftSel is the identity.
	out := j.assemble(left, leftSel, rightSel, !dup && len(leftSel) == left.N)
	return j.residual.Apply(out)
}

// probeBufs is a prober's scratch: the key side plus the match selection.
type probeBufs struct {
	keyScratch
	left, right []int
}

var probeScratch = sync.Pool{New: func() any { return new(probeBufs) }}

// assemble gathers matched left rows and build rows into the joined layout;
// through hands left's vectors on instead of gathering them.
func (j *HashJoin) assemble(left *Batch, leftSel, rightSel []int, through bool) *Batch {
	out := NewBatch(len(left.Cols) + j.rightWidth)
	out.N = len(leftSel)
	for c, v := range left.Cols {
		if v != nil && !through {
			v = v.Gather(leftSel)
		}
		out.Cols[c] = v
	}
	for c, v := range j.build.Cols {
		if v == nil {
			// A column the build input never carried is pruned: nothing
			// reads it. Deciding by buildTypes, which every grace partition
			// shares, keeps the partitions' outputs one shape. Any other nil
			// column belongs to a build side with zero rows (buildTypes is
			// set by the first batch with rows), which still null-extends
			// under LEFT JOIN: a typed all-NULL column, since every rightSel
			// entry is -1.
			t := types.Int64
			if j.buildTypes != nil {
				if t = j.buildTypes[c]; t == types.Invalid {
					continue
				}
			}
			if out.N > 0 {
				out.Cols[len(left.Cols)+c] = (&types.Vector{T: t}).Gather(rightSel)
			}
			continue
		}
		// rightSel holds -1 for unmatched left rows; Gather null-extends.
		out.Cols[len(left.Cols)+c] = v.Gather(rightSel)
	}
	return out
}
