package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// HashJoin joins a probe (left) stream against a fully built (right) side.
// The build side is the inner table — the side the planner chose to
// broadcast, shuffle or read locally.
//
// A KeyTable numbers the distinct build keys; every key's build rows hang
// off it as a chain threaded through next, ascending in build position, so
// a probe emits its matches in build order. NULL keys never match and are
// neither inserted nor probed.
type HashJoin struct {
	kind       sql.JoinKind
	mode       Mode
	leftKeys   []*Evaluator // over the left (probe) layout
	buildKeys  []*Evaluator // over the right (build) local layout
	rightWidth int
	kt         *KeyTable
	head, tail []int32      // per key id: first and last build row of its chain
	next       []int32      // per build row: the key's next build row, -1 ends
	build      *Batch       // concatenated build rows (right-local layout)
	buildTypes []types.Type // right-side column types, noted from build input
	residual   *Filter      // over the joined layout, inner joins only
	sc         keyScratch   // build-side scratch (probes bring their own)

	mc      *MemContext // nil → ungoverned (unlimited in-memory build)
	charged int64       // bytes currently charged for build batch + table
	spill   *graceSpill // non-nil once the build exceeded its grant

	// Planner size hint, applied lazily on the first Build.
	hintBytes int64 // query-wide resident build demand estimate
	hintRows  int64 // this slice's expected build rows
	hinted    bool

	// Deferred-insert build (SetBuildWorkers > 1): Build only retains each
	// batch and its base position; FinishBuild inserts the keys.
	workers  int
	retained []*Batch
	bases    []int
}

// SetMemory attaches the join to the query's memory governance. Must be
// called before Build.
func (j *HashJoin) SetMemory(mc *MemContext) { j.mc = mc }

// SetSizeHint primes the join with the planner's build-side estimate:
// totalBytes is the query-wide resident demand across every concurrently
// building slice, perSliceRows this slice's expected share of build rows.
// A demand already past the query's grant flips the join straight into
// grace-spill mode on its first Build — skipping the doomed in-memory
// attempt and the wasted work of building, overflowing and repartitioning
// — while an in-budget demand presizes the hash table. Zero values (no
// estimate) leave the join's reactive behavior unchanged.
func (j *HashJoin) SetSizeHint(totalBytes, perSliceRows int64) {
	j.hintBytes, j.hintRows = totalBytes, perSliceRows
	j.hinted = totalBytes > 0 || perSliceRows > 0
}

// SetBuildWorkers makes the build insert keys with n workers: Build then
// only concatenates and charges each batch, and FinishBuild — which must be
// called once the build side is exhausted — evaluates and hashes every key
// in parallel, then inserts them. The table comes out identical to the
// one-worker build. Must be called before Build; n <= 1 keeps the inline
// insert.
func (j *HashJoin) SetBuildWorkers(n int) { j.workers = n }

// applyHint acts on the planner's size hint once, before the first batch
// is retained.
func (j *HashJoin) applyHint() error {
	j.hinted = false
	if j.spill != nil {
		return nil
	}
	if j.mc != nil && j.mc.T != nil && j.mc.Dir != nil {
		if lim := j.mc.T.Limit(); lim > 0 && j.hintBytes > lim {
			return j.enterSpill()
		}
	}
	j.kt.Reserve(int(j.hintRows))
	return nil
}

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

// Build adds one batch of the inner side to the hash table. Each batch is
// charged against the query's memory grant; the batch that would exceed
// it flips the join into grace-spill mode, repartitioning everything
// built so far out to the scratch dir.
func (j *HashJoin) Build(b *Batch) error {
	j.noteBuildTypes(b)
	if j.hinted {
		if err := j.applyHint(); err != nil {
			return err
		}
	}
	if j.spill != nil {
		return j.spill.addBuild(b)
	}
	if j.workers > 1 {
		return j.retain(b)
	}
	base := j.build.N
	// Materialize any nil columns as typed empties so Concat stays aligned.
	if err := j.alignAndConcat(b); err != nil {
		return err
	}
	if err := j.sc.eval(j.buildKeys, b); err != nil {
		return err
	}
	before := j.tableBytes()
	j.insert(&j.sc, base)
	delta := b.ByteSize() + j.tableBytes() - before
	if !j.mc.tryGrow(delta) {
		return j.enterSpill()
	}
	j.charged += delta
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

// eval evaluates the key expressions over b, hashes every row and marks the
// NULL-key rows.
func (sc *keyScratch) eval(evs []*Evaluator, b *Batch) (err error) {
	if sc.vecs, err = evalKeys(evs, b, sc.vecs); err != nil {
		return err
	}
	sc.hashes = hashKeys(sc.vecs, b.N, sc.hashes)
	sc.skip = nullRows(sc.vecs, b.N, &sc.nullb)
	return nil
}

// insert adds one evaluated build batch, whose first row is build position
// base, to the table: each non-NULL key's row goes to the end of its chain.
func (j *HashJoin) insert(sc *keyScratch, base int) {
	sc.ids = j.kt.FindOrInsert(sc.vecs, sc.hashes, sc.skip, sc.ids)
	for len(j.next) < base+len(sc.ids) {
		j.next = append(j.next, -1)
	}
	for r, id := range sc.ids {
		pos := int32(base + r)
		switch {
		case id == NoID:
		case int(id) == len(j.head):
			j.head, j.tail = append(j.head, pos), append(j.tail, pos)
		default:
			j.next[j.tail[id]] = pos
			j.tail[id] = pos
		}
	}
}

// tableBytes is the resident size of the hash table and its chains — what
// the join charges, by delta, on top of the build rows themselves.
func (j *HashJoin) tableBytes() int64 {
	return j.kt.Bytes() + int64(4*(cap(j.head)+cap(j.tail)+cap(j.next)))
}

// retain is Build minus the table inserts: the batch is charged and
// concatenated exactly as the inline build would, spill cutover included;
// its keys wait for FinishBuild.
func (j *HashJoin) retain(b *Batch) error {
	if !j.mc.tryGrow(b.ByteSize()) {
		if err := j.enterSpill(); err != nil {
			return err
		}
		return j.spill.addBuild(b)
	}
	j.charged += b.ByteSize()
	j.bases = append(j.bases, j.build.N)
	j.retained = append(j.retained, b)
	return j.alignAndConcat(b)
}

// FinishBuild completes a deferred-insert build (a no-op otherwise, and
// once the join has spilled — the grace path replays build rows in their
// original order from disk). Workers evaluate and hash the retained batches'
// keys in parallel; the inserts then run in build order over the ready-made
// hashes, so table and chains are exactly the inline build's.
//
// The table's size is charged as one lump at the end; if that fails the
// join flips into grace-spill mode like the inline path. The spill trigger
// point can differ from a one-worker build by part of a batch, but the
// join's output cannot.
func (j *HashJoin) FinishBuild(ctx context.Context) error {
	retained, bases := j.retained, j.bases
	j.retained, j.bases = nil, nil
	nb := len(retained)
	if nb == 0 || j.spill != nil {
		return nil
	}
	keyed := make([]keyScratch, nb)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, j.workers)
	for w := 0; w < j.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= nb {
					return
				}
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
				if errs[w] = keyed[i].eval(j.buildKeys, retained[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range keyed {
		j.insert(&keyed[i], bases[i])
	}
	if !j.mc.tryGrow(j.tableBytes()) {
		// enterSpill resets the table and re-partitions the accumulated
		// build rows; the shrink it performs returns the retain charges.
		return j.enterSpill()
	}
	j.charged += j.tableBytes()
	return nil
}

// enterSpill switches to grace-join mode: the accumulated build side is
// hash-partitioned to disk and its memory charge released.
func (j *HashJoin) enterSpill() error {
	g, err := newGraceSpill(j)
	if err != nil {
		return err
	}
	j.spill = g
	full := j.build
	j.kt, j.head, j.tail, j.next = NewKeyTable(), nil, nil, nil
	j.build = NewBatch(j.rightWidth)
	if err := g.addBuild(full); err != nil {
		return err
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

func (j *HashJoin) alignAndConcat(b *Batch) error {
	aligned := NewBatch(len(j.build.Cols))
	aligned.N = b.N
	for c := range b.Cols {
		aligned.Cols[c] = b.Cols[c]
	}
	// First Concat initializes missing vectors from this batch's shape.
	if j.build.N == 0 {
		for c, v := range aligned.Cols {
			if v != nil {
				j.build.Cols[c] = types.NewVector(v.T, 0)
			}
		}
	}
	for c, v := range aligned.Cols {
		if v == nil && j.build.Cols[c] != nil {
			return errWidth("join build column", c, len(j.build.Cols))
		}
	}
	return j.build.Concat(aligned)
}

// BuildRows returns how many rows the build side holds.
func (j *HashJoin) BuildRows() int { return j.build.N }

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

// reserve sizes an empty join's table and chains for exactly n build rows.
func (j *HashJoin) reserve(n int) {
	j.kt.Reserve(n)
	j.head, j.tail, j.next = make([]int32, 0, n), make([]int32, 0, n), make([]int32, 0, n)
}

// Probe joins one left batch, returning the joined batch (left columns
// followed by right columns). When every left row yields exactly one output
// row — each matched at most one build row and, unless LEFT JOIN
// null-extends it, at least one — the output holds left's own vectors, not
// copies: the aliasing Filter.Apply's all-pass path and projections already
// do, safe because PutBatch never recycles vectors.
func (j *HashJoin) Probe(left *Batch) (*Batch, error) {
	// The join is shared by every probing worker, so the scratch is not its
	// own.
	sc := probeScratch.Get().(*probeBufs)
	defer probeScratch.Put(sc)
	if err := sc.eval(j.leftKeys, left); err != nil {
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
		dup = dup || j.next[j.head[id]] >= 0
		for m := j.head[id]; m >= 0; m = j.next[m] {
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
