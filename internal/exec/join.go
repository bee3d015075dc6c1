package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// Memory-accounting constants: estimated heap overhead beyond payload
// bytes for hash-table bookkeeping. Coarse by design — the tracker
// governs budgets, it is not a profiler.
const (
	joinKeyOverhead = 64 // map bucket + string header + slice header per distinct key
	joinPosBytes    = 8  // one build-row position in a key's match list
)

// HashJoin joins a probe (left) stream against a fully built (right) side.
// The build side is the inner table — the side the planner chose to
// broadcast, shuffle or read locally.
type HashJoin struct {
	kind       sql.JoinKind
	mode       Mode
	leftKeys   []*Evaluator // over the left (probe) layout
	buildKeys  []*Evaluator // over the right (build) local layout
	rightWidth int
	table      map[string][]int // key → build row positions
	build      *Batch           // concatenated build rows (right-local layout)
	buildTypes []types.Type     // right-side column types, noted from build input
	residual   *Filter          // over the joined layout, inner joins only

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
// called once the build side is exhausted — evaluates and inserts every key
// in parallel. The table comes out identical to the one-worker build. Must
// be called before Build; n <= 1 keeps the inline insert.
func (j *HashJoin) SetBuildWorkers(n int) { j.workers = n }

// applyHint acts on the planner's size hint once, before the first batch
// is retained.
func (j *HashJoin) applyHint() error {
	j.hinted = false
	if j.spill != nil || j.mc == nil || j.mc.T == nil || j.mc.Dir == nil {
		if j.hintRows > 0 && j.spill == nil {
			j.table = make(map[string][]int, j.hintRows)
		}
		return nil
	}
	if lim := j.mc.T.Limit(); lim > 0 && j.hintBytes > lim {
		return j.enterSpill()
	}
	if j.hintRows > 0 {
		j.table = make(map[string][]int, j.hintRows)
	}
	return nil
}

// Spilled reports whether the build side went to disk.
func (j *HashJoin) Spilled() bool { return j.spill != nil }

// ReleaseMem returns every byte the join still has charged.
func (j *HashJoin) ReleaseMem() {
	j.mc.release()
	j.charged = 0
}

// NewHashJoin prepares a join. rightWidth is the number of columns in the
// right table's local layout.
func NewHashJoin(mode Mode, step plan.JoinStep, rightWidth int) (*HashJoin, error) {
	j := &HashJoin{
		kind:       step.Kind,
		mode:       mode,
		rightWidth: rightWidth,
		table:      make(map[string][]int),
		build:      NewBatch(rightWidth),
	}
	for _, k := range step.LeftKeys {
		ev, err := NewEvaluator(mode, k)
		if err != nil {
			return nil, err
		}
		j.leftKeys = append(j.leftKeys, ev)
	}
	for _, k := range step.RightKeys {
		ev, err := NewEvaluator(mode, k)
		if err != nil {
			return nil, err
		}
		j.buildKeys = append(j.buildKeys, ev)
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
	keyVecs := make([]*types.Vector, len(j.buildKeys))
	for i, ev := range j.buildKeys {
		v, err := ev.Eval(b)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	delta := b.ByteSize()
	keyRow := make([]types.Value, len(keyVecs))
	for r := 0; r < b.N; r++ {
		null := false
		for i, v := range keyVecs {
			keyRow[i] = v.Get(r)
			if keyRow[i].Null {
				null = true
			}
		}
		if null {
			continue // NULL keys never match
		}
		k := KeyEncoder(keyRow)
		if _, ok := j.table[k]; !ok {
			delta += joinKeyOverhead + int64(len(k))
		}
		delta += joinPosBytes
		j.table[k] = append(j.table[k], base+r)
	}
	if !j.mc.tryGrow(delta) {
		return j.enterSpill()
	}
	j.charged += delta
	return nil
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

// fnvOwner assigns a hash key to one of n owner-workers (FNV-1a).
func fnvOwner(k string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// FinishBuild completes a deferred-insert build (a no-op otherwise, and
// once the join has spilled — the grace path replays build rows in their
// original order from disk). Two phases:
//
//  1. Parallel key evaluation: workers encode every retained batch's keys.
//  2. Partitioned insert: each owner-worker scans all keys in batch order
//     and inserts only the keys it owns (hash(k) % workers) into a private
//     map at the row's global build position, so per-key position lists
//     come out ascending — the inline insert order. The disjoint maps are
//     then unified into j.table.
//
// The table's key/position overhead is charged as one lump at the end; if
// that fails the join flips into grace-spill mode like the inline path.
// The spill trigger point can differ from a one-worker build by part of a
// batch, but the join's output cannot.
func (j *HashJoin) FinishBuild(ctx context.Context) error {
	retained, bases := j.retained, j.bases
	j.retained, j.bases = nil, nil
	nb := len(retained)
	if nb == 0 || j.spill != nil {
		return nil
	}
	keys := make([][]string, nb)
	nulls := make([][]bool, nb)
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
				if keys[i], nulls[i], errs[w] = keyStrings(j.buildKeys, retained[i]); errs[w] != nil {
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

	subs := make([]map[string][]int, j.workers)
	deltas := make([]int64, j.workers)
	for w := 0; w < j.workers; w++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			sub := make(map[string][]int)
			var delta int64
			for i := 0; i < nb; i++ {
				ks, nl := keys[i], nulls[i]
				for r := range ks {
					if nl[r] {
						continue // NULL keys never match
					}
					k := ks[r]
					if fnvOwner(k, j.workers) != owner {
						continue
					}
					if _, ok := sub[k]; !ok {
						delta += joinKeyOverhead + int64(len(k))
					}
					delta += joinPosBytes
					sub[k] = append(sub[k], bases[i]+r)
				}
			}
			subs[owner], deltas[owner] = sub, delta
		}(w)
	}
	wg.Wait()

	var keyDelta int64
	for w, sub := range subs {
		keyDelta += deltas[w]
		for k, pos := range sub {
			j.table[k] = pos
		}
	}
	if !j.mc.tryGrow(keyDelta) {
		// enterSpill resets the table and re-partitions the accumulated
		// build rows; the shrink it performs returns the retain charges.
		return j.enterSpill()
	}
	j.charged += keyDelta
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
	j.table = make(map[string][]int)
	j.build = NewBatch(j.rightWidth)
	if err := g.addBuild(full); err != nil {
		return err
	}
	j.mc.shrink(j.charged)
	j.charged = 0
	return nil
}

// noteBuildTypes remembers the build side's column types from the first
// batch that carries them. LEFT JOIN null-extension needs the types to
// materialize NULL columns when a build side (or a grace-spill partition
// of it) ends up with zero rows — e.g. every build key was NULL.
func (j *HashJoin) noteBuildTypes(b *Batch) {
	if j.buildTypes != nil || b == nil {
		return
	}
	seen := false
	ts := make([]types.Type, len(b.Cols))
	for c, v := range b.Cols {
		if v != nil {
			ts[c] = v.T
			seen = true
		}
	}
	if seen {
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
		table:      make(map[string][]int),
		build:      NewBatch(j.rightWidth),
		buildTypes: j.buildTypes,
		residual:   j.residual,
	}
}

// Probe joins one left batch, returning the joined batch (left columns
// followed by right columns).
func (j *HashJoin) Probe(left *Batch) (*Batch, error) {
	return j.ProbeCarry(left, nil)
}

// ProbeCarry probes like Probe but additionally gathers carry (a
// probe-aligned vector) through the match expansion, appending it as one
// extra trailing column. The grace join uses it to thread each probe
// row's global sequence number through per-partition joins so partition
// outputs can be merged back into the exact in-memory probe order.
func (j *HashJoin) ProbeCarry(left *Batch, carry *types.Vector) (*Batch, error) {
	keyVecs := make([]*types.Vector, len(j.leftKeys))
	for i, ev := range j.leftKeys {
		v, err := ev.Eval(left)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = v
	}
	var leftSel, rightSel []int
	keyRow := make([]types.Value, len(keyVecs))
	for r := 0; r < left.N; r++ {
		null := false
		for i, v := range keyVecs {
			keyRow[i] = v.Get(r)
			if keyRow[i].Null {
				null = true
			}
		}
		var matches []int
		if !null {
			matches = j.table[KeyEncoder(keyRow)]
		}
		if len(matches) == 0 {
			if j.kind == sql.LeftJoin {
				leftSel = append(leftSel, r)
				rightSel = append(rightSel, -1) // null-extended
			}
			continue
		}
		for _, m := range matches {
			leftSel = append(leftSel, r)
			rightSel = append(rightSel, m)
		}
	}
	out := j.assemble(left, leftSel, rightSel)
	if carry != nil {
		out.Cols = append(out.Cols, carry.Gather(leftSel))
	}
	return j.residual.Apply(out)
}

// assemble gathers matched left rows and build rows into the joined layout.
func (j *HashJoin) assemble(left *Batch, leftSel, rightSel []int) *Batch {
	out := NewBatch(len(left.Cols) + j.rightWidth)
	out.N = len(leftSel)
	for c, v := range left.Cols {
		if v == nil {
			continue
		}
		out.Cols[c] = v.Gather(leftSel)
	}
	for c, v := range j.build.Cols {
		if v == nil {
			// A build side with zero materialized rows still null-extends
			// under LEFT JOIN; emit typed all-NULL columns rather than nil.
			if out.N > 0 {
				t := types.Int64
				if c < len(j.buildTypes) && j.buildTypes[c] != types.Invalid {
					t = j.buildTypes[c]
				}
				nv := types.NewVector(t, out.N)
				for i := 0; i < out.N; i++ {
					nv.AppendNull()
				}
				out.Cols[len(left.Cols)+c] = nv
			}
			continue
		}
		// rightSel holds -1 for unmatched left rows; Gather null-extends.
		out.Cols[len(left.Cols)+c] = v.Gather(rightSel)
	}
	return out
}
