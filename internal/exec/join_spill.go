package exec

import (
	"context"
	"fmt"

	"redshift/internal/sql"
	"redshift/internal/types"
)

const (
	// spillFanout is the number of hash partitions per grace pass.
	spillFanout = 8
	// maxSpillDepth caps recursive repartitioning. A partition that still
	// exceeds the grant at this depth (pathological key skew: one key's
	// rows can't be split by key hash) is processed in memory with a
	// forced charge instead of recursing forever.
	maxSpillDepth = 3
)

// spillPartition assigns a key to one of spillFanout partitions; depth
// salts the hash so each recursion level re-splits with an independent
// partition function.
func spillPartition(key string, depth int) int {
	const (
		off64   = 14695981039346656037
		prime64 = 1099511628211
	)
	h := uint64(off64)
	for d := 0; d <= depth; d++ {
		h = (h ^ uint64(d+1)) * prime64
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return int(h % spillFanout)
}

// graceSpill is the disk-backed half of HashJoin: a grace hash join.
// Build and probe rows are hash-partitioned on the join key into scratch
// files; each partition pair is then joined independently by a fresh
// in-memory shadow join, recursing into sub-partitions when a build
// partition still exceeds the grant. Probe rows carry a global sequence
// number so partition outputs merge back into exactly the order the
// in-memory join would have produced.
type graceSpill struct {
	j  *HashJoin
	mc *MemContext

	buildFiles []*spillFile
	probeFiles []*spillFile
	seq        int64
}

func newGraceSpill(j *HashJoin) (*graceSpill, error) {
	g := &graceSpill{j: j, mc: j.mc}
	g.buildFiles = make([]*spillFile, spillFanout)
	g.probeFiles = make([]*spillFile, spillFanout)
	for p := 0; p < spillFanout; p++ {
		bf, err := g.mc.Dir.create(fmt.Sprintf("join-build-p%d", p), g.mc.spillStats())
		if err != nil {
			return nil, err
		}
		pf, err := g.mc.Dir.create(fmt.Sprintf("join-probe-p%d", p), g.mc.spillStats())
		if err != nil {
			return nil, err
		}
		g.buildFiles[p] = bf
		g.probeFiles[p] = pf
	}
	g.mc.addPartitions(spillFanout)
	return g, nil
}

// keyStrings evaluates key expressions over b and encodes each row's key;
// null[r] reports a NULL component (never matches).
func keyStrings(evs []*Evaluator, b *Batch) (keys []string, null []bool, err error) {
	keyVecs := make([]*types.Vector, len(evs))
	for i, ev := range evs {
		v, e := ev.Eval(b)
		if e != nil {
			return nil, nil, e
		}
		keyVecs[i] = v
	}
	keys = make([]string, b.N)
	null = make([]bool, b.N)
	keyRow := make([]types.Value, len(keyVecs))
	for r := 0; r < b.N; r++ {
		for i, v := range keyVecs {
			keyRow[i] = v.Get(r)
			if keyRow[i].Null {
				null[r] = true
			}
		}
		if !null[r] {
			keys[r] = KeyEncoder(keyRow)
		}
	}
	return keys, null, nil
}

// scatter writes b's rows into files by partition assignment. Rows with
// part[r] < 0 are dropped.
func scatter(b *Batch, part []int, files []*spillFile) error {
	sels := make([][]int, len(files))
	for r := 0; r < b.N; r++ {
		if part[r] >= 0 {
			sels[part[r]] = append(sels[part[r]], r)
		}
	}
	for p, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		sub := b.Gather(sel)
		err := files[p].WriteBatch(sub)
		PutBatch(sub)
		if err != nil {
			return err
		}
	}
	return nil
}

// addBuild partitions one build-side batch to disk. NULL-key build rows
// are dropped: they can never match, and build rows only ever surface
// through matches.
func (g *graceSpill) addBuild(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	keys, null, err := keyStrings(g.j.buildKeys, b)
	if err != nil {
		return err
	}
	part := make([]int, b.N)
	for r := range part {
		if null[r] {
			part[r] = -1
			continue
		}
		part[r] = spillPartition(keys[r], 0)
	}
	return scatter(b, part, g.buildFiles)
}

// addProbe partitions one probe batch to disk, appending each row's
// global sequence number as a trailing Int64 column. NULL-key probe rows
// are dropped for inner joins; for LEFT JOIN they ride along in partition
// 0 (they match nothing and null-extend there).
func (g *graceSpill) addProbe(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	keys, null, err := keyStrings(g.j.leftKeys, b)
	if err != nil {
		return err
	}
	part := make([]int, b.N)
	for r := range part {
		switch {
		case !null[r]:
			part[r] = spillPartition(keys[r], 0)
		case g.j.kind == sql.LeftJoin:
			part[r] = 0
		default:
			part[r] = -1
		}
	}
	return scatter(withSeqCol(b, &g.seq), part, g.probeFiles)
}

// SpillProbe partitions one probe batch of a spilled join to scratch,
// consuming it. The whole probe stream must pass through before SpillOutput
// is opened.
func (j *HashJoin) SpillProbe(b *Batch) error {
	err := j.spill.addProbe(b)
	PutBatch(b)
	return err
}

// SpillOutput returns a spilled join's result as an Operator: Open joins
// every partition pair, Next streams the seq-merged output — row for row
// the in-memory probe order — with the carry column stripped.
func (j *HashJoin) SpillOutput() Operator { return &graceOutput{g: j.spill} }

type graceOutput struct {
	g   *graceSpill
	out batchStream
}

func (o *graceOutput) Open(ctx context.Context) (err error) {
	o.out, err = o.g.run(ctx)
	return err
}

func (o *graceOutput) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := o.out.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		b.Cols = b.Cols[:len(b.Cols)-1] // strip the probe-sequence carry
		if b.N > 0 {
			return b, nil
		}
		PutBatch(b)
	}
}

func (o *graceOutput) Close() error { return nil }

// withSeqCol returns a view of b with one extra Int64 column numbering
// rows from *seq, advancing *seq past them.
func withSeqCol(b *Batch, seq *int64) *Batch {
	sv := types.NewVector(types.Int64, b.N)
	for i := 0; i < b.N; i++ {
		sv.Append(types.NewInt(*seq + int64(i)))
	}
	*seq += int64(b.N)
	cols := make([]*types.Vector, 0, len(b.Cols)+1)
	cols = append(cols, b.Cols...)
	cols = append(cols, sv)
	return &Batch{Cols: cols, N: b.N}
}

// cmpSeq orders joined rows by their trailing probe-sequence column.
func cmpSeq(a *Batch, ai int, b *Batch, bi int) int {
	av := a.Cols[len(a.Cols)-1].Get(ai).I
	bv := b.Cols[len(b.Cols)-1].Get(bi).I
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	default:
		return 0
	}
}

// run joins every partition pair and returns the merged output stream
// (joined layout plus the trailing sequence column, in probe order).
func (g *graceSpill) run(ctx context.Context) (batchStream, error) {
	var outs []batchStream
	for p := 0; p < spillFanout; p++ {
		bf, pf := g.buildFiles[p], g.probeFiles[p]
		if pf.Rows() == 0 || (bf.Rows() == 0 && g.j.kind != sql.LeftJoin) {
			// No probe rows → no output rows; empty build produces output
			// only for LEFT JOIN (null-extension).
			bf.Discard()
			pf.Discard()
			continue
		}
		out, err := g.mc.Dir.create(fmt.Sprintf("join-out-p%d", p), g.mc.spillStats())
		if err != nil {
			return nil, err
		}
		if err := g.processPair(ctx, bf, pf, 0, out); err != nil {
			return nil, err
		}
		bf.Discard()
		pf.Discard()
		r, err := out.Reader()
		if err != nil {
			return nil, err
		}
		outs = append(outs, r)
	}
	return newMergeStream(outs, cmpSeq), nil
}

// processPair joins one build/probe partition pair into out. If the build
// partition fits the grant it is joined in memory; otherwise it is
// re-partitioned one level deeper.
func (g *graceSpill) processPair(ctx context.Context, bf, pf *spillFile, depth int, out *spillFile) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sz := bf.Bytes()
	if !g.mc.tryGrow(sz) {
		if depth < maxSpillDepth {
			return g.subdivide(ctx, bf, pf, depth, out)
		}
		// Skew floor: this partition cannot be split further by key hash.
		// Charge it anyway — degrade honestly rather than fail the query.
		g.mc.grow(sz)
	}
	defer g.mc.shrink(sz)

	shadow := g.j.shadow()
	br, err := bf.Reader()
	if err != nil {
		return err
	}
	for {
		b, err := br.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		err = shadow.Build(b)
		PutBatch(b)
		if err != nil {
			return err
		}
	}
	pr, err := pf.Reader()
	if err != nil {
		return err
	}
	for {
		b, err := pr.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		left := &Batch{Cols: b.Cols[:len(b.Cols)-1], N: b.N}
		carry := b.Cols[len(b.Cols)-1]
		joined, err := shadow.ProbeCarry(left, carry)
		if err == nil && joined.N > 0 {
			err = out.WriteBatch(joined)
		}
		if joined != nil {
			PutBatch(joined)
		}
		PutBatch(b)
		if err != nil {
			return err
		}
	}
}

// subdivide re-partitions a too-large pair one level deeper, joins each
// sub-pair, and seq-merges the sub-outputs into out so ordering survives
// the recursion.
func (g *graceSpill) subdivide(ctx context.Context, bf, pf *spillFile, depth int, out *spillFile) error {
	nd := depth + 1
	subB := make([]*spillFile, spillFanout)
	subP := make([]*spillFile, spillFanout)
	for p := 0; p < spillFanout; p++ {
		var err error
		if subB[p], err = g.mc.Dir.create(fmt.Sprintf("join-build-d%d-p%d", nd, p), g.mc.spillStats()); err != nil {
			return err
		}
		if subP[p], err = g.mc.Dir.create(fmt.Sprintf("join-probe-d%d-p%d", nd, p), g.mc.spillStats()); err != nil {
			return err
		}
	}
	g.mc.addPartitions(spillFanout)

	br, err := bf.Reader()
	if err != nil {
		return err
	}
	for {
		b, err := br.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		keys, _, err := keyStrings(g.j.buildKeys, b)
		if err == nil {
			part := make([]int, b.N)
			for r := range part {
				part[r] = spillPartition(keys[r], nd)
			}
			err = scatter(b, part, subB)
		}
		PutBatch(b)
		if err != nil {
			return err
		}
	}
	pr, err := pf.Reader()
	if err != nil {
		return err
	}
	for {
		b, err := pr.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		left := &Batch{Cols: b.Cols[:len(b.Cols)-1], N: b.N}
		keys, null, err := keyStrings(g.j.leftKeys, left)
		if err == nil {
			part := make([]int, b.N)
			for r := range part {
				if null[r] {
					part[r] = 0 // LEFT JOIN nulls; inner nulls were dropped at depth 0
				} else {
					part[r] = spillPartition(keys[r], nd)
				}
			}
			err = scatter(b, part, subP)
		}
		PutBatch(b)
		if err != nil {
			return err
		}
	}
	bf.Discard()
	pf.Discard()

	var outs []batchStream
	for p := 0; p < spillFanout; p++ {
		if subP[p].Rows() == 0 || (subB[p].Rows() == 0 && g.j.kind != sql.LeftJoin) {
			subB[p].Discard()
			subP[p].Discard()
			continue
		}
		subOut, err := g.mc.Dir.create(fmt.Sprintf("join-out-d%d-p%d", nd, p), g.mc.spillStats())
		if err != nil {
			return err
		}
		if err := g.processPair(ctx, subB[p], subP[p], nd, subOut); err != nil {
			return err
		}
		subB[p].Discard()
		subP[p].Discard()
		r, err := subOut.Reader()
		if err != nil {
			return err
		}
		outs = append(outs, r)
	}
	merged := newMergeStream(outs, cmpSeq)
	for {
		b, err := merged.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		err = out.WriteBatch(b)
		PutBatch(b)
		if err != nil {
			return err
		}
	}
}
