package exec

import (
	"context"
	"fmt"

	"redshift/internal/plan"
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

// spillPart assigns a key, by the hash its KeyTable would store for it, to
// one of spillFanout partitions; depth salts the hash so each recursion
// level re-splits with an independent partition function. Remixing and
// taking high bits also keeps the split independent of the slot a table gives
// the key (the hash's low bits).
func spillPart(hash uint64, depth int) int {
	return int(mix(hash, uint64(depth+1)*hashNull) >> 32 % spillFanout)
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
	seqCol     int // where the sequence column sits in the joined layout
	sc         keyScratch
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

// partition assigns each row of b to a partition at the given depth by the
// hash of its key; rows with a NULL key component (which never match) go to
// nullPart.
func (g *graceSpill) partition(evs []*Evaluator, b *Batch, depth, nullPart int) ([]int, error) {
	if err := g.sc.eval(evs, b); err != nil {
		return nil, err
	}
	part := make([]int, b.N)
	for r, h := range g.sc.hashes {
		if g.sc.skip != nil && g.sc.skip[r] {
			part[r] = nullPart
		} else {
			part[r] = spillPart(h, depth)
		}
	}
	return part, nil
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
	part, err := g.partition(g.j.buildKeys, b, 0, -1)
	if err != nil {
		return err
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
	g.seqCol = len(b.Cols) + g.j.rightWidth
	nullPart := -1
	if g.j.kind == sql.LeftJoin {
		nullPart = 0
	}
	part, err := g.partition(g.j.leftKeys, b, 0, nullPart)
	if err != nil {
		return err
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

// seqOrder orders joined rows by their trailing probe-sequence column.
func (g *graceSpill) seqOrder() []plan.OrderKey { return []plan.OrderKey{{Index: g.seqCol}} }

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
	return newMergeStream(outs, g.seqOrder()), nil
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
		part, err := g.partition(g.j.buildKeys, b, nd, -1) // no NULL key got this far
		if err == nil {
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
		// NULL keys here are LEFT JOIN's; an inner join dropped its at depth 0.
		part, err := g.partition(g.j.leftKeys, left, nd, 0)
		if err == nil {
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
	merged := newMergeStream(outs, g.seqOrder())
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
