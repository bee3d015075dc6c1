package exec

import (
	"context"

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
// Build and probe rows are hash-partitioned on the join key into the join's
// scratch file; each partition pair is then joined independently by a fresh
// in-memory shadow join, recursing into sub-partitions when a build
// partition still exceeds the grant. Probe rows carry a global sequence
// number so partition outputs merge back into exactly the order the
// in-memory join would have produced. Partitions, sub-partitions and
// partition outputs are all frame lists in the one file, which is given back
// when the join's output has been read.
type graceSpill struct {
	j  *HashJoin
	mc *MemContext
	sf *scratchFile

	build, probe []*frames
	seq          int64
	seqCol       int // where the sequence column sits in the joined layout
	sc           keyScratch
	sels         [][]int // scatter scratch: the current batch's rows, by partition
	// The probe batch being scattered, seen with its sequence column: scatter
	// copies the rows out, so one view and one vector serve every batch.
	seqView Batch
	seqVec  types.Vector
}

func newGraceSpill(j *HashJoin) (*graceSpill, error) {
	sf, err := j.mc.Dir.create("join", j.mc.spillStats())
	if err != nil {
		return nil, err
	}
	g := &graceSpill{j: j, mc: j.mc, sf: sf, sels: make([][]int, spillFanout)}
	g.build, g.probe = newPartitions(sf), newPartitions(sf)
	g.mc.addPartitions(spillFanout)
	return g, nil
}

// scatter appends each row of b to the partition, at the given depth, of the
// hash of its key; rows with a NULL key component (which never match) go to
// nullPart, or nowhere when that is negative.
func (g *graceSpill) scatter(evs []*Evaluator, b *Batch, depth, nullPart int, parts []*frames) error {
	if err := g.sc.eval(evs, b); err != nil {
		return err
	}
	for r, h := range g.sc.hashes {
		p := nullPart
		if g.sc.skip == nil || !g.sc.skip[r] {
			p = spillPart(h, depth)
		}
		if p >= 0 {
			g.sels[p] = append(g.sels[p], r)
		}
	}
	return scatterRows(parts, g.sels, b)
}

// addBuild partitions one build-side batch to disk. NULL-key build rows
// are dropped: they can never match, and build rows only ever surface
// through matches.
func (g *graceSpill) addBuild(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	return g.scatter(g.j.buildKeys, b, 0, -1, g.build)
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
	// The keys read the left layout; the trailing column is out of their way.
	return g.scatter(g.j.leftKeys, g.withSeqCol(b), 0, nullPart, g.probe)
}

// withSeqCol returns a view of b, valid until the next call, with one extra
// Int64 column numbering the rows from g.seq on.
func (g *graceSpill) withSeqCol(b *Batch) *Batch {
	seqs := g.seqVec.Ints[:0]
	for i := 0; i < b.N; i++ {
		seqs = append(seqs, g.seq+int64(i))
	}
	g.seq += int64(b.N)
	g.seqVec = types.Vector{T: types.Int64, Ints: seqs}
	g.seqView.Cols = append(append(g.seqView.Cols[:0], b.Cols...), &g.seqVec)
	g.seqView.N = b.N
	return &g.seqView
}

// SpillProbe partitions one probe batch of a spilled join to scratch,
// consuming it. The whole probe stream must pass through before SpillOutput
// is pulled.
func (j *HashJoin) SpillProbe(b *Batch) error {
	err := j.spill.addProbe(b)
	PutBatch(b)
	return err
}

// SpillOutput returns a spilled join's result as an Operator: its first
// pull joins every partition pair, and it streams the seq-merged output —
// row for row the in-memory probe order — with the carry column stripped.
// Read to the end, it gives the join's scratch file back; on any other exit
// ReleaseMem does.
func (j *HashJoin) SpillOutput() Operator { return &graceOutput{g: j.spill} }

type graceOutput struct {
	g   *graceSpill
	out Operator
}

func (o *graceOutput) Next(ctx context.Context) (b *Batch, err error) {
	if o.out == nil {
		if o.out, err = o.g.run(ctx); err != nil {
			return nil, err
		}
	}
	for {
		if b, err = o.out.Next(ctx); err != nil {
			return nil, err
		}
		if b == nil {
			o.g.sf.Close()
			return nil, nil
		}
		b.Cols = b.Cols[:len(b.Cols)-1] // strip the probe-sequence carry
		if b.N > 0 {
			return b, nil
		}
		PutBatch(b)
	}
}

// seqOrder orders joined rows by their trailing probe-sequence column.
func (g *graceSpill) seqOrder() []plan.OrderKey { return []plan.OrderKey{{Index: g.seqCol}} }

// run joins every partition pair and returns the merged output stream
// (joined layout plus the trailing sequence column, in probe order).
func (g *graceSpill) run(ctx context.Context) (Operator, error) {
	return g.joinPairs(ctx, g.build, g.probe, 0)
}

// joinPairs joins one level's partition pairs, each into an output of its
// own, and returns the outputs seq-merged.
func (g *graceSpill) joinPairs(ctx context.Context, build, probe []*frames, depth int) (Operator, error) {
	var outs []Operator
	for p := range probe {
		if probe[p].rows == 0 || (build[p].rows == 0 && g.j.kind != sql.LeftJoin) {
			// No probe rows → no output rows; empty build produces output
			// only for LEFT JOIN (null-extension).
			continue
		}
		out := &frames{sf: g.sf}
		if err := g.processPair(ctx, build[p], probe[p], depth, out); err != nil {
			return nil, err
		}
		r, err := out.reader()
		if err != nil {
			return nil, err
		}
		outs = append(outs, r)
	}
	return newMergeStream(outs, g.seqOrder()), nil
}

// drain hands every batch of src to fn, which keeps no reference to it.
func drain(ctx context.Context, src Operator, fn func(*Batch) error) error {
	for {
		b, err := src.Next(ctx)
		if err != nil || b == nil {
			return err
		}
		err = fn(b)
		PutBatch(b)
		if err != nil {
			return err
		}
	}
}

// drainFrames drains a partition through fn.
func drainFrames(ctx context.Context, p *frames, fn func(*Batch) error) error {
	r, err := p.reader()
	if err != nil {
		return err
	}
	return drain(ctx, r, fn)
}

// processPair joins one build/probe partition pair into out. If the build
// partition fits the grant it is joined in memory; otherwise it is
// re-partitioned one level deeper.
func (g *graceSpill) processPair(ctx context.Context, build, probe *frames, depth int, out *frames) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := build.flush(); err != nil {
		return err
	}
	sz := build.bytes
	if !g.mc.tryGrow(sz) {
		if depth < maxSpillDepth {
			return g.subdivide(ctx, build, probe, depth, out)
		}
		// Skew floor: this partition cannot be split further by key hash.
		// Charge it anyway — degrade honestly rather than fail the query.
		g.mc.grow(sz)
	}
	defer g.mc.shrink(sz)

	shadow := g.j.shadow()
	shadow.reserve(int(build.rows))
	if err := drainFrames(ctx, build, shadow.Build); err != nil {
		return err
	}
	return drainFrames(ctx, probe, func(b *Batch) error {
		left := &Batch{Cols: b.Cols[:len(b.Cols)-1], N: b.N}
		joined, err := shadow.ProbeCarry(left, b.Cols[len(b.Cols)-1])
		if err != nil {
			return err
		}
		err = out.appendBatch(joined)
		PutBatch(joined)
		return err
	})
}

// subdivide re-partitions a too-large pair one level deeper, joins each
// sub-pair, and seq-merges the sub-outputs into out so ordering survives
// the recursion.
func (g *graceSpill) subdivide(ctx context.Context, build, probe *frames, depth int, out *frames) error {
	nd := depth + 1
	subB, subP := newPartitions(g.sf), newPartitions(g.sf)
	g.mc.addPartitions(spillFanout)
	err := drainFrames(ctx, build, func(b *Batch) error {
		return g.scatter(g.j.buildKeys, b, nd, -1, subB) // no NULL key got this far
	})
	if err != nil {
		return err
	}
	err = drainFrames(ctx, probe, func(b *Batch) error {
		// NULL keys here are LEFT JOIN's; an inner join dropped its at depth 0.
		return g.scatter(g.j.leftKeys, b, nd, 0, subP)
	})
	if err != nil {
		return err
	}
	merged, err := g.joinPairs(ctx, subB, subP, nd)
	if err != nil {
		return err
	}
	return drain(ctx, merged, out.appendBatch)
}
