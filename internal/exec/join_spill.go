package exec

import (
	"context"

	"redshift/internal/sql"
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
// in-memory shadow join, re-partitioned one level deeper when its build side
// still exceeds the grant. Matches stream out pair by pair, so the join's
// rows are the in-memory join's as a multiset, in no promised order.
// Partitions and sub-partitions are all frame lists in the one file, which
// is given back when the join's output has been read.
type graceSpill struct {
	j  *HashJoin
	mc *MemContext
	sf *scratchFile

	build, probe []*frames
	sc           keyScratch
	sels         [][]int // scatter scratch: the current batch's rows, by partition
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
	if err := g.sc.eval(evs, b, true); err != nil {
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

// addProbe partitions one probe batch to disk. NULL-key probe rows are
// dropped for inner joins; for LEFT JOIN they ride along in partition 0
// (they match nothing and null-extend there).
func (g *graceSpill) addProbe(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	nullPart := -1
	if g.j.kind == sql.LeftJoin {
		nullPart = 0
	}
	return g.scatter(g.j.leftKeys, b, 0, nullPart, g.probe)
}

// SpillProbe partitions one probe batch of a spilled join to scratch,
// consuming it. The whole probe stream must pass through before SpillOutput
// is pulled.
func (j *HashJoin) SpillProbe(b *Batch) error {
	err := j.spill.addProbe(b)
	PutBatch(b)
	return err
}

// SpillOutput returns a spilled join's result as an Operator that joins
// one partition pair at a time and streams its matches as they come: the
// in-memory join's rows, in no promised order. Read to the end, it gives the
// join's scratch file back; on any other exit ReleaseMem does.
func (j *HashJoin) SpillOutput() Operator {
	g := j.spill
	o := &graceOutput{g: g}
	o.push(g.build, g.probe, 0)
	return o
}

// gracePair is one build/probe partition pair and the level that cut it.
type gracePair struct {
	build, probe *frames
	depth        int
}

// graceOutput pulls a spilled join's rows: it probes the open pair's shadow
// join with that pair's probe frames, then gives the pair's charge back and
// opens the next. Pairs are joined in the order they were cut, a
// subdivided pair's sub-pairs after the rest; every pair stays listed, so
// what the join wrote is its partitions' frames and nothing else.
type graceOutput struct {
	g      *graceSpill
	pairs  []gracePair
	at     int          // the next pair to open
	shadow *HashJoin    // the open pair's in-memory join
	probe  *frameReader // the open pair's probe frames; nil when none is open
	charge int64        // the open pair's build bytes, charged to the grant
}

// push lists one level's partition pairs.
func (o *graceOutput) push(build, probe []*frames, depth int) {
	for p := range probe {
		o.pairs = append(o.pairs, gracePair{build[p], probe[p], depth})
	}
}

func (o *graceOutput) Next(ctx context.Context) (*Batch, error) {
	for {
		if o.probe != nil {
			b, err := o.probe.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b != nil {
				out, err := o.shadow.Probe(b)
				PutBatch(b)
				if err != nil || out.N > 0 {
					return out, err
				}
				PutBatch(out)
				continue
			}
			o.g.mc.shrink(o.charge)
			o.shadow, o.probe, o.charge = nil, nil, 0
		}
		if o.at == len(o.pairs) {
			o.g.sf.Close()
			return nil, nil
		}
		o.at++
		if err := o.open(ctx, o.pairs[o.at-1]); err != nil {
			return nil, err
		}
	}
}

// open builds pair p's shadow join and readies its probe frames when its
// build side fits the grant; otherwise it re-partitions the pair one level
// deeper and lists the sub-pairs. A pair without probe rows produces no
// rows, and one without build rows only null-extends under LEFT JOIN.
func (o *graceOutput) open(ctx context.Context, p gracePair) error {
	g := o.g
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.probe.rows == 0 || (p.build.rows == 0 && g.j.kind != sql.LeftJoin) {
		return nil
	}
	if err := p.build.flush(); err != nil {
		return err
	}
	sz := p.build.bytes
	if !g.mc.tryGrow(sz) {
		if p.depth < maxSpillDepth {
			return o.subdivide(ctx, p)
		}
		// Skew floor: this partition cannot be split further by key hash.
		// Charge it anyway — degrade honestly rather than fail the query.
		g.mc.grow(sz)
	}
	o.charge = sz
	shadow := g.j.shadow()
	if err := drainFrames(ctx, p.build, shadow.Build); err != nil {
		return err
	}
	if err := shadow.FinishBuild(ctx); err != nil {
		return err
	}
	r, err := p.probe.reader()
	if err != nil {
		return err
	}
	o.shadow, o.probe = shadow, r
	return nil
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

// subdivide re-partitions a too-large pair one level deeper and lists the
// sub-pairs.
func (o *graceOutput) subdivide(ctx context.Context, p gracePair) error {
	g, nd := o.g, p.depth+1
	subB, subP := newPartitions(g.sf), newPartitions(g.sf)
	g.mc.addPartitions(spillFanout)
	err := drainFrames(ctx, p.build, func(b *Batch) error {
		return g.scatter(g.j.buildKeys, b, nd, -1, subB) // no NULL key got this far
	})
	if err != nil {
		return err
	}
	err = drainFrames(ctx, p.probe, func(b *Batch) error {
		// NULL keys here are LEFT JOIN's; an inner join dropped its at depth 0.
		return g.scatter(g.j.leftKeys, b, nd, 0, subP)
	})
	if err != nil {
		return err
	}
	o.push(subB, subP, nd)
	return nil
}
