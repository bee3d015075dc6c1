package exec

import (
	"context"
	"fmt"
	"strings"

	"redshift/internal/hll"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// aggCol is one aggregate's accumulators for every group of a table, held
// column-wise and indexed by group id. Accumulators are mergeable, which is
// what makes aggregation two-phase: every slice folds its local rows into
// a table, the leader merges the per-slice tables (§2.1: "intermediate
// results are sent back to the leader node for final aggregation").
type aggCol interface {
	// grow extends the column to n groups; new groups start empty.
	grow(n int)
	// update folds one batch: row r of arg (nil for COUNT(*)) into group
	// ids[r], rows with NoID left out. One type dispatch per batch, then a
	// typed loop — no value is boxed.
	update(ids []uint32, arg *types.Vector)
	// merge folds every group i of o, a column of the same kind, into
	// group remap[i].
	merge(o aggCol, remap []uint32)
	// final is group id's aggregate result.
	final(id int) types.Value
	// shipBytes is the column's encoded size when shipped to the leader, so
	// gather-transfer accounting reflects what actually moves: constant per
	// group for linear aggregates, value-set-proportional for exact
	// distinct, constant-sketch for approximate distinct.
	shipBytes() int64
	// memBytes is the column's resident heap size, charged to the query.
	memBytes() int64
}

// vecShipBytes is the encoded width of a vector's values in a shipped
// partial state: 1 byte for a NULL, 8 for a fixed-width value, length + 4
// for a string.
func vecShipBytes(v *types.Vector) int64 {
	n := int64(v.Len())
	nulls := int64(v.NullCount())
	if v.T != types.String {
		return 8*(n-nulls) + nulls
	}
	total := 4*(n-nulls) + nulls
	for _, s := range v.Strs {
		total += int64(len(s)) // NULL positions hold ""
	}
	return total
}

// vecMemBytes is a vector's resident size given the string payload it
// references.
func vecMemBytes(v *types.Vector, strBytes int64) int64 {
	return int64(8*cap(v.Ints)+8*cap(v.Floats)+16*cap(v.Strs)+cap(v.Nulls)) + strBytes
}

// newAggCol builds the accumulator column for a spec.
func newAggCol(spec plan.AggSpec) aggCol {
	switch {
	case spec.Func == sql.FuncCount && spec.Approx:
		return &hllCol{}
	case spec.Func == sql.FuncCount && spec.Distinct:
		return &distinctCol{kt: NewKeyTable(), gids: types.NewVector(types.Int64, 0)}
	case spec.Func == sql.FuncCount:
		return &countCol{}
	case spec.Func == sql.FuncSum && spec.T == types.Float64:
		return &sumCol{acc: types.NewVector(types.Float64, 0)}
	case spec.Func == sql.FuncSum:
		return &sumCol{acc: types.NewVector(types.Int64, 0)}
	case spec.Func == sql.FuncAvg:
		return &avgCol{}
	case spec.Func == sql.FuncMin:
		return &minMaxCol{best: types.NewVector(spec.T, 0), min: true}
	case spec.Func == sql.FuncMax:
		return &minMaxCol{best: types.NewVector(spec.T, 0)}
	default:
		panic(fmt.Sprintf("exec: no aggregate state for %s", spec.Func))
	}
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// asFloats returns v's values as float64s: its own payload, or its integers
// converted into *buf.
func asFloats(v *types.Vector, buf *[]float64) []float64 {
	if v.T == types.Float64 {
		return v.Floats
	}
	*buf = (*buf)[:0]
	for _, i := range v.Ints {
		*buf = append(*buf, float64(i))
	}
	return *buf
}

type countCol struct{ n []int64 }

func (c *countCol) grow(n int) { c.n = growTo(c.n, n) }
func (c *countCol) update(ids []uint32, arg *types.Vector) {
	var nulls []bool
	if arg != nil {
		nulls = arg.Nulls
	}
	for r, id := range ids {
		if id != NoID && (nulls == nil || !nulls[r]) {
			c.n[id]++
		}
	}
}
func (c *countCol) merge(o aggCol, remap []uint32) {
	for i, n := range o.(*countCol).n {
		c.n[remap[i]] += n
	}
}
func (c *countCol) final(id int) types.Value { return types.NewInt(c.n[id]) }
func (c *countCol) shipBytes() int64         { return 8 * int64(len(c.n)) }
func (c *countCol) memBytes() int64          { return 8 * int64(cap(c.n)) }

// sumCol is SUM into an Int64 or Float64 vector whose null mask marks the
// groups that have seen no value yet. Every sum starts from zero and only
// ever adds, so merging a state into an empty group reproduces it exactly.
type sumCol struct {
	acc *types.Vector
	buf []float64
}

func (c *sumCol) grow(n int) {
	for c.acc.Len() < n {
		c.acc.AppendNull()
	}
}
func (c *sumCol) update(ids []uint32, arg *types.Vector) {
	nulls, unseen := arg.Nulls, c.acc.Nulls
	if c.acc.T == types.Float64 {
		vals := asFloats(arg, &c.buf)
		for r, id := range ids {
			if id != NoID && (nulls == nil || !nulls[r]) {
				c.acc.Floats[id] += vals[r]
				unseen[id] = false
			}
		}
		return
	}
	for r, id := range ids {
		if id != NoID && (nulls == nil || !nulls[r]) {
			c.acc.Ints[id] += arg.Ints[r]
			unseen[id] = false
		}
	}
}
func (c *sumCol) merge(o aggCol, remap []uint32) { c.update(remap, o.(*sumCol).acc) }
func (c *sumCol) final(id int) types.Value       { return c.acc.Get(id) }
func (c *sumCol) shipBytes() int64               { return 9 * int64(c.acc.Len()) } // sum + seen flag
func (c *sumCol) memBytes() int64                { return vecMemBytes(c.acc, 0) }

type avgCol struct {
	sum []float64
	n   []int64
	buf []float64
}

func (c *avgCol) grow(n int) { c.sum, c.n = growTo(c.sum, n), growTo(c.n, n) }
func (c *avgCol) update(ids []uint32, arg *types.Vector) {
	nulls := arg.Nulls
	vals := asFloats(arg, &c.buf)
	for r, id := range ids {
		if id != NoID && (nulls == nil || !nulls[r]) {
			c.sum[id] += vals[r]
			c.n[id]++
		}
	}
}
func (c *avgCol) merge(o aggCol, remap []uint32) {
	oc := o.(*avgCol)
	for i, id := range remap {
		c.sum[id] += oc.sum[i]
		c.n[id] += oc.n[i]
	}
}
func (c *avgCol) final(id int) types.Value {
	if c.n[id] == 0 {
		return types.NewNull(types.Float64)
	}
	return types.NewFloat(c.sum[id] / float64(c.n[id]))
}
func (c *avgCol) shipBytes() int64 { return 16 * int64(len(c.n)) } // sum + count
func (c *avgCol) memBytes() int64  { return 16 * int64(cap(c.n)) }

// minMaxCol keeps each group's extreme in a vector of the aggregate's type;
// its null mask marks the groups that have seen no value yet, so merging
// another column is updating from its vector. Ties keep the earlier value.
type minMaxCol struct {
	best     *types.Vector
	min      bool
	strBytes int64
}

func (c *minMaxCol) grow(n int) {
	for c.best.Len() < n {
		c.best.AppendNull()
	}
}
func (c *minMaxCol) update(ids []uint32, arg *types.Vector) {
	switch c.best.T {
	case types.Float64:
		foldMinMax(c.min, ids, arg.Nulls, arg.Floats, c.best.Floats, c.best.Nulls, nil)
	case types.String:
		c.strBytes += foldMinMax(c.min, ids, arg.Nulls, arg.Strs, c.best.Strs, c.best.Nulls,
			func(s, old string) (string, int64) { return strings.Clone(s), int64(len(s) - len(old)) })
	default:
		foldMinMax(c.min, ids, arg.Nulls, arg.Ints, c.best.Ints, c.best.Nulls, nil)
	}
}

// foldMinMax is the typed MIN/MAX loop. With own set (strings) a value that
// becomes a group's best is first copied out of its batch (see appendOwned)
// and the payload bytes best gained are returned.
func foldMinMax[T int64 | float64 | string](min bool, ids []uint32, nulls []bool, vals, best []T, unseen []bool, own func(v, old T) (T, int64)) (grew int64) {
	for r, id := range ids {
		if id == NoID || nulls != nil && nulls[r] {
			continue
		}
		if v := vals[r]; unseen[id] || min && v < best[id] || !min && v > best[id] {
			if own != nil {
				var d int64
				v, d = own(v, best[id])
				grew += d
			}
			best[id], unseen[id] = v, false
		}
	}
	return grew
}
func (c *minMaxCol) merge(o aggCol, remap []uint32) { c.update(remap, o.(*minMaxCol).best) }
func (c *minMaxCol) final(id int) types.Value       { return c.best.Get(id) }
func (c *minMaxCol) shipBytes() int64 {
	return int64(c.best.Len()) + vecShipBytes(c.best) - int64(c.best.NullCount())
}
func (c *minMaxCol) memBytes() int64 { return vecMemBytes(c.best, c.strBytes) }

// distinctCol implements exact COUNT(DISTINCT x) with one KeyTable over
// (group id, value) for the whole column plus a per-group count, shipping
// the distinct value set from slices to the leader. Exact distinct does not
// decompose into constant-size partials — which is precisely why §4 argues
// for "distributed approximate equivalents for all non-linear exact
// operations".
type distinctCol struct {
	kt       *KeyTable
	gids     *types.Vector // per entry: the group it belongs to
	vals     *types.Vector // per entry: its value
	counts   []int64       // per group
	strBytes int64

	gid    *types.Vector // per-batch scratch
	skip   []bool
	hashes []uint64
	ids    []uint32
}

func (c *distinctCol) grow(n int) { c.counts = growTo(c.counts, n) }
func (c *distinctCol) update(ids []uint32, arg *types.Vector) {
	if c.gid == nil {
		c.gid = types.NewVector(types.Int64, len(ids))
	}
	c.gid.Ints, c.skip = c.gid.Ints[:0], c.skip[:0]
	for r, id := range ids {
		c.gid.Ints = append(c.gid.Ints, int64(id))
		c.skip = append(c.skip, id == NoID || arg.IsNull(r))
	}
	c.add(c.gid, arg, c.skip)
}

// appendOwned appends row r of src to dst and returns the string bytes dst
// gained. A string is copied first: the strings of a scanned batch share
// their block's arena (compress.Decode), so a group key or MIN/MAX value
// kept by reference would hold a whole decoded block for as long as the
// group lives, behind a MemTracker charged for the value's own bytes.
func appendOwned(dst, src *types.Vector, r int) int64 {
	dst.AppendFrom(src, r)
	if src.T != types.String {
		return 0
	}
	last := &dst.Strs[len(dst.Strs)-1]
	*last = strings.Clone(*last)
	return int64(len(*last))
}

// add inserts the (group, value) pairs not seen before, rows in skip left
// out.
func (c *distinctCol) add(gid, val *types.Vector, skip []bool) {
	vecs := [2]*types.Vector{gid, val}
	c.hashes = hashKeys(vecs[:], len(gid.Ints), c.hashes)
	next := uint32(c.kt.Len())
	c.ids = c.kt.FindOrInsert(vecs[:], c.hashes, skip, c.ids)
	if c.vals == nil {
		c.vals = types.NewVector(val.T, 0)
	}
	for r, id := range c.ids {
		if id != next {
			continue
		}
		next++
		c.counts[gid.Ints[r]]++
		c.gids.Ints = append(c.gids.Ints, gid.Ints[r])
		c.strBytes += appendOwned(c.vals, val, r)
	}
}
func (c *distinctCol) merge(o aggCol, remap []uint32) {
	oc := o.(*distinctCol)
	if oc.kt.Len() == 0 {
		return
	}
	gid := types.NewVector(types.Int64, oc.kt.Len())
	for _, g := range oc.gids.Ints {
		gid.Ints = append(gid.Ints, int64(remap[g]))
	}
	c.add(gid, oc.vals, nil)
}
func (c *distinctCol) final(id int) types.Value { return types.NewInt(c.counts[id]) }

// shipBytes grows with the value set: a count per group plus every
// distinct value's key encoding (10 bytes + string payload) and length.
func (c *distinctCol) shipBytes() int64 {
	return 8*int64(len(c.counts)) + 14*int64(c.kt.Len()) + c.strBytes
}
func (c *distinctCol) memBytes() int64 {
	n := c.kt.Bytes() + 8*int64(cap(c.counts)) + vecMemBytes(c.gids, 0)
	if c.vals != nil {
		n += vecMemBytes(c.vals, c.strBytes)
	}
	return n
}

// hllCol implements APPROXIMATE COUNT(DISTINCT x) with one constant-size
// mergeable sketch per group, fed the value's KeyEncoder bytes.
type hllCol struct {
	sks []*hll.Sketch
	buf []byte
}

func (c *hllCol) grow(n int) {
	for len(c.sks) < n {
		c.sks = append(c.sks, hll.New())
	}
}
func (c *hllCol) update(ids []uint32, arg *types.Vector) {
	for r, id := range ids {
		if id != NoID && !arg.IsNull(r) {
			c.buf = appendKeyAt(c.buf[:0], arg, r)
			c.sks[id].AddBytes(c.buf)
		}
	}
}
func (c *hllCol) merge(o aggCol, remap []uint32) {
	for i, sk := range o.(*hllCol).sks {
		c.sks[remap[i]].Merge(sk)
	}
}
func (c *hllCol) final(id int) types.Value { return types.NewInt(c.sks[id].Estimate()) }
func (c *hllCol) shipBytes() int64 {
	if len(c.sks) == 0 {
		return 0
	}
	return int64(len(c.sks)) * c.sks[0].ByteSize()
}
func (c *hllCol) memBytes() int64 { return c.shipBytes() + 8*int64(cap(c.sks)) }

// GroupTable is a hash-aggregation operator usable as both the partial
// (slice) and final (leader) phase. A KeyTable numbers the grouping keys in
// first-seen order; the keys themselves and every aggregate's accumulators
// sit in columns indexed by that id.
type GroupTable struct {
	mode     Mode
	specs    []plan.AggSpec
	groupEvs []*Evaluator
	argEvs   []*Evaluator // aligned with specs; nil for COUNT(*)

	kt          *KeyTable
	keys        []*types.Vector // group key columns, typed on first insert
	keyStrBytes int64
	cols        []aggCol // aligned with specs

	keyVecs, argVecs []*types.Vector // per-batch scratch
	hashes           []uint64
	ids              []uint32

	mc      *MemContext // nil → ungoverned
	charged int64
	spill   *aggSpill
	depth   int // recursion depth when replaying a spilled partition
	// sf is the aggregation's scratch file: opened by the table that spills
	// first, shared by the shadows that replay its partitions (and re-split
	// them into it), given back by the depth-0 table.
	sf *scratchFile
}

// aggSpill holds the partitions of a spilled aggregation. Once the
// table overflows its grant, rows for keys not already resident are
// hash-partitioned to disk in raw input layout and re-aggregated
// partition by partition at drain time (partition-and-restart). Rows for
// resident keys keep updating in place, so every group still sees its
// rows in arrival order — the output is bit-identical to the in-memory
// plan at any budget.
type aggSpill struct {
	parts []*frames
	sels  [][]int // scatter scratch: the current batch's rows, by partition
}

// SetMemory attaches the table to the query's memory governance. Must be
// called before Consume.
func (g *GroupTable) SetMemory(mc *MemContext) { g.mc = mc }

// Spilled reports whether any input rows were partitioned to disk.
func (g *GroupTable) Spilled() bool { return g.spill != nil }

// ReleaseMem returns every byte the table still has charged, and its
// scratch file if a drain has not already.
func (g *GroupTable) ReleaseMem() {
	g.mc.release()
	g.charged = 0
	if g.depth == 0 {
		g.sf.Close()
	}
}

// NewGroupTable prepares a hash aggregation.
func NewGroupTable(mode Mode, groupBy []plan.Expr, specs []plan.AggSpec) (*GroupTable, error) {
	g := &GroupTable{mode: mode, specs: specs}
	args := make([]plan.Expr, len(specs)) // nil for COUNT(*)
	for i, spec := range specs {
		args[i] = spec.Arg
	}
	var err error
	if g.groupEvs, err = newEvaluators(mode, groupBy); err != nil {
		return nil, err
	}
	if g.argEvs, err = newEvaluators(mode, args); err != nil {
		return nil, err
	}
	g.reset()
	return g, nil
}

// reset gives the table empty group storage.
func (g *GroupTable) reset() {
	g.kt = NewKeyTable()
	g.keys = make([]*types.Vector, len(g.groupEvs))
	g.cols = make([]aggCol, len(g.specs))
	for i, spec := range g.specs {
		g.cols[i] = newAggCol(spec)
	}
}

// Consume folds one batch of input rows. Table growth is charged against
// the query grant; the batch that would exceed it switches the table into
// spill mode, where rows for not-yet-resident keys are partitioned to
// scratch files instead of growing the hash table.
func (g *GroupTable) Consume(b *Batch) (err error) {
	if b.N == 0 {
		return nil
	}
	if g.keyVecs, err = evalKeys(g.groupEvs, b, g.keyVecs); err != nil {
		return err
	}
	if g.argVecs, err = evalKeys(g.argEvs, b, g.argVecs); err != nil {
		return err
	}
	g.hashes = hashKeys(g.keyVecs, b.N, g.hashes)
	if g.spill == nil {
		g.insert(g.keyVecs, g.hashes)
	} else {
		// Keys new after the overflow: defer their rows to a partition, by
		// the hash already computed.
		g.ids = g.kt.Find(g.keyVecs, g.hashes, nil, g.ids)
		sels := g.spill.sels
		for r, id := range g.ids {
			if id == NoID {
				p := spillPart(g.hashes[r], g.depth)
				sels[p] = append(sels[p], r)
			}
		}
		if err := scatterRows(g.spill.parts, sels, b); err != nil {
			return err
		}
	}
	for i, c := range g.cols {
		c.update(g.ids, g.argVecs[i])
	}
	if g.settle(false) {
		return nil
	}
	// Over the grant: resident groups stay (forced charge, they keep
	// absorbing their keys' rows in place), future new keys spill.
	if err := g.enterSpill(); err != nil {
		return err
	}
	g.settle(true)
	return nil
}

// insert finds or creates the group of every row of keyVecs, leaving the
// ids in g.ids. A new group's key is copied into the key columns and every
// aggregate column grows to cover it.
func (g *GroupTable) insert(keyVecs []*types.Vector, hashes []uint64) {
	next := uint32(g.kt.Len())
	g.ids = g.kt.FindOrInsert(keyVecs, hashes, nil, g.ids)
	if g.kt.Len() == int(next) {
		return
	}
	for r, id := range g.ids {
		if id != next {
			continue
		}
		next++
		for c, v := range keyVecs {
			if g.keys[c] == nil {
				g.keys[c] = types.NewVector(v.T, 0)
			}
			g.keyStrBytes += appendOwned(g.keys[c], v, r)
		}
	}
	for _, c := range g.cols {
		c.grow(g.kt.Len())
	}
}

// settle charges the table's growth since the last call (or returns its
// shrinkage). Without force it reports false, charging nothing, when the
// grant cannot take the growth.
func (g *GroupTable) settle(force bool) bool {
	if g.mc == nil || g.mc.T == nil {
		return true
	}
	now := g.kt.Bytes() + g.keyStrBytes
	for _, v := range g.keys {
		if v != nil {
			now += vecMemBytes(v, 0)
		}
	}
	for _, c := range g.cols {
		now += c.memBytes()
	}
	delta := now - g.charged
	switch {
	case delta < 0:
		g.mc.shrink(-delta)
	case force:
		g.mc.grow(delta)
	case !g.mc.tryGrow(delta):
		return false
	}
	g.charged = now
	return true
}

// enterSpill opens the partitions. At the recursion-depth cap (or
// without a scratch dir) it leaves spill mode off: the table keeps
// growing with forced charges instead.
func (g *GroupTable) enterSpill() error {
	if g.spill != nil || g.mc == nil || g.mc.Dir == nil || g.depth >= maxSpillDepth {
		return nil
	}
	if g.sf == nil {
		sf, err := g.mc.Dir.create("agg", g.mc.spillStats())
		if err != nil {
			return err
		}
		g.sf = sf
	}
	g.mc.addPartitions(spillFanout)
	g.spill = &aggSpill{parts: newPartitions(g.sf), sels: make([][]int, spillFanout)}
	return nil
}

// shadow builds the sub-table that re-aggregates one spilled partition,
// one level deeper so a still-too-big partition re-splits on a fresh
// hash.
func (g *GroupTable) shadow() *GroupTable {
	sub := &GroupTable{
		mode:     g.mode,
		specs:    g.specs,
		groupEvs: g.groupEvs,
		argEvs:   g.argEvs,
		mc:       g.mc,
		depth:    g.depth + 1,
		sf:       g.sf,
	}
	sub.reset()
	return sub
}

// drain visits every group exactly once, a table at a time: g with its
// resident groups in first-seen order, then each spilled partition
// re-aggregated into a shadow sub-table. A table can be drained once; the
// depth-0 table's drain ends by giving the scratch file back.
func (g *GroupTable) drain(ctx context.Context, fn func(t *GroupTable) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := fn(g); err != nil {
		return err
	}
	if g.spill == nil {
		return nil
	}
	for _, part := range g.spill.parts {
		if part.rows == 0 {
			continue
		}
		sub := g.shadow()
		if err := drainFrames(ctx, part, sub.Consume); err != nil {
			return err
		}
		if err := sub.drain(ctx, fn); err != nil {
			return err
		}
		g.mc.shrink(sub.charged)
		sub.charged = 0
	}
	if g.depth == 0 {
		g.sf.Close()
	}
	return nil
}

// Merge folds another table's groups into g (the leader's final phase).
func (g *GroupTable) Merge(o *GroupTable) error {
	return g.MergeCtx(context.Background(), o)
}

// MergeCtx merges with cancellation, draining o's spilled partitions if
// it overflowed. Adopted groups are charged to g's tracker (forced: the
// leader merge works over shipped states, which cannot re-spill).
func (g *GroupTable) MergeCtx(ctx context.Context, o *GroupTable) error {
	return o.drain(ctx, g.adopt)
}

// adopt folds t's resident groups into g.
func (g *GroupTable) adopt(t *GroupTable) error {
	if n := t.NumGroups(); n > 0 {
		g.mergeStates(t, g.adoptKeys(t, 0, n))
	}
	return nil
}

// adoptKeys inserts src's resident group keys [lo, hi), in order, and
// returns the id each has in g (valid until g's next insert). src's stored
// hashes are reused: both tables hash the same key columns.
func (g *GroupTable) adoptKeys(src *GroupTable, lo, hi int) []uint32 {
	g.keyVecs = g.keyVecs[:0]
	for _, v := range src.keys {
		g.keyVecs = append(g.keyVecs, v.Slice(lo, hi))
	}
	g.insert(g.keyVecs, src.kt.Hashes()[lo:hi])
	return g.ids
}

// mergeStates folds src's accumulators into g's, src's group i into group
// remap[i], and charges what g grew by.
func (g *GroupTable) mergeStates(src *GroupTable, remap []uint32) {
	for i, c := range g.cols {
		c.merge(src.cols[i], remap)
	}
	g.settle(true)
}

// NumGroups returns the number of distinct grouping keys resident.
func (g *GroupTable) NumGroups() int { return g.kt.Len() }

// StateBytes is the encoded size of the table's resident partial state —
// group keys plus accumulators — i.e. what a slice ships to the leader for
// them. A spilled table's partitions ship as the states they re-aggregate
// into, counted as the drain visits them.
func (g *GroupTable) StateBytes() int64 {
	var n int64
	for _, v := range g.keys {
		if v != nil {
			n += vecShipBytes(v)
		}
	}
	for _, c := range g.cols {
		n += c.shipBytes()
	}
	return n
}

// Result materializes the aggregate layout [group keys..., agg results...].
// A scalar aggregation (no GROUP BY) always yields exactly one row, even
// over empty input.
func (g *GroupTable) Result() (*Batch, error) {
	return g.ResultCtx(context.Background())
}

// ResultCtx materializes the result, draining spilled partitions.
func (g *GroupTable) ResultCtx(ctx context.Context) (*Batch, error) {
	if len(g.groupEvs) == 0 && g.NumGroups() == 0 && g.spill == nil {
		g.insert(nil, make([]uint64, 1))
	}
	nk := len(g.groupEvs)
	out := NewBatch(nk + len(g.specs))
	for c := range out.Cols {
		out.Cols[c] = types.NewVector(g.colType(c), g.NumGroups())
	}
	err := g.drain(ctx, func(t *GroupTable) error {
		n := t.NumGroups()
		for id := 0; id < n; id++ {
			for c, v := range t.keys {
				out.Cols[c].AppendFrom(v, id)
			}
			for i, col := range t.cols {
				out.Cols[nk+i].Append(col.final(id))
			}
		}
		out.N += n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (g *GroupTable) colType(c int) types.Type {
	if c < len(g.groupEvs) {
		return g.groupEvs[c].t
	}
	return g.specs[c-len(g.groupEvs)].T
}
