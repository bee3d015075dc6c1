package exec

import (
	"context"

	"redshift/internal/plan"
)

// AggSink is a slice's partial aggregation. Every worker folds its batches
// into a private GroupTable, remembering the morsel sequence that first
// created each group; Finish adopts the groups into one table in ascending
// first-seen order, which is exactly the order a single table fed the
// whole stream would hold. With one worker its table IS the slice result
// and nothing is merged.
type AggSink struct {
	newTable func() (*GroupTable, error)
	workers  []*workerAgg
	table    *GroupTable
}

// workerAgg is one worker's table plus, per resident group id, the sequence
// that created it.
type workerAgg struct {
	gt       *GroupTable
	firstSeq []int64
}

// NewAggSink prepares a partial aggregation; newTable builds one governed
// GroupTable (one per worker, plus the merge target when there are several).
func NewAggSink(newTable func() (*GroupTable, error)) *AggSink {
	return &AggSink{newTable: newTable}
}

func (s *AggSink) Open(n int) error {
	for w := 0; w < n; w++ {
		gt, err := s.newTable()
		if err != nil {
			return err
		}
		s.workers = append(s.workers, &workerAgg{gt: gt})
	}
	return nil
}

// Consume folds one batch. Once a table spills no new resident groups
// appear, so firstSeq stays aligned with the group ids.
func (s *AggSink) Consume(w int, seq int64, b *Batch) error {
	if b == nil {
		return nil
	}
	wa := s.workers[w]
	err := wa.gt.Consume(b)
	// Consume copied values into accumulator states; the batch is spent.
	PutBatch(b)
	if len(s.workers) > 1 {
		for len(wa.firstSeq) < wa.gt.NumGroups() {
			wa.firstSeq = append(wa.firstSeq, seq)
		}
	}
	return err
}

// Finish merges the worker tables by first-seen sequence. Two workers never
// share a sequence and within a worker creation order is already (seq,
// in-morsel row) order, so a k-way merge over the workers' group lists,
// re-inserting each run of keys through the destination table, reproduces
// the one-table order; the accumulators then fold in worker by worker. When
// a worker spilled, tables merge in worker order via drain instead: group
// ORDER can then differ, group contents never do — and every query whose
// output order is observable sorts downstream anyway.
func (s *AggSink) Finish(ctx context.Context) error {
	if len(s.workers) == 1 {
		s.table = s.workers[0].gt
		return nil
	}
	dst, err := s.newTable()
	if err != nil {
		return err
	}
	s.table = dst
	for _, w := range s.workers {
		if w.gt.Spilled() {
			for _, w := range s.workers {
				if err := dst.MergeCtx(ctx, w.gt); err != nil {
					return err
				}
			}
			return nil
		}
	}
	remaps := make([][]uint32, len(s.workers))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		best := -1
		var bestSeq int64
		for i, w := range s.workers {
			if at := len(remaps[i]); at < len(w.firstSeq) && (best < 0 || w.firstSeq[at] < bestSeq) {
				best, bestSeq = i, w.firstSeq[at]
			}
		}
		if best < 0 {
			break
		}
		// One run: every group the winning morsel created.
		w := s.workers[best]
		lo := len(remaps[best])
		hi := lo + 1
		for hi < len(w.firstSeq) && w.firstSeq[hi] == bestSeq {
			hi++
		}
		remaps[best] = append(remaps[best], dst.adoptKeys(w.gt, lo, hi)...)
	}
	for i, w := range s.workers {
		dst.mergeStates(w.gt, remaps[i])
	}
	return nil
}

// Close releases every table but the result, which the leader merge owns.
func (s *AggSink) Close() {
	for _, w := range s.workers {
		if w.gt != s.table {
			w.gt.ReleaseMem()
		}
	}
}

// Table is the slice's partial result, valid after Finish.
func (s *AggSink) Table() *GroupTable { return s.table }

// TopNSink is the slice-local ORDER BY + LIMIT pushdown: every worker feeds
// an ExternalSorter that keeps only the limit best rows it has seen (all of
// them, spilling runs when over the grant, without a limit), and Finish
// emits exactly one batch, possibly empty. With several workers each sorter
// is tagged with its batches' morsel sequences and orders by (keys..., seq):
// that is the total order the one-worker stable sort realizes, so cutting
// each worker's candidates at the limit is exact and re-sorting their union
// reproduces the one-worker result, ties included.
type TopNSink struct {
	keys  []plan.OrderKey
	limit int64
	width int
	mem   func() *MemContext
	emit  func(*Batch) error
	st    *OpStats

	sorters []*ExternalSorter
	mcs     []*MemContext
}

// NewTopNSink prepares a top-N over a stream of width columns. mem hands
// each worker's sorter its memory context (may return nil); st (may be nil)
// counts the emitted batch; emit takes ownership of it.
func NewTopNSink(keys []plan.OrderKey, limit int64, width int, mem func() *MemContext, st *OpStats, emit func(*Batch) error) *TopNSink {
	return &TopNSink{keys: keys, limit: limit, width: width, mem: mem, st: st, emit: emit}
}

func (s *TopNSink) Open(n int) error {
	for w := 0; w < n; w++ {
		mc := s.mem()
		s.mcs = append(s.mcs, mc)
		s.sorters = append(s.sorters, NewExternalSorter(s.keys, s.width, s.limit, n > 1, mc))
	}
	return nil
}

func (s *TopNSink) Consume(w int, seq int64, b *Batch) error {
	if b == nil {
		return nil
	}
	err := s.sorters[w].Add(b, seq)
	// Add copied the rows it keeps; the streamed batch is spent.
	PutBatch(b)
	return err
}

func (s *TopNSink) Finish(ctx context.Context) error {
	var out *Batch
	for _, sorter := range s.sorters {
		part, err := collectSorted(ctx, sorter, s.limit)
		sorter.Release()
		if err != nil {
			return err
		}
		if out == nil {
			out = part
			continue
		}
		if part.N > 0 {
			err = out.Concat(part)
		}
		PutBatch(part)
		if err != nil {
			return err
		}
	}
	if first := s.sorters[0]; first.tagged {
		out = sortedTop(out, first.keys, s.limit)
		out.Cols = out.Cols[:s.width]
	}
	s.st.count(out)
	return s.emit(out)
}

func (s *TopNSink) Close() {
	for _, mc := range s.mcs {
		mc.release()
	}
}

// Collect returns the emit of an OrderedSink that materializes its input in
// out, cut at limit rows (negative = all of them): the leader's result when
// no ORDER BY asks for a TopNSink. mc (may be nil) is charged for what out
// retains — forced, because the result has to exist whatever the grant.
func Collect(out *Batch, limit int64, mc *MemContext) func(*Batch) error {
	return func(b *Batch) error {
		keep := b
		if limit >= 0 {
			if int64(out.N) >= limit {
				PutBatch(b)
				return nil
			}
			keep = TopN(b, limit-int64(out.N))
		}
		mc.grow(keep.ByteSize())
		err := out.Concat(keep)
		if keep != b {
			PutBatch(keep)
		}
		PutBatch(b)
		return err
	}
}

// collectSorted drains a sorter's merged stream into one batch, stopping
// once limit rows (if any) have been gathered.
func collectSorted(ctx context.Context, sorter *ExternalSorter, limit int64) (*Batch, error) {
	stream, err := sorter.Stream(ctx)
	if err != nil {
		return nil, err
	}
	out := NewBatch(sorter.width)
	for {
		if limit >= 0 && int64(out.N) >= limit {
			break
		}
		b, err := stream.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		err = out.Concat(b)
		PutBatch(b)
		if err != nil {
			return nil, err
		}
	}
	return TopN(out, limit), nil
}

// Deduper drops rows it has already seen, first occurrence winning: the
// one implementation behind the slice-local DISTINCT (per-worker pre-sieve
// and the ordered final pass alike) and the leader's DISTINCT. The seen-set
// is a KeyTable over all of the batch's columns.
type Deduper struct {
	seen    *KeyTable
	hashes  []uint64
	ids     []uint32
	mc      *MemContext
	charged int64
}

// NewDeduper returns an empty seen-set; mc (may be nil) is charged for
// what the set grows by.
func NewDeduper(mc *MemContext) *Deduper {
	return &Deduper{seen: NewKeyTable(), mc: mc}
}

// Select returns the positions of b's rows not seen before, in order.
func (d *Deduper) Select(b *Batch) []int {
	next := uint32(d.seen.Len())
	d.hashes = d.seen.Hash(b.Cols, b.N, d.hashes)
	d.ids = d.seen.FindOrInsert(b.Cols, d.hashes, nil, d.ids)
	var sel []int
	for r, id := range d.ids {
		if id == next { // a key's first occurrence takes the next id
			next++
			sel = append(sel, r)
		}
	}
	d.mc.grow(d.seen.Bytes() - d.charged)
	d.charged = d.seen.Bytes()
	return sel
}

// Apply is Select as a StageFn: b itself when every row is new, otherwise a
// gathered copy of the new ones.
func (d *Deduper) Apply(b *Batch) (*Batch, error) {
	if sel := d.Select(b); len(sel) < b.N {
		return b.Gather(sel), nil
	}
	return b, nil
}

// Emit returns the ordered tail of a slice-local DISTINCT: each batch is
// deduplicated against everything emitted before it, and what survives is
// counted into st (may be nil) and passed on to next. It takes ownership
// of its batch, as an OrderedSink's emit must.
func (d *Deduper) Emit(st *OpStats, next func(*Batch) error) func(*Batch) error {
	return func(b *Batch) error {
		sel := d.Select(b)
		switch {
		case len(sel) == 0:
			PutBatch(b)
			return nil
		case len(sel) < b.N:
			kept := b.Gather(sel)
			PutBatch(b)
			b = kept
		}
		st.count(b)
		return next(b)
	}
}
