package exec

import (
	"context"

	"redshift/internal/plan"
)

// ExternalSorter is the budget-aware ORDER BY backend: it accumulates
// input in memory while the query's grant allows, and when a batch no
// longer fits it sorts the accumulated rows into a run, spills the run to
// the scratch dir, and keeps going. Stream() then k-way merges every run
// (plus the final in-memory run) back in sorted order.
//
// Determinism: runs are written in input order, the resident run merges
// last, each run is stable-sorted, and the merge breaks ties toward the
// lowest stream index — so the global output is exactly the stable sort
// of the input, byte-identical to the in-memory path at any budget.
type ExternalSorter struct {
	keys  []plan.OrderKey
	width int
	mc    *MemContext

	cur     *Batch
	charged int64
	runs    []*spillFile
}

// NewExternalSorter builds a sorter over the given output layout width.
// mc may be nil (pure in-memory sort).
func NewExternalSorter(keys []plan.OrderKey, width int, mc *MemContext) *ExternalSorter {
	return &ExternalSorter{keys: keys, width: width, mc: mc}
}

// Add appends a batch's rows to the sorter. The caller keeps ownership
// of b.
func (s *ExternalSorter) Add(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	sz := b.ByteSize()
	if !s.mc.tryGrow(sz) {
		if err := s.flushRun(); err != nil {
			return err
		}
		// The incoming batch must reside somewhere; after flushing the run
		// this is the new (small) resident set, charged unconditionally.
		s.mc.grow(sz)
	}
	s.charged += sz
	if s.cur == nil {
		s.cur = NewBatch(s.width)
	}
	return s.cur.Concat(b)
}

// Spilled reports whether any run went to disk.
func (s *ExternalSorter) Spilled() bool { return len(s.runs) > 0 }

// Release drops the resident run and returns its memory charge. Call
// only after the Stream() output has been fully drained — the resident
// run's batches are referenced by the merge until then.
func (s *ExternalSorter) Release() {
	s.mc.shrink(s.charged)
	s.charged = 0
	s.cur = nil
}

// flushRun sorts the resident rows and writes them out as one run.
func (s *ExternalSorter) flushRun() error {
	if s.cur == nil || s.cur.N == 0 {
		return nil
	}
	s.cur = SortBatch(s.cur, s.keys)
	sf, err := s.mc.Dir.create("sort-run", s.mc.spillStats())
	if err != nil {
		return err
	}
	if err := writeBatchChunks(sf, s.cur); err != nil {
		return err
	}
	s.runs = append(s.runs, sf)
	s.mc.addRun()
	s.cur = nil
	s.mc.shrink(s.charged)
	s.charged = 0
	return nil
}

// writeBatchChunks frames a large batch in BatchSize pieces so readers
// never materialize more than one batch per frame.
func writeBatchChunks(sf *spillFile, b *Batch) error {
	if b.N <= BatchSize {
		return sf.WriteBatch(b)
	}
	sel := make([]int, 0, BatchSize)
	for off := 0; off < b.N; off += BatchSize {
		end := off + BatchSize
		if end > b.N {
			end = b.N
		}
		sel = sel[:0]
		for i := off; i < end; i++ {
			sel = append(sel, i)
		}
		chunk := b.Gather(sel)
		err := sf.WriteBatch(chunk)
		PutBatch(chunk)
		if err != nil {
			return err
		}
	}
	return nil
}

// Stream returns the fully sorted output as a batch stream. The sorter
// must not receive further Adds.
func (s *ExternalSorter) Stream(ctx context.Context) (batchStream, error) {
	if s.cur != nil && s.cur.N > 0 {
		s.cur = SortBatch(s.cur, s.keys)
	}
	if len(s.runs) == 0 {
		if s.cur == nil {
			return &memStream{}, nil
		}
		return &memStream{batches: []*Batch{s.cur}}, nil
	}
	streams := make([]batchStream, 0, len(s.runs)+1)
	for _, run := range s.runs {
		r, err := run.Reader()
		if err != nil {
			return nil, err
		}
		streams = append(streams, r)
	}
	if s.cur != nil && s.cur.N > 0 {
		streams = append(streams, &memStream{batches: []*Batch{s.cur}})
	}
	return newMergeStream(streams, s.keys), nil
}
