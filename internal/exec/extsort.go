package exec

import (
	"context"

	"redshift/internal/plan"
	"redshift/internal/types"
)

// ExternalSorter is the budget-aware ORDER BY backend: it accumulates
// input in memory while the query's grant allows, and when a batch no
// longer fits it sorts the accumulated rows into a run, spills the run to
// its scratch file, and keeps going. Stream() then k-way merges every run
// (plus the final in-memory run) back in sorted order.
//
// Determinism: runs are written in input order, the resident run merges
// last, each run is stable-sorted, and the merge breaks ties toward the
// lowest stream index — so the global output is exactly the stable sort
// of the input, byte-identical to the in-memory path at any budget.
//
// With a limit it keeps only what can still be among the first limit rows
// of that order. Once it has seen that many rows it remembers the last of
// them, the cut; a row that does not sort strictly before the cut arrived
// after limit rows that precede it — an equal one loses the tie to all of
// them — and is dropped on arrival. Survivors are appended, and whenever
// the buffer passes 2×limit rows it is cut back to the limit best, which
// also tightens the cut. Its output, cut at the limit, is the full sort's,
// ties included.
type ExternalSorter struct {
	keys   []plan.OrderKey // when tagged, the last one orders by the tag column
	width  int             // of the rows it holds, tag column included
	limit  int64           // < 0: none
	tagged bool
	mc     *MemContext

	cur     *Batch
	charged int64
	cut     *Batch // one row
	sel     []int  // survivors scratch
	sf      *scratchFile
	runs    []*frames
}

// NewExternalSorter builds a sorter of rows width columns wide, keeping the
// first limit rows of the order (all of them when limit is negative). A
// tagged sorter orders rows equal under keys by the tag their batch was
// added with, before arrival order; it holds and streams the tag as one
// more, trailing Int64 column. mc may be nil (pure in-memory sort).
func NewExternalSorter(keys []plan.OrderKey, width int, limit int64, tagged bool, mc *MemContext) *ExternalSorter {
	if tagged {
		keys = append(append([]plan.OrderKey{}, keys...), plan.OrderKey{Index: width})
		width++
	}
	return &ExternalSorter{keys: keys, width: width, limit: limit, tagged: tagged, mc: mc}
}

// Add appends a batch's rows to the sorter; tag is the batch's when the
// sorter is tagged. The caller keeps ownership of b.
func (s *ExternalSorter) Add(b *Batch, tag int64) error {
	if b == nil || b.N == 0 || s.limit == 0 {
		return nil
	}
	in := b
	if s.cut != nil {
		sel := s.survivors(b, tag)
		if len(sel) == 0 {
			return nil
		}
		if len(sel) < b.N {
			in = b.Gather(sel)
			defer PutBatch(in)
		}
	}
	if s.tagged {
		tags := make([]int64, in.N)
		for i := range tags {
			tags[i] = tag
		}
		cols := append(append(make([]*types.Vector, 0, s.width), in.Cols...), &types.Vector{T: types.Int64, Ints: tags})
		in = &Batch{Cols: cols, N: in.N}
	}
	sz := in.ByteSize()
	fits := s.mc.tryGrow(sz)
	if !fits && s.limit >= 0 {
		// Under a limit, first give back what can no longer make the cut,
		// resident and incoming.
		s.compact()
		if int64(in.N) > s.limit {
			in = sortedTop(in, s.keys, s.limit)
			defer PutBatch(in)
			sz = in.ByteSize()
		}
		fits = s.mc.tryGrow(sz)
	}
	if !fits {
		// A limited sorter's remainder shorter than one frame is not worth a
		// run: it stays. Either way the incoming rows must reside somewhere;
		// they are the new (small) resident set, charged unconditionally.
		if s.limit < 0 || s.cur != nil && s.cur.N >= BatchSize {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
		s.mc.grow(sz)
	}
	s.charged += sz
	if s.cur == nil {
		s.cur = NewBatch(s.width)
	}
	if err := s.cur.Concat(in); err != nil {
		return err
	}
	// More than 2×limit rows, in steps no limit can overflow.
	if n := int64(s.cur.N); s.limit >= 0 && n > s.limit && n-s.limit > s.limit {
		s.compact()
	}
	return nil
}

// survivors returns the positions of b's rows that sort strictly before the
// cut under the sorter's full key.
func (s *ExternalSorter) survivors(b *Batch, tag int64) []int {
	keys := s.keys
	if s.tagged {
		keys = keys[:len(keys)-1]
	}
	in, cut := bindKeys(b, keys), bindKeys(s.cut, keys)
	tagWins := s.tagged && tag < s.cut.Cols[s.width-1].Ints[0]
	sel := s.sel[:0]
	for r := 0; r < b.N; r++ {
		if c := compareKeys(in, r, cut, 0); c < 0 || c == 0 && tagWins {
			sel = append(sel, r)
		}
	}
	s.sel = sel
	return sel
}

// compact, under a limit, sorts the resident rows and drops those past the
// limit, settling the charge for what is left.
func (s *ExternalSorter) compact() {
	if s.limit < 0 || s.cur == nil || int64(s.cur.N) <= s.limit {
		return
	}
	s.sortResident()
	now := s.cur.ByteSize()
	s.mc.shrink(s.charged - now)
	s.charged = now
}

// sortResident sorts the resident rows, cuts them at the limit and, when
// they reach it, notes the last as the cut.
func (s *ExternalSorter) sortResident() {
	s.cur = sortedTop(s.cur, s.keys, s.limit)
	if s.limit > 0 && int64(s.cur.N) == s.limit {
		s.cut = s.cur.Gather([]int{s.cur.N - 1})
	}
}

// Spilled reports whether any run went to disk.
func (s *ExternalSorter) Spilled() bool { return len(s.runs) > 0 }

// Release drops the resident run, returns its memory charge and gives the
// scratch file back. Call only after the Stream() output has been fully
// drained — the merge reads the resident run's batches and the file until
// then.
func (s *ExternalSorter) Release() {
	s.mc.shrink(s.charged)
	s.charged = 0
	s.cur = nil
	s.sf.Close()
}

// flushRun sorts the resident rows and writes them out as one run.
func (s *ExternalSorter) flushRun() error {
	if s.cur == nil || s.cur.N == 0 {
		return nil
	}
	s.sortResident()
	if s.sf == nil {
		sf, err := s.mc.Dir.create("sort", s.mc.spillStats())
		if err != nil {
			return err
		}
		s.sf = sf
	}
	run := &frames{sf: s.sf}
	if err := run.appendBatch(s.cur); err != nil {
		return err
	}
	if err := run.flush(); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.mc.addRun()
	s.cur = nil
	s.mc.shrink(s.charged)
	s.charged = 0
	return nil
}

// Stream returns the fully sorted output as a batch stream. The sorter
// must not receive further Adds.
func (s *ExternalSorter) Stream(ctx context.Context) (batchStream, error) {
	if s.cur != nil && s.cur.N > 0 {
		s.sortResident()
	}
	if len(s.runs) == 0 {
		if s.cur == nil {
			return &memStream{}, nil
		}
		return &memStream{batches: []*Batch{s.cur}}, nil
	}
	streams := make([]batchStream, 0, len(s.runs)+1)
	for _, run := range s.runs {
		r, err := run.reader()
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
