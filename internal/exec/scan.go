package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// BlockFetcher resolves a non-resident block's payload — the page-fault
// path of streaming restore (§2.3: "'page-faulting' in blocks when
// unavailable on local storage"). It reports how many backoff retries
// the fail-over spent, feeding the per-scan `retries` counter.
type BlockFetcher func(ctx context.Context, b *storage.Block) (retries int, err error)

// ScanStats counts block skipping effectiveness, the quantity behind the
// zone-map ablation (A2), plus the buffer-cache and decode accounting.
type ScanStats struct {
	// BlocksRead counts blocks materialized into batches, whether decoded
	// or served from the buffer cache.
	BlocksRead    atomic.Int64
	BlocksSkipped atomic.Int64
	RowsRead      atomic.Int64
	RowsEmitted   atomic.Int64
	PageFaults    atomic.Int64
	// BytesRead is the compressed on-disk size of the blocks actually
	// decoded; cache hits and predicate-skipped columns add nothing.
	BytesRead atomic.Int64
	// CacheHits/CacheMisses count buffer-cache lookups by this scan.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// DecodeNs is the time spent decoding (and page-faulting) the blocks
	// the cache did not hold — per block, the cost the cache is told.
	DecodeNs atomic.Int64
	// Retries counts backoff retries the fail-over read path spent;
	// FailoverReads counts blocks ultimately served by a non-primary
	// replica (secondary or S3). Both surface in EXPLAIN ANALYZE.
	Retries       atomic.Int64
	FailoverReads atomic.Int64
}

// Scanner reads one table's segments on one slice: zone-map pruning
// first, then predicate-first late materialization — decode only the
// filter's input columns, evaluate to a selection (in a sorted block, over
// the run that bounds on its leading sort key leave standing), and decode
// the rest only when rows survive. A Scanner instance is driven by one
// goroutine, so its scratch buffers need no locking.
type Scanner struct {
	width      int
	needCols   []int // filter columns first, then the rest
	filterCols []int // the filter's input columns (prefix of needCols)
	restCols   []int // needCols minus filterCols
	filterOnly []int // filter columns nothing past the scan reads
	ranges     []plan.ColRange
	sortKey    int // the leading compound sort column when ranges bound it, else -1
	filter     *Filter
	fetch      BlockFetcher
	stats      *ScanStats
	cache      *storage.BlockCache
	tableID    int64
	// epoch is the table's cache-invalidation epoch sampled at SetCache
	// time, before the caller resolves visible segments (storage.BlockCache).
	epoch uint64
	// inj fires the storage.read.primary site before each decode — an
	// injected error is treated as a local media failure and fails over
	// through fetch like a non-resident block.
	inj *faults.Injector

	selbuf []int // reusable selection buffer
}

// NewScanner prepares a scan. stats may be shared across slices; fetch may
// be nil when all blocks are resident.
func NewScanner(mode Mode, scan *plan.TableScan, fetch BlockFetcher, stats *ScanStats) (*Scanner, error) {
	filter, err := NewFilter(mode, scan.Filter)
	if err != nil {
		return nil, err
	}
	if stats == nil {
		stats = &ScanStats{}
	}
	s := &Scanner{
		width:      len(scan.Def.Columns),
		tableID:    scan.Def.ID,
		needCols:   scan.NeedCols,
		filterOnly: scan.FilterOnly,
		ranges:     scan.Ranges,
		sortKey:    -1,
		filter:     filter,
		fetch:      fetch,
		stats:      stats,
	}
	if d := scan.Def; d.SortStyle == catalog.SortCompound && len(d.SortKeyCols) > 0 &&
		slices.ContainsFunc(s.ranges, func(r plan.ColRange) bool { return r.Col == d.SortKeyCols[0] }) {
		s.sortKey = d.SortKeyCols[0]
	}
	// Split needCols into the filter's inputs and the rest. The binder
	// orders filter columns first, but recompute here so hand-built specs
	// (tests, tools) behave identically.
	if scan.Filter != nil {
		inFilter := map[int]bool{}
		plan.ColsUsed(scan.Filter, inFilter)
		for _, c := range s.needCols {
			if inFilter[c] {
				s.filterCols = append(s.filterCols, c)
			} else {
				s.restCols = append(s.restCols, c)
			}
		}
	} else {
		s.restCols = s.needCols
	}
	return s, nil
}

// SetCache attaches a decoded-block buffer cache (nil disables) and
// samples the table's invalidation epoch. Callers must attach the cache
// BEFORE resolving the snapshot's visible segments — that ordering is
// what makes the epoch fence sound.
func (s *Scanner) SetCache(c *storage.BlockCache) {
	s.cache = c
	s.epoch = c.Epoch(s.tableID)
}

// SetFaults attaches a fault injector to the primary read path (nil
// detaches).
func (s *Scanner) SetFaults(inj *faults.Injector) { s.inj = inj }

// Stats exposes the scan counters.
func (s *Scanner) Stats() *ScanStats { return s.stats }

// ScanSegment streams the surviving rows of one segment as table-local
// batches (nil vectors for unneeded columns).
func (s *Scanner) ScanSegment(ctx context.Context, seg *storage.Segment, emit func(*Batch) error) error {
	if seg.Schema.Len() != s.width {
		return fmt.Errorf("exec: segment width %d, scanner width %d", seg.Schema.Len(), s.width)
	}
	for bi := 0; bi < seg.NumBlocks(); bi++ {
		out, err := s.ScanBlock(ctx, seg, bi)
		if err != nil {
			return err
		}
		if out == nil {
			continue
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// ScanBlock reads one block row-group: zone-map pruning, then filter
// columns only, then — when rows survive — the remaining needed columns,
// compacted with a single gather that re-packs string survivors (see
// Batch.PackStrings). Returns nil when the block is pruned or no row survives —
// the unit of work one morsel is.
// Emitted batches come from the batch pool; the consumer owns them.
func (s *Scanner) ScanBlock(ctx context.Context, seg *storage.Segment, bi int) (*Batch, error) {
	if s.pruned(seg, bi) {
		s.stats.BlocksSkipped.Add(int64(len(s.needCols)))
		return nil, nil
	}
	// Column chains are row-aligned, so any column's block metadata gives
	// the row count — before anything is decoded.
	nrows := seg.Block(0, bi).Rows
	s.stats.RowsRead.Add(int64(nrows))

	// A row-count-only scan (COUNT(*) with no filter) is served entirely
	// from block metadata: no column is ever decoded.
	if len(s.needCols) == 0 {
		s.stats.RowsEmitted.Add(int64(nrows))
		b := GetBatch(s.width)
		b.N = nrows
		return b, nil
	}

	batch := GetBatch(s.width)
	batch.N = nrows
	for _, c := range s.filterCols {
		if err := s.materialize(ctx, seg, c, bi, batch); err != nil {
			PutBatch(batch)
			return nil, err
		}
	}

	// Evaluate the predicate over the filter columns alone — in a sorted
	// block, over the run its leading sort key's bounds leave standing.
	lo, hi := s.sortedRun(seg, batch)
	sel, all, err := s.filter.SelectRun(batch, lo, hi, s.selbuf[:0])
	if err != nil {
		PutBatch(batch)
		return nil, err
	}
	s.selbuf = sel[:0]
	if !all && len(sel) == 0 {
		// Nothing survives: the non-filter columns are never decoded.
		PutBatch(batch)
		return nil, nil
	}
	for _, c := range s.filterOnly {
		batch.Cols[c] = nil // read by the predicate alone: never gathered
	}

	for _, c := range s.restCols {
		if err := s.materialize(ctx, seg, c, bi, batch); err != nil {
			PutBatch(batch)
			return nil, err
		}
	}

	out := batch
	if !all {
		out = batch.Gather(sel)
		out.PackStrings()
		PutBatch(batch)
	}
	s.stats.RowsEmitted.Add(int64(out.N))
	if out.N == 0 {
		PutBatch(out)
		return nil, nil
	}
	return out, nil
}

// materialize installs column c of block bi into the batch, from the
// buffer cache when possible, decoding (and page-faulting) otherwise.
func (s *Scanner) materialize(ctx context.Context, seg *storage.Segment, c, bi int, batch *Batch) error {
	blk := seg.Block(c, bi)
	if v, ok := s.cache.Get(blk.ID, s.epoch); ok {
		// Hand out a capacity-clamped view: cached vectors are shared
		// across queries and must never be appended to in place.
		batch.Cols[c] = v.View()
		s.stats.BlocksRead.Add(1)
		s.stats.CacheHits.Add(1)
		return nil
	}
	if s.cache != nil {
		s.stats.CacheMisses.Add(1)
	}
	t0 := time.Now()
	v, err := s.decode(ctx, blk)
	if err != nil {
		return err
	}
	ns := time.Since(t0).Nanoseconds()
	s.stats.DecodeNs.Add(ns)
	s.stats.BlocksRead.Add(1)
	s.stats.BytesRead.Add(blk.ByteSize())
	if s.cache != nil {
		s.cache.PutCost(blk.ID, v, s.epoch, ns)
		v = v.View()
	}
	batch.Cols[c] = v
	return nil
}

// pruned reports whether every predicate range excludes block bi.
func (s *Scanner) pruned(seg *storage.Segment, bi int) bool {
	for _, r := range s.ranges {
		zone := seg.Block(r.Col, bi).Zone
		if !zone.MayContainRange(r.Lo, r.HasLo, r.Hi, r.HasHi) {
			return true
		}
	}
	return false
}

// sortedRun is the run [lo, hi) of batch's rows that the scan's bounds on the
// leading compound sort key admit, found by binary search: the whole block
// unless the segment is sorted and the key's column is in the batch. NULLs
// sort first and no bound admits one. A block holding a NaN is read whole:
// the writer sorts NaN before every number, but a comparison with a NaN is
// TRUE wherever types.Compare calls it equal — to everything.
func (s *Scanner) sortedRun(seg *storage.Segment, batch *Batch) (lo, hi int) {
	if s.sortKey < 0 || !seg.Sorted || batch.Cols[s.sortKey] == nil {
		return 0, batch.N
	}
	v := batch.Cols[s.sortKey]
	return byPayload(v.T, boundRun[int64], boundRun[float64], boundRun[string])(v, s.ranges, s.sortKey)
}

func boundRun[T payload](v *types.Vector, ranges []plan.ColRange, col int) (lo, hi int) {
	xs := *slots[T](v)
	hi = len(xs)
	lo = sort.Search(hi, func(i int) bool { return !v.IsNull(i) })
	if lo < hi && xs[lo] != xs[lo] { // only a NaN differs from itself
		return 0, hi
	}
	for _, r := range ranges {
		if r.Col != col {
			continue
		}
		if r.HasLo {
			x, from := valueOf[T](r.Lo), lo
			lo = from + sort.Search(hi-from, func(i int) bool { return !(xs[from+i] < x) })
		}
		if r.HasHi {
			x := valueOf[T](r.Hi)
			hi = lo + sort.Search(hi-lo, func(i int) bool { return xs[lo+i] > x })
		}
	}
	return lo, hi
}

// decode reads a block, page-faulting its payload if evicted. An
// injected primary-read fault (a local media error) takes the same
// fail-over path as a non-resident block: re-fetch from a replica.
func (s *Scanner) decode(ctx context.Context, blk *storage.Block) (*types.Vector, error) {
	if s.inj != nil {
		if ferr := s.inj.Hit(faults.SitePrimaryRead); ferr != nil {
			if s.fetch == nil {
				return nil, ferr
			}
			return s.pageFault(ctx, blk)
		}
	}
	v, err := blk.Decode()
	if err == nil {
		return v, nil
	}
	if !errors.Is(err, storage.ErrNotResident) || s.fetch == nil {
		return nil, err
	}
	return s.pageFault(ctx, blk)
}

// pageFault fails a block read over to the replica tiers through the
// fetcher, accounting retries and the fail-over read.
func (s *Scanner) pageFault(ctx context.Context, blk *storage.Block) (*types.Vector, error) {
	s.stats.PageFaults.Add(1)
	retries, ferr := s.fetch(ctx, blk)
	s.stats.Retries.Add(int64(retries))
	if ferr != nil {
		return nil, fmt.Errorf("exec: page fault for %s: %w", blk.ID, ferr)
	}
	s.stats.FailoverReads.Add(1)
	return blk.Decode()
}
