package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// SpillDir is a query's scratch directory. It is created lazily on the
// first spill (most queries never pay the mkdir), hands every spilling
// operator its one scratch file, and Cleanup removes the whole tree — the
// single point the query lifecycle calls on success, cancel and timeout
// alike. It tracks only the files still open: an operator that finishes
// closes and unlinks its own. A nil SpillDir means spilling is disabled
// (operators then grow in memory unconditionally).
type SpillDir struct {
	base   string
	prefix string

	mkdir sync.Once
	// mu guards the fields below and nothing slower: the mkdir, create, close
	// and unlink syscalls all run outside it, so the slices of a query never
	// wait on each other's.
	mu      sync.Mutex
	path    string
	pathErr error
	open    map[*scratchFile]struct{}
	removed bool

	seq   atomic.Int64
	bytes atomic.Int64
	files atomic.Int64
}

// NewSpillDir prepares a scratch area under base (os.TempDir() when
// empty); prefix names the per-query subdirectory for debuggability.
func NewSpillDir(base, prefix string) *SpillDir {
	if prefix == "" {
		prefix = "q"
	}
	return &SpillDir{base: base, prefix: prefix}
}

// Path returns the scratch directory path, or "" if nothing has spilled.
func (d *SpillDir) Path() string {
	if d == nil {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.path
}

// Bytes returns the total bytes written to scratch files by this query.
func (d *SpillDir) Bytes() int64 {
	if d == nil {
		return 0
	}
	return d.bytes.Load()
}

// Files returns how many scratch files this query has created.
func (d *SpillDir) Files() int64 {
	if d == nil {
		return 0
	}
	return d.files.Load()
}

var errSpillCleaned = errors.New("exec: spill after scratch dir cleanup")

// dir returns the scratch directory, creating it on first use.
func (d *SpillDir) dir() (string, error) {
	d.mkdir.Do(func() {
		var p string
		var err error
		if d.base != "" {
			err = os.MkdirAll(d.base, 0o755)
		}
		if err == nil {
			p, err = os.MkdirTemp(d.base, d.prefix+"-")
		}
		d.mu.Lock()
		removed := d.removed
		if !removed {
			d.path, d.pathErr = p, err
		}
		d.mu.Unlock()
		if removed && err == nil {
			os.Remove(p) // Cleanup ran meanwhile and saw no path
		}
	})
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return "", errSpillCleaned
	}
	return d.path, d.pathErr
}

// create opens an operator's scratch file. stats (may be nil) receives the
// bytes written to it.
func (d *SpillDir) create(kind string, stats *SpillStats) (*scratchFile, error) {
	if d == nil {
		return nil, errors.New("exec: spill requested but no scratch dir configured")
	}
	path, err := d.dir()
	if err != nil {
		return nil, err
	}
	name := filepath.Join(path, fmt.Sprintf("%s-%06d.spill", kind, d.seq.Add(1)))
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	sf := &scratchFile{dir: d, name: name, f: f, stats: stats}
	d.mu.Lock()
	removed := d.removed
	if !removed {
		if d.open == nil {
			d.open = map[*scratchFile]struct{}{} // most queries never spill
		}
		d.open[sf] = struct{}{}
	}
	d.mu.Unlock()
	if removed {
		// Cleanup ran between dir and here: what it could not see is ours to
		// remove.
		f.Close()
		os.Remove(name)
		os.Remove(path)
		return nil, errSpillCleaned
	}
	d.files.Add(1)
	if stats != nil {
		stats.Files.Add(1)
	}
	return sf, nil
}

// Cleanup closes every scratch file still open and removes the scratch
// directory. Idempotent; safe on a nil receiver.
func (d *SpillDir) Cleanup() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	d.removed = true
	open, path := d.open, d.path
	d.open, d.path = nil, ""
	d.mu.Unlock()
	for sf := range open {
		sf.f.Close()
	}
	if path == "" {
		return nil
	}
	return os.RemoveAll(path)
}

// extent locates one frame in a scratch file.
type extent struct {
	off int64
	len int
}

// scratchFile is one spilling operator's scratch space: a file of batch
// frames, appended as the operator's partitions or runs fill and read back
// by extent, in any order and any number of times, until the operator
// closes it. One goroutine — the operator's — uses it. Frame format (all
// integers uvarint):
//
//	[rows][ncols] then per column: [blobLen][blob]
//
// where blob is an internal/compress Raw block (self-describing type +
// null mask) and blobLen==0 marks a nil column — late-materialization
// holes survive the round trip.
type scratchFile struct {
	dir   *SpillDir
	name  string
	f     *os.File
	stats *SpillStats

	off int64 // bytes written: where the next frame goes
	// buf is the one frame buffer: a frame is encoded into it and written,
	// or read into it and decoded (which copies everything out), never both
	// at once.
	buf []byte
}

// Close closes and unlinks the file and drops it from the directory's
// list: the operator is done with its scratch space. Idempotent, safe on a
// nil receiver and after Cleanup.
func (sf *scratchFile) Close() {
	if sf == nil {
		return
	}
	d := sf.dir
	d.mu.Lock()
	_, live := d.open[sf]
	delete(d.open, sf)
	d.mu.Unlock()
	if live {
		sf.f.Close()
		os.Remove(sf.name)
	}
}

// appendFrame appends b, which holds at most BatchSize rows (writers chunk to
// that), as one frame.
func appendFrame(dst []byte, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.N))
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for _, v := range b.Cols {
		if v == nil {
			dst = append(dst, 0)
			continue
		}
		n := compress.RawLen(v)
		dst = slices.Grow(dst, binary.MaxVarintLen64+n)
		dst = compress.AppendRaw(binary.AppendUvarint(dst, uint64(n)), v)
	}
	return dst
}

// decodeFrame rebuilds the batch of one frame as a pooled batch the caller
// owns. Whatever the bytes, it errors rather than panic, and allocates in
// proportion to len(data), never to a count data merely claims.
func decodeFrame(data []byte) (*Batch, error) {
	rows, pos := binary.Uvarint(data)
	if pos <= 0 || rows > BatchSize {
		return nil, errors.New("corrupt frame row count")
	}
	ncols, k := binary.Uvarint(data[pos:])
	if pos += k; k <= 0 || ncols > uint64(len(data)-pos) { // a byte a column at the least
		return nil, errors.New("corrupt frame column count")
	}
	b := GetBatch(int(ncols))
	b.N = int(rows)
	if err := decodeColumns(b, data[pos:]); err != nil {
		PutBatch(b)
		return nil, err
	}
	return b, nil
}

// decodeColumns fills b's columns, each b.N values long, from exactly data.
func decodeColumns(b *Batch, data []byte) error {
	for c := range b.Cols {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(data)-k) {
			return errors.New("corrupt frame column length")
		}
		blob := data[k : k+int(l)]
		data = data[k+int(l):]
		if l == 0 {
			continue // nil (unmaterialized) column
		}
		// Only RAW's row count is vouched for by its length.
		enc, err := compress.BlockEncoding(blob)
		if err != nil {
			return err
		}
		if enc != compress.Raw {
			return fmt.Errorf("%s block in a frame", enc)
		}
		v, err := compress.Decode(blob)
		if err != nil {
			return err
		}
		if v.Len() != b.N {
			return fmt.Errorf("%d values in a frame of %d rows", v.Len(), b.N)
		}
		b.Cols[c] = v
	}
	if len(data) != 0 {
		return errors.New("corrupt frame: trailing bytes")
	}
	return nil
}

// writeFrame appends b as one frame and returns where it went.
func (sf *scratchFile) writeFrame(b *Batch) (extent, error) {
	sf.buf = appendFrame(sf.buf[:0], b)
	if _, err := sf.f.Write(sf.buf); err != nil {
		return extent{}, fmt.Errorf("spill write %s: %w", filepath.Base(sf.name), err)
	}
	e := extent{off: sf.off, len: len(sf.buf)}
	n := int64(e.len)
	sf.off += n
	sf.dir.bytes.Add(n)
	if sf.stats != nil {
		sf.stats.Bytes.Add(n)
	}
	return e, nil
}

// readFrame reads the frame at e back as a pooled batch the caller owns.
func (sf *scratchFile) readFrame(e extent) (*Batch, error) {
	sf.buf = growTo(sf.buf[:0], e.len)
	buf := sf.buf
	if _, err := sf.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("spill read %s: %w", filepath.Base(sf.name), err)
	}
	b, err := decodeFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("spill decode %s: %w", filepath.Base(sf.name), err)
	}
	return b, nil
}

// frames is one partition or sorted run: the extents of its frames in the
// operator's scratch file, in write order, plus the rows not yet framed.
// Rows are appended column-wise into the pending frame, which is written
// when it reaches BatchSize rows — so however small or large the pieces
// that arrive, what is read back is full batches.
type frames struct {
	sf      *scratchFile
	extents []extent
	rows    int64 // appended, pending ones included
	bytes   int64 // written
	pend    *Batch
}

// room makes the pending frame fit b's shape — which columns are
// materialized, and as what type — writing out one of another shape first,
// and returns how many more rows it takes.
func (p *frames) room(b *Batch) (int, error) {
	same := p.pend != nil && len(p.pend.Cols) == len(b.Cols)
	for c := 0; same && c < len(b.Cols); c++ {
		pv, v := p.pend.Cols[c], b.Cols[c]
		same = (pv == nil) == (v == nil) && (v == nil || pv.T == v.T)
	}
	if !same {
		if err := p.flush(); err != nil {
			return 0, err
		}
		p.pend = NewBatch(len(b.Cols))
		for c, v := range b.Cols {
			if v != nil {
				p.pend.Cols[c] = types.NewVector(v.T, BatchSize)
			}
		}
	}
	return BatchSize - p.pend.N, nil
}

// added counts n rows just appended to the pending frame and writes it out
// when full.
func (p *frames) added(n int) error {
	p.pend.N += n
	p.rows += int64(n)
	if p.pend.N < BatchSize {
		return nil
	}
	return p.flush()
}

// appendSel appends b's rows at positions sel. The caller keeps b.
func (p *frames) appendSel(b *Batch, sel []int) error {
	for len(sel) > 0 {
		n, err := p.room(b)
		if err != nil {
			return err
		}
		n = min(n, len(sel))
		for c, v := range b.Cols {
			if v != nil {
				p.pend.Cols[c].AppendSel(v, sel[:n])
			}
		}
		if err := p.added(n); err != nil {
			return err
		}
		sel = sel[n:]
	}
	return nil
}

// appendBatch appends all of b's rows, in order. The caller keeps b.
func (p *frames) appendBatch(b *Batch) error {
	for lo := 0; lo < b.N; {
		n, err := p.room(b)
		if err != nil {
			return err
		}
		n = min(n, b.N-lo)
		for c, v := range b.Cols {
			if v != nil {
				p.pend.Cols[c].AppendRange(v, lo, lo+n)
			}
		}
		if err := p.added(n); err != nil {
			return err
		}
		lo += n
	}
	return nil
}

// flush writes the pending rows out as a frame and empties the pending
// frame, keeping its vectors' capacity.
func (p *frames) flush() error {
	if p.pend == nil || p.pend.N == 0 {
		return nil
	}
	e, err := p.sf.writeFrame(p.pend)
	if err != nil {
		return err
	}
	p.extents = append(p.extents, e)
	p.bytes += int64(e.len)
	for _, v := range p.pend.Cols {
		if v != nil {
			v.Nulls, v.Ints, v.Floats, v.Strs = nil, v.Ints[:0], v.Floats[:0], v.Strs[:0]
		}
	}
	p.pend.N = 0
	return nil
}

// reader ends the writing — the pending rows become the last, short frame —
// and returns the frames as a stream. It may be called again for another
// pass.
func (p *frames) reader() (*frameReader, error) {
	err := p.flush()
	p.pend = nil
	return &frameReader{p: p}, err
}

// frameReader streams a partition's or run's frames back as pooled
// batches; the consumer owns each returned batch.
type frameReader struct {
	p *frames
	i int
}

func (r *frameReader) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.i == len(r.p.extents) {
		return nil, nil
	}
	r.i++
	return r.p.sf.readFrame(r.p.extents[r.i-1])
}

// scatterRows appends to each partition the rows of b that its selection
// names, and empties the selections for the next batch.
func scatterRows(parts []*frames, sels [][]int, b *Batch) error {
	for p, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		sels[p] = sel[:0]
		if err := parts[p].appendSel(b, sel); err != nil {
			return err
		}
	}
	return nil
}

// newPartitions opens one level's spillFanout partitions in sf.
func newPartitions(sf *scratchFile) []*frames {
	parts := make([]*frames, spillFanout)
	for p := range parts {
		parts[p] = &frames{sf: sf}
	}
	return parts
}
