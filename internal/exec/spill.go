package exec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"redshift/internal/compress"
	"redshift/internal/plan"
	"redshift/internal/types"
)

// SpillDir is a query's scratch directory. It is created lazily on the
// first spill (most queries never pay the mkdir), hands out spill files to
// any operator in the query, and Cleanup removes the whole tree — the
// single point the query lifecycle calls on success, cancel and timeout
// alike. A nil SpillDir means spilling is disabled (operators then grow
// in memory unconditionally).
type SpillDir struct {
	base   string
	prefix string

	mu      sync.Mutex
	path    string
	seq     int
	files   []*spillFile
	removed bool

	bytes atomic.Int64
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

// Bytes returns the total bytes written to spill files by this query.
func (d *SpillDir) Bytes() int64 {
	if d == nil {
		return 0
	}
	return d.bytes.Load()
}

// create opens a new spill file. stats (may be nil) receives the bytes
// written to it.
func (d *SpillDir) create(kind string, stats *SpillStats) (*spillFile, error) {
	if d == nil {
		return nil, errors.New("exec: spill requested but no scratch dir configured")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil, errors.New("exec: spill after scratch dir cleanup")
	}
	if d.path == "" {
		if d.base != "" {
			if err := os.MkdirAll(d.base, 0o755); err != nil {
				return nil, err
			}
		}
		p, err := os.MkdirTemp(d.base, d.prefix+"-")
		if err != nil {
			return nil, err
		}
		d.path = p
	}
	d.seq++
	name := filepath.Join(d.path, fmt.Sprintf("%s-%06d.spill", kind, d.seq))
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	sf := &spillFile{dir: d, name: name, f: f, stats: stats}
	sf.w = bufio.NewWriterSize(f, 64<<10)
	d.files = append(d.files, sf)
	return sf, nil
}

// Cleanup closes every spill file and removes the scratch directory.
// Idempotent; safe on a nil receiver.
func (d *SpillDir) Cleanup() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removed = true
	for _, sf := range d.files {
		sf.closeFile()
	}
	d.files = nil
	if d.path == "" {
		return nil
	}
	err := os.RemoveAll(d.path)
	d.path = ""
	return err
}

// spillFile is a single scratch file holding a sequence of batch frames.
// Frame format (all integers uvarint):
//
//	[rows][ncols] then per column: [blobLen][blob]
//
// where blob is an internal/compress Raw block (self-describing type +
// null mask) and blobLen==0 marks a nil column — late-materialization
// holes survive the round trip. Write fully, then Reader() rewinds for a
// single sequential read.
type spillFile struct {
	dir   *SpillDir
	name  string
	f     *os.File
	w     *bufio.Writer
	stats *SpillStats

	bytes  int64
	rows   int64
	closed bool
}

// writeUvarint appends a uvarint to the file, tracking bytes.
func (sf *spillFile) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := sf.w.Write(buf[:n]); err != nil {
		return err
	}
	sf.account(int64(n))
	return nil
}

func (sf *spillFile) account(n int64) {
	sf.bytes += n
	if sf.dir != nil {
		sf.dir.bytes.Add(n)
	}
	if sf.stats != nil {
		sf.stats.Bytes.Add(n)
	}
}

// WriteBatch appends one frame. Empty or nil batches write nothing. The
// caller keeps ownership of b.
func (sf *spillFile) WriteBatch(b *Batch) error {
	if b == nil || b.N == 0 {
		return nil
	}
	if err := sf.writeUvarint(uint64(b.N)); err != nil {
		return err
	}
	if err := sf.writeUvarint(uint64(len(b.Cols))); err != nil {
		return err
	}
	for _, v := range b.Cols {
		if v == nil {
			if err := sf.writeUvarint(0); err != nil {
				return err
			}
			continue
		}
		blob, err := compress.Encode(compress.Raw, v)
		if err != nil {
			return err
		}
		if err := sf.writeUvarint(uint64(len(blob))); err != nil {
			return err
		}
		if _, err := sf.w.Write(blob); err != nil {
			return err
		}
		sf.account(int64(len(blob)))
	}
	sf.rows += int64(b.N)
	return nil
}

// Rows returns the number of rows written so far.
func (sf *spillFile) Rows() int64 { return sf.rows }

// Bytes returns the encoded size written so far.
func (sf *spillFile) Bytes() int64 { return sf.bytes }

// Reader flushes pending writes and returns a reader positioned at the
// first frame. A spill file is written once, then read once.
func (sf *spillFile) Reader() (*spillReader, error) {
	if err := sf.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := sf.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &spillReader{f: sf, r: bufio.NewReaderSize(sf.f, 64<<10)}, nil
}

func (sf *spillFile) closeFile() {
	if sf.closed {
		return
	}
	sf.closed = true
	sf.f.Close()
}

// Discard closes and deletes the file early — partition files are dropped
// as soon as their pass completes so peak scratch usage stays near the
// live working set, not the sum of every pass.
func (sf *spillFile) Discard() {
	sf.closeFile()
	os.Remove(sf.name)
}

// spillReader streams frames back as pooled batches; the consumer owns
// each returned batch. Next returns (nil, nil) at end of file.
type spillReader struct {
	f *spillFile
	r *bufio.Reader
	// blob is the one grow-only buffer every column frame is read into:
	// compress.Decode copies everything out of its input.
	blob []byte
}

func (r *spillReader) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spill read %s: %w", filepath.Base(r.f.name), err)
	}
	ncols, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, fmt.Errorf("spill read %s: %w", filepath.Base(r.f.name), err)
	}
	b := GetBatch(int(ncols))
	b.N = int(n)
	for c := 0; c < int(ncols); c++ {
		l, err := binary.ReadUvarint(r.r)
		if err != nil {
			PutBatch(b)
			return nil, fmt.Errorf("spill read %s: %w", filepath.Base(r.f.name), err)
		}
		if l == 0 {
			continue // nil (unmaterialized) column
		}
		if uint64(cap(r.blob)) < l {
			r.blob = make([]byte, l)
		}
		blob := r.blob[:l]
		if _, err := io.ReadFull(r.r, blob); err != nil {
			PutBatch(b)
			return nil, fmt.Errorf("spill read %s: %w", filepath.Base(r.f.name), err)
		}
		v, err := compress.Decode(blob)
		if err != nil {
			PutBatch(b)
			return nil, fmt.Errorf("spill decode %s: %w", filepath.Base(r.f.name), err)
		}
		b.Cols[c] = v
	}
	return b, nil
}

// batchStream is the minimal pull interface shared by spill readers,
// in-memory batch lists and k-way merges. Next returns (nil, nil) when
// exhausted; returned batches are owned by the caller.
type batchStream interface {
	Next(ctx context.Context) (*Batch, error)
}

// memStream replays a fixed list of batches, handing off ownership.
type memStream struct {
	batches []*Batch
	i       int
}

func (s *memStream) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for s.i < len(s.batches) {
		b := s.batches[s.i]
		s.batches[s.i] = nil
		s.i++
		if b != nil && b.N > 0 {
			return b, nil
		}
		if b != nil {
			PutBatch(b)
		}
	}
	return nil, nil
}

// mergeStream k-way merges already-ordered input streams. Ties go to the
// lowest stream index, which makes the merge stable when streams are
// appended in temporal order — the property the external sort and the
// spilled join rely on for deterministic, tier-independent output.
type mergeStream struct {
	streams []batchStream
	keys    []plan.OrderKey
	cur     []*Batch
	bound   [][]sortKey // keys bound to cur[i]
	pos     []int
	inited  bool
}

// newMergeStream merges streams each already ordered by keys.
func newMergeStream(streams []batchStream, keys []plan.OrderKey) *mergeStream {
	return &mergeStream{
		streams: streams,
		keys:    keys,
		cur:     make([]*Batch, len(streams)),
		bound:   make([][]sortKey, len(streams)),
		pos:     make([]int, len(streams)),
	}
}

// advance loads the next non-empty batch of stream i.
func (m *mergeStream) advance(ctx context.Context, i int) error {
	for {
		b, err := m.streams[i].Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			m.cur[i] = nil
			return nil
		}
		if b.N > 0 {
			m.cur[i], m.bound[i], m.pos[i] = b, bindKeys(b, m.keys), 0
			return nil
		}
		PutBatch(b)
	}
}

func (m *mergeStream) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !m.inited {
		m.inited = true
		for i := range m.streams {
			if err := m.advance(ctx, i); err != nil {
				return nil, err
			}
		}
	}
	var out *Batch
	for {
		best := -1
		for i := range m.cur {
			if m.cur[i] == nil {
				continue
			}
			if best == -1 || compareKeys(m.bound[i], m.pos[i], m.bound[best], m.pos[best]) < 0 {
				best = i
			}
		}
		if best == -1 {
			if out != nil && out.N > 0 {
				return out, nil
			}
			if out != nil {
				PutBatch(out)
			}
			return nil, nil
		}
		src := m.cur[best]
		if out == nil {
			out = GetBatch(len(src.Cols))
		}
		appendRow(out, src, m.pos[best])
		m.pos[best]++
		if m.pos[best] >= src.N {
			PutBatch(src)
			m.cur[best] = nil
			if err := m.advance(ctx, best); err != nil {
				PutBatch(out)
				return nil, err
			}
		}
		if out.N >= BatchSize {
			return out, nil
		}
	}
}

// appendRow copies row i of src onto dst, materializing dst's vectors
// lazily from src's shape (nil columns stay nil).
func appendRow(dst, src *Batch, i int) {
	for c, v := range src.Cols {
		if v == nil {
			continue
		}
		if dst.Cols[c] == nil {
			dst.Cols[c] = types.NewVector(v.T, BatchSize)
		}
		dst.Cols[c].AppendFrom(v, i)
	}
	dst.N++
}
