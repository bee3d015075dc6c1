package storage

import (
	"fmt"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// Segment is one sorted run of a table shard on one slice: an aligned set
// of column chains. Block i of every chain covers rows
// [i*cap, min((i+1)*cap, Rows)), so a row's values are found by logical
// offset alone — the linkage §2.1 describes as "stored as meta-data".
type Segment struct {
	Table  int64
	Slice  int32
	Seq    int32 // segment number within the shard
	Rows   int
	Cap    int // rows per block
	Schema types.Schema
	Cols   [][]*Block // [column][chain index]
	Sorted bool       // produced by a sorting writer (COPY, VACUUM)
}

// NumBlocks returns the chain length (identical for every column).
func (s *Segment) NumBlocks() int {
	if len(s.Cols) == 0 {
		return 0
	}
	return len(s.Cols[0])
}

// Block returns block i of column c.
func (s *Segment) Block(c, i int) *Block { return s.Cols[c][i] }

// ByteSize returns the total encoded size of the segment.
func (s *Segment) ByteSize() int64 {
	var n int64
	for _, chain := range s.Cols {
		for _, b := range chain {
			n += b.ByteSize()
		}
	}
	return n
}

// Blocks calls fn for every block in the segment.
func (s *Segment) Blocks(fn func(*Block)) {
	for _, chain := range s.Cols {
		for _, b := range chain {
			fn(b)
		}
	}
}

// ReadRows decodes every row of the segment — the one whole-segment reader
// (VACUUM, ANALYZE, ReadTable) — page-faulting through fetch (Block.Read).
func (s *Segment) ReadRows(fetch func(*Block) error) ([]types.Row, error) {
	rows := make([]types.Row, s.Rows)
	for i := range rows {
		rows[i] = make(types.Row, len(s.Cols))
	}
	for c, chain := range s.Cols {
		at := 0
		for _, b := range chain {
			v, err := b.Read(fetch)
			if err != nil {
				return nil, err
			}
			for i := 0; i < v.Len(); i++ {
				rows[at][c] = v.Get(i)
				at++
			}
		}
	}
	return rows, nil
}

// Builder accumulates rows into a segment, sealing aligned blocks as each
// fills. Encodings are fixed per column before the first row.
type Builder struct {
	seg      *Segment
	encs     []compress.Encoding
	pending  []*types.Vector // per-column buffer of the current block
	blockIdx int32
}

// NewBuilder starts a segment for (table, slice, seq) with the given
// per-column encodings. cap<=0 selects BlockCap.
func NewBuilder(table int64, slice, seq int32, schema types.Schema, encs []compress.Encoding, cap int) (*Builder, error) {
	if len(encs) != schema.Len() {
		return nil, fmt.Errorf("storage: %d encodings for %d columns", len(encs), schema.Len())
	}
	if cap <= 0 {
		cap = BlockCap
	}
	for i, e := range encs {
		if !compress.Applicable(e, schema.Columns[i].Type) {
			return nil, fmt.Errorf("storage: encoding %s not applicable to column %s %s",
				e, schema.Columns[i].Name, schema.Columns[i].Type)
		}
	}
	b := &Builder{
		seg: &Segment{
			Table:  table,
			Slice:  slice,
			Seq:    seq,
			Cap:    cap,
			Schema: schema,
			Cols:   make([][]*Block, schema.Len()),
		},
		encs:    encs,
		pending: make([]*types.Vector, schema.Len()),
	}
	b.resetPending()
	return b, nil
}

func (b *Builder) resetPending() {
	for i, col := range b.seg.Schema.Columns {
		b.pending[i] = types.NewVector(col.Type, b.seg.Cap)
	}
}

// Append adds one row. The row must match the schema.
func (b *Builder) Append(row types.Row) error {
	if len(row) != b.seg.Schema.Len() {
		return fmt.Errorf("storage: row has %d values, schema has %d", len(row), b.seg.Schema.Len())
	}
	for i, v := range row {
		if !v.Null && v.T != b.seg.Schema.Columns[i].Type {
			return fmt.Errorf("storage: column %d: value type %s != schema type %s",
				i, v.T, b.seg.Schema.Columns[i].Type)
		}
		b.pending[i].Append(v)
	}
	b.seg.Rows++
	if b.pending[0].Len() == b.seg.Cap {
		return b.flush()
	}
	return nil
}

// flush seals the pending vectors into one aligned block per column.
func (b *Builder) flush() error {
	if b.pending[0].Len() == 0 {
		return nil
	}
	for c := range b.pending {
		id := BlockID{
			Table:   b.seg.Table,
			Slice:   b.seg.Slice,
			Segment: b.seg.Seq,
			Column:  int32(c),
			Index:   b.blockIdx,
		}
		blk, err := Seal(id, b.pending[c], b.encs[c])
		if err != nil {
			return err
		}
		b.seg.Cols[c] = append(b.seg.Cols[c], blk)
	}
	b.blockIdx++
	b.resetPending()
	return nil
}

// Finish seals any partial block and returns the segment. The builder must
// not be used afterwards.
func (b *Builder) Finish(sorted bool) (*Segment, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	b.seg.Sorted = sorted
	return b.seg, nil
}

// Rows returns how many rows have been appended so far.
func (b *Builder) Rows() int { return b.seg.Rows }
