package storage

import (
	"fmt"

	"redshift/internal/catalog"
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
	// Sorted: the rows are in the order the table's sort key gives them
	// within this segment (not across segments). For a COMPOUND key that is
	// by the key columns in turn, NULLs first, then a float NaN, then
	// ascending values, ties in arrival order; for an INTERLEAVED key it is
	// z-value order; a table without a sort key keeps arrival order. The
	// loader's SegmentWriter seals every segment it writes — COPY, INSERT,
	// VACUUM, a resize copy — with Sorted set, so only the COMPOUND case
	// says anything about a column's values.
	Sorted bool
	// Stats are the statistics of the segment's rows — rows, and per column
	// null count, width sum, bounds and sketch — kept by the write that
	// sealed it, as its blocks keep their zone maps. ANALYZE merges them;
	// once the segment is installed nothing writes to them.
	Stats catalog.TableStats
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

// Builder seals a segment one column at a time: a column arrives whole, as
// the vector of its every row in stored order, and is cut into the chain's
// aligned blocks. Encodings are fixed per column before the first one.
type Builder struct {
	seg    *Segment
	encs   []compress.Encoding
	sealed int // columns sealed so far
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
	return &Builder{
		seg: &Segment{
			Table:  table,
			Slice:  slice,
			Seq:    seq,
			Cap:    cap,
			Schema: schema,
			Cols:   make([][]*Block, schema.Len()),
		},
		encs: encs,
	}, nil
}

// Column seals column c's chain from v: block i covers v's rows
// [i*cap, (i+1)*cap). Every column must hold the same number of rows; v is
// only read, so one vector may feed several builders.
func (b *Builder) Column(c int, v *types.Vector) error {
	col := b.seg.Schema.Columns[c]
	if v.T != col.Type {
		return fmt.Errorf("storage: column %d: vector type %s != schema type %s", c, v.T, col.Type)
	}
	n := v.Len()
	if b.seg.Cols[c] != nil {
		return fmt.Errorf("storage: column %s sealed twice", col.Name)
	}
	if b.sealed > 0 && n != b.seg.Rows {
		return fmt.Errorf("storage: column %s has %d rows, segment has %d", col.Name, n, b.seg.Rows)
	}
	chain := make([]*Block, 0, (n+b.seg.Cap-1)/b.seg.Cap)
	for lo := 0; lo < n; lo += b.seg.Cap {
		id := BlockID{
			Table:   b.seg.Table,
			Slice:   b.seg.Slice,
			Segment: b.seg.Seq,
			Column:  int32(c),
			Index:   int32(len(chain)),
		}
		part := v // a column of one block is sealed as it stands
		if n > b.seg.Cap {
			part = v.Slice(lo, min(lo+b.seg.Cap, n))
		}
		blk, err := Seal(id, part, b.encs[c])
		if err != nil {
			return err
		}
		chain = append(chain, blk)
	}
	b.seg.Cols[c], b.seg.Rows = chain, n
	b.sealed++
	return nil
}

// Finish returns the segment once every column is sealed. The builder must
// not be used afterwards.
func (b *Builder) Finish(sorted bool) (*Segment, error) {
	if b.sealed != len(b.seg.Cols) {
		return nil, fmt.Errorf("storage: %d of %d columns sealed", b.sealed, len(b.seg.Cols))
	}
	b.seg.Sorted = sorted
	return b.seg, nil
}
