// Package storage implements the columnar block layer of §2.1: each column
// of each slice is "encoded in a chain of one or more fixed size data
// blocks", row identity across columns is the logical offset within each
// chain, and every block carries the in-memory value-range metadata (zone
// map) that replaces indexes for block skipping (§6).
//
// Blocks are immutable once sealed, which is what makes synchronous
// replication, S3 backup and page-fault restore simple: a block is a value.
package storage

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync/atomic"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// BlockCap is the default number of values per block. The paper's engine
// uses fixed 1 MB byte-sized blocks; fixed row capacity keeps the column
// chains of one segment aligned (block i of every column covers the same
// rows), which is how logical-offset row linkage stays O(1).
const BlockCap = 4096

// BlockID names a block within a cluster. It doubles as the S3 object key
// for backup (see ObjectKey).
type BlockID struct {
	Table   int64 // table id from the catalog
	Slice   int32 // owning slice
	Segment int32 // sorted run within the slice's shard: the xid that wrote it
	Column  int32 // column ordinal
	Index   int32 // position in the column chain
}

// ObjectKey renders the ID as a stable, S3-style key.
func (id BlockID) String() string {
	return fmt.Sprintf("t%d/sl%d/seg%d/c%d/b%d", id.Table, id.Slice, id.Segment, id.Column, id.Index)
}

// ZoneMap is the per-block value-range metadata kept in memory for block
// skipping: "column-block skipping based on value-ranges stored in memory"
// (§6). Min and Max cover non-null values only.
type ZoneMap struct {
	Min, Max types.Value
	// AllNull is set when the block holds no non-null values; Min/Max are
	// then meaningless.
	AllNull bool
	// HasNulls is set when at least one value is null.
	HasNulls bool
}

// MayContainRange reports whether any value in [lo, hi] could be present.
// Unbounded ends are expressed with ok=false flags.
func (z ZoneMap) MayContainRange(lo types.Value, hasLo bool, hi types.Value, hasHi bool) bool {
	if z.AllNull {
		return false
	}
	if hasLo && types.Compare(z.Max, lo) < 0 {
		return false
	}
	if hasHi && types.Compare(z.Min, hi) > 0 {
		return false
	}
	return true
}

// Block is one sealed, encoded column block plus its metadata. The payload
// is held behind an atomic pointer so page-fault fills and concurrent reads
// (streaming restore under live queries) need no locking.
type Block struct {
	ID   BlockID
	Rows int
	Zone ZoneMap
	// Hash is the content hash used for incremental backup deduplication.
	Hash [32]byte

	enc    atomic.Pointer[[]byte]
	sealed []byte // the payload Seal encoded: enc points here, no header of its own
}

// Payload returns the encoded payload, or nil when evicted.
func (b *Block) Payload() []byte {
	p := b.enc.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Seal encodes a vector into a block. The chosen encoding must be
// applicable to the vector's type.
func Seal(id BlockID, v *types.Vector, enc compress.Encoding) (*Block, error) {
	payload, err := compress.Encode(enc, v)
	if err == compress.ErrDictOverflow {
		// BYTEDICT is chosen from a sample; a later block can overflow the
		// dictionary. Fall back to raw for that block, as Redshift does.
		payload, err = compress.Encode(compress.Raw, v)
	}
	if err != nil {
		return nil, err
	}
	b := &Block{ID: id, Rows: v.Len(), Hash: sha256.Sum256(payload), sealed: payload}
	b.enc.Store(&b.sealed)
	min, max, ok := v.MinMax()
	// String bounds are copied out of v: a loaded vector's strings point
	// into the text they were parsed from, which the block would pin.
	min.S, max.S = strings.Clone(min.S), strings.Clone(max.S)
	// !ok covers both the all-null and the empty block: neither can ever
	// satisfy a range predicate, so both prune unconditionally.
	b.Zone = ZoneMap{Min: min, Max: max, AllNull: !ok, HasNulls: v.HasNulls()}
	return b, nil
}

// ErrNotResident reports that a block's payload is not on local storage —
// the streaming-restore state where metadata is back but data must be
// page-faulted from S3 (§2.3).
var ErrNotResident = fmt.Errorf("storage: block not resident")

// Resident reports whether the payload is on local storage.
func (b *Block) Resident() bool { return b.enc.Load() != nil }

// Evict drops the payload, keeping metadata (zone map, hash, row count).
// Used to model a restored-but-not-yet-fetched block; a sealed block's
// bytes stay allocated, as a reader may still hold them.
func (b *Block) Evict() { b.enc.Store(nil) }

// Fill restores an evicted payload, verifying the content hash.
func (b *Block) Fill(payload []byte) error {
	if sha256.Sum256(payload) != b.Hash {
		return fmt.Errorf("storage: block %s: payload hash mismatch", b.ID)
	}
	b.enc.Store(&payload)
	return nil
}

// Decode reconstructs the block's vector.
func (b *Block) Decode() (*types.Vector, error) {
	payload := b.Payload()
	if payload == nil {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, ErrNotResident)
	}
	v, err := compress.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("storage: block %s: %w", b.ID, err)
	}
	if v.Len() != b.Rows {
		return nil, fmt.Errorf("storage: block %s decoded %d rows, expected %d", b.ID, v.Len(), b.Rows)
	}
	return v, nil
}

// Read decodes the block, page-faulting its payload through fetch when it
// does not decode where it lies (evicted by a node loss, or not yet
// streamed in by a restore). A nil fetch needs the block resident.
func (b *Block) Read(fetch func(*Block) error) (*types.Vector, error) {
	if v, err := b.Decode(); err == nil || fetch == nil {
		return v, err
	}
	if err := fetch(b); err != nil {
		return nil, err
	}
	return b.Decode()
}

// ByteSize returns the encoded size of the block (0 when evicted).
func (b *Block) ByteSize() int64 { return int64(len(b.Payload())) }

// Encoding returns the codec the block was sealed with.
func (b *Block) Encoding() compress.Encoding {
	e, err := compress.BlockEncoding(b.Payload())
	if err != nil {
		return compress.Raw
	}
	return e
}
