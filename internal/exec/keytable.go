package exec

import (
	"math"
	"math/bits"

	"redshift/internal/types"
)

// NoID is the id of a row that has no entry: a Find miss or a skipped row.
const NoID = ^uint32(0)

// KeyTable is the one hash table under every join, GROUP BY and DISTINCT:
// it maps a key tuple read straight from column vectors to a dense uint32
// id handed out in first-seen order, so callers keep whatever they store
// per key in plain slices indexed by id. Key equality is exactly
// KeyEncoder equality (typed: Int64 5 ≠ Date 5; NULL is a value; -0.0 is
// 0.0).
//
// Open addressing with linear probing over slots at load ≤ ½; the 64-bit
// hash of every id is stored, so growth never touches a key. Two key
// layouts, chosen by what the first inserted batch looks like:
//
//   - fixed: one non-string column. The key is its 64 payload bits plus a
//     type tag; a lookup compares those and allocates nothing.
//   - arena: anything else. Each key is KeyEncoder's byte encoding appended
//     to one growing arena, compared column by column against the probing
//     row only when the stored hash matches.
//
// With zero key columns (a scalar aggregate) the only id is 0 and nothing is
// hashed. Find is read-only, so a finished table may be probed from several
// goroutines, each with its own hashes and ids.
type KeyTable struct {
	slots  []uint32 // id+1 per slot, 0 = empty; len is a power of two
	hashes []uint64 // per id

	fixed bool
	fkeys []uint64 // fixed layout: payload bits per id
	ftags []uint8  // fixed layout: 0 = NULL, else the column type

	arena []byte   // arena layout: the encoded keys back to back
	offs  []uint32 // arena layout: id's key is arena[offs[id]:offs[id+1]]

	pinHash bool // test hook: every key hashes to 0, equality alone decides
}

// NewKeyTable returns an empty table.
func NewKeyTable() *KeyTable { return &KeyTable{} }

// Len is the number of distinct keys, which is also the next id.
func (t *KeyTable) Len() int { return len(t.hashes) }

// Hashes returns the stored hash of every id, in id order — what lets one
// table's keys be re-inserted into another without hashing them again.
func (t *KeyTable) Hashes() []uint64 { return t.hashes }

// Bytes is the table's resident size: slots, stored hashes and keys. It is
// the one memory-accounting hook; users charge their MemContext its delta.
func (t *KeyTable) Bytes() int64 {
	return int64(4*cap(t.slots) + 8*cap(t.hashes) + 8*cap(t.fkeys) + cap(t.ftags) + cap(t.arena) + 4*cap(t.offs))
}

// Reserve sizes the slot array for n keys up front.
func (t *KeyTable) Reserve(n int) {
	if n > 0 && 2*n > len(t.slots) {
		t.rehash(1 << bits.Len(uint(2*n-1)))
	}
}

// rehash rebuilds the slot array at the given power-of-two size from the
// stored hashes.
func (t *KeyTable) rehash(size int) {
	t.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for id, h := range t.hashes {
		pos := h & mask
		for t.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.slots[pos] = uint32(id) + 1
	}
}

// Hash fills hashes[:n] with the hash of each row's key tuple: one type
// switch per column, then a tight loop over its payload slice.
func (t *KeyTable) Hash(vecs []*types.Vector, n int, hashes []uint64) []uint64 {
	hashes = hashKeys(vecs, n, hashes)
	if t.pinHash {
		clear(hashes)
	}
	return hashes
}

const (
	hashSeed = 0x9E3779B97F4A7C15
	hashMul  = 0xD6E8FEB86659FD93
	hashNull = 0x5851F42D4C957F2D // what a NULL component contributes
)

// mix folds x into h: a 64×64→128 multiply whose halves are xored together.
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, hashMul)
	return hi ^ lo
}

func hashString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for len(s) >= 8 {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var x uint64
		for i := 0; i < len(s); i++ {
			x |= uint64(s[i]) << (8 * i)
		}
		h = mix(h, x)
	}
	return h
}

// hashKeys is Hash without a table. It does not depend on the key layout, so
// the same hash routes a row to its spill partition (spillPart) and finds it
// in whichever table is later built over that partition. Column types are
// not hashed — equality tells them apart.
func hashKeys(vecs []*types.Vector, n int, hashes []uint64) []uint64 {
	if cap(hashes) < n {
		hashes = make([]uint64, n)
	}
	hashes = hashes[:n]
	for r := range hashes {
		hashes[r] = hashSeed
	}
	for _, v := range vecs {
		if v == nil {
			continue
		}
		nulls := v.Nulls
		switch v.T {
		case types.Float64:
			for r, f := range v.Floats[:n] {
				x := uint64(hashNull)
				if nulls == nil || !nulls[r] {
					x = floatKeyBits(f)
				}
				hashes[r] = mix(hashes[r], x)
			}
		case types.String:
			for r, s := range v.Strs[:n] {
				if nulls != nil && nulls[r] {
					hashes[r] = mix(hashes[r], hashNull)
				} else {
					hashes[r] = hashString(hashes[r], s)
				}
			}
		default:
			for r, i := range v.Ints[:n] {
				x := uint64(hashNull)
				if nulls == nil || !nulls[r] {
					x = uint64(i)
				}
				hashes[r] = mix(hashes[r], x)
			}
		}
	}
	return hashes
}

// nullRows marks the rows where any key column is NULL, in *buf (grown as
// needed). It returns nil when no column carries a null mask.
func nullRows(vecs []*types.Vector, n int, buf *[]bool) []bool {
	var out []bool
	for _, v := range vecs {
		if v == nil || v.Nulls == nil {
			continue
		}
		if out == nil {
			if cap(*buf) < n {
				*buf = make([]bool, n)
			}
			out = (*buf)[:n]
			clear(out)
		}
		for r, null := range v.Nulls[:n] {
			if null {
				out[r] = true
			}
		}
	}
	return out
}

// FindOrInsert sets ids[r] to the id of row r's key for every row of the
// batch hashes was computed over, inserting keys not seen before; skip (may
// be nil) marks rows to leave out, which get NoID. New ids are handed out in
// row order, so row r is a key's first occurrence exactly when ids[r]
// equals the number of keys the table held just before it.
func (t *KeyTable) FindOrInsert(vecs []*types.Vector, hashes []uint64, skip []bool, ids []uint32) []uint32 {
	return t.lookup(vecs, hashes, skip, ids, true)
}

// Find is FindOrInsert without the insert: unknown keys get NoID.
func (t *KeyTable) Find(vecs []*types.Vector, hashes []uint64, skip []bool, ids []uint32) []uint32 {
	return t.lookup(vecs, hashes, skip, ids, false)
}

func (t *KeyTable) lookup(vecs []*types.Vector, hashes []uint64, skip []bool, ids []uint32, insert bool) []uint32 {
	n := len(hashes)
	if cap(ids) < n {
		ids = make([]uint32, n)
	}
	ids = ids[:n]
	if len(vecs) == 0 {
		for r := range ids {
			if skip != nil && skip[r] {
				ids[r] = NoID
				continue
			}
			if insert && len(t.hashes) == 0 {
				t.hashes = append(t.hashes, 0)
			}
			ids[r] = uint32(len(t.hashes)) - 1 // 0, or NoID while still empty
		}
		return ids
	}
	fixedVec := len(vecs) == 1 && vecs[0] != nil && vecs[0].T != types.String
	switch {
	case len(t.hashes) == 0 && insert:
		t.fixed = fixedVec
		if !fixedVec && t.offs == nil {
			t.offs = []uint32{0}
		}
	case t.fixed && !fixedVec && insert:
		t.toArena()
	case len(t.hashes) == 0 || t.fixed && !fixedVec:
		// Nothing stored, or only fixed keys and a probe that cannot equal one.
		for r := range ids {
			ids[r] = NoID
		}
		return ids
	}
	for r, h := range hashes {
		if skip != nil && skip[r] {
			ids[r] = NoID
			continue
		}
		if insert && 2*len(t.hashes) >= len(t.slots) {
			t.rehash(max(16, 2*len(t.slots)))
		}
		if t.fixed {
			ids[r] = t.lookupFixed(vecs[0], r, h, insert)
		} else {
			ids[r] = t.lookupArena(vecs, r, h, insert)
		}
	}
	return ids
}

func (t *KeyTable) lookupFixed(v *types.Vector, r int, h uint64, insert bool) uint32 {
	var k uint64
	var tag uint8
	switch {
	case v.Nulls != nil && v.Nulls[r]:
	case v.T == types.Float64:
		k, tag = floatKeyBits(v.Floats[r]), uint8(v.T)
	default:
		k, tag = uint64(v.Ints[r]), uint8(v.T)
	}
	mask := uint64(len(t.slots) - 1)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		s := t.slots[pos]
		if s == 0 {
			if !insert {
				return NoID
			}
			t.slots[pos] = t.newID(h)
			t.fkeys = append(t.fkeys, k)
			t.ftags = append(t.ftags, tag)
			return t.slots[pos] - 1
		}
		if id := s - 1; t.fkeys[id] == k && t.ftags[id] == tag {
			return id
		}
	}
}

func (t *KeyTable) lookupArena(vecs []*types.Vector, r int, h uint64, insert bool) uint32 {
	mask := uint64(len(t.slots) - 1)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		s := t.slots[pos]
		if s == 0 {
			if !insert {
				return NoID
			}
			t.slots[pos] = t.newID(h)
			for _, v := range vecs {
				t.arena = appendKeyAt(t.arena, v, r)
			}
			t.closeKey()
			return t.slots[pos] - 1
		}
		if id := s - 1; t.hashes[id] == h && keyEqualAt(vecs, r, t.arena[t.offs[id]:t.offs[id+1]]) {
			return id
		}
	}
}

// newID records the next id's hash and returns its slot value, id+1.
func (t *KeyTable) newID(h uint64) uint32 {
	if len(t.hashes) >= int(NoID)-1 {
		panic("exec: key table is out of ids")
	}
	t.hashes = append(t.hashes, h)
	return uint32(len(t.hashes))
}

// closeKey ends the arena key being appended.
func (t *KeyTable) closeKey() {
	if len(t.arena) > math.MaxUint32 {
		panic("exec: key arena exceeds 4 GiB")
	}
	t.offs = append(t.offs, uint32(len(t.arena)))
}

// toArena re-encodes a fixed-layout table into the arena layout, for the
// table whose single key column turns out not to be fixed-width after all.
func (t *KeyTable) toArena() {
	t.offs = append(make([]uint32, 0, len(t.fkeys)+1), 0)
	for id, k := range t.fkeys {
		if t.ftags[id] == 0 {
			t.arena = append(t.arena, 0)
		} else {
			t.arena = appendUint64(append(t.arena, 1, t.ftags[id]), k)
		}
		t.closeKey()
	}
	t.fixed, t.fkeys, t.ftags = false, nil, nil
}

func appendUint64(b []byte, x uint64) []byte {
	return append(b,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

func floatKeyBits(f float64) uint64 {
	// Normalize -0 and +0 so they are one key.
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// appendKeyAt appends position r of v in KeyEncoder's encoding. A nil
// (unmaterialized) column encodes as KeyEncoder's zero Value does.
func appendKeyAt(buf []byte, v *types.Vector, r int) []byte {
	switch {
	case v == nil:
		return appendUint64(append(buf, 1, byte(types.Invalid)), 0)
	case v.Nulls != nil && v.Nulls[r]:
		return append(buf, 0)
	case v.T == types.Float64:
		return appendUint64(append(buf, 1, byte(v.T)), floatKeyBits(v.Floats[r]))
	case v.T == types.String:
		s := v.Strs[r]
		return append(appendUint64(append(buf, 1, byte(v.T)), uint64(len(s))), s...)
	default:
		return appendUint64(append(buf, 1, byte(v.T)), uint64(v.Ints[r]))
	}
}

// keyEqualAt reports whether row r of vecs encodes to exactly key, without
// encoding it.
func keyEqualAt(vecs []*types.Vector, r int, key []byte) bool {
	for _, v := range vecs {
		if v != nil && v.Nulls != nil && v.Nulls[r] {
			if key[0] != 0 {
				return false
			}
			key = key[1:]
			continue
		}
		t, bits, s := types.Invalid, uint64(0), ""
		if v != nil {
			switch t = v.T; t {
			case types.Float64:
				bits = floatKeyBits(v.Floats[r])
			case types.String:
				s = v.Strs[r]
				bits = uint64(len(s))
			default:
				bits = uint64(v.Ints[r])
			}
		}
		// A matching tag pair fixes the component's width, so the payload
		// reads below stay inside key.
		if key[0] != 1 || key[1] != byte(t) || readUint64(key[2:]) != bits {
			return false
		}
		key = key[10:]
		if t == types.String {
			if string(key[:len(s)]) != s {
				return false
			}
			key = key[len(s):]
		}
	}
	return true
}

func readUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// evalKeys evaluates key expressions over b into out (reused when large
// enough); a nil evaluator yields a nil vector.
func evalKeys(evs []*Evaluator, b *Batch, out []*types.Vector) ([]*types.Vector, error) {
	out = out[:0]
	for _, ev := range evs {
		var v *types.Vector
		if ev != nil {
			var err error
			if v, err = ev.Eval(b); err != nil {
				return out, err
			}
		}
		out = append(out, v)
	}
	return out, nil
}
