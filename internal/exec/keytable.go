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
// Ids stay in slice-indexed arrays; the 64-bit hash of every id is stored,
// so re-laying the slots never touches a key. Three layouts:
//
//   - dense: one integer column (a non-NULL Int64, Date, Timestamp or Bool
//     key of one type) whose values span at most twice the slots the hashed
//     layout would take. The slot of key k is k − base, so a slot can hold
//     only one key: a lookup is an index, with no hash, no probe chain and no
//     key compare.
//   - fixed: any other one non-string column, open addressing with linear
//     probing at load ≤ ½. The key is its 64 payload bits plus a type tag; a
//     lookup compares those and allocates nothing.
//   - arena: anything else, probed the same way. Each key is KeyEncoder's
//     byte encoding appended to one growing arena, compared column by column
//     against the probing row only when the stored hash matches.
//
// The layout is chosen where the table re-lays itself anyway (relay): at
// growth, and when a join sizes it for its rows. A key the dense
// window cannot take — NULL, another type, or one the memory rule will not
// stretch the window to — sends the table to the hashed fixed layout.
//
// With zero key columns (a scalar aggregate) the only id is 0 and nothing is
// hashed. Find is read-only, so a finished table may be probed from several
// goroutines, each with its own hashes and ids.
type KeyTable struct {
	slots  []uint32 // id+1 per slot, 0 = empty; len is a power of two
	hashes []uint64 // per id

	fixed bool
	fkeys []uint64 // fixed and dense layouts: payload bits per id
	ftags []uint8  // fixed and dense layouts: 0 = NULL, else the column type
	dtag  uint8    // dense layout: the one type tag of its keys; 0 = hashed
	base  uint64   // dense layout: the key of slot 0

	arena []byte   // arena layout: the encoded keys back to back
	offs  []uint32 // arena layout: id's key is arena[offs[id]:offs[id+1]]

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

// slotsFor is the hashed layout's slot count for n keys: the power of two
// that keeps the load at or under ½.
func slotsFor(n int) int { return max(16, 1<<bits.Len(uint(2*max(n, 1)-1))) }

// relay lays the slots out afresh for n keys: the stored ones and those
// in s. It is dense when they are all integers of one type and the window
// it would take, room times their span, is at most twice the hashed
// layout's slot count (the memory rule), hashed otherwise. A join sizes its
// table this way before inserting its rows' keys, room 1; a growing table
// re-lays itself this way, with s the key it cannot place, room 2, the keys
// in the middle of the window. The span then grows by half before the next
// re-lay, so n inserts re-lay a table O(log n) times.
func (t *KeyTable) relay(n int, s keySpan, room uint64) {
	if room == 1 && s.tag != spanMixed { // a join's integer keys, none inserted yet: the arrays sized once
		t.hashes, t.fkeys, t.ftags = make([]uint64, 0, n), make([]uint64, 0, n), make([]uint8, 0, n)
	}
	budget := uint64(2 * slotsFor(n))
	for id := 0; id < len(t.fkeys) && s.tag != spanMixed && uint64(s.hi-s.lo) < budget; id++ {
		s = s.add(t.fkeys[id], t.ftags[id])
	}
	d := uint64(s.hi - s.lo)
	w := (d + 1) * room
	if s.tag == 0 || s.tag == spanMixed || d >= budget || w > budget {
		t.dtag = 0
		t.rehash(slotsFor(n))
		return
	}
	w = max(w, 16)
	t.dtag, t.base = s.tag, uint64(s.lo)-(w-d-1)/2
	t.slots = make([]uint32, w)
	for id, k := range t.fkeys {
		t.slots[k-t.base] = uint32(id) + 1
	}
}

// rehash lays the slots out hashed, at the given power-of-two size, from
// the stored hashes.
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

// keySpan is what the layout choice needs to know of a set of fixed keys:
// their one type tag and their range. The zero value is the empty set.
type keySpan struct {
	tag    uint8 // 0 = no key yet, spanMixed = not all integers of one type
	lo, hi int64
}

const spanMixed = ^uint8(0)

// add is s widened by one key: its payload bits and type tag (0 = NULL).
func (s keySpan) add(k uint64, tag uint8) keySpan {
	switch {
	case tag == 0 || types.Type(tag) == types.Float64 || s.tag != 0 && s.tag != tag:
		s.tag = spanMixed
	case s.tag == 0:
		s.tag, s.lo, s.hi = tag, int64(k), int64(k)
	default:
		s.lo, s.hi = min(s.lo, int64(k)), max(s.hi, int64(k))
	}
	return s
}

// addKeys is s widened by the key of every row that skip (may be nil) does
// not mark. Keys of other than one fixed-width column are not integers of
// one type.
func (s keySpan) addKeys(vecs []*types.Vector, skip []bool) keySpan {
	if len(vecs) != 1 || vecs[0] == nil || !vecs[0].T.Fixed() {
		return keySpan{tag: spanMixed}
	}
	for r := 0; r < vecs[0].Len() && s.tag != spanMixed; r++ {
		if skip == nil || !skip[r] {
			s = s.add(fixedKey(vecs[0], r))
		}
	}
	return s
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

// hashKeys fills hashes[:n] with the hash of each row's key tuple: one type
// switch per column, then a tight loop over its payload slice. It does not
// depend on any table's layout, so the same hash routes a row to its spill
// partition (spillPart) and finds it in whichever table is later built over
// that partition. Column types are not hashed — equality tells them apart.
func hashKeys(vecs []*types.Vector, n int, hashes []uint64) []uint64 {
	hashes = growTo(hashes[:0], n)
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
					x = types.FloatKeyBits(f)
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
			*buf = growTo((*buf)[:0], n) // all false
			out = *buf
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
	ids = growTo(ids[:0], len(hashes))
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
	case insert && !fixedVec && (t.fixed || len(t.hashes) == 0):
		t.toArena()
	case insert && len(t.hashes) == 0:
		t.fixed = true
	case len(t.hashes) == 0 || t.fixed && !fixedVec:
		// Nothing stored, or only fixed keys and a probe that cannot equal one.
		for r := range ids {
			ids[r] = NoID
		}
		return ids
	case t.dtag != 0 && !insert:
		t.findDense(vecs[0], skip, ids)
		return ids
	}
	for r, h := range hashes {
		if skip != nil && skip[r] {
			ids[r] = NoID
			continue
		}
		if t.fixed {
			ids[r] = t.lookupFixed(vecs[0], r, h, insert)
		} else {
			ids[r] = t.lookupArena(vecs, r, h, insert)
		}
	}
	return ids
}

// findDense is Find over the dense layout: a key's slot is its offset from
// base, and an empty slot's 0 minus one is NoID.
func (t *KeyTable) findDense(v *types.Vector, skip []bool, ids []uint32) {
	same := v.T == types.Type(t.dtag)
	for r := range ids {
		ids[r] = NoID
		if same && (skip == nil || !skip[r]) && (v.Nulls == nil || !v.Nulls[r]) {
			if p := uint64(v.Ints[r]) - t.base; p < uint64(len(t.slots)) {
				ids[r] = t.slots[p] - 1
			}
		}
	}
}

// fixedKey is row r of a fixed-width column as the fixed layouts store it:
// its payload bits and type tag, 0 for NULL.
func fixedKey(v *types.Vector, r int) (uint64, uint8) {
	switch {
	case v.Nulls != nil && v.Nulls[r]:
		return 0, 0
	case v.T == types.Float64:
		return types.FloatKeyBits(v.Floats[r]), uint8(v.T)
	default:
		return uint64(v.Ints[r]), uint8(v.T)
	}
}

// lookupFixed finds row r's key in slot p: its offset in a dense window, or
// where its probe ends in the hashed layout — its own slot or the empty one
// that takes it. A key the dense window cannot hold, or a hashed table at
// load ½, re-lays the table first.
func (t *KeyTable) lookupFixed(v *types.Vector, r int, h uint64, insert bool) uint32 {
	k, tag := fixedKey(v, r)
	p := k - t.base
	if t.dtag == 0 {
		if insert && 2*len(t.hashes) >= len(t.slots) {
			t.relay(len(t.hashes)+1, keySpan{}.add(k, tag), 2)
			return t.lookupFixed(v, r, h, insert)
		}
		mask := uint64(len(t.slots) - 1)
		for p = h & mask; t.slots[p] != 0; p = (p + 1) & mask {
			if id := t.slots[p] - 1; t.fkeys[id] == k && t.ftags[id] == tag {
				return id
			}
		}
		if !insert {
			return NoID
		}
	} else if tag != t.dtag || p >= uint64(len(t.slots)) {
		if !insert {
			return NoID
		}
		t.relay(len(t.hashes)+1, keySpan{}.add(k, tag), 2)
		return t.lookupFixed(v, r, h, insert)
	}
	if s := t.slots[p]; s != 0 || !insert {
		return s - 1
	}
	t.slots[p] = t.newID(h)
	t.fkeys, t.ftags = append(t.fkeys, k), append(t.ftags, tag)
	return t.slots[p] - 1
}

func (t *KeyTable) lookupArena(vecs []*types.Vector, r int, h uint64, insert bool) uint32 {
	if insert && 2*len(t.hashes) >= len(t.slots) {
		t.rehash(slotsFor(len(t.hashes) + 1))
	}
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
	if t.dtag != 0 {
		t.rehash(slotsFor(len(t.hashes) + 1))
	}
	t.fixed, t.fkeys, t.ftags, t.dtag = false, nil, nil, 0
}

func appendUint64(b []byte, x uint64) []byte {
	return append(b,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
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
		return appendUint64(append(buf, 1, byte(v.T)), types.FloatKeyBits(v.Floats[r]))
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
				bits = types.FloatKeyBits(v.Floats[r])
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
