package storage

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"redshift/internal/compress"
	"redshift/internal/types"
)

func intVec(vals ...int64) *types.Vector {
	v := types.NewVector(types.Int64, len(vals))
	for _, x := range vals {
		v.Append(types.NewInt(x))
	}
	return v
}

func TestSealDecodeRoundTrip(t *testing.T) {
	v := intVec(3, 1, 4, 1, 5, 9, 2, 6)
	blk, err := Seal(BlockID{Table: 1}, v, compress.Delta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := blk.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Errorf("round trip mismatch")
	}
	if blk.Rows != 8 {
		t.Errorf("Rows = %d", blk.Rows)
	}
	if blk.Zone.Min.I != 1 || blk.Zone.Max.I != 9 {
		t.Errorf("zone = %+v", blk.Zone)
	}
	if blk.Encoding() != compress.Delta {
		t.Errorf("Encoding = %v", blk.Encoding())
	}
}

// A sealed block's string bounds are copies: a vector loaded from text holds
// strings that point into that text, and a zone map that kept them would
// keep the whole text alive as long as the block.
func TestSealBoundsDoNotAliasTheVector(t *testing.T) {
	text := strings.Repeat("x", 1<<10) + "apple|pear|fig"
	v := types.NewVector(types.String, 3)
	for _, s := range strings.Split(text[1<<10:], "|") {
		v.Append(types.NewString(s))
	}
	for _, enc := range []compress.Encoding{compress.Raw, compress.Text, compress.LZ} {
		blk, err := Seal(BlockID{Table: 1}, v, enc)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		for _, b := range []string{blk.Zone.Min.S, blk.Zone.Max.S} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(b))); p >= lo && p < lo+uintptr(len(text)) {
				t.Errorf("%s: zone bound %q points into the text the vector was cut from", enc, b)
			}
		}
		if blk.Zone.Min.S != "apple" || blk.Zone.Max.S != "pear" {
			t.Errorf("%s: zone [%q, %q], want [apple, pear]", enc, blk.Zone.Min.S, blk.Zone.Max.S)
		}
	}
}

func TestSealByteDictOverflowFallsBackToRaw(t *testing.T) {
	v := types.NewVector(types.Int64, 0)
	for i := int64(0); i < 400; i++ {
		v.Append(types.NewInt(i))
	}
	blk, err := Seal(BlockID{}, v, compress.ByteDict)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Encoding() != compress.Raw {
		t.Errorf("overflowing BYTEDICT block sealed as %v, want RAW", blk.Encoding())
	}
	got, err := blk.Decode()
	if err != nil || !got.Equal(v) {
		t.Error("fallback block does not round trip")
	}
}

func TestZoneMapMayContainRange(t *testing.T) {
	z := ZoneMap{Min: types.NewInt(10), Max: types.NewInt(20)}
	iv := types.NewInt
	cases := []struct {
		lo, hi types.Value
		hasLo  bool
		hasHi  bool
		want   bool
	}{
		{iv(15), iv(15), true, true, true},          // inside
		{iv(0), iv(5), true, true, false},           // below
		{iv(25), iv(30), true, true, false},         // above
		{iv(20), iv(99), true, true, true},          // touches max
		{iv(0), iv(10), true, true, true},           // touches min
		{iv(0), types.Value{}, true, false, true},   // x >= 0
		{iv(21), types.Value{}, true, false, false}, // x >= 21
		{types.Value{}, iv(9), false, true, false},  // x <= 9
		{types.Value{}, types.Value{}, false, false, true},
	}
	for i, c := range cases {
		if got := z.MayContainRange(c.lo, c.hasLo, c.hi, c.hasHi); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
	if (ZoneMap{AllNull: true}).MayContainRange(iv(0), true, iv(1), true) {
		t.Error("all-null block should never match a range")
	}
}

func TestZoneMapNeverPrunesQualifyingBlock(t *testing.T) {
	// Property: for any block contents and any [lo,hi] range, if some value
	// in the block qualifies, MayContainRange must be true.
	f := func(vals []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		v := intVec(vals...)
		blk, err := Seal(BlockID{}, v, compress.Raw)
		if err != nil {
			return false
		}
		qualifies := false
		for _, x := range vals {
			if x >= lo && x <= hi {
				qualifies = true
				break
			}
		}
		may := blk.Zone.MayContainRange(types.NewInt(lo), true, types.NewInt(hi), true)
		return !qualifies || may
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvictFillPageFault(t *testing.T) {
	v := intVec(1, 2, 3)
	blk, _ := Seal(BlockID{Table: 9}, v, compress.Raw)
	payload := append([]byte(nil), blk.Payload()...)
	blk.Evict()
	if blk.Resident() {
		t.Fatal("evicted block still resident")
	}
	if _, err := blk.Decode(); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Decode after evict: %v", err)
	}
	// Zone map must survive eviction — that is what streaming restore uses.
	if blk.Zone.Min.I != 1 || blk.Zone.Max.I != 3 {
		t.Error("zone map lost on eviction")
	}
	if err := blk.Fill([]byte("corrupt")); err == nil {
		t.Error("Fill accepted corrupt payload")
	}
	if err := blk.Fill(payload); err != nil {
		t.Fatal(err)
	}
	got, err := blk.Decode()
	if err != nil || !got.Equal(v) {
		t.Error("block wrong after refill")
	}
}

func TestBlockIDString(t *testing.T) {
	id := BlockID{Table: 3, Slice: 1, Segment: 2, Column: 4, Index: 7}
	if got := id.String(); got != "t3/sl1/seg2/c4/b7" {
		t.Errorf("String = %q", got)
	}
}

func testSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "name", Type: types.String},
		types.Column{Name: "score", Type: types.Float64},
	)
}

func TestBuilderAlignedChains(t *testing.T) {
	schema := testSchema()
	encs := []compress.Encoding{compress.Delta, compress.LZ, compress.Raw}
	b, err := NewBuilder(1, 0, 0, schema, encs, 10)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 35
	cols := []*types.Vector{types.NewVector(types.Int64, rows), types.NewVector(types.String, rows), types.NewVector(types.Float64, rows)}
	for i := 0; i < rows; i++ {
		cols[0].Append(types.NewInt(int64(i)))
		cols[1].Append(types.NewString("n"))
		cols[2].Append(types.NewFloat(float64(i) / 2))
	}
	for c, v := range cols {
		if err := b.Column(c, v); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Finish(true)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Rows != rows {
		t.Errorf("Rows = %d", seg.Rows)
	}
	if seg.NumBlocks() != 4 { // 10+10+10+5
		t.Errorf("NumBlocks = %d", seg.NumBlocks())
	}
	for c := 0; c < schema.Len(); c++ {
		if len(seg.Cols[c]) != 4 {
			t.Errorf("column %d chain length %d", c, len(seg.Cols[c]))
		}
	}
	if seg.Block(0, 3).Rows != 5 {
		t.Errorf("tail block rows = %d", seg.Block(0, 3).Rows)
	}
	// Row linkage by logical offset: row 17 is block 1, offset 7.
	v, err := seg.Block(0, 1).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints[7] != 17 {
		t.Errorf("row 17 id = %d", v.Ints[7])
	}
	tail, err := seg.Block(0, 3).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if tail.Len() != 5 || tail.Ints[4] != rows-1 {
		t.Error("tail block wrong")
	}
	if !seg.Sorted {
		t.Error("Sorted flag lost")
	}
	if seg.ByteSize() <= 0 {
		t.Error("ByteSize must be positive")
	}
	count := 0
	seg.Blocks(func(*Block) { count++ })
	if count != 12 {
		t.Errorf("Blocks visited %d, want 12", count)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	schema := testSchema()
	if _, err := NewBuilder(1, 0, 0, schema, []compress.Encoding{compress.Raw}, 0); err == nil {
		t.Error("wrong encoding count accepted")
	}
	bad := []compress.Encoding{compress.Text, compress.Raw, compress.Raw}
	if _, err := NewBuilder(1, 0, 0, schema, bad, 0); err == nil {
		t.Error("TEXT on int column accepted")
	}
	encs := []compress.Encoding{compress.Raw, compress.Raw, compress.Raw}
	b, _ := NewBuilder(1, 0, 0, schema, encs, 0)
	if err := b.Column(0, types.NewVector(types.String, 0)); err == nil {
		t.Error("wrong-typed column accepted")
	}
	ids := types.NewVector(types.Int64, 2)
	ids.AppendNull()
	ids.Append(types.NewInt(1))
	if err := b.Column(0, ids); err != nil {
		t.Errorf("column with a null rejected: %v", err)
	}
	if err := b.Column(0, ids); err == nil {
		t.Error("column sealed twice")
	}
	if err := b.Column(1, types.NewVector(types.String, 0)); err == nil {
		t.Error("column of another length accepted")
	}
	if _, err := b.Finish(true); err == nil {
		t.Error("segment finished with columns missing")
	}
}

func TestBuilderEmptySegment(t *testing.T) {
	encs := []compress.Encoding{compress.Raw, compress.Raw, compress.Raw}
	b, _ := NewBuilder(1, 0, 0, testSchema(), encs, 0)
	for c, col := range testSchema().Columns {
		if err := b.Column(c, types.NewVector(col.Type, 0)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Finish(false)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Rows != 0 || seg.NumBlocks() != 0 {
		t.Errorf("empty segment: rows=%d blocks=%d", seg.Rows, seg.NumBlocks())
	}
}

func TestBuilderDefaultCap(t *testing.T) {
	encs := []compress.Encoding{compress.Raw, compress.Raw, compress.Raw}
	b, _ := NewBuilder(1, 0, 0, testSchema(), encs, -1)
	if b.seg.Cap != BlockCap {
		t.Errorf("Cap = %d", b.seg.Cap)
	}
}
