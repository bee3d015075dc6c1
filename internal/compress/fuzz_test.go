package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redshift/internal/types"
)

// FuzzDecode feeds arbitrary bytes to Decode: the outcome is an error or a
// vector as long as the header says, never a panic, and never more rows
// than the block's bytes or the package maximum can vouch for (which bounds
// what a hostile block can make Decode allocate).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		h, _, err := parseHeader(data)
		if err != nil {
			t.Fatalf("decoded a block whose header is refused: %v", err)
		}
		rows := h.rows
		if v.Len() != rows || rows > max(maxRows, len(data)) {
			t.Fatalf("decoded %d values, header says %d, out of %d bytes", v.Len(), rows, len(data))
		}
		if v.Nulls != nil && len(v.Nulls) != rows {
			t.Fatalf("%d null flags for %d rows", len(v.Nulls), rows)
		}
		for i, s := range v.Strs {
			if len(s) > len(data)*1032 { // DEFLATE's worst expansion
				t.Fatalf("string %d: %d bytes out of a %d-byte block", i, len(s), len(data))
			}
		}
	})
}

// fuzzVector builds a vector from a fuzzer-chosen spec: byte 0 picks the
// type, byte 1 the encoding, byte 2 the null pattern (0: none) and whether
// numbers are one byte or eight bytes wide; the rest are the values —
// NUL-separated strings, or little-endian numbers.
func fuzzVector(spec []byte) (Encoding, *types.Vector) {
	t := allTypes[int(spec[0])%len(allTypes)]
	e := Encoding(spec[1] % byte(numEncodings))
	nullEvery, wide := int(spec[2]&7), spec[2]&8 != 0
	body := spec[3:]
	v := types.NewVector(t, 0)
	add := func(i int, val types.Value) {
		if nullEvery != 0 && i%(nullEvery+1) == nullEvery {
			v.AppendNull()
		} else {
			v.Append(val)
		}
	}
	if t == types.String {
		for i, s := range bytes.Split(body, []byte{0}) {
			add(i, types.NewString(string(s)))
		}
		return e, v
	}
	width := 1
	if wide {
		width = 8
	}
	for i := 0; (i+1)*width <= len(body); i++ {
		x := int64(int8(body[i]))
		if wide {
			x = int64(binary.LittleEndian.Uint64(body[i*8:]))
		}
		switch t {
		case types.Float64:
			add(i, types.NewFloat(math.Float64frombits(uint64(x))))
		case types.Bool:
			add(i, types.Value{T: t, I: x & 1})
		default:
			add(i, types.Value{T: t, I: x})
		}
	}
	return e, v
}

// sameVector is Vector.Equal to the bit: a codec must hand back what it was
// given, -0 and every NaN included, whatever SQL makes of the value.
func sameVector(a, b *types.Vector) bool {
	if a.T != b.T || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			return false
		}
		if a.IsNull(i) {
			continue
		}
		x, y := a.Get(i), b.Get(i)
		if a.T == types.Float64 {
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		} else if !types.Equal(x, y) {
			return false
		}
	}
	return true
}

// FuzzRoundTrip lets the fuzzer choose type, values, null pattern and
// encoding: Decode(Encode(v)) must equal v.
func FuzzRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) < 3 {
			return
		}
		e, v := fuzzVector(spec)
		data, err := Encode(e, v)
		if err != nil {
			if Applicable(e, v.T) && err != ErrDictOverflow {
				t.Fatalf("%s over %s: %v", e, v.T, err)
			}
			return
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s over %s: decode: %v", e, v.T, err)
		}
		if !sameVector(got, v) {
			t.Fatalf("%s over %s: round trip mismatch\n in  %v\n out %v", e, v.T, v, got)
		}
	})
}

// roundTripSpec renders a fixed vector as a FuzzRoundTrip input.
func roundTripSpec(e Encoding, v *types.Vector) []byte {
	ti := 0
	for i, t := range allTypes {
		if t == v.T {
			ti = i
		}
	}
	spec := []byte{byte(ti), byte(e), 6 | 8} // a null every seventh value, wide numbers
	for i := 0; i < v.Len(); i++ {
		switch v.T {
		case types.String:
			if i > 0 {
				spec = append(spec, 0)
			}
			spec = append(spec, v.Strs[i]...)
		case types.Float64:
			spec = binary.LittleEndian.AppendUint64(spec, math.Float64bits(v.Floats[i]))
		default:
			spec = binary.LittleEndian.AppendUint64(spec, uint64(v.Ints[i]))
		}
	}
	return spec
}

// refusedHeaders are FuzzDecode seeds whose header parseHeader must refuse
// before anything indexes the codecs table with its tag: a tag one past the
// last encoding, the largest tag a byte holds, and an encoding over a type
// it cannot hold.
var refusedHeaders = map[string][]byte{
	"tag-numEncodings": {byte(numEncodings), byte(types.Int64), 1, 0, 0},
	"tag-0xFF":         {0xFF, byte(types.String), 1, 0, 0},
	"TEXT-over-BIGINT": {byte(Text), byte(types.Int64), 1, 0, 1, 1, 'x', 0},
}

// edgeBlock is one encoding of one vector.
type edgeBlock struct {
	e Encoding
	v *types.Vector
}

// edgeBlocks are the bit-packed codecs' edge cases, committed as seeds of
// both targets: width 0, width 64 at the int64 extremes, an all-NULL and a
// one-row block, a DOUBLE block that scales, one that packs bit patterns, a
// dictionary of one entry, and -0 beside 0 where a codec compares values.
func edgeBlocks() map[string]edgeBlock {
	allNull := mkInts(make([]int64, 3), []bool{true, true, true})
	negZero := math.Copysign(0, -1)
	return map[string]edgeBlock{
		"PACK-width-0":            {Pack, mkInts([]int64{7, 7, 7, 7, 7}, nil)},
		"PACK-width-64-extremes":  {Pack, mkInts([]int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1}, nil)},
		"PACK-all-null":           {Pack, allNull},
		"PACK-one-row":            {Pack, mkInts([]int64{-12345}, nil)},
		"PACK-scaled-double":      {Pack, mkFloats([]float64{0.25, 1000, 17.5, -3.75, 0.01})},
		"PACK-bit-pattern-double": {Pack, mkFloats([]float64{0, negZero, math.NaN(), math.Inf(1), 1.0 / 3})},
		"DICT-one-entry":          {Dict, mkStrs([]string{"open", "open", "open"})},
		"DICT-all-null":           {Dict, allNull},
		"DICT-one-row-double":     {Dict, mkFloats([]float64{2.5})},
		"BYTEDICT-signed-zeros":   {ByteDict, mkFloats([]float64{0, negZero, 1, negZero})},
		"RUNLENGTH-signed-zeros":  {RunLength, mkFloats([]float64{0, negZero, 1, negZero})},
	}
}

// TestFuzzSeedCorpus keeps the committed seed corpus — one valid payload
// per encoding × type for each target, edgeBlocks and refusedHeaders —
// equal to what the fixed vectors encode to. The format is frozen, so the files only change
// when a case is added; UPDATE_FUZZ_CORPUS=1 writes them.
func TestFuzzSeedCorpus(t *testing.T) {
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	check := func(target, key string, input []byte) {
		name := strings.NewReplacer("/", "-", " ", "_", "+", "-").Replace(key)
		path := filepath.Join("testdata", "fuzz", target, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", input)
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: seed missing or stale (%v); run with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
	for name, data := range refusedHeaders {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted the block", name)
		}
		check("FuzzDecode", name, data)
	}
	for name, b := range edgeBlocks() {
		data, err := Encode(b.e, b.v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("FuzzDecode", name, data)
		check("FuzzRoundTrip", name, roundTripSpec(b.e, b.v))
	}
	forEachFixed(40, func(key string, e Encoding, v *types.Vector) {
		if !strings.HasSuffix(key, "narrow+nulls") {
			return // one shape per encoding × type, the one every encoding takes
		}
		data, err := Encode(e, v)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		check("FuzzDecode", key, data)
		check("FuzzRoundTrip", key, roundTripSpec(e, v))
	})
}
