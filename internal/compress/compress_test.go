package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"redshift/internal/types"
)

// mkInts builds an Int64 vector from a slice, with nulls where null[i].
func mkInts(vals []int64, nulls []bool) *types.Vector {
	v := types.NewVector(types.Int64, len(vals))
	for i, x := range vals {
		if nulls != nil && i < len(nulls) && nulls[i] {
			v.AppendNull()
		} else {
			v.Append(types.NewInt(x))
		}
	}
	return v
}

func mkStrs(vals []string) *types.Vector {
	v := types.NewVector(types.String, len(vals))
	for _, s := range vals {
		v.Append(types.NewString(s))
	}
	return v
}

func mkFloats(vals []float64) *types.Vector {
	v := types.NewVector(types.Float64, len(vals))
	for _, f := range vals {
		v.Append(types.NewFloat(f))
	}
	return v
}

func roundTrip(t *testing.T, e Encoding, v *types.Vector) {
	t.Helper()
	data, err := Encode(e, v)
	if err != nil {
		t.Fatalf("%s encode: %v", e, err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("%s decode: %v", e, err)
	}
	if !got.Equal(v) {
		t.Fatalf("%s round trip mismatch:\n in  %v\n out %v", e, v, got)
	}
	if enc, err := BlockEncoding(data); err != nil || enc != e {
		t.Fatalf("BlockEncoding = %v, %v; want %v", enc, err, e)
	}
}

func TestRoundTripAllEncodingsInt(t *testing.T) {
	vals := []int64{0, 1, -1, 127, -128, 300, 70000, math.MaxInt64, math.MinInt64, 42, 42, 42}
	nulls := []bool{false, true, false, false, false, false, false, false, false, true, false, false}
	for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, Mostly16, Mostly32, LZ} {
		roundTrip(t, e, mkInts(vals, nulls))
	}
}

func TestRoundTripByteDictInt(t *testing.T) {
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	roundTrip(t, ByteDict, mkInts(vals, nil))
}

func TestByteDictOverflow(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := Encode(ByteDict, mkInts(vals, nil)); err != ErrDictOverflow {
		t.Fatalf("err = %v, want ErrDictOverflow", err)
	}
}

func TestRoundTripStrings(t *testing.T) {
	vals := []string{"us-east-1", "us-west-2", "", "eu-west-1", "us-east-1", "héllo wörld", strings.Repeat("x", 5000)}
	for _, e := range []Encoding{Raw, RunLength, Text, LZ} {
		roundTrip(t, e, mkStrs(vals))
	}
	v := mkStrs([]string{"a", "b", "a"})
	v.AppendNull()
	for _, e := range []Encoding{Raw, RunLength, Text, LZ, ByteDict} {
		roundTrip(t, e, v)
	}
}

func TestRoundTripFloats(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	for _, e := range []Encoding{Raw, RunLength, LZ} {
		roundTrip(t, e, mkFloats(vals))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, ByteDict, LZ} {
		roundTrip(t, e, mkInts(nil, nil))
	}
	roundTrip(t, Text, mkStrs(nil))
}

func TestEncodeNotApplicable(t *testing.T) {
	if _, err := Encode(Delta, mkStrs([]string{"a"})); err == nil {
		t.Error("Delta on strings should fail")
	}
	if _, err := Encode(Text, mkInts([]int64{1}, nil)); err == nil {
		t.Error("Text on ints should fail")
	}
	if _, err := Encode(Mostly8, mkFloats([]float64{1})); err == nil {
		t.Error("Mostly8 on floats should fail")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	hugeRun := []byte{byte(RunLength), byte(types.Int64)}
	hugeRun = binary.AppendUvarint(hugeRun, 1<<40) // rows
	hugeRun = append(hugeRun, 0, 14)               // no nulls, value 7
	hugeRun = binary.AppendUvarint(hugeRun, 1<<40) // one run of 2^40
	lz := func(n int, raw []byte) []byte {
		var z bytes.Buffer
		w, _ := flate.NewWriter(&z, flate.BestSpeed)
		w.Write(raw)
		w.Close()
		return append(binary.AppendUvarint([]byte{byte(LZ), byte(types.Int64)}, uint64(n)), append([]byte{0}, z.Bytes()...)...)
	}
	cases := map[string][]byte{
		"empty":               nil,
		"one byte":            {0},
		"unknown encoding":    {byte(numEncodings) + 5, byte(types.Int64), 3, 0},
		"rle run overflows":   {byte(RunLength), byte(types.Int64), 10, 0, 2, 200},
		"text dict size":      {byte(Text), byte(types.String), 1, 0, 255, 255, 255, 255, 15},
		"row count 2^62":      {0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},
		"row count overlong":  {0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0},
		"type 0":              {byte(Raw), 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"type 7":              {byte(Raw), byte(types.Timestamp) + 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"delta over string":   {byte(Delta), byte(types.String), 1, 0, 2},
		"mostly over float":   {byte(Mostly8), byte(types.Float64), 1, 0, 0, 2},
		"text over int":       {byte(Text), byte(types.Int64), 1, 0, 1, 1, 'a', 0},
		"rle run of 2^40":     hugeRun,
		"rle runs short":      {byte(RunLength), byte(types.Int64), 10, 0, 2, 4},
		"rle zero run":        {byte(RunLength), byte(types.Int64), 10, 0, 2, 0},
		"raw rows unbacked":   {byte(Raw), byte(types.Int64), 200, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"delta rows unbacked": {byte(Delta), byte(types.Int64), 200, 1, 0, 1, 2, 3},
		"null bitmap short":   {byte(Raw), byte(types.Int64), 16, 1, 0xff},
		"mostly exc count":    {byte(Mostly8), byte(types.Int64), 2, 0, 3, 0, 2, 1, 2, 1, 1},
		"mostly exc pos":      {byte(Mostly8), byte(types.Int64), 2, 0, 1, 2, 2, 1, 1},
		"bytedict size":       {byte(ByteDict), byte(types.Int64), 1, 0, 0x81, 0x02, 0},
		"bytedict index":      {byte(ByteDict), byte(types.String), 2, 0, 1, 1, 'a', 0, 1},
		"text index":          {byte(Text), byte(types.String), 2, 0, 1, 1, 'a', 0, 1},
		"string length":       {byte(Raw), byte(types.String), 1, 0, 9, 'a'},
		"lz rows over max":    lz(maxRows+1, nil),
		"mostly rows 2^62":    {byte(Mostly8), byte(types.Int64), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0, 0},
		"lz inflates short":   lz(4, make([]byte, 24)),
		"lz inflates long":    lz(4, make([]byte, 1<<16)),
		"lz not deflate":      {byte(LZ), byte(types.Int64), 1, 0, 0xff, 0xff},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: corrupt block decoded without error", name)
		}
	}
	// Every valid payload, cut short anywhere, is an error and not a panic.
	forEachFixed(150, func(key string, e Encoding, v *types.Vector) {
		data, err := Encode(e, v)
		if err != nil {
			return // BYTEDICT overflow
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Fatalf("%s: decoded from the first %d of %d bytes", key, cut, len(data))
			}
		}
	})
}

// TestBlockMaximums: the row maximum is RUNLENGTH's and LZO's alone — RAW
// frames spill batches, which a skewed join fans out to any size — and an
// LZO string block may inflate only so far, through a scratch the pool does
// not keep when it is outsized.
func TestBlockMaximums(t *testing.T) {
	big := mkInts(make([]int64, maxRows+1), nil)
	for _, e := range []Encoding{Raw, Delta, Mostly8, ByteDict} {
		data, err := Encode(e, big)
		if err != nil {
			t.Fatalf("%s: %d rows refused: %v", e, big.Len(), err)
		}
		if got, err := Decode(data); err != nil || got.Len() != big.Len() {
			t.Fatalf("%s: %d rows do not decode: %v", e, big.Len(), err)
		}
	}
	for _, e := range []Encoding{RunLength, LZ} {
		if _, err := Encode(e, big); err == nil {
			t.Errorf("%s: encoded %d rows, a block Decode refuses", e, big.Len())
		}
	}

	// A few KB of DEFLATE stand for megabytes of one string.
	bomb, err := Encode(LZ, mkStrs([]string{strings.Repeat("x", 2*maxPooledScratch)}))
	if err != nil {
		t.Fatal(err)
	}
	_, pos, _ := parseHeader(bomb)
	z := new(inflater)
	if _, err := z.inflate(bomb[pos:], 4*len(bomb), 1<<20); err == nil {
		t.Error("inflated past the limit")
	}
	if cap(z.buf) > 1<<20+1 {
		t.Errorf("scratch grew to %d bytes under a %d-byte limit", cap(z.buf), 1<<20)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	inflaters.Put(z)
	if _, err := Decode(bomb); err != nil {
		t.Fatal(err)
	}
	if z := inflaters.Get().(*inflater); cap(z.buf) > maxPooledScratch {
		t.Errorf("the pool kept a %d-byte scratch", cap(z.buf))
	}
}

func TestPropertyRoundTripIntsEveryEncoding(t *testing.T) {
	f := func(vals []int64, nullSeed uint8) bool {
		nulls := make([]bool, len(vals))
		for i := range nulls {
			nulls[i] = (int(nullSeed)+i)%5 == 0
		}
		v := mkInts(vals, nulls)
		for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, Mostly16, Mostly32, LZ} {
			data, err := Encode(e, v)
			if err != nil {
				return false
			}
			got, err := Decode(data)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripStrings(t *testing.T) {
	f := func(vals []string) bool {
		v := mkStrs(vals)
		for _, e := range []Encoding{Raw, RunLength, Text, LZ} {
			data, err := Encode(e, v)
			if err != nil {
				return false
			}
			got, err := Decode(data)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestChooseSortedIntsPrefersDeltaOrRLE(t *testing.T) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(1_600_000_000 + i)
	}
	got := Choose(mkInts(vals, nil))
	if got != Delta {
		t.Errorf("Choose(sorted dense ints) = %v, want DELTA", got)
	}
}

func TestChooseConstantColumnPrefersRunLength(t *testing.T) {
	vals := make([]int64, 4096)
	got := Choose(mkInts(vals, nil))
	if got != RunLength {
		t.Errorf("Choose(constant) = %v, want RUNLENGTH", got)
	}
}

func TestChooseSmallIntsPrefersMostly8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63n(200) - 100
		if i%100 == 0 {
			vals[i] = math.MaxInt64 - int64(i) // a few exceptions
		}
	}
	got := Choose(mkInts(vals, nil))
	if got != Mostly8 {
		t.Errorf("Choose(mostly small random) = %v, want MOSTLY8", got)
	}
}

func TestChooseLowCardinalityStringsPrefersDictionary(t *testing.T) {
	regions := []string{"us-east-1", "us-west-2", "eu-west-1", "ap-northeast-1"}
	v := types.NewVector(types.String, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4096; i++ {
		v.Append(types.NewString(regions[rng.Intn(len(regions))]))
	}
	got := Choose(v)
	if got != ByteDict && got != Text {
		t.Errorf("Choose(low-card strings) = %v, want a dictionary encoding", got)
	}
}

func TestChooseHighEntropyStringsAvoidsDictionaryBloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := types.NewVector(types.String, 1024)
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 1024; i++ {
		b := make([]byte, 24)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		v.Append(types.NewString(string(b)))
	}
	got := Choose(v)
	// Unique random strings: dictionary adds overhead; RAW or LZ should win.
	if got == Text || got == ByteDict {
		t.Errorf("Choose(unique strings) = %v; dictionary should not win", got)
	}
}

func TestChooseEmpty(t *testing.T) {
	if got := Choose(types.NewVector(types.Int64, 0)); got != Raw {
		t.Errorf("Choose(empty) = %v, want RAW", got)
	}
}

func TestAnalyzeReportsAllApplicable(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	results := Analyze(mkInts(vals, nil))
	if len(results) != 8 { // all but Text apply to ints
		t.Fatalf("got %d results: %+v", len(results), results)
	}
	// Sorted ascending by size among applicable.
	prev := -1
	for _, r := range results {
		if !r.Applicable {
			continue
		}
		if prev >= 0 && r.Bytes < prev {
			t.Errorf("results not sorted: %+v", results)
		}
		prev = r.Bytes
		if r.Ratio <= 0 {
			t.Errorf("ratio missing for %v", r.Encoding)
		}
	}
	// ByteDict must be reported as inapplicable (overflow), with zero bytes.
	for _, r := range results {
		if r.Encoding == ByteDict && r.Applicable {
			t.Error("ByteDict should overflow on 1000 distinct values")
		}
	}
}

func TestCompressionRatioOnRealisticColumns(t *testing.T) {
	// A sorted timestamp column must compress at least 3x under DELTA
	// (2-byte varint deltas vs 8-byte raw values).
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = 1_300_000_000_000 + int64(i)*1000
	}
	v := mkInts(vals, nil)
	raw, _ := Encode(Raw, v)
	delta, _ := Encode(Delta, v)
	if len(raw) < 3*len(delta) {
		t.Errorf("delta ratio too small: raw=%d delta=%d", len(raw), len(delta))
	}
}

func TestSample(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i)
	}
	v := mkInts(vals, nil)
	s := Sample(v, 100)
	if s.Len() > 100 {
		t.Errorf("sample too large: %d", s.Len())
	}
	if s.Len() < 50 {
		t.Errorf("sample too small: %d", s.Len())
	}
	small := mkInts([]int64{1, 2}, nil)
	if Sample(small, 100) != small {
		t.Error("small vectors should be returned as-is")
	}
}

func TestParseEncodingRoundTrip(t *testing.T) {
	for e := Encoding(0); e < numEncodings; e++ {
		got, err := ParseEncoding(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEncoding(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEncoding("bogus"); err == nil {
		t.Error("ParseEncoding accepted bogus name")
	}
	if e, err := ParseEncoding("none"); err != nil || e != Raw {
		t.Errorf("ParseEncoding(none) = %v, %v", e, err)
	}
}
