package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
	for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, Mostly16, Mostly32, LZ, Pack, Dict} {
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
	for _, e := range []Encoding{Raw, RunLength, Text, LZ, Dict} {
		roundTrip(t, e, mkStrs(vals))
	}
	v := mkStrs([]string{"a", "b", "a"})
	v.AppendNull()
	for _, e := range []Encoding{Raw, RunLength, Text, LZ, ByteDict, Dict} {
		roundTrip(t, e, v)
	}
}

func TestRoundTripFloats(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	for _, e := range []Encoding{Raw, RunLength, LZ, Pack, Dict} {
		roundTrip(t, e, mkFloats(vals))
	}
}

// TestSignedZeroAndNaNRoundTrip: every codec that holds DOUBLE hands back
// -0, NaN and the infinities bit for bit, -0 beside 0 included (RUNLENGTH
// and the dictionaries once compared them as equal).
func TestSignedZeroAndNaNRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	v := mkFloats([]float64{0, negZero, math.NaN(), math.NaN(), math.Inf(1), math.Inf(-1), negZero, 0})
	for e := Encoding(0); e < numEncodings; e++ {
		if !Applicable(e, types.Float64) {
			continue
		}
		data, err := Encode(e, v)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if got, err := Decode(data); err != nil || !sameVector(got, v) {
			t.Errorf("%s: %v, or %v decoded as %v", e, err, v, got)
		}
	}
}

// TestPackMatchesRaw is PACK's differential against RAW over generated
// blocks: every width from 0 to 64, with and without negatives, the int64
// extremes, all-NULL and one-row blocks, and DOUBLE blocks that scale and
// that do not. Each decodes to what RAW does, at the least width its range
// needs; DICT runs over the same blocks.
func TestPackMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	blocks := map[string]*types.Vector{}
	for w := 0; w <= 64; w++ {
		for _, lo := range []int64{0, -1 << 40, math.MinInt64} {
			span := uint64(1)<<w - 1
			vals := []int64{lo, int64(uint64(lo) + span)}
			for len(vals) < 300 {
				vals = append(vals, int64(uint64(lo)+rng.Uint64()&span))
			}
			blocks[fmt.Sprintf("width %d from %d", w, lo)] = mkInts(vals, nil)
		}
	}
	blocks["extremes"] = mkInts([]int64{math.MaxInt64, math.MinInt64, 0, -1, 1}, []bool{false, false, true})
	blocks["one row"] = mkInts([]int64{-7}, nil)
	blocks["all null"] = mkInts(make([]int64, 9), []bool{true, true, true, true, true, true, true, true, true})
	blocks["prices"] = mkFloats([]float64{0.25, 999.75, 12.5, 0.01, -3.1})
	blocks["integral doubles"] = mkFloats([]float64{-4, 8, 1e15})
	blocks["thirds"] = mkFloats([]float64{1.0 / 3, 2.0 / 3, 1})
	blocks["signed zero"] = mkFloats([]float64{1.5, math.Copysign(0, -1), 2})
	blocks["edges"] = mkFloats([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64})
	for name, v := range blocks {
		raw, _ := Encode(Raw, v)
		want, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Encoding{Pack, Dict} {
			data, err := Encode(e, v)
			if err != nil {
				t.Fatalf("%s %s: %v", e, name, err)
			}
			if got, err := Decode(data); err != nil || !sameVector(got, want) {
				t.Fatalf("%s %s: %v, or decoded differently from RAW", e, name, err)
			}
		}
		if v.T == types.Int64 && v.Len() > 1 && !v.HasNulls() {
			data, _ := Encode(Pack, v)
			_, pos, _ := parseHeader(data)
			lo, hi := slices.Min(v.Ints), slices.Max(v.Ints)
			if w := int(data[pos+1]); w != bits.Len64(uint64(hi)-uint64(lo)) {
				t.Errorf("%s: packed at %d bits", name, w)
			}
		}
	}
	// The DOUBLE blocks' forms: ×100, ×1, and bit patterns where no scale
	// gives every value back, -0 included.
	for name, scale := range map[string]byte{"prices": 2, "integral doubles": 0, "thirds": packIEEE, "signed zero": packIEEE} {
		data, _ := Encode(Pack, blocks[name])
		if _, pos, _ := parseHeader(data); data[pos] != scale {
			t.Errorf("%s: scale byte %d, want %d", name, data[pos], scale)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, ByteDict, LZ, Pack, Dict} {
		roundTrip(t, e, mkInts(nil, nil))
	}
	roundTrip(t, Text, mkStrs(nil))
	roundTrip(t, Dict, mkStrs(nil))
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
		"pack width 65":       {byte(Pack), byte(types.Int64), 1, 0, 0, 65, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"pack scale on ints":  {byte(Pack), byte(types.Int64), 1, 0, 2, 8, 0, 1},
		"pack scale 5":        {byte(Pack), byte(types.Float64), 1, 0, 5, 8, 0, 1},
		"pack body long":      {byte(Pack), byte(types.Int64), 2, 0, 0, 4, 0, 0x21, 0},
		"pack body short":     {byte(Pack), byte(types.Int64), 3, 0, 0, 8, 0, 1, 2},
		"pack rows over max":  binary.AppendUvarint([]byte{byte(Pack), byte(types.Int64)}, maxRows+1),
		"dict code":           {byte(Dict), byte(types.Int64), 3, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0x3c},
		"dict size over rows": {byte(Dict), byte(types.String), 1, 0, 2, 1, 'a', 1, 'b', 0},
	}
	// A VARCHAR LZO block cut anywhere in its stream fails where the stream
	// ends, as a truncated stream. The inflate under a limit of the block's
	// true size comes first: a reader that padded a cut stream with zeros
	// would fail it at once, where Decode would inflate toward maxInflated.
	varchar, err := Encode(LZ, fixedVector(types.String, 300, false, true))
	if err != nil {
		t.Fatal(err)
	}
	h, pos, _ := parseHeader(varchar)
	pos += (h.rows + 7) / 8
	raw, err := new(inflater).inflate(varchar[pos:], 0, maxInflated)
	if err != nil {
		t.Fatal(err)
	}
	for cut := pos; cut < len(varchar); cut++ {
		if _, err := new(inflater).inflate(varchar[pos:cut], 0, len(raw)); !errors.Is(err, errDeflate) {
			t.Fatalf("LZO VARCHAR stream cut to %d of %d bytes: %v, want a truncated stream", cut-pos, len(varchar)-pos, err)
		}
		cases[fmt.Sprintf("lz varchar cut to %d bytes", cut)] = varchar[:cut]
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

// TestBlockMaximums: the row maximum is for the codecs whose payload need not
// spend a byte a row (RUNLENGTH, LZO, and PACK and DICT at width 0) — RAW
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
	for _, e := range []Encoding{RunLength, LZ, Pack, Dict} {
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
		for _, e := range []Encoding{Raw, RunLength, Delta, Mostly8, Mostly16, Mostly32, LZ, Pack, Dict} {
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
		for _, e := range []Encoding{Raw, RunLength, Text, LZ, Dict} {
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
	if got != ByteDict && got != Text && got != Dict {
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
	if got == Text || got == ByteDict || got == Dict {
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
	if len(results) != 10 { // all but Text apply to ints
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
	// The runs are copied whole, and the sample is the one a value-at-a-time
	// copy takes, to the byte: every type, NULLs included, and maxima below
	// the chunk count (an empty sample).
	for _, typ := range allTypes {
		for _, nulls := range []bool{false, true} {
			v := fixedVector(typ, 10000, false, nulls)
			for _, max := range []int{4096, 100, 7} {
				want := boxedSample(v, max)
				got := Sample(v, max)
				g, err1 := Encode(Raw, got)
				w, err2 := Encode(Raw, want)
				if err1 != nil || err2 != nil || !bytes.Equal(g, w) || got.HasNulls() != want.HasNulls() {
					t.Errorf("%s nulls=%v max=%d: sample differs from the value-at-a-time copy", typ, nulls, max)
				}
			}
		}
	}
}

// boxedSample is Sample as it was written first: one boxed value at a time.
func boxedSample(v *types.Vector, max int) *types.Vector {
	n := v.Len()
	if n <= max {
		return v
	}
	const chunks = 8
	chunkLen := max / chunks
	out := types.NewVector(v.T, max)
	for c := 0; c < chunks; c++ {
		start := c * (n - chunkLen) / (chunks - 1)
		for i := start; i < start+chunkLen && i < n && out.Len() < max; i++ {
			out.Append(v.Get(i))
		}
	}
	return out
}

func TestParseEncodingRoundTrip(t *testing.T) {
	for e := Encoding(0); e < numEncodings; e++ {
		got, err := ParseEncoding(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEncoding(%q) = %v, %v", e.String(), got, err)
		}
	}
	_, err := ParseEncoding("bogus")
	if err == nil || err.Error() != `compress: unknown encoding "bogus"` {
		t.Errorf("ParseEncoding(bogus) error = %v", err)
	}
	for name, want := range map[string]Encoding{
		"none": Raw, "DELTA32K": Delta, "TEXT255": Text, "TEXT32K": Text,
		"LZ": LZ, "ZSTD": LZ, "  mostly16\t": Mostly16,
	} {
		if e, err := ParseEncoding(name); err != nil || e != want {
			t.Errorf("ParseEncoding(%q) = %v, %v; want %v", name, e, err, want)
		}
	}
	if got := Encoding(numEncodings).String(); got != "ENCODING(11)" {
		t.Errorf("String of an unknown tag = %q", got)
	}
}
