package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"redshift/internal/types"
)

// flateLevels are the levels the differential tests have compress/flate
// write at: Huffman-only blocks, stored blocks, the level LZO blocks are
// written at, the default and the best.
var flateLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

// inflateLimit bounds what one differential case may inflate to.
const inflateLimit = 1 << 20

// deflateAt compresses data with compress/flate at level.
func deflateAt(tb testing.TB, data []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

// checkInflate holds inflate to compress/flate's reader, the oracle, on
// one stream: the same bytes, or both fail. Output past inflateLimit
// counts as a failure of the oracle, since inflate refuses it.
func checkInflate(t *testing.T, z *inflater, stream []byte) {
	t.Helper()
	want, werr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(stream)), inflateLimit+1))
	got, gerr := z.inflate(stream, len(stream), inflateLimit)
	switch {
	case werr != nil || len(want) > inflateLimit:
		if gerr == nil {
			t.Fatalf("stream %x: compress/flate fails (%v, %d bytes), inflate returns %d bytes", stream, werr, len(want), len(got))
		}
	case gerr != nil:
		t.Fatalf("stream %x: compress/flate reads %d bytes, inflate fails: %v", stream, len(want), gerr)
	case !bytes.Equal(got, want):
		t.Fatalf("stream %x: inflate returns %q, compress/flate %q", stream, got, want)
	}
}

// FuzzInflate is the differential fuzzer for the DEFLATE reader. mode picks
// what data becomes: compressed by compress/flate at one of flateLevels,
// or (mode 5) taken as the stream itself. The stream then has byte at
// XORed with flip and is cut to its first cut bytes. The pooled inflater
// carries its tables from one input to the next.
func FuzzInflate(f *testing.F) {
	seeds := [][]byte{nil, []byte("a"), []byte("hello, hello, hello, hello"), bytes.Repeat([]byte{0}, 1000)}
	g := lcg(7)
	random := make([]byte, 3000)
	for i := range random {
		random[i] = byte(g.next() % 7) // skewed: a dynamic block with matches
	}
	seeds = append(seeds, random)
	for _, typ := range []types.Type{types.Int64, types.Float64, types.String} {
		data, _ := mustEncode(f, Raw, typ, false)
		seeds = append(seeds, data)
	}
	for _, s := range seeds {
		for mode := uint8(0); mode < 6; mode++ {
			f.Add(s, mode, uint16(0), uint8(0), uint16(0xffff))
			f.Add(s, mode, uint16(len(s)/3), uint8(0x10), uint16(0xffff))
			f.Add(s, mode, uint16(0), uint8(0), uint16(len(s)/2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, at uint16, flip uint8, cut uint16) {
		stream := bytes.Clone(data)
		if m := int(mode) % 6; m < len(flateLevels) {
			stream = deflateAt(t, data, flateLevels[m])
		}
		if len(stream) > 0 {
			stream[int(at)%len(stream)] ^= flip
		}
		stream = stream[:min(int(cut), len(stream))]
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		checkInflate(t, z, stream)
	})
}

// TestInflateMatchesFlate runs the differential check deterministically:
// RAW payloads of the fixed vectors and skewed random bytes, compressed at
// every level, each stream also with a byte flipped and cut short, through
// one inflater reused throughout as a pooled one is.
func TestInflateMatchesFlate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	var inputs [][]byte
	for _, typ := range []types.Type{types.Int64, types.Float64, types.String} {
		for _, narrow := range []bool{true, false} {
			inputs = append(inputs, AppendRaw(nil, fixedVector(typ, 700, narrow, true)))
		}
	}
	for i := 0; i < 6; i++ {
		in := make([]byte, rng.Intn(5000))
		for j := range in {
			in[j] = byte(rng.Intn(1 + 40*i))
		}
		inputs = append(inputs, in)
	}
	z := new(inflater)
	for _, in := range inputs {
		for _, level := range flateLevels {
			stream := deflateAt(t, in, level)
			checkInflate(t, z, stream)
			for k := 0; k < 40; k++ {
				mutated := bytes.Clone(stream)
				if len(mutated) > 0 {
					mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
				}
				checkInflate(t, z, mutated)
				checkInflate(t, z, stream[:rng.Intn(len(stream)+1)])
			}
		}
	}
}

// TestInflateRules pins the rules compress/flate keeps. Each refused
// stream is a hand-built dynamic block that breaks one rule and would
// otherwise read "aa": HLIT past 286, HDIST past 30, a repeat of the
// previous length at position 0. A lone length-1 code is a code, an
// over-subscribed or incomplete one is not, and bytes after the final
// block are ignored.
func TestInflateRules(t *testing.T) {
	// bitsOf packs (value, width) fields LSB first, as DEFLATE does; a
	// Huffman code goes in bit-reversed.
	bitsOf := func(fields ...uint) []byte {
		var out []byte
		var acc, n uint
		for i := 0; i < len(fields); i += 2 {
			acc |= fields[i] << n
			for n += fields[i+1]; n >= 8; n -= 8 {
				out, acc = append(out, byte(acc)), acc>>8
			}
		}
		if n > 0 {
			out = append(out, byte(acc))
		}
		return out
	}
	// dynamic is a final dynamic block: HLIT and HDIST as given, the
	// code-length code's lengths by symbol (HCLEN reaches symbol 1 in
	// codeOrder), the code lengths, then 'a' 'a' and end of block, which
	// every block here codes as "0", "0", "1".
	dynamic := func(hlit, hdist uint, clen map[uint8]uint, lengths ...uint) []byte {
		f := []uint{1, 1, 2, 2, hlit, 5, hdist, 5, 14, 4}
		for _, sym := range codeOrder[:18] {
			f = append(f, clen[sym], 3)
		}
		return bitsOf(append(append(f, lengths...), 0, 1, 0, 1, 1, 1)...)
	}
	// With the code-length code 18:"0", 0:"10", 1:"11": 97 zeros, a 1 for
	// 'a', 158 zeros, a 1 for end of block; then the distance lengths.
	clen := map[uint8]uint{18: 1, 0: 2, 1: 2}
	lit := []uint{0, 1, 86, 7, 3, 2, 0, 1, 127, 7, 0, 1, 9, 7, 3, 2}
	oneDist := append(slices.Clone(lit), 1, 2)        // one empty distance length
	hlit287 := append(slices.Clone(lit), 0, 1, 19, 7) // 30 more zeros, then
	hlit287 = append(hlit287, 1, 2)                   // one distance length
	hdist31 := append(slices.Clone(lit), 0, 1, 20, 7) // 31 distance lengths
	// With 0:"00", 1:"01", 16:"10", 18:"11": a 16 first (three copies of
	// the length before it), then as above.
	rep0 := []uint{1, 2, 0, 2, 3, 2, 83, 7, 2, 2, 3, 2, 127, 7, 3, 2, 9, 7, 2, 2, 0, 2}
	cases := []struct {
		name   string
		stream []byte
		want   string
		ok     bool
	}{
		{"valid", dynamic(0, 0, clen, oneDist...), "aa", true},
		{"bytes after the final block", append(dynamic(0, 0, clen, oneDist...), 0xde, 0xad), "aa", true},
		{"HLIT 287", dynamic(30, 0, clen, hlit287...), "", false},
		{"HDIST 31", dynamic(0, 30, clen, hdist31...), "", false},
		{"repeat at position 0", dynamic(0, 0, map[uint8]uint{0: 2, 1: 2, 16: 2, 18: 2}, rep0...), "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkInflate(t, new(inflater), c.stream)
			got, err := new(inflater).inflate(c.stream, 0, inflateLimit)
			if (err == nil) != c.ok || string(got) != c.want {
				t.Errorf("inflate returns %q, %v; want %q, ok %v", got, err, c.want, c.ok)
			}
		})
	}
	var h huffman
	if !h.init([]uint8{0, 1, 0}) || h[0] != 1<<4|1 || h[1] != 0xffff {
		t.Errorf("a lone length-1 code: %v", h)
	}
	if !h.init([]uint8{0, 0}) || h[0] != 0xffff {
		t.Errorf("an empty code: %v", h)
	}
	for _, lengths := range [][]uint8{{1, 1, 1}, {1, 2}, {2}, {2, 2, 2}, {1, 2, 2, 2}} {
		if h.init(lengths) {
			t.Errorf("code lengths %v, over-subscribed or incomplete, accepted", lengths)
		}
	}
}

// BenchmarkInflate times the LZO decode of two 4096-row blocks shaped like
// the columns the loader gives LZO in the benchmark's fact table: notes
// ("tag<n>-" and a random base-36 word: nearly all literals) and prices
// (quarter-unit doubles: zero bytes, short matches).
func BenchmarkInflate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	notes, prices := types.NewVector(types.String, 4096), types.NewVector(types.Float64, 4096)
	for i := 0; i < 4096; i++ {
		notes.Append(types.NewString(fmt.Sprintf("tag%d-%s", 10+rng.Intn(64), strconv.FormatUint(uint64(rng.Int63()), 36))))
		prices.Append(types.NewFloat(float64(1+rng.Intn(4000)) * 0.25))
	}
	for _, v := range []*types.Vector{notes, prices} {
		data, err := Encode(LZ, v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.T.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if decodeSink, err = Decode(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/value")
		})
	}
}
