// Package compress implements the per-column block encodings of §2.1 and the
// automatic, sampling-based encoding selection of §1 ("we automatically pick
// compression types based on data sampling") and §3.3 ("simply setting them
// accurately ourselves").
//
// The encoding set mirrors Redshift's: RAW, RUNLENGTH, DELTA, MOSTLY8/16/32,
// BYTEDICT, TEXT (string dictionary) and LZO (stand-in: DEFLATE, written by
// the stdlib's compress/flate and read by this package's own inflater), plus
// two bit-packed codecs: PACK (frame of reference: the block minimum, then
// every value minus it at the block's bit width; a DOUBLE block as decimal
// integers k with k/10^e its exact value, the ALP idea, or else as its IEEE
// bit patterns) and DICT (a first-seen dictionary, then the codes at
// ⌈log₂ distinct⌉ bits). Each is one row of the codecs table: its names, the
// column types it holds, its price and its coder. Every encoded block is
// self-describing: a fixed header carries the encoding, the value type, the
// row count and the null bitmap, so blocks can be shipped to S3, replicated
// and page-faulted back without side tables.
//
// Decoding reads the payload through an index into the byte slice and copies
// everything out of it — integers by value, strings into one arena per block
// — so the caller may reuse the payload buffer as soon as Decode returns.
// Every string of a decoded block is a sub-string of that block's arena: a
// consumer that keeps a few values of a block alive for long should copy
// them (the scan re-packs the survivors of a filtered block for that reason).
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"redshift/internal/types"
)

// Encoding identifies a block codec.
type Encoding uint8

// The supported encodings. Raw must be zero so the zero value is valid.
const (
	Raw Encoding = iota
	RunLength
	Delta
	Mostly8
	Mostly16
	Mostly32
	ByteDict
	Text
	LZ
	Pack
	Dict

	numEncodings
)

// codec is everything one encoding is, declared once: the names the ENCODE
// clause knows it by (the first is the one String prints), the column types
// it can hold (nil: every type), whether every row costs at least one payload
// byte, its price and its coder.
//
// A row that costs a byte vouches for the header's row count with the
// payload's length. A RUNLENGTH or LZO payload of a few bytes can stand for
// any number of rows, and so can a PACK or DICT one at width 0: those are
// held to maxRows instead, which Encode refuses to exceed so that it never
// writes a block Decode would refuse.
//
// weight is what Choose charges per encoded byte: 1 for a lightweight codec,
// lzPenalty for LZ, whose decode costs more CPU.
type codec struct {
	names    []string
	holds    []types.Type
	byteARow bool
	weight   float64
	encode   func(buf *bytes.Buffer, v *types.Vector) error
	decode   func(p []byte, v *types.Vector, n int) error
}

// integral is the types DELTA and MOSTLY hold, and PACK with DOUBLE: those
// stored as int64.
var integral = []types.Type{types.Int64, types.Date, types.Timestamp, types.Bool}

// codecs is indexed by Encoding; every index is below numEncodings.
var codecs = [numEncodings]codec{
	Raw: {names: []string{"RAW", "NONE"}, byteARow: true, weight: 1,
		encode: encodeRaw, decode: decodeRaw},
	RunLength: {names: []string{"RUNLENGTH"}, weight: 1,
		encode: encodeRunLength, decode: decodeRunLength},
	Delta: {names: []string{"DELTA", "DELTA32K"}, holds: integral, byteARow: true, weight: 1,
		encode: encodeDelta, decode: decodeDelta},
	Mostly8: {names: []string{"MOSTLY8"}, holds: integral, byteARow: true, weight: 1,
		encode: mostly(1).encode, decode: mostly(1).decode},
	Mostly16: {names: []string{"MOSTLY16"}, holds: integral, byteARow: true, weight: 1,
		encode: mostly(2).encode, decode: mostly(2).decode},
	Mostly32: {names: []string{"MOSTLY32"}, holds: integral, byteARow: true, weight: 1,
		encode: mostly(4).encode, decode: mostly(4).decode},
	ByteDict: {names: []string{"BYTEDICT"}, byteARow: true, weight: 1,
		encode: dictCoder(8).encode, decode: dictCoder(8).decode},
	Text: {names: []string{"TEXT", "TEXT255", "TEXT32K"}, holds: []types.Type{types.String}, byteARow: true, weight: 1,
		encode: encodeText, decode: decodeText},
	LZ: {names: []string{"LZO", "LZ", "ZSTD"}, weight: lzPenalty,
		encode: encodeLZ, decode: decodeLZ},
	Pack: {names: []string{"PACK"}, holds: append([]types.Type{types.Float64}, integral...), weight: 1,
		encode: encodePack, decode: decodePack},
	Dict: {names: []string{"DICT"}, weight: 1,
		encode: dictCoder(0).encode, decode: dictCoder(0).decode},
}

// String returns the CREATE TABLE ... ENCODE name of the encoding.
func (e Encoding) String() string {
	if e < numEncodings {
		return codecs[e].names[0]
	}
	return fmt.Sprintf("ENCODING(%d)", uint8(e))
}

// ParseEncoding maps an ENCODE clause name to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	name := strings.ToUpper(strings.TrimSpace(s))
	for e := range codecs {
		if slices.Contains(codecs[e].names, name) {
			return Encoding(e), nil
		}
	}
	return Raw, fmt.Errorf("compress: unknown encoding %q", s)
}

// Applicable reports whether encoding e can represent columns of type t.
func Applicable(e Encoding, t types.Type) bool {
	return e < numEncodings && (codecs[e].holds == nil || slices.Contains(codecs[e].holds, t))
}

const (
	// maxRows is the most values one block of a codec without byteARow may
	// hold. Storage blocks hold 4096 rows; the compression ablation encodes
	// 256k-row columns whole. (RAW, which frames spill batches of any size,
	// costs a byte a row and so has no maximum.)
	maxRows = 1 << 20
	// maxInflated is the most bytes an LZO string block may inflate to: a
	// storage block of 64 KB strings, the widest VARCHAR Redshift declares.
	// (A fixed-width LZO block inflates to exactly rows × 8 bytes.)
	maxInflated = 1 << 28
	// maxPooledScratch is the largest buffer a pooled deflater or inflater
	// keeps between blocks; an outsized block's scratch is garbage after it.
	maxPooledScratch = 1 << 22
)

// Encode serializes v with encoding e into a self-describing block.
func Encode(e Encoding, v *types.Vector) ([]byte, error) {
	if !Applicable(e, v.T) {
		return nil, fmt.Errorf("compress: %s not applicable to %s", e, v.T)
	}
	c := &codecs[e]
	if !c.byteARow && v.Len() > maxRows {
		return nil, fmt.Errorf("compress: %d rows in one %s block, maximum %d", v.Len(), e, maxRows)
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(e))
	buf.WriteByte(byte(v.T))
	writeUvarint(&buf, uint64(v.Len()))
	writeNulls(&buf, v)
	if err := c.encode(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// header is the self-describing prefix of a block. The null bitmap, when
// present, and then the codec payload follow it.
type header struct {
	enc   Encoding
	typ   types.Type
	rows  int
	nulls bool
}

// parseHeader validates a block's prefix and returns it with the offset of
// what follows. Nothing is allocated on the strength of a header that has
// not passed here.
func parseHeader(data []byte) (header, int, error) {
	if len(data) < 2 {
		return header{}, 0, fmt.Errorf("compress: short block")
	}
	h := header{enc: Encoding(data[0]), typ: types.Type(data[1])}
	if h.enc >= numEncodings {
		return h, 0, fmt.Errorf("compress: corrupt block: encoding %d", data[0])
	}
	if h.typ == types.Invalid || h.typ > types.Timestamp {
		return h, 0, fmt.Errorf("compress: corrupt block: type %d", data[1])
	}
	if !Applicable(h.enc, h.typ) {
		return h, 0, fmt.Errorf("compress: corrupt block: %s over %s", h.enc, h.typ)
	}
	n, pos := uvarint(data, 2)
	if pos < 0 {
		return h, 0, fmt.Errorf("compress: corrupt block length")
	}
	most := uint64(len(data)) // a byte a row at the least
	if !codecs[h.enc].byteARow {
		most = maxRows
	}
	if n > most {
		return h, 0, fmt.Errorf("compress: corrupt block: %d rows in %d bytes of %s", n, len(data), h.enc)
	}
	if pos == len(data) {
		return h, 0, fmt.Errorf("compress: corrupt null header")
	}
	h.rows, h.nulls = int(n), data[pos] != 0
	return h, pos + 1, nil
}

// Decode reconstructs the vector from a self-describing block. Corrupt
// input of any kind is an error; the result never aliases data.
func Decode(data []byte) (*types.Vector, error) {
	h, pos, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	n := h.rows
	var packed []byte
	if h.nulls {
		end := pos + (n+7)/8
		if end > len(data) {
			return nil, fmt.Errorf("compress: corrupt null bitmap")
		}
		packed, pos = data[pos:end], end
	}
	p := data[pos:]

	v := &types.Vector{T: h.typ}
	if err := codecs[h.enc].decode(p, v, n); err != nil {
		return nil, err
	}
	if packed != nil {
		v.Nulls = unpackNulls(packed, n)
	}
	return v, nil
}

// BlockEncoding returns the encoding tag of an encoded block without
// decoding it.
func BlockEncoding(data []byte) (Encoding, error) {
	if len(data) < 2 {
		return Raw, fmt.Errorf("compress: short block")
	}
	return Encoding(data[0]), nil
}

// header/null-bitmap helpers

func writeUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func writeVarint(buf *bytes.Buffer, x int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], x)])
}

// uvarint decodes the unsigned varint at p[pos:] and returns it with the
// offset after it; a negative offset reports a truncated or overlong one.
// The per-value loops (DELTA steps, TEXT indexes, string lengths) test for
// the one-byte case themselves before calling — a third off a string
// block's decode time: the compiler will not inline a fast path that falls
// back to a call.
func uvarint(p []byte, pos int) (uint64, int) {
	x, k := binary.Uvarint(p[pos:])
	if k <= 0 {
		return 0, -1
	}
	return x, pos + k
}

// unzigzag maps a varint's unsigned form back to the signed value.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// appendNulls appends the null flag and, when any value is null, the bitmap
// (bit i%8 of byte i/8 set for a null at i), one byte of bitmap at a time.
func appendNulls(dst []byte, v *types.Vector) []byte {
	if !v.HasNulls() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	nulls := v.Nulls[:v.Len()]
	for len(nulls) > 0 {
		chunk := nulls[:min(8, len(nulls))]
		var b byte
		for k, isNull := range chunk {
			if isNull {
				b |= 1 << k
			}
		}
		dst = append(dst, b)
		nulls = nulls[len(chunk):]
	}
	return dst
}

func writeNulls(buf *bytes.Buffer, v *types.Vector) {
	buf.Write(appendNulls(buf.AvailableBuffer(), v))
}

// unpackNulls expands the bitmap of an n-row block.
func unpackNulls(packed []byte, n int) []bool {
	nulls := make([]bool, n)
	for i, b := range packed {
		if b == 0 {
			continue
		}
		if i*8+8 > n {
			for k := i * 8; k < n; k++ {
				nulls[k] = b&(1<<(k&7)) != 0
			}
			break
		}
		c := nulls[i*8 : i*8+8 : i*8+8]
		c[0], c[1], c[2], c[3] = b&1 != 0, b&2 != 0, b&4 != 0, b&8 != 0
		c[4], c[5], c[6], c[7] = b&16 != 0, b&32 != 0, b&64 != 0, b&128 != 0
	}
	return nulls
}

// Length-prefixed strings, the form RAW, BYTEDICT, DICT, TEXT and LZO share.
// Decoding is two walks over the prefixes: the first validates them and
// finds where the region ends, the second slices one arena — the region
// converted to a string once — so a block of strings costs one allocation
// and one copy however many values it holds.

// stringsEnd validates count length-prefixed strings starting at p[pos:]
// and returns the offset after the last.
func stringsEnd(p []byte, pos, count int) (int, error) {
	for i := 0; i < count; i++ {
		var l uint64
		next := pos + 1
		if pos < len(p) && p[pos] < 0x80 {
			l = uint64(p[pos])
		} else if l, next = uvarint(p, pos); next < 0 {
			return 0, fmt.Errorf("compress: corrupt string length")
		}
		if l > uint64(len(p)-next) {
			return 0, fmt.Errorf("compress: corrupt string length %d", l)
		}
		pos = next + int(l)
	}
	return pos, nil
}

// arenaStrings points out[i] at the i-th string of the region p[pos:end],
// which stringsEnd has validated.
func arenaStrings(p []byte, pos, end int, out []string) {
	arena := string(p[pos:end])
	at := 0
	for i := range out {
		l, next := uint64(p[pos+at]), pos+at+1
		if l >= 0x80 {
			l, next = uvarint(p, pos+at)
		}
		at = next - pos + int(l)
		out[i] = arena[at-int(l) : at]
	}
}

// RAW: fixed 8-byte little-endian for numerics, length-prefixed bytes for
// strings. Its size is known before a byte is written, so it is encoded
// append-style into a buffer sized once.

// uvarintLen is the number of bytes binary.AppendUvarint spends on x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// rawPayloadLen is the exact size of v's RAW payload.
func rawPayloadLen(v *types.Vector) int {
	if v.T != types.String {
		return 8 * v.Len()
	}
	n := 0
	for _, s := range v.Strs {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// RawLen is the exact size of the RAW block AppendRaw makes of v.
func RawLen(v *types.Vector) int {
	n := 2 + uvarintLen(uint64(v.Len())) + 1 + rawPayloadLen(v)
	if v.HasNulls() {
		n += (v.Len() + 7) / 8
	}
	return n
}

// AppendRaw appends v as a self-describing RAW block, byte for byte what
// Encode(Raw, v) returns, to dst: the form a writer that frames many blocks
// into one reused buffer (the spill files) uses. RawLen sizes dst exactly.
func AppendRaw(dst []byte, v *types.Vector) []byte {
	dst = append(dst, byte(Raw), byte(v.T))
	dst = binary.AppendUvarint(dst, uint64(v.Len()))
	return appendRawPayload(appendNulls(dst, v), v)
}

func appendRawPayload(dst []byte, v *types.Vector) []byte {
	switch v.T {
	case types.Float64:
		at := len(dst)
		dst = slices.Grow(dst, 8*len(v.Floats))[:at+8*len(v.Floats)]
		for i, f := range v.Floats {
			binary.LittleEndian.PutUint64(dst[at+8*i:], math.Float64bits(f))
		}
	case types.String:
		for _, s := range v.Strs {
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		}
	default:
		at := len(dst)
		dst = slices.Grow(dst, 8*len(v.Ints))[:at+8*len(v.Ints)]
		for i, x := range v.Ints {
			binary.LittleEndian.PutUint64(dst[at+8*i:], uint64(x))
		}
	}
	return dst
}

func encodeRaw(buf *bytes.Buffer, v *types.Vector) error {
	buf.Grow(rawPayloadLen(v))
	buf.Write(appendRawPayload(buf.AvailableBuffer(), v))
	return nil
}

func decodeRaw(p []byte, v *types.Vector, n int) error {
	if v.T == types.String {
		end, err := stringsEnd(p, 0, n)
		if err != nil {
			return err
		}
		v.Strs = make([]string, n)
		arenaStrings(p, 0, end, v.Strs)
		return nil
	}
	if len(p) < n*8 {
		return fmt.Errorf("compress: raw: %d bytes for %d values", len(p), n)
	}
	if v.T == types.Float64 {
		v.Floats = make([]float64, n)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
		return nil
	}
	v.Ints = make([]int64, n)
	for i := range v.Ints {
		v.Ints[i] = int64(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return nil
}

// RUNLENGTH: (value, run) pairs. Ideal for sorted low-cardinality columns.

func encodeRunLength(buf *bytes.Buffer, v *types.Vector) error {
	n := v.Len()
	for i := 0; i < n; {
		j := i + 1
		for j < n && sameAt(v, i, j) {
			j++
		}
		switch v.T {
		case types.Float64:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Floats[i]))
			buf.Write(tmp[:])
		case types.String:
			writeUvarint(buf, uint64(len(v.Strs[i])))
			buf.WriteString(v.Strs[i])
		default:
			writeVarint(buf, v.Ints[i])
		}
		writeUvarint(buf, uint64(j-i))
		i = j
	}
	return nil
}

func sameAt(v *types.Vector, i, j int) bool {
	switch v.T {
	case types.Float64: // by bits: -0 is not 0, and a NaN is itself
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case types.String:
		return v.Strs[i] == v.Strs[j]
	default:
		return v.Ints[i] == v.Ints[j]
	}
}

// runLength reads the run count at p[pos:], which must be at least one and
// at most left, the rows the block still has to produce.
func runLength(p []byte, pos, left int) (run, next int, err error) {
	r, next := uvarint(p, pos)
	if next < 0 {
		return 0, 0, fmt.Errorf("compress: rle run: truncated")
	}
	if r == 0 || r > uint64(left) {
		return 0, 0, fmt.Errorf("compress: corrupt rle run %d", r)
	}
	return int(r), next, nil
}

func decodeRunLength(p []byte, v *types.Vector, n int) error {
	pos := 0
	switch v.T {
	case types.String:
		// First walk: the runs must add up to n before anything is
		// allocated, and the arena ends where the last run does.
		for i := 0; i < n; {
			end, err := stringsEnd(p, pos, 1)
			if err != nil {
				return err
			}
			run, next, err := runLength(p, end, n-i)
			if err != nil {
				return err
			}
			pos, i = next, i+run
		}
		arena := string(p[:pos])
		v.Strs = make([]string, n)
		pos = 0
		for i := 0; i < n; {
			l, next := uvarint(p, pos)
			s := arena[next : next+int(l)]
			run, next, _ := runLength(p, next+int(l), n-i)
			fill(v.Strs[i:i+run], s)
			pos, i = next, i+run
		}
	case types.Float64:
		v.Floats = make([]float64, n)
		for i := 0; i < n; {
			if len(p)-pos < 8 {
				return fmt.Errorf("compress: rle float: truncated")
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
			run, next, err := runLength(p, pos+8, n-i)
			if err != nil {
				return err
			}
			fill(v.Floats[i:i+run], f)
			pos, i = next, i+run
		}
	default:
		v.Ints = make([]int64, n)
		for i := 0; i < n; {
			ux, next := uvarint(p, pos)
			if next < 0 {
				return fmt.Errorf("compress: rle int: truncated")
			}
			run, next, err := runLength(p, next, n-i)
			if err != nil {
				return err
			}
			fill(v.Ints[i:i+run], unzigzag(ux))
			pos, i = next, i+run
		}
	}
	return nil
}

// DELTA: first value then zigzag-varint deltas. Ideal for sorted or
// timestamp-like integer columns.

func encodeDelta(buf *bytes.Buffer, v *types.Vector) error {
	prev := int64(0)
	for i, x := range v.Ints {
		if i == 0 {
			writeVarint(buf, x)
		} else {
			writeVarint(buf, x-prev)
		}
		prev = x
	}
	return nil
}

func decodeDelta(p []byte, v *types.Vector, n int) error {
	if len(p) < n {
		return fmt.Errorf("compress: delta: %d bytes for %d values", len(p), n)
	}
	v.Ints = make([]int64, n)
	pos, prev := 0, int64(0)
	for i := range v.Ints {
		var ux uint64
		if pos < len(p) && p[pos] < 0x80 {
			ux, pos = uint64(p[pos]), pos+1
		} else if ux, pos = uvarint(p, pos); pos < 0 {
			return fmt.Errorf("compress: delta: truncated")
		}
		prev += unzigzag(ux) // the first "delta" is the first value
		v.Ints[i] = prev
	}
	return nil
}

// MOSTLY8/16/32: narrow fixed-width payload with an exception list for
// values outside the narrow range. Ideal for columns declared BIGINT that
// mostly hold small values.

// mostly is the one MOSTLY coder, parameterised by the width of its narrow
// values in bytes: 1, 2 or 4.
type mostly int

func mostlyFits(x int64, width int) bool {
	switch width {
	case 1:
		return x >= math.MinInt8 && x <= math.MaxInt8
	case 2:
		return x >= math.MinInt16 && x <= math.MaxInt16
	default:
		return x >= math.MinInt32 && x <= math.MaxInt32
	}
}

func (w mostly) encode(buf *bytes.Buffer, v *types.Vector) error {
	width := int(w)
	type exception struct {
		pos int
		val int64
	}
	var exceptions []exception
	for i, x := range v.Ints {
		if !mostlyFits(x, width) {
			exceptions = append(exceptions, exception{i, x})
		}
	}
	writeUvarint(buf, uint64(len(exceptions)))
	for _, e := range exceptions {
		writeUvarint(buf, uint64(e.pos))
		writeVarint(buf, e.val)
	}
	var tmp [4]byte
	for _, x := range v.Ints {
		if !mostlyFits(x, width) {
			x = 0 // placeholder; real value is in the exception list
		}
		switch width {
		case 1:
			buf.WriteByte(byte(int8(x)))
		case 2:
			binary.LittleEndian.PutUint16(tmp[:2], uint16(int16(x)))
			buf.Write(tmp[:2])
		default:
			binary.LittleEndian.PutUint32(tmp[:4], uint32(int32(x)))
			buf.Write(tmp[:4])
		}
	}
	return nil
}

func (w mostly) decode(p []byte, v *types.Vector, n int) error {
	width := int(w)
	nExc, pos := uvarint(p, 0)
	if pos < 0 || nExc > uint64(n) || len(p)-pos < n*width {
		return fmt.Errorf("compress: mostly%d: corrupt exception count or %d bytes for %d values", 8*width, len(p), n)
	}
	// The narrow values are the last n×width bytes and the exception list
	// fills the gap before them exactly, so the bulk loop needs no walk
	// over the list to find its input and the list is read once, to patch.
	body := p[len(p)-n*width:]
	out := make([]int64, n)
	switch width {
	case 1:
		for i := range out {
			out[i] = int64(int8(body[i]))
		}
	case 2:
		for i := range out {
			out[i] = int64(int16(binary.LittleEndian.Uint16(body[i*2:])))
		}
	default:
		for i := range out {
			out[i] = int64(int32(binary.LittleEndian.Uint32(body[i*4:])))
		}
	}
	for i := uint64(0); i < nExc; i++ {
		at, next := uvarint(p, pos)
		if next < 0 || at >= uint64(n) {
			return fmt.Errorf("compress: corrupt mostly exception position")
		}
		ux, next := uvarint(p, next)
		if next < 0 {
			return fmt.Errorf("compress: corrupt mostly exception value")
		}
		out[at], pos = unzigzag(ux), next
	}
	if pos != len(p)-len(body) {
		return fmt.Errorf("compress: mostly exception list overlaps the values")
	}
	v.Ints = out
	return nil
}

// BYTEDICT and DICT: a per-block dictionary of the distinct values in
// first-seen order, written as a RAW payload after its size, then one code
// per value, packed by the bit coder below: BYTEDICT's are a byte each (so at
// most 256 entries), DICT's ⌈log₂ distinct⌉ bits. Ideal for low-cardinality
// columns of any type. DOUBLE values are keyed by their bits, so -0 and 0 are
// two entries and a NaN is one.

// ErrDictOverflow reports that a block has too many distinct values for
// BYTEDICT; the automatic chooser treats it as "not applicable here".
var ErrDictOverflow = fmt.Errorf("compress: more than 256 distinct values in block")

// dictCoder is the one dictionary coder, parameterised by the width of its
// codes in bits: 8 for BYTEDICT, 0 for DICT's ⌈log₂ distinct⌉.
type dictCoder int

// width is the bit width of the codes into a dictionary of dn entries.
func (w dictCoder) width(dn int) int {
	if w > 0 {
		return int(w)
	}
	return bits.Len(uint(max(dn, 1) - 1))
}

func (w dictCoder) encode(buf *bytes.Buffer, v *types.Vector) error {
	codes := make([]int64, v.Len())
	limit := math.MaxInt
	if w > 0 {
		limit = 1 << w
	}
	dict := &types.Vector{T: v.T}
	var err error
	switch v.T {
	case types.Float64: // a dictionary of bit patterns is written as the DOUBLE one
		dict.T = types.Int64
		dict.Ints, err = dictSlots(floatBits(v.Floats), v.Nulls, codes, limit)
	case types.String:
		dict.Strs, err = dictSlots(v.Strs, v.Nulls, codes, limit)
	default:
		dict.Ints, err = dictSlots(v.Ints, v.Nulls, codes, limit)
	}
	if err != nil {
		return err
	}
	writeUvarint(buf, uint64(dict.Len()))
	encodeRaw(buf, dict)
	buf.Write(appendPacked(buf.AvailableBuffer(), codes, 0, w.width(dict.Len())))
	return nil
}

// dictSlots builds the dictionary in first-seen order and writes each
// value's slot to codes. A NULL position is looked up by whatever payload
// it carries but enters the dictionary as the zero placeholder, and a
// value found twice in the dictionary resolves to its first slot: both are
// what the format has always written, and blocks are content-hashed.
func dictSlots[T comparable](vals []T, nulls []bool, codes []int64, limit int) ([]T, error) {
	slot := make(map[T]int, 16)
	dict := make([]T, 0, 16)
	for i, x := range vals {
		d, ok := slot[x]
		if !ok {
			if len(dict) == limit {
				return nil, ErrDictOverflow
			}
			d = len(dict)
			if nulls != nil && nulls[i] {
				var zero T
				x = zero
			}
			dict = append(dict, x)
			if _, dup := slot[x]; !dup {
				slot[x] = d
			}
		}
		codes[i] = int64(d)
	}
	return dict, nil
}

func (w dictCoder) decode(p []byte, v *types.Vector, n int) error {
	dn64, pos := uvarint(p, 0)
	if pos < 0 || dn64 > uint64(n) || w > 0 && dn64 > 1<<w {
		return fmt.Errorf("compress: corrupt dictionary size %d for %d rows", dn64, n)
	}
	dn := int(dn64)
	end := pos + dn*8
	if v.T == types.String {
		var err error
		if end, err = stringsEnd(p, pos, dn); err != nil {
			return err
		}
	}
	width := w.width(dn)
	if end > len(p) || len(p)-end != (n*width+7)/8 {
		return fmt.Errorf("compress: dictionary: %d bytes for %d codes of %d bits", len(p)-end, n, width)
	}
	var err error
	switch codes := p[end:]; v.T {
	case types.String:
		v.Strs, err = expand(codes, width, n, dn, func(dict []string) { arenaStrings(p, pos, end, dict) })
	case types.Float64:
		v.Floats, err = expand(codes, width, n, dn, func(dict []float64) {
			for d := range dict {
				dict[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[pos+d*8:]))
			}
		})
	default:
		v.Ints, err = expand(codes, width, n, dn, func(dict []int64) {
			for d := range dict {
				dict[d] = int64(binary.LittleEndian.Uint64(p[pos+d*8:]))
			}
		})
	}
	return err
}

// expand maps the n w-bit codes in p through a dictionary of dn entries,
// which fill writes. The dictionary lives in the spare capacity past the n
// values, so a block costs one allocation whatever its dictionary's size.
func expand[T any](p []byte, w, n, dn int, fill func(dict []T)) ([]T, error) {
	out := make([]T, n+dn)
	dict := out[n:]
	fill(dict)
	r := bitReader{p: p}
	var buf [256]uint64
	for at := 0; at < n; at += len(buf) {
		xs := buf[:min(len(buf), n-at)]
		unpack(&r, w, 0, xs)
		o := out[at : at+len(xs)]
		for i, c := range xs {
			if c >= uint64(dn) {
				return nil, fmt.Errorf("compress: dictionary code %d out of range", c)
			}
			o[i] = dict[c]
		}
	}
	return out[:n:n], nil
}

// PACK: frame of reference. A scale byte (a DOUBLE block's decimal exponent
// e, or packIEEE; 0 for the integral types), the bit width w, the block
// minimum as a varint, then every value minus the minimum at w bits. A
// DOUBLE block packs integers k with float64(k)/10^e its exact bits, for the
// least e ≤ 4 that has them, or else the values' IEEE bit patterns.

const packIEEE = 0xff

var pow10 = [...]float64{1, 10, 100, 1000, 10000}

func encodePack(buf *bytes.Buffer, v *types.Vector) error {
	xs, scale := v.Ints, byte(0)
	if v.T == types.Float64 {
		xs, scale = decimals(v.Floats)
	}
	lo, hi := int64(0), int64(0)
	if len(xs) > 0 {
		lo, hi = slices.Min(xs), slices.Max(xs)
	}
	w := bits.Len64(uint64(hi) - uint64(lo)) // uint64: MinInt64..MaxInt64 is width 64
	buf.WriteByte(scale)
	buf.WriteByte(byte(w))
	writeVarint(buf, lo)
	buf.Write(appendPacked(buf.AvailableBuffer(), xs, lo, w))
	return nil
}

// decimals returns fs as the integers k of the least decimal exponent e ≤ 4
// at which float64(k)/10^e gives back every value bit for bit, with e; or
// else as their bit patterns, with packIEEE. (-0, NaN and ±Inf never scale.)
func decimals(fs []float64) ([]int64, byte) {
	ks := make([]int64, len(fs))
next:
	for e, p := range pow10 {
		for i, f := range fs {
			k := math.Round(f * p)
			if !(math.Abs(k) < 1<<62) || math.Float64bits(float64(int64(k))/p) != math.Float64bits(f) {
				continue next
			}
			ks[i] = int64(k)
		}
		return ks, byte(e)
	}
	return floatBits(fs), packIEEE
}

func floatBits(fs []float64) []int64 {
	out := make([]int64, len(fs))
	for i, f := range fs {
		out[i] = int64(math.Float64bits(f))
	}
	return out
}

func decodePack(p []byte, v *types.Vector, n int) error {
	if len(p) < 2 {
		return fmt.Errorf("compress: pack: truncated")
	}
	scale, w := p[0], int(p[1])
	lo, pos := uvarint(p, 2)
	if pos < 0 || w > 64 || len(p)-pos != (n*w+7)/8 ||
		scale != 0 && (v.T != types.Float64 || scale >= byte(len(pow10)) && scale != packIEEE) {
		return fmt.Errorf("compress: pack: corrupt header or %d bytes for %d values of %d bits", len(p), n, w)
	}
	base, r := uint64(unzigzag(lo)), bitReader{p: p[pos:]}
	switch {
	case v.T != types.Float64:
		v.Ints = make([]int64, n)
		unpack(&r, w, base, v.Ints)
	case scale != packIEEE:
		v.Floats = make([]float64, n)
		unpack(&r, w, base, v.Floats)
		if d := pow10[scale]; scale > 0 {
			for i := range v.Floats {
				v.Floats[i] /= d
			}
		}
	default:
		v.Floats = make([]float64, n)
		var buf [256]uint64
		for at := 0; at < n; at += len(buf) {
			xs := buf[:min(len(buf), n-at)]
			unpack(&r, w, base, xs)
			for i, x := range xs {
				v.Floats[at+i] = math.Float64frombits(x)
			}
		}
	}
	return nil
}

// The bit coder PACK and the dictionaries share: value i of a run of w-bit
// values occupies bits i·w .. i·w+w-1 of the little-endian payload, so a
// width-8 run is one byte a value and n values take ⌈n·w/8⌉ bytes.

// appendPacked appends x - base for every x of xs at w bits each, w the
// bit length of the largest difference.
func appendPacked(dst []byte, xs []int64, base int64, w int) []byte {
	var acc uint64
	held := 0 // bits of acc in use
	for _, x := range xs {
		d := uint64(x) - uint64(base)
		acc |= d << held
		if held += w; held >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			held -= 64
			acc = d >> (w - held) // d >> w, 0, when d fit exactly
		}
	}
	for ; held > 0; held -= 8 {
		dst, acc = append(dst, byte(acc)), acc>>8
	}
	return dst
}

// bitReader is a cursor over a run of packed values, read a 64-bit word at
// a time.
type bitReader struct {
	p    []byte
	acc  uint64 // bits read from p and not yet handed out
	have int    // how many
}

// unpack fills out with the next len(out) values of width w, each plus base
// and converted as T(int64(base + x)): itself for int64 and uint64, the
// integer's value for float64. Past the end of p it reads zeros. A width of
// 0 reads nothing and gives base.
func unpack[T int64 | uint64 | float64](r *bitReader, w int, base uint64, out []T) {
	mask := uint64(1)<<w - 1 // all ones at w = 64
	acc, have, p := r.acc, r.have, r.p
	for i := range out {
		if have >= w {
			out[i] = T(int64(base + acc&mask))
			acc >>= w
			have -= w
			continue
		}
		var word uint64
		if len(p) >= 8 {
			word, p = binary.LittleEndian.Uint64(p), p[8:]
		} else { // the last few bytes
			var tail [8]byte
			copy(tail[:], p)
			word, p = binary.LittleEndian.Uint64(tail[:]), nil
		}
		out[i] = T(int64(base + (acc|word<<have)&mask))
		acc = word >> (w - have) // 0 when the value took the whole word
		have += 64 - w
	}
	r.acc, r.have, r.p = acc, have, p
}

// TEXT: unbounded string dictionary with varint indexes (generalizes
// Redshift's TEXT255/TEXT32K).

func encodeText(buf *bytes.Buffer, v *types.Vector) error {
	dict := make(map[string]int)
	var words []string
	idx := make([]int, v.Len())
	for i, s := range v.Strs {
		d, ok := dict[s]
		if !ok {
			d = len(words)
			dict[s] = d
			words = append(words, s)
		}
		idx[i] = d
	}
	writeUvarint(buf, uint64(len(words)))
	for _, w := range words {
		writeUvarint(buf, uint64(len(w)))
		buf.WriteString(w)
	}
	for _, d := range idx {
		writeUvarint(buf, uint64(d))
	}
	return nil
}

func decodeText(p []byte, v *types.Vector, n int) error {
	wn, pos := uvarint(p, 0)
	if pos < 0 || wn > uint64(len(p)) {
		return fmt.Errorf("compress: corrupt text dict size")
	}
	end, err := stringsEnd(p, pos, int(wn))
	if err != nil {
		return err
	}
	if len(p)-end < n {
		return fmt.Errorf("compress: text: %d bytes for %d indexes", len(p)-end, n)
	}
	words := make([]string, wn)
	arenaStrings(p, pos, end, words)
	v.Strs = make([]string, n)
	pos = end
	for i := range v.Strs {
		var d uint64
		if pos < len(p) && p[pos] < 0x80 {
			d, pos = uint64(p[pos]), pos+1
		} else if d, pos = uvarint(p, pos); pos < 0 {
			return fmt.Errorf("compress: text index: truncated")
		}
		if d >= wn {
			return fmt.Errorf("compress: text index %d out of range", d)
		}
		v.Strs[i] = words[d]
	}
	return nil
}

// LZ: DEFLATE over the RAW payload — the heavyweight general-purpose codec,
// standing in for LZO. The compressor is compress/flate's at BestSpeed
// (~600 KB of state); the decompressor is inflate.go's. Both are pooled
// with their scratch buffers; every slice goroutine and every loader shares
// the two pools.

type deflater struct {
	w   *flate.Writer
	raw bytes.Buffer
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

func encodeLZ(buf *bytes.Buffer, v *types.Vector) error {
	z := deflaters.Get().(*deflater)
	defer func() {
		if z.raw.Cap() > maxPooledScratch {
			z.raw = bytes.Buffer{}
		}
		deflaters.Put(z)
	}()
	z.raw.Reset()
	if err := encodeRaw(&z.raw, v); err != nil {
		return err
	}
	if z.raw.Len() > maxInflated {
		return fmt.Errorf("compress: lz: %d bytes in one block, maximum %d", z.raw.Len(), maxInflated)
	}
	if z.w == nil {
		w, err := flate.NewWriter(buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		z.w = w
	} else {
		z.w.Reset(buf)
	}
	if _, err := z.w.Write(z.raw.Bytes()); err != nil {
		return err
	}
	return z.w.Close()
}

func decodeLZ(p []byte, v *types.Vector, n int) error {
	z := inflaters.Get().(*inflater)
	// A fixed-width block inflates to exactly n×8 bytes; a string block to
	// a size only its contents know, which the pooled scratch learns once
	// and maxInflated bounds.
	hint, limit := n*8, n*8
	if v.T == types.String {
		hint, limit = min(4*len(p), maxInflated), maxInflated
	}
	raw, err := z.inflate(p, hint, limit)
	if err == nil {
		err = decodeRaw(raw, v, n) // copies out of the scratch
	}
	if cap(z.buf) > maxPooledScratch {
		z.buf = nil
	}
	inflaters.Put(z)
	return err
}
