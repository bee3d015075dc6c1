package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// The LZO stand-in's reader: RFC 1951 (DEFLATE) over the whole payload in
// memory. The stream is read through a 64-bit bit buffer refilled eight
// bytes at a time, every Huffman symbol costs one table lookup, and the
// literal/length/distance loop keeps the bit cursor in locals. It accepts
// and rejects what compress/flate's reader does (FuzzInflate holds the two
// together), and fails as soon as a code needs bits past the stream's end.

var errDeflate = errors.New("corrupt or truncated DEFLATE stream")

// Base value and extra-bit count of each length (symbols 257–285) and
// distance (0–29) symbol, and the order a dynamic block lists the lengths
// of its code-length code in. Indexed by symbol mod 32, a symbol past its
// alphabet (286–287, 30–31, or 4095) reads a base of zero.
var (
	lenBase   = [32]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [32]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [32]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [32]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffman is a canonical Huffman code as one table of 1<<maxLen entries,
// indexed by the next maxLen bits of the stream: entry symbol<<4 | code
// length. Where no code starts the entry is 0xffff, symbol 4095, which no
// alphabet has.
type huffman []uint16

// init builds the table for code lengths by symbol. Like compress/flate it
// refuses over-subscribed codes and incomplete ones, except a lone code of
// length 1; an empty code builds, and fails its first lookup.
func (h *huffman) init(lengths []uint8) bool {
	var count, next [16]int
	maxLen := 0
	for _, l := range lengths {
		count[l]++
		maxLen = max(maxLen, int(l))
	}
	code, size := 0, 1<<maxLen
	for l := 1; l <= maxLen; l++ {
		next[l], code = code<<1, code<<1+count[l]
	}
	if maxLen > 0 && code != size && !(code == 1 && maxLen == 1) {
		return false
	}
	*h = slices.Grow((*h)[:0], size)[:size]
	if code != size {
		fill(*h, 0xffff) // an incomplete code leaves entries unset
	}
	for sym, l := range lengths {
		for i := int(bits.Reverse16(uint16(next[l])) >> (16 - l)); l > 0 && i < size; i += 1 << l {
			(*h)[i] = uint16(sym<<4) | uint16(l)
		}
		next[l]++
	}
	return true
}

// The fixed code of block type 1. Its distance code is five plain bits,
// which a complete code of 32 five-bit symbols reads the same way.
var fixedLit, fixedDist = func() (lit, dist huffman) {
	var l [288 + 32]uint8
	for i := range l {
		l[i] = "8888888888888888889999999999999977785555"[i/8] - '0' // a digit per eight symbols
	}
	lit.init(l[:288])
	dist.init(l[288:])
	return lit, dist
}()

// refill tops the bit buffer b, holding nb bits, up to at least 56 bits
// from src[pos:] — to all the stream has left when that is fewer. Bits above
// nb are zero or the stream's next bits, so a lookup past the stream's end
// reads zeros, and a code longer than nb is the stream ending early. The
// byte cursor stays in z: the decode loop refills only every few codes.
func (z *inflater) refill(b uint64, nb uint) (uint64, uint) {
	if z.pos+8 <= len(z.src) {
		b |= binary.LittleEndian.Uint64(z.src[z.pos:]) << nb
		z.pos += int(63-nb) >> 3
		return b, nb | 56
	}
	for ; nb < 56 && z.pos < len(z.src); z.pos, nb = z.pos+1, nb+8 {
		b |= uint64(z.src[z.pos]) << nb
	}
	return b, nb
}

// inflater decodes LZO payloads; a pooled one keeps its output scratch and
// Huffman tables between blocks.
type inflater struct {
	src             []byte
	pos             int    // next byte of src to load into b
	b               uint64 // bit buffer, next bit lowest
	nb              uint   // bits held in b
	err             error  // the first failure, which ends the stream
	buf             []byte // grow-only output scratch, of which buf[:n] is written
	n, limit        int
	lit, dist, clen huffman
	lengths         [320]uint8 // room for any HLIT+HDIST before they are checked
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// bits consumes the next n bits of the stream.
func (z *inflater) bits(n uint) uint64 {
	z.b, z.nb = z.refill(z.b, z.nb)
	if n > z.nb {
		z.err = errDeflate
		return 0
	}
	v := z.b & (1<<n - 1)
	z.b, z.nb = z.b>>n, z.nb-n
	return v
}

// room makes buf hold need more bytes past n, unless that passes limit
// or the stream has already ended inside the code that asks (nb wrapped).
func (z *inflater) room(need int) bool {
	if z.nb >= 64 {
		z.err = errDeflate
	} else if z.n+need > z.limit {
		z.err = fmt.Errorf("payload inflates past %d bytes", z.limit)
	} else if size := min(max(2*len(z.buf), z.n+need), z.limit); z.n+need > len(z.buf) {
		z.buf = append(make([]byte, 0, size), z.buf[:z.n]...)[:size]
	}
	return z.err == nil
}

// inflate decompresses src up to the end of its final block (bytes after
// it are ignored) into the scratch buffer, sized to hint up front, and
// fails once the output passes limit; the scratch never grows past limit
// bytes on the way there.
func (z *inflater) inflate(src []byte, hint, limit int) ([]byte, error) {
	z.src, z.pos, z.b, z.nb, z.err = src, 0, 0, 0, nil
	z.buf = slices.Grow(z.buf[:0], hint)
	z.buf, z.n, z.limit = z.buf[:min(cap(z.buf), limit)], 0, limit
	for final := false; !final && z.err == nil; {
		h := z.bits(3)
		switch final = h&1 == 1; h >> 1 {
		case 0:
			z.stored()
		case 1:
			z.codes(fixedLit, fixedDist)
		case 2:
			if z.dynamic() {
				z.codes(z.lit, z.dist)
			}
		default:
			z.err = errDeflate
		}
	}
	if z.src = nil; z.err != nil {
		return nil, fmt.Errorf("compress: lz: %w", z.err)
	}
	return z.buf[:z.n], nil
}

// stored copies a stored block: byte-aligned LEN, its complement, LEN bytes.
func (z *inflater) stored() {
	z.pos, z.b, z.nb = z.pos-int(z.nb>>3), 0, 0
	size, nsize := int(z.bits(16)), z.bits(16)
	z.pos, z.b, z.nb = z.pos-int(z.nb>>3), 0, 0
	if z.err == nil && (uint64(size) != ^nsize&0xffff || len(z.src)-z.pos < size) {
		z.err = errDeflate
	} else if z.err == nil && z.room(size) {
		z.n += copy(z.buf[z.n:], z.src[z.pos:z.pos+size])
		z.pos += size
	}
}

// dynamic reads a dynamic block's header into the literal/length and
// distance tables.
func (z *inflater) dynamic() bool {
	h := z.bits(14)
	nlit, ndist := int(h&31)+257, int(h>>5&31)+1
	var clen [19]uint8
	for _, sym := range codeOrder[:h>>10+4] {
		clen[sym] = uint8(z.bits(3))
	}
	if nlit > 286 || ndist > 30 || !z.clen.init(clen[:]) {
		z.err = errDeflate
	}
	lengths := z.lengths[:nlit+ndist]
	for i := 0; i < len(lengths) && z.err == nil; {
		z.b, z.nb = z.refill(z.b, z.nb)
		e := z.clen[z.b&uint64(len(z.clen)-1)]
		z.b, z.nb = z.b>>(e&15), z.nb-uint(e&15)
		sym := e >> 4
		if z.nb >= 64 || sym > 18 || sym == 16 && i == 0 {
			z.err = errDeflate
			break
		}
		// 0–15 are lengths; 16 repeats the previous one 3–6 times, 17 and
		// 18 repeat a zero 3–10 and 11–138 times.
		rep, extra, prev := 1, uint(0), uint8(sym)
		switch sym {
		case 16:
			rep, extra, prev = 3, 2, lengths[i-1]
		case 17:
			rep, extra, prev = 3, 3, 0
		case 18:
			rep, extra, prev = 11, 7, 0
		}
		if rep += int(z.bits(extra)); i+rep > len(lengths) {
			z.err = errDeflate
			break
		}
		for end := i + rep; i < end; i++ {
			lengths[i] = prev
		}
	}
	if z.err == nil && !(z.lit.init(lengths[:nlit]) && z.dist.init(lengths[nlit:])) {
		z.err = errDeflate
	}
	return z.err == nil
}

// codes decodes one Huffman-coded block up to its end-of-block symbol. The
// bit buffer is refilled only when it may hold too few bits for what comes
// next: 20 for a literal/length code and its extra bits, 28 for a distance
// code and its. Past the stream's end the lookups read zeros and nb wraps
// around below zero, which ends the loop.
func (z *inflater) codes(lit, dist huffman) {
	b, nb, out, n := z.b, z.nb, z.buf, z.n
	litMask, distMask := uint64(len(lit)-1), uint64(len(dist)-1)
	for nb < 64 {
		if nb < 20 {
			b, nb = z.refill(b, nb)
		}
		e := uint(lit[b&litMask])
		b, nb = b>>(e&15), nb-e&15
		if e < 256<<4 && n < len(out) { // a literal with room for it
			out[n] = byte(e >> 4)
			n++
			continue
		}
		sym, length, from := int(e>>4)-257, 1, 0
		if sym == -1 && nb < 64 {
			z.b, z.nb, z.n = b, nb, n
			return
		}
		if sym >= 0 {
			x := uint(lenExtra[sym&31]) & 15 // provably a short shift
			length = int(lenBase[sym&31]) + int(b&(1<<x-1))
			b, nb = b>>x, nb-x
			if nb < 28 {
				b, nb = z.refill(b, nb)
			}
			e = uint(dist[b&distMask])
			b, nb = b>>(e&15), nb-e&15
			sym = int(e>>4) & 31
			x = uint(distExtra[sym]) & 15
			from = n - int(distBase[sym]) - int(b&(1<<x-1))
			b, nb = b>>x, nb-x
			// A zero base, a distance past the output or nothing left
			// to read fails here, before anything is copied.
			if nb >= 64 || length == 0 || uint(from) >= uint(n) {
				break
			}
		}
		if n+length > len(out) {
			if z.n, z.nb = n, nb; !z.room(length) {
				return
			}
			out = z.buf
		}
		if sym < 0 {
			out[n] = byte(e >> 4)
			n++
		} else if n-from >= 8 && n+length+8 <= len(out) {
			// Eight bytes at a time, each already written when read.
			for k := 0; k < length; k += 8 {
				binary.LittleEndian.PutUint64(out[n+k:], binary.LittleEndian.Uint64(out[from+k:]))
			}
			n += length
		} else {
			// An overlapping match repeats its distance's worth of bytes:
			// copy in chunks of that, doubling as the copied run grows.
			for end := n + length; n < end; {
				n += copy(out[n:end], out[from:n])
			}
		}
	}
	z.err = errDeflate
}
