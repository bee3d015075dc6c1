package types

import "math"

// HashValues hashes a tuple for distribution: FNV-1a over an injective byte
// encoding of the values (a presence byte, the type, then the payload —
// length-prefixed for strings, little-endian otherwise), streamed without
// building it. The cluster layer places rows by distribution key with it and
// the executor routes shuffles with it, so planner co-location reasoning and
// executor shuffles agree by construction — and its values are pinned by
// test, because changing one moves stored rows to another slice.
func HashValues(vals []Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		if v.Null {
			h = fnvByte(h, 0)
			continue
		}
		h = fnvByte(fnvByte(h, 1), byte(v.T))
		switch v.T {
		case Float64:
			h = fnvUint64(h, FloatKeyBits(v.F))
		case String:
			h = fnvUint64(h, uint64(len(v.S)))
			for i := 0; i < len(v.S); i++ {
				h = fnvByte(h, v.S[i])
			}
		default:
			h = fnvUint64(h, uint64(v.I))
		}
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

// fnvUint64 folds x in little-endian.
func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

// FloatKeyBits is a float's bits as a key: -0 and +0 are one key. Hashing
// for distribution and the executor's key tables both go through it, so a
// shuffle and a hash table agree on which floats are equal.
func FloatKeyBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}
