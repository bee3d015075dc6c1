package types

import (
	"math"
	"testing"
)

// TestHashValuesStable pins HashValues bit for bit: it places stored rows on
// slices (cluster) and routes shuffles (exchange), so a changed value would
// silently move data. The golden hashes were recorded from the
// KeyEncoder-string implementation it replaced, which internal/exec's tests
// keep as the reference for the byte stream.
func TestHashValuesStable(t *testing.T) {
	golden := []struct {
		vals []Value
		want uint64
	}{
		{[]Value{NewInt(42)}, 0xbf20053b15f43bfd},
		{[]Value{NewInt(-1)}, 0xad5ab16c642497cf},
		{[]Value{NewDate(42)}, 0x81ca3f341493c1a1},
		{[]Value{NewTimestamp(1700000000000000)}, 0xa9e896ca9e02ea5c},
		{[]Value{NewBool(true)}, 0x227f585b562a3f19},
		{[]Value{NewFloat(0)}, 0x78029183c6dcb96a},
		{[]Value{NewFloat(math.Copysign(0, -1))}, 0x78029183c6dcb96a},
		{[]Value{NewFloat(3.25)}, 0x77e05583c6bf6d10},
		{[]Value{NewString("")}, 0xb6ce6e15b77af7d},
		{[]Value{NewString("a\x00b")}, 0x4560230023ecc58f},
		{[]Value{NewString("redshift")}, 0x148553aa4ea0d4e8},
		{[]Value{NewNull(Int64)}, 0xaf63bd4c8601b7df},
		{[]Value{NewNull(String)}, 0xaf63bd4c8601b7df},
		{[]Value{NewInt(7), NewString("x"), NewNull(Float64), NewDate(19000)}, 0x29e2bac9000cf635},
		{nil, 0xcbf29ce484222325},
	}
	for _, g := range golden {
		if got := HashValues(g.vals); got != g.want {
			t.Errorf("HashValues(%v) = %#x, want %#x", g.vals, got, g.want)
		}
	}
}
