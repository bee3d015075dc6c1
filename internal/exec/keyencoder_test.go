package exec

import "redshift/internal/types"

// KeyEncoder renders a tuple of values into a comparable string key. The
// encoding is injective. It is the reference KeyTable's typed keys and
// types.HashValues' byte stream are tested against; nothing outside the
// tests has built these strings since KeyTable replaced the maps keyed by
// them.
func KeyEncoder(vals []types.Value) string {
	buf := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		if v.Null {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1, byte(v.T))
		switch v.T {
		case types.Float64:
			buf = appendUint64(buf, floatKeyBits(v.F))
		case types.String:
			buf = appendUint64(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default:
			buf = appendUint64(buf, uint64(v.I))
		}
	}
	return string(buf)
}
