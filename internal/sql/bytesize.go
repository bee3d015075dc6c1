package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseByteSize parses a memory-size setting value: a bare byte count
// ("65536"), a number with a unit suffix ("64KB", "1MB", "2GiB" — both
// decimal-style and IEC suffixes mean powers of 1024, matching
// PostgreSQL's work_mem convention), or "default" which returns -1
// (meaning: defer to the server-side default). Sizes past 2^62 bytes are
// rejected.
func ParseByteSize(s string) (int64, error) {
	v := strings.TrimSpace(s)
	if strings.EqualFold(v, "default") {
		return -1, nil
	}
	i := 0
	for i < len(v) && (v[i] >= '0' && v[i] <= '9') {
		i++
	}
	if i == 0 {
		return 0, fmt.Errorf("sql: bad byte size %q", s)
	}
	n, err := strconv.ParseInt(v[:i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad byte size %q: %w", s, err)
	}
	unit := strings.ToLower(strings.TrimSpace(v[i:]))
	var mult int64
	switch unit {
	case "", "b":
		mult = 1
	case "kb", "kib", "k":
		mult = 1 << 10
	case "mb", "mib", "m":
		mult = 1 << 20
	case "gb", "gib", "g":
		mult = 1 << 30
	default:
		return 0, fmt.Errorf("sql: bad byte-size unit %q in %q", unit, s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("sql: byte size %q overflows", s)
	}
	return n * mult, nil
}
