// Package types defines the value model shared by every layer of the
// warehouse: column types, typed scalar values, rows and schemas.
//
// The engine is columnar, so the hot paths operate on typed vectors
// ([]int64, []float64, []string) rather than on Value; Value exists for the
// planner (constants), the interpreted baseline engine, result sets and the
// wire protocol.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies a column type. The set mirrors the types the paper's
// engine inherits from PostgreSQL that matter for analytics workloads.
type Type uint8

const (
	// Invalid is the zero Type and never describes real data.
	Invalid Type = iota
	// Int64 covers SMALLINT/INT/BIGINT; all integers are widened to 64 bits.
	Int64
	// Float64 covers REAL/DOUBLE PRECISION.
	Float64
	// String covers CHAR/VARCHAR/TEXT.
	String
	// Bool covers BOOLEAN.
	Bool
	// Date is a calendar day stored as days since the Unix epoch.
	Date
	// Timestamp is an instant stored as microseconds since the Unix epoch.
	Timestamp
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE PRECISION"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Date:
		return "DATE"
	case Timestamp:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool {
	switch t {
	case Int64, Float64, Date, Timestamp:
		return true
	}
	return false
}

// Fixed reports whether values of the type have a fixed-width physical
// representation (everything except String).
func (t Type) Fixed() bool { return t != String && t != Invalid }

// ParseType maps a SQL type name to a Type. Unknown names return Invalid.
func ParseType(name string) Type {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "SMALLINT", "INT2", "INTEGER", "INT", "INT4", "BIGINT", "INT8":
		return Int64
	case "REAL", "FLOAT4", "FLOAT", "FLOAT8", "DOUBLE", "DOUBLE PRECISION", "DECIMAL", "NUMERIC":
		return Float64
	case "CHAR", "VARCHAR", "TEXT", "BPCHAR", "CHARACTER", "CHARACTER VARYING":
		return String
	case "BOOLEAN", "BOOL":
		return Bool
	case "DATE":
		return Date
	case "TIMESTAMP", "TIMESTAMPTZ", "DATETIME":
		return Timestamp
	default:
		return Invalid
	}
}

// Value is a nullable typed scalar. Exactly one of I, F, S carries the
// payload, selected by T; Null overrides the payload entirely.
//
// Date values store days in I; Timestamp values store microseconds in I;
// Bool stores 0/1 in I.
type Value struct {
	T    Type
	Null bool
	I    int64
	F    float64
	S    string
}

// Convenience constructors.

// NewInt returns a non-null Int64 value.
func NewInt(v int64) Value { return Value{T: Int64, I: v} }

// NewFloat returns a non-null Float64 value.
func NewFloat(v float64) Value { return Value{T: Float64, F: v} }

// NewString returns a non-null String value.
func NewString(v string) Value { return Value{T: String, S: v} }

// NewBool returns a non-null Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{T: Bool, I: i}
}

// NewDate returns a non-null Date value holding days since the Unix epoch.
func NewDate(days int64) Value { return Value{T: Date, I: days} }

// NewTimestamp returns a non-null Timestamp value holding microseconds since
// the Unix epoch.
func NewTimestamp(micros int64) Value { return Value{T: Timestamp, I: micros} }

// NewNull returns the null value of type t.
func NewNull(t Type) Value { return Value{T: t, Null: true} }

// Bool reports the truth value of a Bool Value; null is false.
func (v Value) Bool() bool { return !v.Null && v.T == Bool && v.I != 0 }

// AsFloat converts a numeric value to float64 for mixed-type arithmetic.
func (v Value) AsFloat() float64 {
	if v.T == Float64 {
		return v.F
	}
	return float64(v.I)
}

// String renders the value the way the CLI and test fixtures expect.
func (v Value) String() string {
	if v.T == String && !v.Null {
		return v.S
	}
	return string(v.Append(make([]byte, 0, 32)))
}

// Append appends the value's text — what String returns — to dst. It is the
// one place a value becomes text: the wire writes result rows through it.
func (v Value) Append(dst []byte) []byte {
	if v.Null {
		return append(dst, "NULL"...)
	}
	switch v.T {
	case Int64:
		return strconv.AppendInt(dst, v.I, 10)
	case Float64:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendFloat(dst, v.F, 'f', 1, 64)
		}
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case String:
		return append(dst, v.S...)
	case Bool:
		return strconv.AppendBool(dst, v.I != 0)
	case Date:
		return DaysToDate(v.I).AppendFormat(dst, "2006-01-02")
	case Timestamp:
		return time.UnixMicro(v.I).UTC().AppendFormat(dst, "2006-01-02 15:04:05.000000")
	default:
		return append(dst, "<invalid>"...)
	}
}

// Compare orders two values of the same type. NULLs sort first (before any
// non-null value), matching the engine's ORDER BY ... NULLS FIRST default.
// It panics if the types differ, which always indicates a planner bug.
func Compare(a, b Value) int {
	if a.T != b.T {
		panic(fmt.Sprintf("types: comparing %s with %s", a.T, b.T))
	}
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	switch a.T {
	case Int64, Bool, Date, Timestamp:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	default:
		panic("types: comparing invalid values")
	}
}

// Equal reports whether two values are the same SQL value. Unlike SQL
// three-valued logic, NULL equals NULL here; the executor handles ternary
// semantics separately where required.
func Equal(a, b Value) bool { return a.T == b.T && Compare(a, b) == 0 }

// Column describes one column of a schema.
type Column struct {
	Name string
	Type Type
	// NotNull records a NOT NULL constraint from CREATE TABLE.
	NotNull bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// Ordinal returns the position of the named column (case-insensitive), or -1.
func (s Schema) Ordinal(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one tuple of values, aligned with a Schema.
type Row []Value

// Clone returns a copy of the row that shares no mutable state.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a pipe-separated line, the CLI's row format.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// epoch is the zero day for Date arithmetic.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateToDays converts a civil time to days since the Unix epoch.
func DateToDays(t time.Time) int64 {
	t = t.UTC()
	d := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	return int64(d.Sub(epoch) / (24 * time.Hour))
}

// DaysToDate converts days since the Unix epoch back to a civil time.
func DaysToDate(days int64) time.Time {
	return epoch.Add(time.Duration(days) * 24 * time.Hour)
}

// ParseDate parses a YYYY-MM-DD literal into a Date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", strings.TrimSpace(s))
	if err != nil {
		return Value{}, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return NewDate(DateToDays(t)), nil
}

// ParseTimestamp parses a timestamp literal in a few common layouts.
func ParseTimestamp(s string) (Value, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		"2006-01-02 15:04:05.999999",
		"2006-01-02 15:04:05",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return NewTimestamp(t.UTC().UnixMicro()), nil
		}
	}
	return Value{}, fmt.Errorf("types: bad timestamp %q", s)
}

// ParseValue parses a textual field into a value of type t, as COPY does.
// An empty field parses as NULL for every type except String.
func ParseValue(t Type, field string) (Value, error) {
	if field == "" && t != String {
		return NewNull(t), nil
	}
	switch t {
	case Int64:
		i, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: bad integer %q: %w", field, err)
		}
		return NewInt(i), nil
	case Float64:
		f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: bad float %q: %w", field, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(field), nil
	case Bool:
		switch strings.ToLower(strings.TrimSpace(field)) {
		case "t", "true", "1", "y", "yes":
			return NewBool(true), nil
		case "f", "false", "0", "n", "no":
			return NewBool(false), nil
		}
		return Value{}, fmt.Errorf("types: bad boolean %q", field)
	case Date:
		return ParseDate(field)
	case Timestamp:
		return ParseTimestamp(field)
	default:
		return Value{}, fmt.Errorf("types: cannot parse into %s", t)
	}
}
