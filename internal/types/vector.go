package types

import (
	"fmt"
	"slices"
)

// Vector is a typed column batch: the unit the compiled engine, the codecs
// and the block store all operate on. Fixed-width types live in Ints or
// Floats (Bool, Date and Timestamp share Ints); strings live in Strs.
// Nulls, when non-nil, marks null positions; values at null positions are
// zero placeholders so the payload slices always have Len entries.
type Vector struct {
	T      Type
	Nulls  []bool
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewVector returns an empty vector of type t with capacity hint n.
func NewVector(t Type, n int) *Vector {
	v := &Vector{T: t}
	switch t {
	case Float64:
		v.Floats = make([]float64, 0, n)
	case String:
		v.Strs = make([]string, 0, n)
	default:
		v.Ints = make([]int64, 0, n)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.T {
	case Float64:
		return len(v.Floats)
	case String:
		return len(v.Strs)
	default:
		return len(v.Ints)
	}
}

// IsNull reports whether position i holds SQL NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// HasNulls reports whether any position is null.
func (v *Vector) HasNulls() bool {
	for _, n := range v.Nulls {
		if n {
			return true
		}
	}
	return false
}

// ensureNulls materializes the null mask at the current length.
func (v *Vector) ensureNulls() {
	for len(v.Nulls) < v.Len() {
		v.Nulls = append(v.Nulls, false)
	}
}

// Append adds a value, which must match the vector type (or be null).
func (v *Vector) Append(val Value) {
	if val.Null {
		v.AppendNull()
		return
	}
	if val.T != v.T {
		panic(fmt.Sprintf("types: appending %s to %s vector", val.T, v.T))
	}
	switch v.T {
	case Float64:
		v.Floats = append(v.Floats, val.F)
	case String:
		v.Strs = append(v.Strs, val.S)
	default:
		v.Ints = append(v.Ints, val.I)
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendNull adds a SQL NULL.
func (v *Vector) AppendNull() {
	v.ensureNulls()
	switch v.T {
	case Float64:
		v.Floats = append(v.Floats, 0)
	case String:
		v.Strs = append(v.Strs, "")
	default:
		v.Ints = append(v.Ints, 0)
	}
	v.Nulls = append(v.Nulls, true)
}

// Get returns the value at position i.
func (v *Vector) Get(i int) Value {
	if v.IsNull(i) {
		return NewNull(v.T)
	}
	switch v.T {
	case Float64:
		return Value{T: v.T, F: v.Floats[i]}
	case String:
		return Value{T: v.T, S: v.Strs[i]}
	default:
		return Value{T: v.T, I: v.Ints[i]}
	}
}

// Gather returns a new vector holding the values at the selected positions,
// in selection order: AppendSel onto an empty vector.
func (v *Vector) Gather(sel []int) *Vector {
	out := NewVector(v.T, len(sel))
	out.AppendSel(v, sel)
	return out
}

// AppendFrom appends src's position i without boxing through Value. The
// vector types must match.
func (v *Vector) AppendFrom(src *Vector, i int) {
	if src.T != v.T {
		panic(fmt.Sprintf("types: appending from %s to %s vector", src.T, v.T))
	}
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	switch v.T {
	case Float64:
		v.Floats = append(v.Floats, src.Floats[i])
	case String:
		v.Strs = append(v.Strs, src.Strs[i])
	default:
		v.Ints = append(v.Ints, src.Ints[i])
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendRange appends src's positions [lo, hi): AppendFrom for a run of
// rows, one type dispatch and one copy per payload slice.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	if src.T != v.T {
		panic(fmt.Sprintf("types: appending from %s to %s vector", src.T, v.T))
	}
	switch {
	case src.Nulls != nil:
		v.ensureNulls()
		v.Nulls = append(v.Nulls, src.Nulls[lo:hi]...)
	case v.Nulls != nil:
		v.Nulls = append(v.Nulls, make([]bool, hi-lo)...)
	}
	switch v.T {
	case Float64:
		v.Floats = append(v.Floats, src.Floats[lo:hi]...)
	case String:
		v.Strs = append(v.Strs, src.Strs[lo:hi]...)
	default:
		v.Ints = append(v.Ints, src.Ints[lo:hi]...)
	}
}

// AppendSel appends src's positions sel, in selection order, copying payload
// slices directly instead of boxing each value through Value. A negative
// position appends SQL NULL — the hash join's null-extension for unmatched
// left rows.
func (v *Vector) AppendSel(src *Vector, sel []int) {
	if src.T != v.T {
		panic(fmt.Sprintf("types: appending from %s to %s vector", src.T, v.T))
	}
	if v.Nulls != nil || src.Nulls != nil || slices.ContainsFunc(sel, func(i int) bool { return i < 0 }) {
		v.ensureNulls()
		// Writes by index into the grown mask: an append per row costs half
		// again as much.
		n := len(v.Nulls)
		v.Nulls = slices.Grow(v.Nulls, len(sel))[:n+len(sel)]
		for o, i := range sel {
			v.Nulls[n+o] = i < 0 || src.Nulls != nil && src.Nulls[i]
		}
	}
	switch v.T {
	case Float64:
		v.Floats = appendSel(v.Floats, src.Floats, sel)
	case String:
		v.Strs = appendSel(v.Strs, src.Strs, sel)
	default:
		v.Ints = appendSel(v.Ints, src.Ints, sel)
	}
}

// appendSel is AppendSel over one payload slice; a negative position
// appends the zero value.
func appendSel[T int64 | float64 | string](dst, src []T, sel []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	var zero T
	for o, i := range sel {
		if i < 0 {
			dst[n+o] = zero
		} else {
			dst[n+o] = src[i]
		}
	}
	return dst
}

// Slice returns a view of positions [lo, hi). The view shares storage.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{T: v.T}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
	switch v.T {
	case Float64:
		out.Floats = v.Floats[lo:hi]
	case String:
		out.Strs = v.Strs[lo:hi]
	default:
		out.Ints = v.Ints[lo:hi]
	}
	return out
}

// View returns a shallow copy whose payload slices are capacity-clamped
// (full slice expressions), so any append through the view reallocates
// instead of writing into v's backing arrays. Callers handing out cached
// or otherwise shared vectors use it to stay safe against downstream
// in-place appends.
func (v *Vector) View() *Vector {
	out := &Vector{T: v.T}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[:len(v.Nulls):len(v.Nulls)]
	}
	if v.Ints != nil {
		out.Ints = v.Ints[:len(v.Ints):len(v.Ints)]
	}
	if v.Floats != nil {
		out.Floats = v.Floats[:len(v.Floats):len(v.Floats)]
	}
	if v.Strs != nil {
		out.Strs = v.Strs[:len(v.Strs):len(v.Strs)]
	}
	return out
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := &Vector{T: v.T}
	if v.Nulls != nil {
		out.Nulls = append([]bool(nil), v.Nulls...)
	}
	out.Ints = append([]int64(nil), v.Ints...)
	out.Floats = append([]float64(nil), v.Floats...)
	out.Strs = append([]string(nil), v.Strs...)
	return out
}

// MinMax returns the smallest and largest non-null values, for zone maps.
// ok is false when every value is null or the vector is empty.
func (v *Vector) MinMax() (min, max Value, ok bool) {
	switch v.T {
	case Float64:
		var lo, hi float64
		if lo, hi, ok = minMax(v.Floats, v.Nulls); ok {
			min, max = Value{T: v.T, F: lo}, Value{T: v.T, F: hi}
		}
	case String:
		var lo, hi string
		if lo, hi, ok = minMax(v.Strs, v.Nulls); ok {
			min, max = Value{T: v.T, S: lo}, Value{T: v.T, S: hi}
		}
	default:
		var lo, hi int64
		if lo, hi, ok = minMax(v.Ints, v.Nulls); ok {
			min, max = Value{T: v.T, I: lo}, Value{T: v.T, I: hi}
		}
	}
	return min, max, ok
}

// minMax is MinMax over one payload slice, ordering as Compare does: the
// first of equal values stays.
func minMax[T int64 | float64 | string](vals []T, nulls []bool) (lo, hi T, ok bool) {
	for i, x := range vals {
		switch {
		case nulls != nil && nulls[i]:
		case !ok:
			lo, hi, ok = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
	}
	return lo, hi, ok
}

// NullCount returns the number of null positions.
func (v *Vector) NullCount() int {
	n := 0
	for _, isNull := range v.Nulls {
		if isNull {
			n++
		}
	}
	return n
}

// Equal reports whether two vectors hold the same logical values.
func (v *Vector) Equal(o *Vector) bool {
	if v.T != o.T || v.Len() != o.Len() {
		return false
	}
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) != o.IsNull(i) {
			return false
		}
		if v.IsNull(i) {
			continue
		}
		if !Equal(v.Get(i), o.Get(i)) {
			return false
		}
	}
	return true
}

// ByteSize estimates the in-memory payload size, used by the compression
// analyzer to compute ratios and by the cost accounting for network shuffles.
func (v *Vector) ByteSize() int64 {
	var b int64
	switch v.T {
	case String:
		for _, s := range v.Strs {
			b += int64(len(s)) + 4
		}
	case Float64:
		b = int64(len(v.Floats)) * 8
	default:
		b = int64(len(v.Ints)) * 8
	}
	if v.Nulls != nil {
		b += int64(len(v.Nulls)+7) / 8
	}
	return b
}
