package types

import (
	"fmt"
	"testing"
)

// boxedGather is the reference implementation Gather replaced: one Value
// box per element. Kept here so the specialized path is checked against it
// and the microbenchmark shows the win.
func boxedGather(v *Vector, sel []int) *Vector {
	out := NewVector(v.T, len(sel))
	for _, i := range sel {
		if i < 0 {
			out.AppendNull()
			continue
		}
		out.Append(v.Get(i))
	}
	return out
}

func gatherFixtures() map[string]*Vector {
	ints := NewVector(Int64, 0)
	floats := NewVector(Float64, 0)
	strs := NewVector(String, 0)
	withNulls := NewVector(Int64, 0)
	for i := 0; i < 100; i++ {
		ints.Append(NewInt(int64(i * 3)))
		floats.Append(NewFloat(float64(i) / 7))
		strs.Append(NewString(fmt.Sprintf("row-%d", i)))
		if i%5 == 0 {
			withNulls.AppendNull()
		} else {
			withNulls.Append(NewInt(int64(i)))
		}
	}
	return map[string]*Vector{"ints": ints, "floats": floats, "strs": strs, "nulls": withNulls}
}

func TestGatherMatchesBoxed(t *testing.T) {
	sels := map[string][]int{
		"ordered":  {0, 1, 2, 3, 50, 99},
		"shuffled": {99, 0, 42, 42, 7},
		"empty":    {},
		"nullext":  {5, -1, 10, -1, -1, 0},
	}
	for vn, v := range gatherFixtures() {
		for sn, sel := range sels {
			got := v.Gather(sel)
			want := boxedGather(v, sel)
			if !got.Equal(want) {
				t.Errorf("%s/%s: Gather mismatch\n got=%+v\nwant=%+v", vn, sn, got, want)
			}
		}
	}
}

func TestGatherNoMaskStaysUnmasked(t *testing.T) {
	v := NewVector(Int64, 0)
	for i := 0; i < 10; i++ {
		v.Append(NewInt(int64(i)))
	}
	out := v.Gather([]int{1, 3, 5})
	if out.Nulls != nil {
		t.Errorf("gather of null-free vector materialized a null mask")
	}
}

func TestAppendFrom(t *testing.T) {
	for vn, v := range gatherFixtures() {
		out := NewVector(v.T, 0)
		for i := v.Len() - 1; i >= 0; i-- {
			out.AppendFrom(v, i)
		}
		for i := 0; i < v.Len(); i++ {
			got, want := out.Get(v.Len()-1-i), v.Get(i)
			if got.Null != want.Null || (!got.Null && !Equal(got, want)) {
				t.Fatalf("%s: AppendFrom pos %d: got %v want %v", vn, i, got, want)
			}
		}
	}
}

// TestAppendRangeAndSelMatchAppendFrom: the bulk appends are AppendFrom over
// the same positions, whichever of the two vectors has a null mask — onto an
// unmasked prefix, a masked one, or nothing.
func TestAppendRangeAndSelMatchAppendFrom(t *testing.T) {
	fixtures := gatherFixtures()
	sel := []int{99, 0, 42, 42, 5, 10}
	for vn, v := range fixtures {
		prefixes := map[string]*Vector{"empty": NewVector(v.T, 0), "unmasked": v.Slice(1, 4), "masked": v.Gather([]int{-1, 2})}
		for pn, prefix := range prefixes {
			want, ranged, picked := prefix.Clone(), prefix.Clone(), prefix.Clone()
			for i := 30; i < 70; i++ {
				want.AppendFrom(v, i)
			}
			for _, i := range sel {
				want.AppendFrom(v, i)
			}
			ranged.AppendRange(v, 30, 70)
			ranged.AppendSel(v, sel)
			picked.AppendRange(v, 30, 50)
			picked.AppendRange(v, 50, 50) // an empty range appends nothing
			picked.AppendRange(v, 50, 70)
			picked.AppendSel(v, sel[:2])
			picked.AppendSel(v, sel[2:])
			for how, got := range map[string]*Vector{"once": ranged, "pieces": picked} {
				if !got.Equal(want) || (got.Nulls != nil && len(got.Nulls) != got.Len()) {
					t.Errorf("%s onto %s, %s: got %+v want %+v", vn, pn, how, got, want)
				}
			}
		}
	}
}

// TestAppendSelNullExtends: AppendSel takes Gather's negative positions too,
// onto a destination with a null mask or without one: the prefix, then the
// boxed gather of sel.
func TestAppendSelNullExtends(t *testing.T) {
	sel := []int{5, -1, 10, -1, 0}
	for vn, v := range gatherFixtures() {
		for pn, prefix := range map[string]*Vector{"unmasked": v.Slice(1, 4), "masked": boxedGather(v, []int{-1, 2})} {
			got, want := prefix.Clone(), prefix.Clone()
			got.AppendSel(v, sel)
			gathered := boxedGather(v, sel)
			for i := 0; i < gathered.Len(); i++ {
				want.Append(gathered.Get(i))
			}
			if !got.Equal(want) || len(got.Nulls) != got.Len() {
				t.Errorf("%s onto %s: got %+v want %+v", vn, pn, got, want)
			}
		}
	}
}

// benchSel gathers every other row — the shape a filter or join produces.
func benchSel(n int) []int {
	sel := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		sel = append(sel, i)
	}
	return sel
}

func BenchmarkGatherSpecialized(b *testing.B) {
	for name, v := range gatherFixtures() {
		sel := benchSel(v.Len())
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.Gather(sel)
			}
		})
	}
}

func BenchmarkGatherBoxed(b *testing.B) {
	for name, v := range gatherFixtures() {
		sel := benchSel(v.Len())
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boxedGather(v, sel)
			}
		})
	}
}
