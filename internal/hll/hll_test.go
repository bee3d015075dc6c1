package hll

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int64{0, 1, 10, 100, 1000, 10_000, 100_000, 1_000_000} {
		s := New()
		for i := int64(0); i < n; i++ {
			s.AddInt64(i)
		}
		got := s.Estimate()
		if n == 0 {
			if got != 0 {
				t.Errorf("empty sketch estimates %d", got)
			}
			continue
		}
		err := math.Abs(float64(got)-float64(n)) / float64(n)
		// 12-bit precision: ~1.6% standard error; allow 5x that.
		if err > 0.08 {
			t.Errorf("n=%d estimate=%d relative error %.3f", n, got, err)
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := New()
	for i := 0; i < 100_000; i++ {
		s.AddInt64(int64(i % 50))
	}
	got := s.Estimate()
	if got < 40 || got > 60 {
		t.Errorf("50 distinct values estimated as %d", got)
	}
}

func TestStringsAndBytes(t *testing.T) {
	s := New()
	for i := 0; i < 5000; i++ {
		s.AddString(fmt.Sprintf("user-%d", i))
	}
	got := s.Estimate()
	if math.Abs(float64(got)-5000)/5000 > 0.08 {
		t.Errorf("estimate = %d, want ≈5000", got)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, both := New(), New(), New()
	for i := 0; i < 60_000; i++ {
		a.AddInt64(int64(i))
		both.AddInt64(int64(i))
	}
	for i := 30_000; i < 90_000; i++ {
		b.AddInt64(int64(i))
		both.AddInt64(int64(i))
	}
	a.Merge(b)
	if a.Estimate() != both.Estimate() {
		t.Errorf("merged estimate %d != union estimate %d", a.Estimate(), both.Estimate())
	}
	relErr := math.Abs(float64(a.Estimate())-90_000) / 90_000
	if relErr > 0.08 {
		t.Errorf("union estimate %d off by %.3f", a.Estimate(), relErr)
	}
}

func TestMergeCommutative(t *testing.T) {
	a1, b1 := New(), New()
	a2, b2 := New(), New()
	for i := 0; i < 10_000; i++ {
		a1.AddInt64(int64(i))
		a2.AddInt64(int64(i))
	}
	for i := 5000; i < 20_000; i++ {
		b1.AddInt64(int64(i))
		b2.AddInt64(int64(i))
	}
	a1.Merge(b1) // a ∪ b
	b2.Merge(a2) // b ∪ a
	if a1.Estimate() != b2.Estimate() {
		t.Error("merge is not commutative")
	}
}

// Merge takes the register-wise maximum eight registers at a time; a
// register-by-register maximum is its oracle, over random registers of every
// rank a hash can give (0 to 64 − Precision + 1) and their extremes side by
// side.
func TestMergeMatchesRegisterMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 200; k++ {
		s, o := New(), New()
		for i := range s.reg {
			s.reg[i], o.reg[i] = uint8(rng.Intn(66-Precision)), uint8(rng.Intn(66-Precision))
			if k%2 == 0 && i%3 == 0 {
				s.reg[i], o.reg[i] = 0, 64-Precision+1
			}
		}
		want := *s
		for i, r := range o.reg {
			want.reg[i] = max(want.reg[i], r)
		}
		if s.Merge(o); *s != want {
			t.Fatalf("case %d: Merge differs from the register-by-register maximum", k)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 12345; i++ {
		s.AddInt64(int64(i))
	}
	text, err := s.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	got := New()
	if err := got.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if *got != *s {
		t.Errorf("round trip changed the registers: estimate %d vs %d", got.Estimate(), s.Estimate())
	}
	for _, bad := range []string{"AQID", "not base64", string(text) + "AAAA"} {
		if err := got.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText accepted %.20q", bad)
		}
	}
}

func BenchmarkAddInt64(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.AddInt64(int64(i))
	}
}

// TestSketchRegistersUnchanged holds the in-place hashing to the registers
// hash/fnv's New64a and a bit-at-a-time rank produce: catalog backups store
// registers, so the same values must always set the same ones.
func TestSketchRegistersUnchanged(t *testing.T) {
	oracle := func(s *Sketch, b []byte) {
		f := fnv.New64a()
		f.Write(b)
		h := fmix64(f.Sum64())
		idx := h >> (64 - Precision)
		rest := h<<Precision | 1<<(Precision-1)
		rank := uint8(1)
		for rest&(1<<63) == 0 {
			rank++
			rest <<= 1
		}
		s.reg[idx] = max(s.reg[idx], rank)
	}
	got, want := New(), New()
	rng := rand.New(rand.NewSource(1))
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for i := 0; i < 1<<16; i++ {
		ints = append(ints, rng.Int63()-rng.Int63(), int64(rng.Intn(1<<20)))
	}
	for _, v := range ints {
		got.AddInt64(v)
		oracle(want, binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	for _, v := range []string{"", "a", "ab", "héllo", "日本語", "\x00", "\xff\xfe", strings.Repeat("x", 1000)} {
		got.AddString(v)
		got.AddBytes([]byte(v + "!"))
		oracle(want, []byte(v))
		oracle(want, []byte(v+"!"))
	}
	if *got != *want {
		t.Fatalf("registers differ from the FNV oracle: estimate %d vs %d", got.Estimate(), want.Estimate())
	}
}
