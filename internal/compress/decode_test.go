package compress

import (
	"sync"
	"testing"

	"redshift/internal/types"
)

// mustEncode encodes a storage-block-sized fixed vector.
func mustEncode(tb testing.TB, e Encoding, t types.Type, narrow bool) ([]byte, *types.Vector) {
	tb.Helper()
	v := fixedVector(t, 4096, narrow, true)
	data, err := Encode(e, v)
	if err != nil {
		tb.Fatalf("%s over %s: %v", e, t, err)
	}
	return data, v
}

// TestDecodeAllocationBudget pins what the cursor decoders are for: a
// 4096-row block costs a handful of allocations however many values it
// holds — the vector, its payload slice, its null mask, and for strings one
// arena (plus TEXT's word list). LZO is held to the same budget: its pooled
// inflater keeps its Huffman tables and output scratch, warm after the
// first run, which AllocsPerRun discards. (Under -race sync.Pool drops a
// share of what is put back, so LZO is not measured there.)
func TestDecodeAllocationBudget(t *testing.T) {
	for e := Encoding(0); e < numEncodings; e++ {
		for _, typ := range []types.Type{types.Int64, types.Float64, types.String} {
			if !Applicable(e, typ) {
				continue
			}
			budget := 3.0
			if typ == types.String {
				budget = 6
			}
			data, _ := mustEncode(t, e, typ, true)
			if e == LZ && raceEnabled {
				continue
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := Decode(data); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%s over %s: %.0f allocations per 4096-row block, budget %.0f", e, typ, allocs, budget)
			}
		}
	}
}

// TestDecodeConcurrent shares the inflater and deflater pools between
// eight goroutines decoding and re-encoding mixed blocks; run under -race
// it is the check that pooled state never crosses goroutines.
func TestDecodeConcurrent(t *testing.T) {
	type block struct {
		e    Encoding
		data []byte
		want *types.Vector
	}
	var blocks []block
	forEachFixed(300, func(_ string, e Encoding, v *types.Vector) {
		if data, err := Encode(e, v); err == nil {
			blocks = append(blocks, block{e, data, v})
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range blocks {
				b := blocks[(i*7+g*13)%len(blocks)]
				got, err := Decode(b.data)
				if err != nil || !got.Equal(b.want) {
					t.Errorf("goroutine %d: %s over %s: err %v, or a wrong vector", g, b.e, b.want.T, err)
					return
				}
				again, err := Encode(b.e, got)
				if err != nil || string(again) != string(b.data) {
					t.Errorf("goroutine %d: %s over %s: re-encode differs (err %v)", g, b.e, b.want.T, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var decodeSink *types.Vector

// BenchmarkDecode times Decode per encoding × type on a 4096-row block —
// the micro-benchmark that guards the decoders, as BenchmarkKeyTable guards
// the hash table. Wide vectors, except for the encodings COPY only picks
// for few distinct values, runs or small steps.
func BenchmarkDecode(b *testing.B) {
	for e := Encoding(0); e < numEncodings; e++ {
		for _, typ := range []types.Type{types.Int64, types.Float64, types.String} {
			if !Applicable(e, typ) {
				continue
			}
			narrow := e == ByteDict || e == Dict || e == RunLength || e == Delta
			data, v := mustEncode(b, e, typ, narrow)
			b.Run(e.String()+"/"+typ.String(), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(v.ByteSize())
				for i := 0; i < b.N; i++ {
					var err error
					if decodeSink, err = Decode(data); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(v.Len()), "ns/value")
			})
		}
	}
}
