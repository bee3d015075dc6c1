package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// benchKVBatches builds n rows of (Int64 key, String payload) in
// BatchSize chunks and reports their total tracked size.
func benchKVBatches(rng *rand.Rand, n, dupMod int) ([]*Batch, int64) {
	var batches []*Batch
	var bytes int64
	for left := n; left > 0; left -= BatchSize {
		b := randKVBatch(rng, min(left, BatchSize), dupMod, 0)
		bytes += b.ByteSize()
		batches = append(batches, b)
	}
	return batches, bytes
}

// benchMemCtx builds a governed MemContext over dir with the given
// budget, returning it with its stats for spill reporting.
func benchMemCtx(b *testing.B, budget int64) *MemContext {
	tr := NewMemTracker(budget, nil)
	dir := NewSpillDir(b.TempDir(), "bench")
	b.Cleanup(func() { dir.Cleanup() })
	return &MemContext{T: tr.Child(), Dir: dir, Stats: &SpillStats{}}
}

// reportSpill reports what a governed benchmark left in stats, per run, and
// what the whole loop allocated, per input row.
func reportSpill(b *testing.B, stats []*SpillStats, rows int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(rows), "allocs/row")
	var bytes, files int64
	for _, st := range stats {
		bytes += st.Bytes.Load()
		files += st.Files.Load()
	}
	if len(stats) > 0 {
		b.ReportMetric(float64(bytes)/float64(b.N), "spill-B/op")
		b.ReportMetric(float64(files)/float64(b.N), "files/op")
	}
}

// BenchmarkSpillJoin compares the in-memory hash join against the grace
// spill path on the same data, with the build side 8x the governed
// budget so every partition goes through disk.
func BenchmarkSpillJoin(b *testing.B) {
	const buildRows, probeRows = 60000, 60000
	rng := rand.New(rand.NewSource(20260805))
	build, buildBytes := benchKVBatches(rng, buildRows, 1000)
	probe, _ := benchKVBatches(rng, probeRows, 1000)
	budget := buildBytes / 8
	ctx := context.Background()

	run := func(b *testing.B, governed bool) {
		var stats []*SpillStats
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			j, err := NewHashJoin(Compiled, mkJoinStep(sql.InnerJoin), 2)
			if err != nil {
				b.Fatal(err)
			}
			var mc *MemContext
			if governed {
				mc = benchMemCtx(b, budget)
				j.SetMemory(mc)
			}
			for _, bb := range build {
				if err := j.Build(bb); err != nil {
					b.Fatal(err)
				}
			}
			var rows int64
			if !j.Spilled() {
				if governed {
					b.Fatal("8x-budget build did not spill")
				}
				for _, pb := range probe {
					out, err := j.Probe(pb)
					if err != nil {
						b.Fatal(err)
					}
					rows += int64(out.N)
					PutBatch(out)
				}
			} else {
				for _, pb := range probe {
					if err := j.spill.addProbe(pb); err != nil {
						b.Fatal(err)
					}
				}
				st, err := j.spill.run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for {
					out, err := st.Next(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
					rows += int64(out.N)
					PutBatch(out)
				}
			}
			if rows == 0 {
				b.Fatal("join produced no rows")
			}
			if governed {
				stats = append(stats, mc.Stats)
				j.ReleaseMem()
			}
		}
		reportSpill(b, stats, probeRows, &before)
	}
	b.Run(fmt.Sprintf("in-memory-%dKB", buildBytes>>10), func(b *testing.B) { run(b, false) })
	b.Run(fmt.Sprintf("spill-budget-%dKB", budget>>10), func(b *testing.B) { run(b, true) })
}

// BenchmarkExternalSort compares the one-shot in-memory sort against the
// external run-merge path with the input 8x the governed budget.
func BenchmarkExternalSort(b *testing.B) {
	const rows = 200000
	rng := rand.New(rand.NewSource(20260805))
	input, inBytes := benchKVBatches(rng, rows, 1<<30)
	budget := inBytes / 8
	keys := []plan.OrderKey{{Index: 0}, {Index: 1, Desc: true}}
	ctx := context.Background()

	run := func(b *testing.B, governed bool) {
		var stats []*SpillStats
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			var mc *MemContext
			if governed {
				mc = benchMemCtx(b, budget)
			}
			s := NewExternalSorter(keys, 2, -1, false, mc)
			for _, bb := range input {
				if err := s.Add(bb, 0); err != nil {
					b.Fatal(err)
				}
			}
			if governed && !s.Spilled() {
				b.Fatal("8x-budget sort did not spill")
			}
			st, err := s.Stream(ctx)
			if err != nil {
				b.Fatal(err)
			}
			var got int64
			var last types.Value
			for {
				out, err := st.Next(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
				// Touch the sort key so the merge isn't dead code, and spot-
				// check ordering while we're at it.
				v := out.Cols[0].Get(out.N - 1)
				if got > 0 && last.I > out.Cols[0].Get(0).I {
					b.Fatal("merge emitted keys out of order")
				}
				last = v
				got += int64(out.N)
				PutBatch(out)
			}
			if got != rows {
				b.Fatalf("sorted %d rows, want %d", got, rows)
			}
			s.Release()
			if governed {
				stats = append(stats, mc.Stats)
			}
		}
		reportSpill(b, stats, rows, &before)
	}
	b.Run(fmt.Sprintf("in-memory-%dKB", inBytes>>10), func(b *testing.B) { run(b, false) })
	b.Run(fmt.Sprintf("spill-budget-%dKB", budget>>10), func(b *testing.B) { run(b, true) })
}

// BenchmarkTopN feeds the slice-local top-N sink 100k rows for a LIMIT 100,
// in random order and in the order that defeats a cut (every row beats all
// before it), and reports time and allocated bytes per input row: both stay
// flat in the input, where a sort of everything would grow with it.
func BenchmarkTopN(b *testing.B) {
	const rows, limit = 100000, 100
	keys := []plan.OrderKey{{Index: 0, Desc: true}, {Index: 1}}
	for _, order := range []string{"random", "ascending"} {
		rng := rand.New(rand.NewSource(20260926))
		input, _ := benchKVBatches(rng, rows, 1<<30)
		if order == "ascending" {
			next := int64(0)
			for _, bb := range input {
				for i := range bb.Cols[0].Ints {
					bb.Cols[0].Ints[i] = next
					next++
				}
			}
		}
		b.Run(order, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				var out *Batch
				sink := NewTopNSink(keys, limit, 2, func() *MemContext { return nil }, nil, func(o *Batch) error { out = o; return nil })
				if err := sink.Open(1); err != nil {
					b.Fatal(err)
				}
				for seq, bb := range input {
					// The sink consumes its input: hand it a view.
					if err := sink.Consume(0, int64(seq), &Batch{Cols: append([]*types.Vector{}, bb.Cols...), N: bb.N}); err != nil {
						b.Fatal(err)
					}
				}
				if err := sink.Finish(context.Background()); err != nil {
					b.Fatal(err)
				}
				sink.Close()
				if out.N != limit {
					b.Fatalf("top-N emitted %d rows", out.N)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/rows, "B/row")
		})
	}
}
