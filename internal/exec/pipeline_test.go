package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// scanSource builds a ScanSource with n scanners over seg (every column,
// rows with ts < hi).
func scanSource(t *testing.T, seg *storage.Segment, spec *plan.TableScan, n int) *ScanSource {
	t.Helper()
	src := &ScanSource{Queue: NewMorselQueue([]*storage.Segment{seg})}
	stats := &ScanStats{}
	for w := 0; w < n; w++ {
		sc, err := NewScanner(Compiled, spec, nil, stats)
		if err != nil {
			t.Fatal(err)
		}
		src.Scanners = append(src.Scanners, sc)
	}
	return src
}

// render flattens batches to one comparable string, batch boundaries kept.
func render(bs []*Batch) string {
	var sb strings.Builder
	for _, b := range bs {
		for i := 0; i < b.N; i++ {
			fmt.Fprintf(&sb, "%v;", b.Row(i))
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// Every sink must reproduce the one-worker result at any worker count:
// the ordered stream batch for batch, the aggregate's first-seen group
// order, and the top-N's stable tie order at the cut.
func TestPipelineSinksRestoreOneWorkerOrder(t *testing.T) {
	seg, def := buildSegment(t, 1000) // 63 blocks of 16 rows; v = ts % 7
	spec := scanSpec(def, 900)        // prunes the tail blocks: nil morsels must still advance the order
	ctx := context.Background()
	// A per-batch stage that thins every batch and drops each third block
	// entirely, so empties appear mid-stream too.
	keepSmallV := Stage{Stats: &OpStats{}, New: func() (StageFn, error) {
		return func(b *Batch) (*Batch, error) {
			var sel []int
			for i := 0; i < b.N; i++ {
				if b.Cols[1].Get(i).I < 3 && b.Cols[0].Get(i).I/16%3 != 0 {
					sel = append(sel, i)
				}
			}
			return b.Gather(sel), nil
		}, nil
	}}
	groupByV := []plan.Expr{&plan.Col{Index: 1, T: types.Int64, Name: "v"}}
	aggs := []plan.AggSpec{{Func: sql.FuncCount, T: types.Int64}}
	byV := []plan.OrderKey{{Index: 1}}

	results := map[string][]string{}
	for _, n := range []int{1, 2, 4, 7} {
		var ordered []*Batch
		p := &Pipeline{Scan: scanSource(t, seg, spec, n), Stages: []Stage{keepSmallV}, SrcStats: &OpStats{},
			Sink: NewOrderedSink(func(b *Batch) error { ordered = append(ordered, b); return nil })}
		if err := p.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if got, want := p.SrcStats.Batches.Load(), int64(57); got != want {
			t.Errorf("n=%d: source batches = %d, want %d (900 surviving rows / 16)", n, got, want)
		}

		agg := NewAggSink(func() (*GroupTable, error) { return NewGroupTable(Compiled, groupByV, aggs) })
		p = &Pipeline{Scan: scanSource(t, seg, spec, n), Sink: agg}
		if err := p.Run(ctx); err != nil {
			t.Fatal(err)
		}
		groups, err := agg.Table().Result()
		if err != nil {
			t.Fatal(err)
		}

		var top *Batch
		p = &Pipeline{Scan: scanSource(t, seg, spec, n),
			Sink: NewTopNSink(byV, 200, 2, func() *MemContext { return nil }, nil,
				func(b *Batch) error { top = b; return nil })}
		if err := p.Run(ctx); err != nil {
			t.Fatal(err)
		}

		results["ordered"] = append(results["ordered"], render(ordered))
		results["agg"] = append(results["agg"], render([]*Batch{groups}))
		results["topn"] = append(results["topn"], render([]*Batch{top}))
	}
	for kind, rs := range results {
		for i, r := range rs[1:] {
			if r != rs[0] {
				t.Errorf("%s sink diverged from the one-worker run at worker count #%d:\ngot  %s\nwant %s", kind, i+1, r, rs[0])
			}
		}
	}
}

// A stage failure must surface as the run's error (not the sibling
// workers' context.Canceled) and leave nothing parked.
func TestPipelineStageErrorWins(t *testing.T) {
	seg, def := buildSegment(t, 1000)
	boom := errors.New("boom")
	fail := Stage{New: func() (StageFn, error) {
		return func(b *Batch) (*Batch, error) {
			if b.Cols[0].Get(0).I >= 320 {
				return nil, boom
			}
			return b, nil
		}, nil
	}}
	fl := NewFlightTracker(nil)
	sink := NewOrderedSink(func(b *Batch) error { PutBatch(b); return nil })
	p := &Pipeline{Scan: scanSource(t, seg, scanSpec(def, 1000), 4), Stages: []Stage{fail}, Sink: sink, Flight: fl}
	if err := p.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if fl.Current() != 0 {
		t.Errorf("batches in flight after failed run = %d, want 0", fl.Current())
	}
	if len(sink.pending) != 0 {
		t.Errorf("%d batches still parked after Close", len(sink.pending))
	}
}

// The leader's pipeline owns what it pulls: LeaderMergeOp unparks each
// gathered batch as it hands it out, a DISTINCT stage and either result sink
// release it, and a stop mid-stream leaves exactly the untaken batches
// parked (non-nil, still counted) for the caller to retire.
func TestLeaderPipelineConsumesGatherLists(t *testing.T) {
	ctx := context.Background()
	byCol0 := []plan.OrderKey{{Index: 0}}
	fl := NewFlightTracker(nil)
	// Two slices, each pre-sorted on column 0; values repeat across slices.
	gather := func() [][]*Batch {
		lists := make([][]*Batch, 3) // slice 1 gathered nothing
		for sl, vals := range map[int][][]int64{0: {{1, 3}, {5, 7}}, 2: {{1, 2}, {7, 9}}} {
			for _, vs := range vals {
				rows := make([]types.Row, len(vs))
				for i, v := range vs {
					rows[i] = types.Row{types.NewInt(v)}
				}
				lists[sl] = append(lists[sl], FromRows([]types.Type{types.Int64}, rows))
				fl.Inc()
			}
		}
		return lists
	}
	parked := func(lists [][]*Batch) (n int) {
		for _, bs := range lists {
			for _, b := range bs {
				if b != nil {
					n++
				}
			}
		}
		return n
	}

	// Replay + DISTINCT + collect cut at 5: slice order, first occurrence wins.
	lists := gather()
	out := NewBatch(1)
	dedupe := NewDeduper(nil)
	p := &Pipeline{Op: NewLeaderMergeOp(lists, fl), Flight: fl,
		Stages: []Stage{{New: func() (StageFn, error) { return dedupe.Apply, nil }}},
		Sink:   NewOrderedSink(Collect(out, 5, nil))}
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := render([]*Batch{out}), "1;3;5;7;2;|"; got != want {
		t.Errorf("distinct collect = %s, want %s", got, want)
	}
	if parked(lists) != 0 || fl.Current() != 0 {
		t.Errorf("after a full run %d batches parked, %d in flight", parked(lists), fl.Current())
	}

	// Replay into a one-worker TopNSink: its stable sort merges the slices.
	lists = gather()
	var top *Batch
	p = &Pipeline{Op: NewLeaderMergeOp(lists, fl), Flight: fl,
		Sink: NewTopNSink(byCol0, 3, 1, func() *MemContext { return nil }, nil, func(b *Batch) error { top = b; return nil })}
	if err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := render([]*Batch{top}), "1;1;2;|"; got != want {
		t.Errorf("replayed top-3 = %s, want %s", got, want)
	}
	if parked(lists) != 0 || fl.Current() != 0 {
		t.Errorf("after a full run %d batches parked, %d in flight", parked(lists), fl.Current())
	}

	// A sink failure on the second batch stops the run: two taken, two parked.
	fl = NewFlightTracker(nil)
	lists = gather()
	boom, seen := errors.New("boom"), 0
	p = &Pipeline{Op: NewLeaderMergeOp(lists, fl), Flight: fl,
		Sink: NewOrderedSink(func(b *Batch) error {
			PutBatch(b)
			if seen++; seen == 2 {
				return boom
			}
			return nil
		})}
	if err := p.Run(ctx); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if parked(lists) != 2 || fl.Current() != 2 {
		t.Errorf("after an early stop %d batches parked, %d in flight, want 2 and 2", parked(lists), fl.Current())
	}
}
