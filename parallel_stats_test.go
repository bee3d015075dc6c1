package redshift

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// statsBattery exercises the counters most at risk of double counting
// under several workers — a pruning filter (blocks_skipped), a join
// (probe-side rows), a grand aggregate (partial-agg batches) — with one
// query per sink kind (partial aggregation, ordered distinct, top-N, plain
// gather), plus the two shapes that cut a slice's plan into more than one
// pipeline: a DS_DIST_BOTH join (cut at the probe shuffle) and a join whose
// build spills under a 64 KiB work_mem (cut at the grace join, one worker).
var statsBattery = []struct {
	name, sql, workMem string
}{
	{"agg-pruned", `SELECT ts, SUM(amount) AS total FROM events WHERE ts >= 2000 GROUP BY ts ORDER BY ts`, ""},
	{"agg-join", `SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`, ""},
	{"agg-grand", `SELECT COUNT(*), SUM(amount) FROM events`, ""},
	{"distinct", `SELECT DISTINCT user_id, kind FROM events ORDER BY user_id, kind`, ""},
	{"top-n", `SELECT kind, ts FROM events ORDER BY kind LIMIT 100`, ""},
	{"gather", `SELECT ts, user_id, amount FROM events WHERE amount >= 5 ORDER BY amount, ts`, ""},
	{"dist-both", distBothQuery, ""},
	{"spill-join", `SELECT e.ts, u.segment FROM events e LEFT JOIN users u ON e.user_id = u.id
		ORDER BY e.ts`, "64KB"},
}

// stableSpanLines reduces an EXPLAIN ANALYZE rendering to its
// run-invariant fields: span names plus the row/batch/block counters.
// Durations, memory peaks, cache and dop attributes are stripped — those
// legitimately differ between worker counts.
func stableSpanLines(res *Result) string {
	var out strings.Builder
	for _, row := range res.Rows {
		fields := strings.Fields(strings.TrimLeft(row[0].S, " "))
		var keep []string
		for _, f := range fields {
			if strings.HasPrefix(f, "(") {
				continue
			}
			if i := strings.IndexByte(f, '='); i >= 0 {
				switch f[:i] {
				case "rows", "est_rows", "batches", "blocks_read", "blocks_skipped", "groups":
					keep = append(keep, f)
				}
				continue
			}
			keep = append(keep, f)
		}
		out.WriteString(strings.Join(keep, " "))
		out.WriteByte('\n')
	}
	return out.String()
}

// partialAggCounts reads an EXPLAIN ANALYZE rendering's partial-agg line and
// its per-slice children: the node's rows= and batches=, and the children's
// groups= sum and count. ok is false when the plan has no partial-agg node.
func partialAggCounts(res *Result) (rows, batches, groups, slices int64, ok bool) {
	attr := func(line, key string) int64 {
		for _, f := range strings.Fields(line) {
			if v, found := strings.CutPrefix(f, key+"="); found {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		return -1
	}
	for i, row := range res.Rows {
		line := strings.TrimLeft(row[0].S, " ")
		if !strings.HasPrefix(line, "partial-agg ") {
			continue
		}
		rows, batches = attr(line, "rows"), attr(line, "batches")
		for _, child := range res.Rows[i+1:] {
			cl := strings.TrimLeft(child[0].S, " ")
			if !strings.HasPrefix(cl, "slice ") {
				break
			}
			groups += attr(cl, "groups")
			slices++
		}
		return rows, batches, groups, slices, true
	}
	return 0, 0, 0, 0, false
}

// sliceStatsSnapshot reads stv_slice_stats into per-slice counter tuples.
func sliceStatsSnapshot(t *testing.T, w *Warehouse) map[int64][]int64 {
	t.Helper()
	res := w.MustExecute(`SELECT slice, scans, blocks_read, blocks_skipped, rows_read, bytes_read
		FROM stv_slice_stats ORDER BY slice`)
	snap := make(map[int64][]int64, len(res.Rows))
	for _, r := range res.Rows {
		vals := make([]int64, 0, len(r)-1)
		for _, d := range r[1:] {
			vals = append(vals, d.I)
		}
		snap[r[0].I] = vals
	}
	return snap
}

// sliceStatsDelta runs fn and reports how much each slice's cumulative
// counters moved, as a comparable string.
func sliceStatsDelta(t *testing.T, w *Warehouse, fn func()) string {
	t.Helper()
	before := sliceStatsSnapshot(t, w)
	fn()
	after := sliceStatsSnapshot(t, w)
	var b strings.Builder
	for sl := int64(0); sl < int64(len(after)); sl++ {
		fmt.Fprintf(&b, "slice %d:", sl)
		for i, v := range after[sl] {
			fmt.Fprintf(&b, " %d", v-before[sl][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelStatsMatchSerial is the no-double-counting regression: the
// same query pinned to 1, 2 and 4 workers must report identical rows=,
// est_rows=, batches= and block counters per node in EXPLAIN ANALYZE,
// identical stl_query totals, and identical stv_slice_stats movement —
// worker fan-out may not inflate (or lose) a single observed row or block.
func TestParallelStatsMatchSerial(t *testing.T) {
	seed := spillSeed(t)
	// No block cache: bytes_read and blocks_read stay run-invariant
	// instead of shifting between cold and warm executions.
	w := launch(t, Options{Nodes: 2, BlockCacheBytes: -1, BroadcastRows: 1, SpillDir: t.TempDir()})
	seedSpillTables(t, w, seed, 8000, 2000)
	w.MustExecute(`ANALYZE events`)
	w.MustExecute(`ANALYZE users`)
	w.MustExecute(`SET result_cache TO off`)

	for _, q := range statsBattery {
		t.Run(q.name, func(t *testing.T) {
			if q.workMem != "" {
				w.MustExecute(`SET work_mem TO '` + q.workMem + `'`)
				defer w.MustExecute(`SET work_mem TO default`)
			}
			defer w.MustExecute(`SET max_parallel_workers TO default`)
			var wantSpans, wantSlices, wantRec string
			for _, dop := range []int{1, 2, 4} {
				w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
				out := w.MustExecute(`EXPLAIN ANALYZE ` + q.sql)
				text := rowsString(out.Rows)
				if !strings.Contains(text, fmt.Sprintf("dop=%d", dop)) {
					t.Errorf("EXPLAIN ANALYZE does not surface dop=%d:\n%s", dop, text)
				}
				if q.name == "dist-both" && strings.Count(text, " shuffle (") != 2 {
					t.Fatalf("join did not shuffle both sides (not DS_DIST_BOTH):\n%s", text)
				}
				if q.workMem != "" && !strings.Contains(text, "spill_bytes=") {
					t.Fatalf("work_mem %s did not spill at dop=%d:\n%s", q.workMem, dop, text)
				}
				// A slice's partial aggregate is one output of as many rows as it
				// built groups: the node line must say what its children say.
				if rows, batches, groups, n, ok := partialAggCounts(out); ok != strings.HasPrefix(q.name, "agg-") {
					t.Fatalf("partial-agg node present = %v:\n%s", ok, text)
				} else if ok && (rows != groups || batches != n || rows == 0) {
					t.Errorf("dop=%d: partial-agg rows=%d batches=%d, its %d slices report %d groups:\n%s",
						dop, rows, batches, n, groups, text)
				}
				spans := stableSpanLines(out)
				slices := sliceStatsDelta(t, w, func() { w.MustExecute(q.sql) })
				rec := lastQueryRecord(t, w)
				if dop == 1 {
					wantSpans, wantSlices, wantRec = spans, slices, rec
					continue
				}
				if spans != wantSpans {
					t.Errorf("EXPLAIN ANALYZE counters diverged between dop=1 and dop=%d:\ndop=1:\n%sdop=%d:\n%s",
						dop, wantSpans, dop, spans)
				}
				if slices != wantSlices {
					t.Errorf("stv_slice_stats moved differently under dop=%d:\ndop=1:\n%sdop=%d:\n%s",
						dop, wantSlices, dop, slices)
				}
				if rec != wantRec {
					t.Errorf("stl_query totals diverged:\ndop=1: %s\ndop=%d: %s", wantRec, dop, rec)
				}
			}
		})
	}
}

// lastQueryRecord returns the newest stl_query record's run-invariant
// counters (result rows, blocks read/skipped, shuffle bytes).
func lastQueryRecord(t *testing.T, w *Warehouse) string {
	t.Helper()
	recs := w.DB().QueryLog().Records()
	if len(recs) == 0 {
		t.Fatal("no stl_query records")
	}
	r := recs[len(recs)-1]
	return fmt.Sprintf("%s rows=%d blocks_read=%d blocks_skipped=%d net_bytes=%d",
		r.SQL, r.Rows, r.BlocksRead, r.BlocksSkipped, r.NetBytes)
}

// TestOneWorkerRunsInline is the dop = 1 guard: a point query's pipelines
// run on the goroutines execute() starts anyway — one per slice, plus one
// per build-side exchange producer — with no worker goroutine, no morsel
// dispatched to one, and exec_parallel_workers never leaving zero. Pinning
// dop = 4 on the same query is the control: every scan pipeline then adds
// its four workers.
func TestOneWorkerRunsInline(t *testing.T) {
	w := launch(t, Options{Nodes: 2})
	seedSpillTables(t, w, spillSeed(t), 4000, 1000)
	w.MustExecute(`ANALYZE events`)
	w.MustExecute(`ANALYZE users`)
	w.MustExecute(`SET result_cache TO off`)
	nslices := int64(len(w.MustExecute(`SELECT slice FROM stv_slice_stats`).Rows))

	goroutines := w.Metrics().Counter("exec_goroutines_total")
	morsels := w.Metrics().Counter("morsels_dispatched_total")
	run := func(q string) (started, dispatched int64) {
		g, m := goroutines.Value(), morsels.Value()
		w.MustExecute(q)
		if n := w.Metrics().Gauge("exec_parallel_workers").Value(); n != 0 {
			t.Errorf("exec_parallel_workers = %d after %s", n, q)
		}
		return goroutines.Value() - g, morsels.Value() - m
	}

	const point = `SELECT ts, amount FROM events WHERE ts = 1234`
	// The join key is not events' distribution key, so users is broadcast:
	// one exchange producer per slice.
	const pointJoin = `SELECT e.ts, u.segment FROM events e JOIN users u ON e.ts = u.id WHERE e.ts = 17`
	if out := rowsString(w.MustExecute(`EXPLAIN ` + pointJoin).Rows); !strings.Contains(out, "DS_BCAST_INNER") {
		t.Fatalf("point join does not broadcast its build side:\n%s", out)
	}
	if g, m := run(point); g != nslices || m != 0 {
		t.Errorf("point query started %d goroutines and dispatched %d morsels, want %d (one per slice) and 0", g, m, nslices)
	}
	if g, m := run(pointJoin); g != 2*nslices || m != 0 {
		t.Errorf("point join started %d goroutines and dispatched %d morsels, want %d (slices + producers) and 0", g, m, 2*nslices)
	}

	w.MustExecute(`SET max_parallel_workers TO 4`)
	if g, m := run(point); g != nslices+4*nslices || m == 0 {
		t.Errorf("dop=4 point query started %d goroutines and dispatched %d morsels, want %d and > 0", g, m, 5*nslices)
	}
}
