package redshift

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spillSeed picks the data-generation seed for the spill suite. CI pins it
// via SPILL_SEED; a failure report always includes the seed so the exact
// dataset can be replayed locally:
//
//	SPILL_SEED=<seed> go test -race -run TestSpill .
func spillSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("SPILL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPILL_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("spill seed = %d (replay with SPILL_SEED=%d)", seed, seed)
	return seed
}

// seedSpillTables loads a fact table big enough that hash aggregation,
// sorting and the join build side all blow through a KiB-scale grant:
// events has one group per row on ts, users is a broadcast-joined
// dimension fattened with a pad column. Amounts are exact halves so float
// sums are order-independent and compare bit-for-bit across tiers.
func seedSpillTables(t *testing.T, w *Warehouse, seed int64, nEvents, nUsers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w.MustExecute(`CREATE TABLE events (
		ts BIGINT NOT NULL, user_id BIGINT, kind VARCHAR(16), amount DOUBLE PRECISION
	) DISTSTYLE KEY DISTKEY(user_id) COMPOUND SORTKEY(ts)`)
	w.MustExecute(`CREATE TABLE users (
		id BIGINT NOT NULL, segment VARCHAR(16), pad VARCHAR(64)
	) DISTSTYLE KEY DISTKEY(id)`)

	kinds := []string{"view", "click", "buy"}
	var ev strings.Builder
	for i := 0; i < nEvents; i++ {
		// user_id range deliberately exceeds the users table so LEFT JOIN
		// has rows to null-extend.
		fmt.Fprintf(&ev, "%d|%d|%s|%g\n",
			i, rng.Intn(nUsers+nUsers/2), kinds[rng.Intn(3)], float64(rng.Intn(100))/2)
	}
	if err := w.PutObject("lake/events/part0.csv", []byte(ev.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY events FROM 's3://lake/events/'`)

	segs := []string{"free", "pro", "enterprise"}
	var us strings.Builder
	for i := 0; i < nUsers; i++ {
		fmt.Fprintf(&us, "%d|%s|%s\n", i, segs[rng.Intn(3)], strings.Repeat("x", 40+i%8))
	}
	if err := w.PutObject("lake/users/part0.csv", []byte(us.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY users FROM 's3://lake/users/'`)
}

// spillBattery exercises every spillable operator — hash join (inner and
// left), high-cardinality hash aggregation, full-table ORDER BY and
// DISTINCT — with every query fully ordered so results compare row for
// row.
var spillBattery = []string{
	`SELECT ts, SUM(amount) AS total FROM events GROUP BY ts ORDER BY ts`,
	`SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`,
	`SELECT e.ts, u.segment FROM events e LEFT JOIN users u ON e.user_id = u.id
		ORDER BY e.ts`,
	`SELECT ts, user_id, amount FROM events ORDER BY amount, ts`,
	`SELECT DISTINCT user_id, kind FROM events ORDER BY user_id, kind`,
	`SELECT kind, COUNT(*) AS n, SUM(amount) AS total, MIN(ts), MAX(ts)
		FROM events GROUP BY kind ORDER BY kind`,
	// Filter-only columns, dropped by the scans after their filters: kind
	// and amount on the probe side, pad on the build side.
	`SELECT e.ts, u.segment FROM events e JOIN users u ON e.user_id = u.id
		WHERE e.kind <> 'view' AND e.amount > 10
		AND u.pad LIKE '%xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx' ORDER BY e.ts`,
	`SELECT e.ts, e.kind, u.segment FROM events e LEFT JOIN users u ON e.user_id = u.id
		WHERE e.amount < 20 ORDER BY e.ts`,
	`SELECT ts, amount FROM events WHERE kind LIKE 'c%' ORDER BY ts`,
}

// TestSpillTwinMatchesUnlimited is the tentpole's headline invariant: the
// same battery, run under an unlimited grant and under grants small enough
// to force every blocking operator to disk, returns bit-identical rows.
// Spilling changes where the work happens, never what it computes.
func TestSpillTwinMatchesUnlimited(t *testing.T) {
	seed := spillSeed(t)
	const nEvents, nUsers = 8000, 2000

	ref := launch(t, Options{Nodes: 2})
	seedSpillTables(t, ref, seed, nEvents, nUsers)
	want := make([]string, len(spillBattery))
	for i, q := range spillBattery {
		want[i] = rowsString(ref.MustExecute(q).Rows)
		if want[i] == "" {
			t.Fatalf("reference query %d returned no rows", i)
		}
	}
	if n := ref.Metrics().Counter("spill_bytes_total").Value(); n != 0 {
		t.Errorf("unlimited tier spilled %d bytes, want 0", n)
	}

	for _, tier := range []struct {
		name  string
		grant int64
	}{
		{"256KiB", 256 << 10},
		{"64KiB", 64 << 10},
	} {
		t.Run(tier.name, func(t *testing.T) {
			dir := t.TempDir()
			w := launch(t, Options{Nodes: 2, WLMSlotMemBytes: tier.grant, SpillDir: dir})
			seedSpillTables(t, w, seed, nEvents, nUsers)
			for i, q := range spillBattery {
				res, err := w.Execute(q)
				if err != nil {
					t.Fatalf("seed %d tier %s query %d failed: %v", seed, tier.name, i, err)
				}
				if got := rowsString(res.Rows); got != want[i] {
					t.Errorf("seed %d tier %s query %d diverged from unlimited run:\ngot:\n%swant:\n%s",
						seed, tier.name, i, got, want[i])
				}
				assertQuiescent(t, w)
			}
			if n := w.Metrics().Counter("spill_bytes_total").Value(); n == 0 {
				t.Errorf("tier %s never spilled — the battery did not exercise the disk path", tier.name)
			}
			if n := w.Metrics().Counter("spilled_queries_total").Value(); n == 0 {
				t.Errorf("tier %s recorded no spilled queries", tier.name)
			}
		})
	}
}

// TestSpillJoinStaysWithinGrant is the acceptance bound: a join whose
// build side is at least 8x the grant completes, spills, and its tracked
// peak never exceeds 2x the grant.
func TestSpillJoinStaysWithinGrant(t *testing.T) {
	seed := spillSeed(t)
	const grant = 64 << 10
	const nEvents, nUsers = 6000, 24000

	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, WLMSlotMemBytes: grant, SpillDir: dir})
	seedSpillTables(t, w, seed, nEvents, nUsers)

	// The join is co-located on the dist key, so each of the 4 slices
	// builds its local 6000-user partition: ~6000 x (12B payload + ~80B
	// key overhead) = ~540 KiB per build — over 8x the 64 KiB grant even
	// if only one slice's build is ever charged at a time.
	res := w.MustExecute(`SELECT u.segment, COUNT(*) AS n, SUM(e.amount) AS total
		FROM events e JOIN users u ON e.user_id = u.id
		GROUP BY u.segment ORDER BY u.segment`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}

	recs := w.DB().QueryLog().Records()
	if len(recs) == 0 {
		t.Fatal("no stl_query records")
	}
	last := recs[len(recs)-1]
	if last.SpillBytes == 0 {
		t.Fatal("8x-grant join did not spill")
	}
	if last.SpillBytes < 8*grant/2 {
		// The build side alone is >= 8x the grant; well over half of it
		// must have hit disk (probe and output partitions add more).
		t.Errorf("spill_bytes = %d, implausibly low for an 8x-grant build", last.SpillBytes)
	}
	if last.MemPeak == 0 {
		t.Error("mem_peak = 0 — tracker never charged")
	}
	if last.MemPeak > 2*grant {
		t.Errorf("mem_peak = %d exceeds 2x grant (%d): spilling failed to bound memory",
			last.MemPeak, 2*grant)
	}
	t.Logf("grant=%d mem_peak=%d spill_bytes=%d", grant, last.MemPeak, last.SpillBytes)
	assertQuiescent(t, w)
}

// TestWorkMemOverridesGrant: SET work_mem swaps the per-query budget at
// runtime — shrinking it forces spills on an otherwise-ungoverned
// warehouse, and 'default' restores the WLM grant.
func TestWorkMemOverridesGrant(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, SpillDir: dir})
	seedSpillTables(t, w, seed, 8000, 500)
	// The governed repeats must actually execute (spilling is the point);
	// keep the result cache from answering them.
	w.MustExecute(`SET result_cache TO off`)

	const q = `SELECT ts, SUM(amount) AS total FROM events GROUP BY ts ORDER BY ts`
	want := rowsString(w.MustExecute(q).Rows)
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n != 0 {
		t.Fatalf("ungoverned query spilled %d bytes", n)
	}

	w.MustExecute(`SET work_mem TO '64KB'`)
	res := w.MustExecute(q)
	if got := rowsString(res.Rows); got != want {
		t.Errorf("work_mem-governed run diverged:\ngot:\n%swant:\n%s", got, want)
	}
	spilled := w.Metrics().Counter("spill_bytes_total").Value()
	if spilled == 0 {
		t.Error("64KB work_mem did not force a spill")
	}

	// EXPLAIN surfaces the active grant.
	ex := w.MustExecute(`EXPLAIN ` + q)
	if !strings.Contains(rowsString(ex.Rows), "Memory Grant: 65536 bytes") {
		t.Errorf("EXPLAIN does not show the work_mem grant:\n%s", rowsString(ex.Rows))
	}

	w.MustExecute(`SET work_mem TO 'default'`)
	w.MustExecute(q)
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n != spilled {
		t.Errorf("spill_bytes_total grew after work_mem reset: %d -> %d", spilled, n)
	}
	assertQuiescent(t, w)
}

// TestSpillSkewedJoinFansOut: every row of both sides carries the same key
// and lives on one slice, so the spilled join's one partition pair fans its
// one probe batch out to 1100 × 1000 rows — more than 2²⁰, the most a
// RUNLENGTH or LZO block may hold. The partition output chunks them into
// BatchSize-row RAW frames and the answer matches the in-memory run; a
// skewed key degrades the join, it does not fail the query.
func TestSpillSkewedJoinFansOut(t *testing.T) {
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 1, SpillDir: dir, BlockCap: 4096})
	w.MustExecute(`CREATE TABLE a (k BIGINT, x BIGINT) DISTSTYLE KEY DISTKEY(k)`)
	w.MustExecute(`CREATE TABLE b (k BIGINT, y BIGINT) DISTSTYLE KEY DISTKEY(k)`)
	var a, b strings.Builder
	for i := 0; i < 1100; i++ {
		fmt.Fprintf(&a, "1|%d\n", i)
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "1|%d\n", i)
	}
	for name, body := range map[string]string{"a": a.String(), "b": b.String()} {
		if err := w.PutObject("lake/"+name+"/part0.csv", []byte(body)); err != nil {
			t.Fatal(err)
		}
		w.MustExecute(`COPY ` + name + ` FROM 's3://lake/` + name + `/'`)
	}
	w.MustExecute(`SET result_cache TO off`)

	const q = `SELECT COUNT(*), SUM(a.x + b.y) FROM a JOIN b ON a.k = b.k`
	want := rowsString(w.MustExecute(q).Rows)
	w.MustExecute(`SET work_mem TO '16KB'`)
	res, err := w.Execute(q)
	if err != nil {
		t.Fatalf("skewed join under a 16 KB grant: %v", err)
	}
	if got := rowsString(res.Rows); got != want {
		t.Errorf("spilled skewed join diverged:\ngot:\n%swant:\n%s", got, want)
	}
	if n := w.Metrics().Counter("spill_bytes_total").Value(); n == 0 {
		t.Error("the 16 KB grant did not force the join to spill")
	}
	assertQuiescent(t, w)
}

// explainAttrs sums an attribute over the EXPLAIN ANALYZE lines whose node
// name starts with prefix, and reports how many lines carried it.
func explainAttrs(res *Result, prefix, key string) (sum int64, lines int) {
	for _, row := range res.Rows {
		line := strings.TrimLeft(row[0].S, " ")
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				sum += n
				lines++
			}
		}
	}
	return sum, lines
}

// TestSpillLimitedSortKeepsOnlyTheLimit: ORDER BY … LIMIT does work in
// proportion to the limit, not the table. Under a 64 KB grant a top-5 (and a
// top-0) over 20000 rows writes nothing to disk and no sort node's peak
// reaches twice the grant; a limit no table reaches still returns every row,
// through runs on disk, without its arithmetic overflowing.
func TestSpillLimitedSortKeepsOnlyTheLimit(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, SpillDir: dir})
	seedSpillTables(t, w, seed, 20000, 2000)
	w.MustExecute(`SET result_cache TO off`)
	const grant = 64 << 10
	const q = `SELECT ts, user_id, amount FROM events ORDER BY amount DESC, ts LIMIT `

	want := map[string]string{}
	for _, limit := range []string{"5", "0", "9223372036854775807"} {
		want[limit] = rowsString(w.MustExecute(q + limit).Rows)
	}
	if n := strings.Count(want["9223372036854775807"], "\n"); n != 20000 {
		t.Fatalf("the unreachable limit returned %d rows, want 20000", n)
	}

	w.MustExecute(`SET work_mem TO '64KB'`)
	for _, dop := range []int{1, 4} {
		w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
		for _, limit := range []string{"5", "0"} {
			before := w.Metrics().Counter("spill_bytes_total").Value()
			out := w.MustExecute(`EXPLAIN ANALYZE ` + q + limit)
			text := rowsString(out.Rows)
			if strings.Contains(text, "spill_bytes=") || w.Metrics().Counter("spill_bytes_total").Value() != before {
				t.Errorf("dop=%d LIMIT %s went to disk:\n%s", dop, limit, text)
			}
			for _, node := range []string{"slice-topn ", "finalize "} {
				if peak, _ := explainAttrs(out, node, "mem_peak"); peak >= 2*grant {
					t.Errorf("dop=%d LIMIT %s: %smem_peak=%d, want under twice the %d grant:\n%s", dop, limit, node, peak, grant, text)
				}
			}
			if got := rowsString(w.MustExecute(q + limit).Rows); got != want[limit] {
				t.Errorf("dop=%d LIMIT %s diverged under the grant:\ngot:\n%swant:\n%s", dop, limit, got, want[limit])
			}
			assertQuiescent(t, w)
		}
		before := w.Metrics().Counter("spill_bytes_total").Value()
		if got := rowsString(w.MustExecute(q + "9223372036854775807").Rows); got != want["9223372036854775807"] {
			t.Errorf("dop=%d: the unreachable limit diverged under the grant", dop)
		}
		if w.Metrics().Counter("spill_bytes_total").Value() == before {
			t.Errorf("dop=%d: 20000 rows sorted under a 64 KB grant without a run on disk", dop)
		}
		assertQuiescent(t, w)
	}
}

// TestSpillJoinOneFilePerOperator: a join on 2 nodes × 2 slices whose build
// side overflows a 16 KB grant so far that its partitions re-partition. Each
// slice's join keeps every partition and sub-partition in one scratch file —
// with the slice's sort that is at most two files a slice — all gone when the
// statement ends, also when a LIMIT stops it early, and the rows are the
// in-memory run's.
func TestSpillJoinOneFilePerOperator(t *testing.T) {
	seed := spillSeed(t)
	dir := t.TempDir()
	w := launch(t, Options{Nodes: 2, SpillDir: dir})
	seedSpillTables(t, w, seed, 40000, 12000)
	w.MustExecute(`SET result_cache TO off`)
	const q = `SELECT e.ts, u.segment, u.pad FROM events e JOIN users u ON e.user_id = u.id ORDER BY e.ts`
	want := rowsString(w.MustExecute(q).Rows)

	w.MustExecute(`SET work_mem TO '16KB'`)
	for _, dop := range []int{1, 4} {
		w.MustExecute(fmt.Sprintf(`SET max_parallel_workers TO %d`, dop))
		filesBefore := w.Metrics().Counter("spill_files_total").Value()
		out := w.MustExecute(`EXPLAIN ANALYZE ` + q)
		text := rowsString(out.Rows)
		files, lines := explainAttrs(out, "", "spill_files")
		if lines == 0 || files == 0 || files > 2*4 {
			t.Errorf("dop=%d: %d scratch files over %d nodes, want 1 to 8:\n%s", dop, files, lines, text)
		}
		joinFiles, _ := explainAttrs(out, "join ", "spill_files")
		parts, _ := explainAttrs(out, "join ", "spill_partitions")
		if joinFiles == 0 || joinFiles > 4 || parts <= 8*joinFiles {
			t.Errorf("dop=%d: the join made %d files for %d partitions; want one a slice, and recursion:\n%s", dop, joinFiles, parts, text)
		}
		if got := w.Metrics().Counter("spill_files_total").Value() - filesBefore; got != files {
			t.Errorf("dop=%d: spill_files_total moved by %d, EXPLAIN ANALYZE counts %d", dop, got, files)
		}
		if got := rowsString(w.MustExecute(q).Rows); got != want {
			t.Errorf("dop=%d: spilled join diverged from the in-memory run", dop)
		}
		// A LIMIT without ORDER BY stops the spilled joins' outputs early.
		if res := w.MustExecute(strings.TrimSuffix(q, ` ORDER BY e.ts`) + ` LIMIT 5`); len(res.Rows) != 5 {
			t.Errorf("dop=%d: LIMIT 5 over the spilled join returned %d rows", dop, len(res.Rows))
		}
		assertQuiescent(t, w)
	}
}
