package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/exec"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
)

func assertQuiescent(t *testing.T, db *Database) {
	t.Helper()
	if err := db.Quiescent(); err != nil {
		t.Error(err)
	}
}

func tableDef(t *testing.T, db *Database, name string) *catalog.TableDef {
	t.Helper()
	def, err := db.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// viewRows reads a table's first column through a view, the way a scan
// would: segments resolved now, as of the view's snapshot.
func viewRows(t *testing.T, v *readView, def *catalog.TableDef) []int64 {
	t.Helper()
	var xs []int64
	for _, segs := range v.tableSegments(def) {
		for _, seg := range segs {
			rows, err := seg.ReadRows(v.db.cl.FetchBlock)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				xs = append(xs, r[0].I)
			}
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// visibleBytes is what the table's current segments occupy — TableBytes
// minus whatever superseded segments are still held for open views.
func visibleBytes(db *Database, def *catalog.TableDef) int64 {
	v := db.beginRead(nil)
	defer v.release()
	var n int64
	for _, segs := range v.tableSegments(def) {
		for _, seg := range segs {
			n += seg.ByteSize()
		}
	}
	return n
}

// TestVacuumKeepsSegmentsALiveReaderNeeds: a rewrite supersedes segments,
// it does not take them from under a reader. A view opened before VACUUM
// (or TRUNCATE) and resolved after it still sees every row; once it is
// released nothing superseded outlives the next write to any table.
func TestVacuumKeepsSegmentsALiveReaderNeeds(t *testing.T) {
	for _, rewrite := range []string{`VACUUM b`, `TRUNCATE b`} {
		t.Run(rewrite, func(t *testing.T) {
			db := openDB(t, exec.Compiled)
			mustExec(t, db, `CREATE TABLE b (x BIGINT) SORTKEY(x)`)
			mustExec(t, db, `CREATE TABLE other (x BIGINT)`)
			mustExec(t, db, `INSERT INTO b VALUES (9), (2), (7), (1), (8), (3), (12), (11)`)
			mustExec(t, db, `INSERT INTO b VALUES (19), (22), (17), (21), (18), (23), (32), (31)`)
			def := tableDef(t, db, "b")

			view := db.beginRead(nil)
			mustExec(t, db, rewrite)
			if got := viewRows(t, view, def); len(got) != 16 || got[0] != 1 || got[15] != 32 {
				t.Errorf("view opened before %s sees %v, want the 16 rows it started with", rewrite, got)
			}
			if held, live := db.cl.TableBytes(def.ID), visibleBytes(db, def); held <= live {
				t.Errorf("TableBytes = %d with a pre-rewrite view open, want more than the %d visible", held, live)
			}
			if db.Quiescent() == nil {
				t.Error("Quiescent() = nil with a read view open")
			}
			view.release()

			mustExec(t, db, `INSERT INTO other VALUES (1)`)
			if held, live := db.cl.TableBytes(def.ID), visibleBytes(db, def); held != live {
				t.Errorf("TableBytes = %d after the view closed, want the %d visible", held, live)
			}
			want := "16|1|32"
			if rewrite == `TRUNCATE b` {
				want = "0|NULL|NULL"
			}
			if got := fmt.Sprint(mustExec(t, db, `SELECT COUNT(*), MIN(x), MAX(x) FROM b`).Rows[0]); got != want {
				t.Errorf("after %s: %s, want %s", rewrite, got, want)
			}
			assertQuiescent(t, db)
		})
	}
}

// TestVacuumKeepsJoinBuildSideOfARunningQuery: a query resolves its scans
// one pipeline at a time, so a join's build side can be looked up long
// after the snapshot was taken. Both sides are rewritten between the two
// here; the query still joins the tables it started with.
func TestVacuumKeepsJoinBuildSideOfARunningQuery(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE f (k BIGINT, v BIGINT) DISTSTYLE KEY DISTKEY(k)`)
	mustExec(t, db, `CREATE TABLE d (k BIGINT, name VARCHAR(8)) DISTSTYLE KEY DISTKEY(k) SORTKEY(k)`)
	mustExec(t, db, `INSERT INTO f VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	mustExec(t, db, `INSERT INTO f VALUES (1, 11), (2, 21), (3, 31), (4, 41)`)
	mustExec(t, db, `INSERT INTO d VALUES (4, 'd'), (2, 'b')`)
	mustExec(t, db, `INSERT INTO d VALUES (3, 'c'), (1, 'a')`)
	const q = `SELECT d.name, SUM(f.v) AS s FROM f JOIN d ON f.k = d.k GROUP BY d.name ORDER BY d.name`
	want := rowsText(mustExec(t, db, q))

	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := db.planFor(stmt.(*sql.Select), q)
	if err != nil {
		t.Fatal(err)
	}
	view := db.beginRead(nil)
	mustExec(t, db, `VACUUM d`)
	mustExec(t, db, `TRUNCATE f`)
	run := &queryRun{db: db, p: p, mode: db.cfg.Mode, view: view, scans: &exec.ScanStats{},
		run: db.defaultSession.begin(context.Background(), telemetry.StageOther)}
	final, err := run.execute(context.Background())
	view.release()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i := 0; i < final.N; i++ {
		fmt.Fprintln(&got, final.Row(i))
	}
	if got.String() != want {
		t.Errorf("join under a pre-rewrite view:\n%swant:\n%s", got.String(), want)
	}
	mustExec(t, db, `INSERT INTO d VALUES (5, 'e')`)
	assertQuiescent(t, db)
}

func rowsText(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// scanTable drives an exec.Scanner over a table the way scanPipeline does —
// block cache attached first, then the view's segments resolved — and
// returns the sorted first column plus the scan's counters.
func scanTable(t *testing.T, v *readView, def *catalog.TableDef) ([]int64, *exec.ScanStats) {
	t.Helper()
	db := v.db
	stats := &exec.ScanStats{}
	sc, err := exec.NewScanner(db.cfg.Mode, &plan.TableScan{Def: def, NeedCols: []int{0, 1}}, db.cl.FetchBlockCtx, stats)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetCache(db.cache)
	var xs []int64
	for sl := 0; sl < db.cl.NumSlices(); sl++ {
		for _, seg := range v.segments(sl, def.ID) {
			err := sc.ScanSegment(context.Background(), seg, func(b *exec.Batch) error {
				for i := 0; i < b.N; i++ {
					if x, y := b.Cols[0].Get(i).I, b.Cols[1].Get(i).I; y != x*10 {
						return fmt.Errorf("row (%d, %d): columns from different rows", x, y)
					}
					xs = append(xs, b.Cols[0].Get(i).I)
				}
				exec.PutBatch(b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs, stats
}

// TestCommitProtocolBlockIdentityNeverReused is engine defect #2, driven
// step by step: a reader holding the pre-VACUUM snapshot decodes and caches
// its old blocks AFTER the VACUUM published and invalidated — its scan
// samples the post-invalidation epoch, so the epoch fence lets the Puts
// through. When the rewrite restarted at segment 0 (and the INSERT after
// it handed out segment 1 a second time) the next reader hit those entries
// under the new segments' BlockIDs: stale rows, or a vector of the wrong
// length. Segments numbered by xid share no BlockID with their
// predecessors, so the new reader must miss on every block and read what
// is stored.
func TestCommitProtocolBlockIdentityNeverReused(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE t (x BIGINT, y BIGINT) DISTSTYLE KEY DISTKEY(x) SORTKEY(x)`)
	insert := func(from, to int) {
		var b strings.Builder
		for x := from; x < to; x++ {
			fmt.Fprintf(&b, ", (%d, %d)", x, x*10)
		}
		mustExec(t, db, `INSERT INTO t VALUES `+b.String()[2:])
	}
	insert(1000, 1300) // segment 0 of each slice, several blocks
	insert(0, 200)     // segment 1
	def := tableDef(t, db, "t")

	old := db.beginRead(nil)
	mustExec(t, db, `VACUUM t`) // at the parent: a new segment 0, cache invalidated
	insert(2000, 2100)          // at the parent: segment 1 again, nothing invalidated
	oldRows, _ := scanTable(t, old, def)
	old.release()
	if fmt.Sprint(oldRows) != fmt.Sprint(mergeInts(0, 200, 1000, 1300)) {
		t.Fatalf("pre-VACUUM reader read %d rows, want the 500 it started with", len(oldRows))
	}

	for pass, wantHits := range []bool{false, true} {
		v := db.beginRead(nil)
		rows, stats := scanTable(t, v, def)
		v.release()
		if want := mergeInts(0, 200, 1000, 1300, 2000, 2100); fmt.Sprint(rows) != fmt.Sprint(want) {
			t.Errorf("pass %d: new reader read %d rows [%d, %d], want the 600 stored [0, 2099]",
				pass, len(rows), rows[0], rows[len(rows)-1])
		}
		if hits := stats.CacheHits.Load(); (hits > 0) != wantHits {
			t.Errorf("pass %d: %d cache hits, %d misses (a new segment's blocks must miss once, then hit)",
				pass, hits, stats.CacheMisses.Load())
		}
	}
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	assertQuiescent(t, db)
}

// mergeInts returns the concatenation of the half-open ranges given as
// from, to pairs.
func mergeInts(bounds ...int) []int64 {
	var xs []int64
	for i := 0; i < len(bounds); i += 2 {
		for x := bounds[i]; x < bounds[i+1]; x++ {
			xs = append(xs, int64(x))
		}
	}
	return xs
}

// TestAutoMaintainDefersToReaders: OnlyWhenIdle means no writer or reader
// in flight — an open read view counts since readers register.
func TestAutoMaintainDefersToReaders(t *testing.T) {
	db := openDB(t, exec.Compiled)
	mustExec(t, db, `CREATE TABLE b (x BIGINT) SORTKEY(x)`)
	for i := 0; i < 6; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO b VALUES (%d), (%d)`, 10-i, 20-i))
	}
	view := db.beginRead(nil)
	rep, err := db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil || !rep.Deferred || len(rep.Vacuumed) != 0 {
		t.Errorf("with a reader in flight: report %+v, err %v; want deferred", rep, err)
	}
	view.release()
	rep, err = db.AutoMaintain(DefaultMaintenancePolicy())
	if err != nil || rep.Deferred || len(rep.Vacuumed) != 1 {
		t.Errorf("idle: report %+v, err %v; want b vacuumed", rep, err)
	}
	assertQuiescent(t, db)
}
