package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/faults"
	"redshift/internal/load"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// TestInsertFoldBounds: every write folds its slice's newest small runs
// into its own. On KEY, EVEN and ALL tables, with random write sizes from
// one row to more than a block a slice and then a trickle of one-row
// writes, after every write each slice holds at most ⌊log2 BlockCap⌋+1 runs
// smaller than a block, the table holds the rows written and no others, and
// no row has been written more than 1+⌈log1.5 BlockCap⌉ times. A folding INSERT that fails after the fold —
// its replication faulted, or the statement cancelled before it publishes —
// leaves the runs it folded live and nothing held.
func TestInsertFoldBounds(t *testing.T) {
	const blockCap = 16
	maxSmall := bits.Len(blockCap)
	maxWrites := 1 + int(math.Ceil(math.Log(blockCap)/math.Log(1.5)))
	for _, dist := range []string{"DISTSTYLE KEY DISTKEY(k)", "DISTSTYLE EVEN", "DISTSTYLE ALL"} {
		t.Run(strings.Fields(dist)[1], func(t *testing.T) {
			inj := faults.NewInjector(&faults.Plan{Seed: 1})
			inj.SetEnabled(true)
			db, err := Open(Config{
				Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: blockCap},
				DataStore: s3sim.New(),
				Faults:    inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "CREATE TABLE t (k BIGINT NOT NULL, v BIGINT) "+dist+" SORTKEY(v)")
			def := tableDef(t, db, "t")
			rng := rand.New(rand.NewSource(int64(len(dist))))

			var want strings.Builder // the rows stored, in k order: the oracle
			next := int64(0)         // the next row's k: keys are unique
			// values renders n new rows as an INSERT; onSlice0 keeps a KEY
			// table's rows on slice 0, so that they fold what came before.
			values := func(n int, onSlice0 bool) (stmt, rows string) {
				var vals []string
				var b strings.Builder
				for len(vals) < n {
					k := next
					next++
					if onSlice0 && def.DistStyle == catalog.DistKey && db.cl.TargetSliceKey(types.NewInt(k)) != 0 {
						continue
					}
					v := rng.Int63n(1000)
					vals = append(vals, fmt.Sprintf("(%d, %d)", k, v))
					fmt.Fprintf(&b, "%d|%d\n", k, v)
				}
				return "INSERT INTO t VALUES " + strings.Join(vals, ", "), b.String()
			}
			runs := func() [][]*storage.Segment {
				out := make([][]*storage.Segment, db.cl.NumSlices())
				for sl := range out {
					out[sl] = db.cl.VisibleSegments(sl, def.ID, db.txm.CurrentXid())
				}
				return out
			}
			written := map[[2]int64]int{} // times each slice's copy of a row was written
			seen := map[*storage.Segment]bool{}
			check := func(step string) {
				t.Helper()
				for sl, segs := range runs() {
					small := 0
					for _, seg := range segs {
						if seg.Rows < blockCap {
							small++
						}
						if seen[seg] {
							continue
						}
						seen[seg] = true
						for _, r := range segmentRows(t, seg, db.cl.FetchBlock) {
							if n := written[[2]int64{int64(sl), r[0].I}] + 1; n > maxWrites {
								t.Fatalf("%s: row %d written %d times on slice %d, bound %d", step, r[0].I, n, sl, maxWrites)
							}
							written[[2]int64{int64(sl), r[0].I}]++
						}
					}
					if small > maxSmall {
						t.Fatalf("%s: slice %d holds %d runs smaller than a block, bound %d", step, sl, small, maxSmall)
					}
				}
				if got := rowsText(mustExec(t, db, "SELECT k, v FROM t ORDER BY k")); got != want.String() {
					t.Fatalf("%s: table holds\n%swant\n%s", step, got, want.String())
				}
				assertQuiescent(t, db)
			}

			// A folding INSERT that fails after the fold: the runs of the
			// INSERT before it stay live, and the rows and bytes with them.
			stmt, rows := values(4, true)
			mustExec(t, db, stmt)
			want.WriteString(rows)
			check("first INSERT")
			prior := runs()
			before, bytes := fmt.Sprint(prior), db.cl.TableBytes(def.ID)
			fold, foldRows := values(4, true)
			failed := func(how string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("folding INSERT %s: no error", how)
				}
				if got := fmt.Sprint(runs()); got != before || db.cl.TableBytes(def.ID) != bytes {
					t.Fatalf("folding INSERT %s (%v): runs %s, %d bytes; before it %s, %d bytes",
						how, err, got, db.cl.TableBytes(def.ID), before, bytes)
				}
				check("folding INSERT " + how)
			}
			inj.SetRule(faults.SiteReplicate, faults.Rule{Prob: 1, Err: "replication link down"})
			_, err = db.Execute(fold)
			inj.SetRule(faults.SiteReplicate, faults.Rule{})
			failed("with replication faulted", err)

			parsed, err := sql.Parse(fold)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			err = db.writeTable(ctx, db.offStatement(), "t", false, func(def *catalog.TableDef, xid int64) (statsChange, error) {
				cols, err := insertColumns(def, parsed.(*sql.Insert))
				var ls load.Stats
				if err == nil {
					ls, err = load.Append(db.cl, db.cat, def, []load.Columns{cols}, load.Options{}, xid, nil)
				}
				cancel() // the INSERT's runs are installed; it has not published
				return statsChange{delta: ls.Delta}, err
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("folding INSERT cancelled before it publishes returned %v", err)
			}
			failed("cancelled before it publishes", err)

			// The same INSERT, unhindered, does fold the runs before it.
			mustExec(t, db, fold)
			want.WriteString(foldRows)
			check("folding INSERT")
			for sl, segs := range runs() {
				for _, seg := range segs {
					if slices.Contains(prior[sl], seg) {
						t.Fatalf("slice %d: the folding INSERT left the run %v", sl, seg)
					}
				}
			}

			for step := 0; step < 40; step++ {
				n := 1
				switch rng.Intn(4) {
				case 1:
					n = 1 + rng.Intn(8)
				case 2:
					n = 1 + rng.Intn(3*blockCap)
				case 3: // a block's rows or more on every slice
					n = 4*blockCap + rng.Intn(4*blockCap)
				}
				stmt, rows := values(n, false)
				mustExec(t, db, stmt)
				want.WriteString(rows)
				check(fmt.Sprintf("write %d of %d rows", step, n))
			}
			// The trickle: one row at a time, more than a block's worth on
			// every slice.
			for step := 0; step < 5*blockCap; step++ {
				stmt, rows := values(1, false)
				mustExec(t, db, stmt)
				want.WriteString(rows)
				check(fmt.Sprintf("one-row write %d", step))
			}
		})
	}
}
