package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/hll"
	"redshift/internal/load"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// TestAnalyzeMatchesBlockScan: ANALYZE merges the statistics every run
// keeps from the write that sealed it, and they must be what reading the
// runs finds. After every step of a random sequence — COPY, INSERTs that
// fold a slice's small runs, VACUUM, TRUNCATE, and INSERTs and COPYs
// cancelled between their body and Publish — on KEY, EVEN and ALL tables
// with a compound, an interleaved and no sort key, ANALYZE publishes what a
// block scan of the visible runs finds (blockScanStats): rows, null counts,
// width sums and unsorted rows exactly, sketch registers byte for byte,
// bounds equal under types.Compare. The columns are NULL-dense, and a
// DOUBLE column mixes ordinary values with ones too large to count in
// millionths.
func TestAnalyzeMatchesBlockScan(t *testing.T) {
	for _, dist := range []string{"DISTSTYLE KEY DISTKEY(k)", "DISTSTYLE EVEN", "DISTSTYLE ALL"} {
		for _, sortKey := range []string{"COMPOUND SORTKEY(n, s)", "INTERLEAVED SORTKEY(k, f)", ""} {
			ddl := strings.TrimSpace(dist + " " + sortKey)
			t.Run(ddl, func(t *testing.T) { analyzeMatchesBlockScan(t, ddl, int64(len(ddl))) })
		}
	}
}

// analyzeMatchesBlockScan runs 30 random steps on one table of
// TestAnalyzeMatchesBlockScan.
func analyzeMatchesBlockScan(t *testing.T, ddl string, seed int64) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 64},
		DataStore: s3sim.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k BIGINT NOT NULL, n BIGINT, s VARCHAR(16), f DOUBLE PRECISION) "+ddl)
	def := tableDef(t, db, "t")
	rng := rand.New(rand.NewSource(seed))
	insertSQL := func(n int) string {
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s)", rng.Intn(1000), diffInt(rng), diffStr(rng, "'%s'"), diffFloat(rng)))
		}
		return "INSERT INTO t VALUES " + strings.Join(vals, ", ")
	}
	putObject := func(step int) string {
		var buf strings.Builder
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			rec := fmt.Sprintf("{\"k\": %d, \"n\": %s, \"s\": %s, \"f\": %s}\n", rng.Intn(1000),
				diffInt(rng), diffStr(rng, `"%s"`), diffFloat(rng))
			buf.WriteString(strings.ReplaceAll(rec, "NULL", "null"))
		}
		prefix := fmt.Sprintf("lake/%d/", step)
		if err := db.cfg.DataStore.Put(prefix+"part", []byte(buf.String())); err != nil {
			t.Fatal(err)
		}
		return prefix
	}
	for step := 0; step < 30; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 6:
			op = "COPY"
			mustExec(t, db, fmt.Sprintf("COPY t FROM 's3://%s' FORMAT JSON", putObject(step)))
		case r < 13:
			op = "INSERT"
			mustExec(t, db, insertSQL(1+rng.Intn(20)))
		case r < 15:
			op = "VACUUM"
			mustExec(t, db, "VACUUM t")
		case r < 16:
			op = "TRUNCATE"
			mustExec(t, db, "TRUNCATE t")
		default:
			// A write whose runs are installed, then cancelled before it
			// publishes: its runs are discarded with their statistics.
			op = "cancelled INSERT"
			body := func(def *catalog.TableDef, xid int64) (load.Stats, error) {
				ins, err := sql.Parse(insertSQL(1 + rng.Intn(20)))
				if err != nil {
					return load.Stats{}, err
				}
				cols, err := insertColumns(def, ins.(*sql.Insert))
				if err != nil {
					return load.Stats{}, err
				}
				return load.Append(db.cl, db.cat, def, []load.Columns{cols}, load.Options{}, xid, nil)
			}
			if r%2 == 0 {
				op = "cancelled COPY"
				prefix := putObject(step)
				body = func(def *catalog.TableDef, xid int64) (load.Stats, error) {
					return load.Run(context.Background(), db.cl, db.cat, def, db.cfg.DataStore, prefix, load.Options{Format: "JSON"}, xid, nil)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			err := db.writeTable(ctx, db.offStatement(), "t", false, func(def *catalog.TableDef, xid int64) (statsChange, error) {
				ls, err := body(def, xid)
				cancel()
				return statsChange{delta: ls.Delta}, err
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d (%s) returned %v", step, op, err)
			}
		}
		mustExec(t, db, "ANALYZE t")
		got, err := db.cat.Stats(def.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := blockScanStats(t, db, def)
		if got.Rows != want.Rows || got.UnsortedRows != want.UnsortedRows {
			t.Fatalf("step %d (%s): ANALYZE rows %d unsorted %d, the block scan %d unsorted %d",
				step, op, got.Rows, got.UnsortedRows, want.Rows, want.UnsortedRows)
		}
		for c, g := range got.Cols {
			w := want.Cols[c]
			if g.NullCount != w.NullCount || g.WidthSum != w.WidthSum || g.NDV != w.NDV ||
				!sameBound(g.Min, w.Min) || !sameBound(g.Max, w.Max) || registers(g.Sketch) != registers(w.Sketch) {
				t.Fatalf("step %d (%s) column %d: ANALYZE NDV %d [%v, %v] nulls %d width %d; the block scan NDV %d [%v, %v] nulls %d width %d; registers equal %v",
					step, op, c, g.NDV, g.Min, g.Max, g.NullCount, g.WidthSum, w.NDV, w.Min, w.Max, w.NullCount, w.WidthSum,
					registers(g.Sketch) == registers(w.Sketch))
			}
		}
	}
	assertQuiescent(t, db)
}

// blockScanStats is the oracle: what ANALYZE found when it read the table —
// each slice's visible runs (the first node's slices for DISTSTYLE ALL)
// decoded a block at a time into one StatsBuilder, UnsortedRows the rows
// past the slice's first sorted run, the slices merged and each column's NDV
// estimated from the union.
func blockScanStats(t *testing.T, db *Database, def *catalog.TableDef) catalog.TableStats {
	t.Helper()
	view := db.beginRead(nil)
	defer view.release()
	var stats catalog.TableStats
	for _, segs := range view.tableSegments(def) {
		sb := load.NewStatsBuilder(len(def.Columns))
		if err := load.EachBlock(segs, db.cl.FetchBlock, sb.Fold); err != nil {
			t.Fatal(err)
		}
		part := sb.Stats()
		for si, seg := range segs {
			if si > 0 || !seg.Sorted {
				part.UnsortedRows += int64(seg.Rows)
			}
		}
		stats.Merge(part)
	}
	stats.EstimateNDV()
	return stats
}

// sameBound reports whether two statistics bounds are equal under
// types.Compare, or both unset.
func sameBound(a, b types.Value) bool {
	return a.T == b.T && (a.T == types.Invalid || types.Compare(a, b) == 0)
}

// registers is a sketch's registers; no sketch reads as an empty one.
func registers(s *hll.Sketch) hll.Sketch {
	if s == nil {
		return hll.Sketch{}
	}
	return *s
}
