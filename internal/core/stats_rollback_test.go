package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/load"
	"redshift/internal/s3sim"
	"redshift/internal/sql"
)

// TestWriteRollbackLeavesStats: a write rolled back after it registered its
// rows — here cancelled between its body and Publish, the one window where
// that happens — leaves the statistics as they were, for INSERT and COPY
// alike; only a committed write's rows are counted. A first COPY into an
// empty table that rolls back leaves it at 0 rows, so the next first load
// chooses the encodings again.
func TestWriteRollbackLeavesStats(t *testing.T) {
	db, err := Open(Config{Cluster: cluster.Config{Nodes: 2, SlicesPerNode: 2}, DataStore: s3sim.New()})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k BIGINT, v BIGINT) DISTSTYLE KEY DISTKEY(k)")
	mustExec(t, db, "CREATE TABLE u (k BIGINT, v BIGINT)")
	if err := db.cfg.DataStore.Put("lake/rows.csv", []byte("10|1\n11|2\n12|3\n")); err != nil {
		t.Fatal(err)
	}
	rows := func(table string) int64 {
		t.Helper()
		st, err := db.cat.Stats(tableDef(t, db, table).ID)
		if err != nil {
			t.Fatal(err)
		}
		count := mustExec(t, db, "SELECT COUNT(*) FROM "+table).Rows[0][0].I
		if st.Rows != count {
			t.Fatalf("%s: statistics count %d rows, the table holds %d", table, st.Rows, count)
		}
		return st.Rows
	}
	insert, err := sql.Parse("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
	if err != nil {
		t.Fatal(err)
	}
	// The bodies runInsert and runCopy hand writeTable.
	bodies := map[string]func(def *catalog.TableDef, xid int64) (load.Stats, error){
		"INSERT": func(def *catalog.TableDef, xid int64) (load.Stats, error) {
			cols, err := insertColumns(def, insert.(*sql.Insert))
			if err != nil {
				return load.Stats{}, err
			}
			return load.Append(db.cl, db.cat, def, []load.Columns{cols}, load.Options{}, xid, nil)
		},
		"COPY": func(def *catalog.TableDef, xid int64) (load.Stats, error) {
			return load.Run(context.Background(), db.cl, db.cat, def, db.cfg.DataStore, "lake/", load.Options{}, xid, nil)
		},
	}
	mustExec(t, db, "INSERT INTO t VALUES (5, 5), (6, 6), (7, 7), (8, 8)")
	if got := rows("t"); got != 4 {
		t.Fatalf("a committed INSERT left %d rows in the statistics, want 4", got)
	}
	for _, table := range []string{"t", "u"} {
		for _, what := range []string{"INSERT", "COPY"} {
			before := rows(table)
			ctx, cancel := context.WithCancel(context.Background())
			err := db.writeTable(ctx, db.offStatement(), table, false, func(def *catalog.TableDef, xid int64) (statsChange, error) {
				ls, err := bodies[what](def, xid)
				cancel() // the write's rows are registered; it has not published
				return statsChange{delta: ls.Delta}, err
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s into %s cancelled before it publishes returned %v", what, table, err)
			}
			if got := rows(table); got != before {
				t.Fatalf("%s into %s rolled back: the statistics count %d rows, want %d", what, table, got, before)
			}
			assertQuiescent(t, db)
		}
	}
	mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
	mustExec(t, db, "COPY u FROM 's3://lake/'")
	if got, want := fmt.Sprint(rows("t"), rows("u")), "8 3"; got != want {
		t.Fatalf("after committed writes the statistics count %s rows, want %s", got, want)
	}
}
