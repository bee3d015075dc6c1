package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"redshift/internal/cluster"
	"redshift/internal/s3sim"
)

// The statistics COPY and INSERT maintain incrementally describe the table
// ANALYZE finds, whatever sequence of COPY, INSERT, VACUUM and TRUNCATE
// built it: after every step, rows, unsorted rows and each column's NDV,
// bounds, null count and width sum are equal. The columns are NULL-dense,
// strings included, and a DOUBLE column mixes ordinary values with ones too
// large to count in millionths. Beside the random sequences, tables built
// by small INSERTs alone, into an empty table — of equal sizes, and of
// shrinking ones — fold their runs every way: an INSERT folding the
// slice's first run, the runs after it, or none.
func TestIncrementalStatsMatchAnalyze(t *testing.T) {
	for _, layout := range []struct{ nodes, slices int }{{1, 1}, {2, 2}} {
		for _, ddl := range []string{
			"DISTSTYLE KEY DISTKEY(k) COMPOUND SORTKEY(n)",
			"DISTSTYLE EVEN",
			"DISTSTYLE ALL SORTKEY(s)",
		} {
			for _, inserts := range [][]int{nil, {8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, {60, 30, 20, 12, 8, 5, 3, 2, 1, 1}} {
				name := fmt.Sprintf("%dx%d/%s", layout.nodes, layout.slices, strings.Fields(ddl)[1])
				switch {
				case inserts == nil:
				case inserts[0] == inserts[1]:
					name += "/inserts-equal"
				default:
					name += "/inserts-shrinking"
				}
				t.Run(name, func(t *testing.T) {
					statsMatchAnalyze(t, layout.nodes, layout.slices, ddl, inserts, int64(len(name)))
				})
			}
		}
	}
}

// statsMatchAnalyze runs one table of TestIncrementalStatsMatchAnalyze:
// INSERTs of the sizes given, or without sizes 24 random steps.
func statsMatchAnalyze(t *testing.T, nodes, slices int, ddl string, inserts []int, seed int64) {
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: nodes, SlicesPerNode: slices, BlockCap: 64},
		DataStore: s3sim.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k BIGINT NOT NULL, n BIGINT, s VARCHAR(16), f DOUBLE PRECISION) "+ddl)
	id := mustTable(t, db, "t")
	rng := rand.New(rand.NewSource(seed))
	insert := func(n int) {
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s)", rng.Intn(1000), diffInt(rng), diffStr(rng, "'%s'"), diffFloat(rng)))
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	steps := len(inserts)
	if steps == 0 {
		steps = 24
	}
	for step := 0; step < steps; step++ {
		op := "INSERT"
		switch r := rng.Intn(10); {
		case inserts != nil:
			insert(inserts[step])
		case r < 4:
			op = "COPY"
			var buf strings.Builder
			for i, n := 0, 1+rng.Intn(300); i < n; i++ {
				rec := fmt.Sprintf("{\"k\": %d, \"n\": %s, \"s\": %s, \"f\": %s}\n", rng.Intn(1000),
					diffInt(rng), diffStr(rng, `"%s"`), diffFloat(rng))
				buf.WriteString(strings.ReplaceAll(rec, "NULL", "null"))
			}
			db.cfg.DataStore.Put(fmt.Sprintf("lake/%d/part", step), []byte(buf.String()))
			mustExec(t, db, fmt.Sprintf("COPY t FROM 's3://lake/%d/' FORMAT JSON", step))
		case r < 8:
			insert(1 + rng.Intn(20))
		case r < 9:
			op = "VACUUM"
			mustExec(t, db, "VACUUM t")
		default:
			op = "TRUNCATE"
			mustExec(t, db, "TRUNCATE t")
		}
		inc, err := db.Catalog().Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "ANALYZE t")
		got, _ := db.Catalog().Stats(id)
		if got.Rows != inc.Rows || got.UnsortedRows != inc.UnsortedRows {
			t.Fatalf("step %d (%s): ANALYZE rows %d unsorted %d, incremental %d unsorted %d",
				step, op, got.Rows, got.UnsortedRows, inc.Rows, inc.UnsortedRows)
		}
		for c, a := range got.Cols {
			i := inc.Cols[c]
			if a.NDV != i.NDV || a.Min != i.Min || a.Max != i.Max || a.NullCount != i.NullCount || a.WidthSum != i.WidthSum {
				t.Fatalf("step %d (%s) column %d: ANALYZE NDV %d [%v, %v] nulls %d width %d; incremental NDV %d [%v, %v] nulls %d width %d",
					step, op, c, a.NDV, a.Min, a.Max, a.NullCount, a.WidthSum, i.NDV, i.Min, i.Max, i.NullCount, i.WidthSum)
			}
		}
		// Put the incremental snapshot back, so the next step builds on
		// what the loads alone maintained.
		if err := db.Catalog().ReplaceStats(id, *inc); err != nil {
			t.Fatal(err)
		}
	}
}

// diffInt is a BIGINT literal, NULL two times in five.
func diffInt(rng *rand.Rand) string {
	if rng.Intn(5) < 2 {
		return "NULL"
	}
	return fmt.Sprint(rng.Intn(200) - 100)
}

// diffStr is a VARCHAR literal in quote's form, NULL half the time.
func diffStr(rng *rand.Rand, quote string) string {
	if rng.Intn(2) == 0 {
		return "NULL"
	}
	return fmt.Sprintf(quote, strings.Repeat("ab", rng.Intn(4))+fmt.Sprint(rng.Intn(50)))
}

// diffFloat is a DOUBLE literal: NULL, an ordinary value, or one of 1e13 and
// above.
func diffFloat(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return "NULL"
	case 1:
		return fmt.Sprint(1e13 + float64(rng.Intn(100)))
	}
	return fmt.Sprintf("%.2f", float64(rng.Intn(5000))/4)
}
