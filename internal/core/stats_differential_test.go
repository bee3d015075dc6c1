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
// built it: after every step, rows and each column's NDV, bounds, null count
// and width sum are equal. The columns are NULL-dense, strings included, and
// a DOUBLE column mixes ordinary values with ones too large to count in
// millionths.
func TestIncrementalStatsMatchAnalyze(t *testing.T) {
	for _, layout := range []struct{ nodes, slices int }{{1, 1}, {2, 2}} {
		for _, ddl := range []string{
			"DISTSTYLE KEY DISTKEY(k) COMPOUND SORTKEY(n)",
			"DISTSTYLE EVEN",
			"DISTSTYLE ALL SORTKEY(s)",
		} {
			name := fmt.Sprintf("%dx%d/%s", layout.nodes, layout.slices, strings.Fields(ddl)[1])
			t.Run(name, func(t *testing.T) {
				db, err := Open(Config{
					Cluster:   cluster.Config{Nodes: layout.nodes, SlicesPerNode: layout.slices, BlockCap: 64},
					DataStore: s3sim.New(),
				})
				if err != nil {
					t.Fatal(err)
				}
				mustExec(t, db, "CREATE TABLE t (k BIGINT NOT NULL, n BIGINT, s VARCHAR(16), f DOUBLE PRECISION) "+ddl)
				id := mustTable(t, db, "t")
				rng := rand.New(rand.NewSource(int64(len(name))))
				for step := 0; step < 24; step++ {
					var op string
					switch r := rng.Intn(10); {
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
						op = "INSERT"
						var vals []string
						for i, n := 0, 1+rng.Intn(20); i < n; i++ {
							vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s)", rng.Intn(1000), diffInt(rng), diffStr(rng, "'%s'"), diffFloat(rng)))
						}
						mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
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
					if got.Rows != inc.Rows {
						t.Fatalf("step %d (%s): ANALYZE rows %d, incremental %d", step, op, got.Rows, inc.Rows)
					}
					for c, a := range got.Cols {
						i := inc.Cols[c]
						if a.NDV != i.NDV || a.Min != i.Min || a.Max != i.Max || a.NullCount != i.NullCount || a.WidthSum != i.WidthSum {
							t.Fatalf("step %d (%s) column %d: ANALYZE NDV %d [%v, %v] nulls %d width %d; incremental NDV %d [%v, %v] nulls %d width %d",
								step, op, c, a.NDV, a.Min, a.Max, a.NullCount, a.WidthSum, i.NDV, i.Min, i.Max, i.NullCount, i.WidthSum)
						}
					}
					// Put the incremental snapshot back, so the next step
					// builds on what the loads alone maintained.
					if err := db.Catalog().ReplaceStats(id, *inc); err != nil {
						t.Fatal(err)
					}
				}
			})
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
