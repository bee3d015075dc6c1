package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// BenchmarkFilterSelect times Filter.Select over one 4096-row block for the
// predicates the pinned workloads push to their scans — scan_agg's four
// statement kinds and serve_point's point and range lookups on its sort key —
// and reports ns per row and bytes per block: the in-package form of the
// harness's exec.filter_ns_per_row.
func BenchmarkFilterSelect(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(20260925))
	layout := []types.Type{types.Int64, types.Int64, types.Date, types.String, types.Int64, types.Int64, types.Int64}
	batch := NewBatch(len(layout))
	batch.N = rows
	for c, t := range layout {
		v := types.NewVector(t, rows)
		for i := 0; i < rows; i++ {
			switch c {
			case 0: // f_cust
				v.Append(types.NewInt(rng.Int63n(10000)))
			case 1: // f_qty
				v.Append(types.NewInt(1 + rng.Int63n(20)))
			case 2: // f_date, the sort key
				v.Append(types.NewDate(19000 + int64(i/8)))
			case 3: // f_note
				v.Append(types.NewString(fmt.Sprintf("tag%d-%d", 10+rng.Intn(64), rng.Intn(1000))))
			case 4: // f_store
				v.Append(types.NewInt(rng.Int63n(200)))
			case 5: // f_prod
				v.Append(types.NewInt(rng.Int63n(1000)))
			default: // e_ts, serve_point's sort key
				v.Append(types.NewInt(1_000_000 + 3*int64(i)))
			}
		}
		batch.Cols[c] = v
	}
	c := func(i int) plan.Expr { return col(i, layout[i]) }
	date := func(d int64) plan.Expr { return &plan.Const{V: types.NewDate(d)} }
	cmp := func(op sql.BinOp, l, r plan.Expr) plan.Expr { return bin(op, l, r, types.Bool) }
	mod := func(e plan.Expr, m int64) plan.Expr { return bin(sql.OpMod, e, icon(m), types.Int64) }
	shapes := []struct {
		name string
		e    plan.Expr
	}{
		{"full", cmp(sql.OpLt, mod(bin(sql.OpAdd, c(0), c(1), types.Int64), 11), icon(5))},
		{"range", cmp(sql.OpAnd, cmp(sql.OpGe, c(2), date(19100)), cmp(sql.OpLe, c(2), date(19300)))},
		{"like", cmp(sql.OpAnd, &plan.Like{E: c(3), Pattern: "tag12%"}, cmp(sql.OpGt, c(1), icon(9)))},
		{"group", cmp(sql.OpAnd, cmp(sql.OpLt, c(4), icon(10)), cmp(sql.OpEq, mod(c(5), 5), icon(2)))},
		{"point", cmp(sql.OpEq, c(6), icon(1_006_000))},
		{"fetch", cmp(sql.OpAnd, cmp(sql.OpGe, c(6), icon(1_004_000)), cmp(sql.OpLt, c(6), icon(1_008_000)))},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			f, err := NewFilter(Compiled, s.e)
			if err != nil {
				b.Fatal(err)
			}
			sel := make([]int, 0, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sel, _, err = f.Select(batch, sel[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
