package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/compress"
	"redshift/internal/load"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// sortedRunShape is one table layout the differential test scans: where the
// bounded key k sits in the sort key, and whether the segment is the sorting
// writer's or an unsorted one built directly.
type sortedRunShape struct {
	name     string
	style    catalog.SortStyle
	sortKey  []int // ordinals: k is 0, o is 1
	unsorted bool
	narrows  bool // whether the sorted run may be shorter than the block
}

var sortedRunShapes = []sortedRunShape{
	{name: "leading", style: catalog.SortCompound, sortKey: []int{0, 1}, narrows: true},
	{name: "leading-only", style: catalog.SortCompound, sortKey: []int{0}, narrows: true},
	{name: "non-leading", style: catalog.SortCompound, sortKey: []int{1, 0}},
	{name: "interleaved", style: catalog.SortInterleaved, sortKey: []int{0, 1}},
	{name: "no-sortkey", style: catalog.SortNone},
	{name: "unsorted-segment", style: catalog.SortCompound, sortKey: []int{0}, unsorted: true},
}

// TestSortedRunMatchesWholeBlock is the differential net under the sorted-run
// scan: over generated tables (every shape above; BIGINT, DOUBLE, DATE and
// VARCHAR keys with duplicates, NULLs, NaN and -0) and generated WHERE
// clauses (=, the four inequalities, BETWEEN, IN lists with NULL items, empty
// and boundary ranges, a residual conjunct), every scanned block's output is
// what Filter.Apply returns over that block fully materialized — in both
// modes. Blocks the zone maps skip are skipped on both sides.
func TestSortedRunMatchesWholeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	cl, err := cluster.New(cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	keyTypes := []types.Type{types.Int64, types.Float64, types.Date, types.String}
	narrowed := map[types.Type]int{}
	for trial := 0; trial < 240; trial++ {
		kt := keyTypes[trial%len(keyTypes)]
		shape := sortedRunShapes[(trial/len(keyTypes))%len(sortedRunShapes)]
		def := &catalog.TableDef{
			ID:   int64(trial + 1),
			Name: "t",
			Columns: []catalog.ColumnDef{
				{Name: "k", Type: kt, Encoding: compress.Raw},
				{Name: "o", Type: types.Int64, Encoding: compress.Raw},
				{Name: "v", Type: types.Int64, Encoding: compress.Raw},
			},
			DistKeyCol:  -1,
			SortStyle:   shape.style,
			SortKeyCols: shape.sortKey,
		}
		cat := catalog.New()
		if err := cat.Create(def); err != nil {
			t.Fatal(err)
		}
		domain := 4 + rng.Intn(40)
		cols := genSortedRunRows(rng, kt, domain, 1+rng.Intn(130))
		seg := writeSortedRunSegment(t, cl, cat, def, cols, shape.unsorted)

		for q := 0; q < 12; q++ {
			where := genSortedRunWhere(rng, kt, domain)
			stmt, err := sql.Parse("SELECT k, o, v FROM t WHERE " + where)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			p, err := plan.Build(cat, stmt.(*sql.Select))
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			scan := p.Tables[0]
			for _, mode := range []Mode{Compiled, Interpreted} {
				sc, err := NewScanner(mode, scan, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := NewFilter(mode, scan.Filter)
				if err != nil {
					t.Fatal(err)
				}
				for bi := 0; bi < seg.NumBlocks(); bi++ {
					got, err := sc.ScanBlock(context.Background(), seg, bi)
					if err != nil {
						t.Fatal(err)
					}
					want := ""
					if !sc.pruned(seg, bi) {
						whole := wholeBlock(t, seg, bi)
						if lo, hi := sc.sortedRun(seg, whole); hi-lo < whole.N {
							if !shape.narrows {
								t.Fatalf("%s %s: a %s segment narrowed to [%d, %d)", kt, where, shape.name, lo, hi)
							}
							narrowed[kt]++
						}
						out, err := oracle.Apply(whole)
						if err != nil {
							t.Fatal(err)
						}
						want = sortedRunRows(out, scan.NeedCols)
					}
					if g := sortedRunRows(got, scan.NeedCols); g != want {
						t.Fatalf("trial %d %s key %s %s, block %d (%s):\nscan:\n%swhole block:\n%s",
							trial, shape.name, kt, mode, bi, where, g, want)
					}
				}
			}
		}
	}
	for _, kt := range keyTypes {
		if narrowed[kt] == 0 {
			t.Errorf("no %s block was narrowed: the sorted run was never exercised", kt)
		}
	}
}

// genSortedRunRows makes n rows of (k, o, v): k drawn from a domain of
// distinct values (so keys repeat), a tenth NULL, and for DOUBLE an
// occasional NaN and -0 beside 0.
func genSortedRunRows(rng *rand.Rand, kt types.Type, domain, n int) load.Columns {
	cols := load.Columns{types.NewVector(kt, n), types.NewVector(types.Int64, n), types.NewVector(types.Int64, n)}
	for i := 0; i < n; i++ {
		k := types.NewNull(kt)
		switch r := rng.Intn(40); {
		case r < 4:
		case kt == types.Float64 && r == 4:
			k = types.NewFloat(math.NaN())
		case kt == types.Float64 && r == 5:
			k = types.NewFloat(math.Copysign(0, -1))
		default:
			k = sortedRunKey(kt, rng.Intn(domain))
		}
		cols[0].Append(k)
		cols[1].Append(types.NewInt(int64(rng.Intn(5))))
		cols[2].Append(types.NewInt(int64(rng.Intn(1000))))
	}
	return cols
}

// sortedRunKey is the key value of domain index i: ascending in i for every
// type (a DOUBLE key straddles zero).
func sortedRunKey(kt types.Type, i int) types.Value {
	switch kt {
	case types.Float64:
		return types.NewFloat(float64(i-8) / 2)
	case types.String:
		return types.NewString(fmt.Sprintf("k%03d", i))
	case types.Date:
		return types.Value{T: types.Date, I: int64(16000 + i)}
	}
	return types.NewInt(int64(i - 8))
}

// sortedRunLiteral renders domain index i (which may lie outside the domain,
// for empty and boundary ranges) as a SQL literal of the key's type.
func sortedRunLiteral(kt types.Type, i int) string {
	v := sortedRunKey(kt, i)
	switch kt {
	case types.Float64:
		return fmt.Sprintf("%.1f", v.F)
	case types.String:
		return "'" + v.S + "'"
	case types.Date:
		return "DATE '" + v.String() + "'"
	}
	return fmt.Sprint(v.I)
}

// genSortedRunWhere draws a WHERE clause bounding k, sometimes with a
// residual conjunct on v that no zone map or sorted run can use.
func genSortedRunWhere(rng *rand.Rand, kt types.Type, domain int) string {
	lit := func() string { return sortedRunLiteral(kt, rng.Intn(domain+4)-2) }
	var where string
	switch rng.Intn(9) {
	case 0, 1:
		where = "k = " + lit()
	case 2:
		where = "k " + []string{"<", "<=", ">", ">="}[rng.Intn(4)] + " " + lit()
	case 3:
		where = "k BETWEEN " + lit() + " AND " + lit()
	case 4:
		where = "k >= " + lit() + " AND k < " + lit()
	case 5:
		items := []string{lit(), lit()}
		if rng.Intn(2) == 0 {
			items = append(items, "NULL")
		}
		items = append(items, lit())
		where = "k IN (" + strings.Join(items, ", ") + ")"
	case 6:
		where = lit() + " <= k"
	case 7:
		where = "k = NULL"
	default:
		where = "k NOT IN (" + lit() + ", " + lit() + ")"
	}
	if rng.Intn(3) == 0 {
		where += fmt.Sprintf(" AND v %% 3 = %d", rng.Intn(3))
	}
	return where
}

// writeSortedRunSegment seals the rows into one segment: through the
// sorting writer, or, unsorted, in arrival order with Sorted unset.
func writeSortedRunSegment(t *testing.T, cl *cluster.Cluster, cat *catalog.Catalog, def *catalog.TableDef, cols load.Columns, unsorted bool) *storage.Segment {
	t.Helper()
	if unsorted {
		b, err := storage.NewBuilder(def.ID, 0, 0, def.Schema(), def.Encodings(), cl.Config().BlockCap)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range cols {
			if err := b.Column(c, v); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Finish(false)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	w, err := load.NewSegmentWriter(cl, cat, def, []load.Columns{cols}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := w.Write(0, []load.Chunk{{Cols: cols}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// wholeBlock decodes every column of block bi.
func wholeBlock(t *testing.T, seg *storage.Segment, bi int) *Batch {
	t.Helper()
	b := &Batch{Cols: make([]*types.Vector, len(seg.Cols)), N: seg.Block(0, bi).Rows}
	for c := range seg.Cols {
		v, err := seg.Block(c, bi).Decode()
		if err != nil {
			t.Fatal(err)
		}
		b.Cols[c] = v
	}
	return b
}

// sortedRunRows renders a batch's needed columns row by row ("" for nil).
func sortedRunRows(b *Batch, cols []int) string {
	if b == nil {
		return ""
	}
	var out strings.Builder
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			fmt.Fprintf(&out, "%v|", b.Cols[c].Get(i))
		}
		out.WriteByte('\n')
	}
	return out.String()
}
