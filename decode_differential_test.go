package redshift

import (
	"fmt"
	"strings"
	"testing"

	"redshift/internal/compress"
	"redshift/internal/rowstore"
	"redshift/internal/types"
)

// TestDecodeMatchesRowStore loads the same rows into a table whose columns
// cover every encoding × payload kind and into internal/rowstore — an
// engine that never encodes anything — and demands that every block of the
// table decodes to exactly the row store's values. Low ids carry no NULLs
// and high ids do, so each encoding is seen with and without a null bitmap.
// The encodings are every tag Applicable accepts, and one more PACK column
// holds thirds, which no power of ten scales to integers: PACK's bit-pattern
// form goes through COPY as well as its decimal one.
func TestDecodeMatchesRowStore(t *testing.T) {
	type column struct {
		name string
		typ  types.Type
		enc  compress.Encoding
	}
	cols := []column{{"id", types.Int64, compress.Raw}}
	for tag := 0; tag < 256; tag++ {
		e := compress.Encoding(tag)
		for _, typ := range []types.Type{types.Int64, types.Float64, types.String} {
			if compress.Applicable(e, typ) {
				cols = append(cols, column{fmt.Sprintf("c%d", len(cols)), typ, e})
			}
		}
	}
	cols = append(cols, column{"thirds", types.Float64, compress.Pack})
	var ddl []string
	schema := types.Schema{}
	for _, c := range cols {
		ddl = append(ddl, fmt.Sprintf("%s %s ENCODE %s", c.name, c.typ, c.enc))
		schema.Columns = append(schema.Columns, types.Column{Name: c.name, Type: c.typ})
	}
	w := launch(t, Options{Nodes: 2})
	w.MustExecute("CREATE TABLE enc (" + strings.Join(ddl, ", ") + ") DISTSTYLE EVEN SORTKEY(id)")
	ref, err := rowstore.New().Create("enc", schema)
	if err != nil {
		t.Fatal(err)
	}

	const rows = 2000
	var json strings.Builder
	for id := 0; id < rows; id++ {
		row := types.Row{types.NewInt(int64(id))}
		fmt.Fprintf(&json, `{"id": %d`, id)
		for ci, c := range cols[1:] {
			k := (id / 3) % 11 // short runs of few distinct values: every encoding applies
			switch {
			case id >= rows/2 && (id+ci)%5 == 0:
				row = append(row, types.NewNull(c.typ))
				continue // a missing key loads as NULL
			case c.typ == types.Int64:
				row = append(row, types.NewInt(int64(k*k*k*40-500)))
				fmt.Fprintf(&json, `, %q: %d`, c.name, k*k*k*40-500)
			case c.typ == types.Float64:
				f := float64(k) / 4
				if c.name == "thirds" {
					f = float64(k) / 3
				}
				row = append(row, types.NewFloat(f))
				fmt.Fprintf(&json, `, %q: %g`, c.name, f)
			default:
				s := strings.Repeat("v", k) + fmt.Sprint(k)
				row = append(row, types.NewString(s))
				fmt.Fprintf(&json, `, %q: %q`, c.name, s)
			}
		}
		json.WriteString("}\n")
		if err := ref.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PutObject("lake/enc/part0.json", []byte(json.String())); err != nil {
		t.Fatal(err)
	}
	w.MustExecute(`COPY enc FROM 's3://lake/enc/' FORMAT JSON`)

	db := w.DB()
	def, err := db.Catalog().Get("enc")
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		enc   compress.Encoding
		typ   types.Type
		nulls bool
	}
	seen := map[shape]int{}
	checked := 0
	for sl := 0; sl < db.Cluster().NumSlices(); sl++ {
		for _, seg := range db.Cluster().VisibleSegments(sl, def.ID, db.Txns().CurrentXid()) {
			for bi := 0; bi < seg.NumBlocks(); bi++ {
				ids, err := seg.Block(0, bi).Decode()
				if err != nil {
					t.Fatal(err)
				}
				for ci, c := range cols {
					blk := seg.Block(ci, bi)
					got, err := blk.Decode()
					if err != nil {
						t.Fatalf("%s %s: %v", c.name, blk.ID, err)
					}
					if blk.Encoding() != c.enc {
						t.Fatalf("%s %s: sealed as %s, declared %s", c.name, blk.ID, blk.Encoding(), c.enc)
					}
					seen[shape{c.enc, c.typ, blk.Zone.HasNulls}]++
					for i := 0; i < got.Len(); i++ {
						want := ref.Rows[ids.Ints[i]][ci]
						if have := got.Get(i); have.Null != want.Null || (!want.Null && !types.Equal(have, want)) {
							t.Fatalf("%s %s row %d (id %d): decoded %v, row store has %v", c.name, blk.ID, i, ids.Ints[i], have, want)
						}
					}
					checked += got.Len()
				}
			}
		}
	}
	if checked != rows*len(cols) {
		t.Errorf("checked %d values, loaded %d", checked, rows*len(cols))
	}
	for _, c := range cols[1:] {
		for _, nulls := range []bool{false, true} {
			if seen[shape{c.enc, c.typ, nulls}] == 0 {
				t.Errorf("no %s block over %s with nulls=%v was decoded", c.enc, c.typ, nulls)
			}
		}
	}
}
