package catalog_test

import (
	"runtime"
	"sync"
	"testing"

	"redshift/internal/catalog"
	"redshift/internal/hll"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// Readers bind plans over the shared snapshot and read its NDVs while a
// writer publishes loads, VACUUM's republication and TRUNCATE's zeroes. Run
// under -race: a write to a published snapshot is a race with the readers.
// Each snapshot a reader holds must read the same, however long it holds it.
func TestStatsConcurrentReadersAndWriters(t *testing.T) {
	cat := catalog.New()
	def := &catalog.TableDef{
		Name: "events",
		Columns: []catalog.ColumnDef{
			{Name: "k", Type: types.Int64},
			{Name: "v", Type: types.Int64},
		},
		DistKeyCol: -1,
	}
	if err := cat.Create(def); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse("SELECT v, COUNT(*) FROM events WHERE k = 7 GROUP BY v")
	if err != nil {
		t.Fatal(err)
	}
	delta := func(lo int64) catalog.TableStats {
		st := catalog.TableStats{Rows: 100, UnsortedRows: 100, Cols: make([]catalog.ColumnStats, 2)}
		for i := range st.Cols {
			sk := hll.New()
			for v := lo; v < lo+100; v++ {
				sk.AddInt64(v)
			}
			st.Cols[i] = catalog.ColumnStats{Min: types.NewInt(lo), Max: types.NewInt(lo + 99), Sketch: sk, WidthSum: 800}
		}
		return st
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s, err := cat.Stats(def.ID)
				if err != nil {
					t.Error(err)
					return
				}
				rows, ndv := s.Rows, [2]int64{s.Cols[0].NDV, s.Cols[1].NDV}
				if _, err := plan.Build(cat, stmt.(*sql.Select)); err != nil {
					t.Error(err)
					return
				}
				if s.Rows != rows || s.Cols[0].NDV != ndv[0] || s.Cols[1].NDV != ndv[1] {
					t.Errorf("a held snapshot changed: rows %d→%d, NDV %v→[%d %d]", rows, s.Rows, ndv, s.Cols[0].NDV, s.Cols[1].NDV)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	var want int64
	for i := int64(0); i < 200; i++ {
		var err error
		switch {
		case i%50 == 25:
			err, want = cat.ReplaceStats(def.ID, catalog.TableStats{Cols: make([]catalog.ColumnStats, 2)}), 0
		case i%10 == 9:
			cur, _ := cat.Stats(def.ID)
			next := *cur
			next.UnsortedRows = 0
			err = cat.ReplaceStats(def.ID, next)
		default:
			err, want = cat.UpdateStats(def.ID, delta(i*100)), want+100
		}
		if err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	s, _ := cat.Stats(def.ID)
	if s.Rows != want || s.Cols[0].NDV < want*95/100 || s.Cols[0].NDV > want*105/100 {
		t.Errorf("final snapshot: rows %d, NDV %d; want %d and within 5%% of it", s.Rows, s.Cols[0].NDV, want)
	}
}
