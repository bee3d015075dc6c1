package stream

import (
	"strings"
	"testing"
)

// small renders a workload at smoke size.
func small(t *testing.T, name string, seed int64) *Workload {
	t.Helper()
	w, err := Generate(name, Params{Seed: seed, Scale: 0.02, Stmts: 400})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names {
		a, b, c := small(t, name, 1), small(t, name, 1), small(t, name, 2)
		if a.Render(a.Blocks) != b.Render(b.Blocks) {
			t.Errorf("%s: same seed rendered two different streams", name)
		}
		if a.Render(a.Blocks) == c.Render(c.Blocks) {
			t.Errorf("%s: seeds 1 and 2 rendered the same stream", name)
		}
		for i := range a.Tables {
			for j := range a.Tables[i].Objects {
				if string(a.Tables[i].Objects[j]) != string(b.Tables[i].Objects[j]) {
					t.Errorf("%s: same seed rendered different bytes for %s", name, a.Tables[i].Name)
				}
			}
		}
		if len(a.Tables) > 0 && len(a.Tables[0].Objects) > 0 && string(a.Tables[0].Objects[0]) == string(c.Tables[0].Objects[0]) {
			t.Errorf("%s: seeds 1 and 2 rendered the same table bytes", name)
		}
		if strings.Join(a.Setup, "\n") != strings.Join(b.Setup, "\n") {
			t.Errorf("%s: same seed rendered different setup statements", name)
		}
	}
}

// The warm-up and every block are the same whatever stream length was asked
// for: goldens recorded from one length must hold for a run of another.
func TestStreamIsPrefixStable(t *testing.T) {
	for _, name := range Names {
		short, err := Generate(name, Params{Seed: 8, Scale: 0.02, Stmts: 200})
		if err != nil {
			t.Fatal(err)
		}
		long, err := Generate(name, Params{Seed: 8, Scale: 0.02, Stmts: 900})
		if err != nil {
			t.Fatal(err)
		}
		if short.Blocks >= long.Blocks {
			t.Fatalf("%s: %d and %d blocks", name, short.Blocks, long.Blocks)
		}
		if short.Render(short.Blocks) != long.Render(short.Blocks) {
			t.Errorf("%s: a longer stream does not start with the shorter one", name)
		}
	}
}

// A block is a pure function of (seed, block number): rendering it again,
// or after other blocks, gives the same statements, and At agrees.
func TestBlocksAreRandomAccess(t *testing.T) {
	for _, name := range Names {
		w := small(t, name, 3)
		first := w.Block(2)
		w.Block(0)
		again := w.Block(2)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("%s: block 2 statement %d changed between renders", name, i)
			}
			if got := w.At(len(w.Warmup) + 2*w.BlockLen + i); got != first[i] {
				t.Fatalf("%s: At disagrees with Block(2)[%d]", name, i)
			}
		}
		if got := w.At(0); len(w.Warmup) > 0 && got != w.Warmup[0] {
			t.Fatalf("%s: At(0) is not the first warm-up statement", name)
		}
	}
}

func TestMixProportionsHoldInEveryBlock(t *testing.T) {
	want := map[string]map[string]int{
		ScanAgg:      {"full": 3, "range": 2, "like": 2, "group": 1},
		JoinGroupBy:  {"star": 1, "colo": 1, "distinct": 1, "join": 2, "join.spill": 1, "topn": 1, "topn.spill": 1},
		ServePoint:   {"hot": 35, "point": 10, "execute": 4, "fetch": 1},
		MixedTenants: {"short": 30, "write": 4, "transform": 4, "maintenance": 2, "adhoc": 6, KindIngest: 3, KindIngestMaint: 1},
	}
	for _, name := range Names {
		w := small(t, name, 4)
		for b := 0; b < w.Blocks; b++ {
			got := map[string]int{}
			for _, s := range w.Block(b) {
				got[s.Kind]++
			}
			for k, n := range want[name] {
				if got[k] != n {
					t.Fatalf("%s block %d: %d × %s, want %d (%v)", name, b, got[k], k, n, got)
				}
			}
			if len(got) != len(want[name]) {
				t.Fatalf("%s block %d: unexpected kinds %v", name, b, got)
			}
		}
	}
}

// The spilling quarter carries the per-statement work_mem; nothing else does.
func TestSpillQuarter(t *testing.T) {
	w := small(t, JoinGroupBy, 5)
	spill, total := 0, 0
	for b := 0; b < w.Blocks; b++ {
		for _, s := range w.Block(b) {
			total++
			if s.WorkMem != "" {
				spill++
				if s.WorkMem != spillMem || !strings.HasSuffix(s.Kind, ".spill") {
					t.Fatalf("statement %q carries work_mem %q", s.Kind, s.WorkMem)
				}
			}
		}
	}
	if spill*4 != total {
		t.Fatalf("%d of %d statements spill, want exactly a quarter", spill, total)
	}
}

// serve_point's fresh keys never repeat, so a lookup cannot turn into a
// result-cache hit; its hot statements all come from the 64-panel set.
func TestServePointFreshAndHot(t *testing.T) {
	w := small(t, ServePoint, 6)
	hot := map[string]bool{}
	for _, s := range w.Warmup {
		if s.Kind == "hot" {
			hot[s.SQL] = true
		}
	}
	if len(hot) != hotPanels {
		t.Fatalf("%d distinct hot panels in warm-up, want %d", len(hot), hotPanels)
	}
	seen := map[string]bool{}
	for b := 0; b < w.Blocks; b++ {
		for _, s := range w.Block(b) {
			switch s.Kind {
			case "hot":
				if !hot[s.SQL] {
					t.Fatalf("hot statement outside the panel set: %s", s.SQL)
				}
			case "point", "fetch":
				if seen[s.SQL] {
					t.Fatalf("fresh statement repeated: %s", s.SQL)
				}
				seen[s.SQL] = true
			}
		}
	}
}

func TestMixedTenantsAccounting(t *testing.T) {
	w := small(t, MixedTenants, 7)
	if !w.InsertLoad || len(w.Tables) != 4 {
		t.Fatalf("want four INSERT-loaded tables, got %d (InsertLoad=%v)", len(w.Tables), w.InsertLoad)
	}
	rows := map[string]int{}
	for _, tb := range w.Tables {
		rows[tb.Name] = tb.Rows
		if got := strings.Count(string(tb.Objects[0]), "\n"); got != tb.Rows {
			t.Errorf("%s: %d CSV lines for %d rows", tb.Name, got, tb.Rows)
		}
	}
	// scale 2 (the floor): 800 orders, 3200 line items, 2000 events, empty stage
	if rows["wl_orders"] != 800 || rows["wl_lineitems"] != 3200 || rows["wl_events"] != 2000 || rows["wl_stage"] != 0 {
		t.Errorf("row counts %v", rows)
	}
	if w.Counts["wl_events"] != 2000 || w.Counts["wl_stage"] != 0 || len(w.Counts) != 2 {
		t.Errorf("mutable-table counts %v", w.Counts)
	}
	for _, s := range w.Block(0) {
		switch s.Kind {
		case KindIngest:
			if s.Table != "wl_events" || s.Rows != ingestRows || s.UserBytes == 0 || s.Verify {
				t.Errorf("ingest accounting: %+v", s)
			}
		case "write":
			if s.Table != "wl_stage" || s.Rows != 20 || s.QueryGroup != "etl" {
				t.Errorf("etl write accounting: table %s rows %d group %s", s.Table, s.Rows, s.QueryGroup)
			}
		case "short":
			if s.Verify || s.QueryGroup != "dash" {
				t.Errorf("dashboard statement: verify=%v group=%s", s.Verify, s.QueryGroup)
			}
		case "adhoc":
			if unordered := strings.Contains(s.SQL, " LIMIT ") && !strings.Contains(s.SQL, "ORDER BY"); s.Verify == unordered {
				t.Errorf("adhoc verify=%v for %s", s.Verify, s.SQL)
			}
		}
	}
}

func TestValuesCSV(t *testing.T) {
	table, csv := ValuesCSV(`INSERT INTO wl_stage VALUES (1, 2, 3.5), (4, 5, 6)`)
	if table != "wl_stage" || csv != "1|2|3.5\n4|5|6\n" {
		t.Fatalf("got %q %q", table, csv)
	}
	if table, csv := ValuesCSV(`ANALYZE wl_stage`); table != "" || csv != "" {
		t.Fatalf("non-INSERT converted: %q %q", table, csv)
	}
}
