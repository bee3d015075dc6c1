package core

import (
	"strings"
	"testing"
	"time"

	"redshift/internal/exec"
	"redshift/internal/types"
)

// TestSystemTableSurface pins every system table's columns, names and
// types, in catalog order. Operators' dashboards and trace exports read
// these by name, so a column added, dropped, renamed or retyped fails here
// until this list is edited in plain view.
func TestSystemTableSurface(t *testing.T) {
	want := []string{
		"stl_query: query/int querytxt/str starttime/time endtime/time queue_ms/float plan_ms/float exec_ms/float " +
			"rows/int blocks_read/int blocks_skipped/int net_bytes/int aborted/int state/str mem_peak/int spill_bytes/int " +
			"queue/str parse_ms/float normalize_ms/float cache_ms/float leader_ms/float serialize_ms/float other_ms/float",
		"stv_block_cache: hits/int misses/int evictions/int bytes_cached/int budget_bytes/int entries/int saved_ms/float resident_cost_ms/float",
		"stv_burst_clusters: burst_cluster/int state/str backup_id/str snapshot_xid/int routed_queries/int fallbacks/int",
		"stv_exec_workers: query/int dop/int workers/int morsels_dispatched/int",
		"stv_faults: site/int name/str prob/float hits/int injected/int delayed/int enabled/int",
		"stv_inflight: query/int querytxt/str starttime/time",
		"stv_node_health: node/int consecutive_failures/int quarantined/int",
		"stv_plan_cache: hits/int misses/int evictions/int invalidations/int entries/int budget_entries/int saved_ms/float resident_cost_ms/float",
		"stv_query_memory: query/int grant_bytes/int used_bytes/int peak_bytes/int spill_bytes/int",
		"stv_resize: active/int phase/str from_nodes/int to_nodes/int tables_total/int tables_copied/int rows_copied/int catchup_rounds/int",
		"stv_result_cache: hits/int misses/int evictions/int invalidations/int entries/int bytes_cached/int budget_bytes/int saved_ms/float resident_cost_ms/float",
		"stv_slice_stats: slice/int node/int scans/int blocks_read/int blocks_skipped/int rows_read/int bytes_read/int",
		"stv_wlm_queue_state: queue/str active/int queued/int oldest_wait_ms/float",
		"stv_wlm_queues: queue/str slots/int priority/int mem_per_slot/int short_query_rows/int timeout_ms/int " +
			"total_queries/int total_wait_ms/float timeouts/int evictions/int peak_active/int peak_queued/int",
	}
	cat, _, err := openDB(t, exec.Compiled).sysCatalog()
	if err != nil {
		t.Fatal(err)
	}
	short := map[types.Type]string{types.Int64: "int", types.Float64: "float", types.String: "str", types.Timestamp: "time"}
	var got []string
	for _, def := range cat.List() {
		var cols []string
		for _, c := range def.Columns {
			cols = append(cols, c.Name+"/"+short[c.Type])
		}
		got = append(got, def.Name+": "+strings.Join(cols, " "))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("system tables:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}

// TestLiveStatementViews: one governed query held running by slow block
// reads shows in stv_inflight, stv_exec_workers and stv_query_memory under
// one id, with its text, its forced DOP and its session's grant, and all
// three views are empty once it has finished.
func TestLiveStatementViews(t *testing.T) {
	db := openSpillDB(t, 32<<10, t.TempDir(), 500*time.Microsecond)
	seedSpillWide(t, db, 8000)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.Execute(`SET max_parallel_workers TO 2`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT id, SUM(val) AS total FROM wide GROUP BY id ORDER BY id`
	done := make(chan error, 1)
	go func() {
		_, err := sess.Execute(q)
		done <- err
	}()

	var id int64 // from stv_inflight; the other two views must show it too
	var sawWorkers, sawMemory bool
	waitUntil(t, "the running query shows in all three live views", func() bool {
		select {
		case err := <-done:
			t.Fatalf("query finished (err = %v) before every view showed it", err)
		default:
		}
		for _, r := range mustExec(t, db, `SELECT query, querytxt FROM stv_inflight`).Rows {
			if id == 0 {
				id = r[0].I
			}
			if r[0].I == id && r[1].S != q {
				t.Errorf("stv_inflight.querytxt = %q, want %q", r[1].S, q)
			}
		}
		for _, r := range mustExec(t, db, `SELECT query, dop FROM stv_exec_workers`).Rows {
			if id != 0 && r[0].I == id {
				sawWorkers = true
				if r[1].I != 2 {
					t.Errorf("stv_exec_workers.dop = %d, want 2", r[1].I)
				}
			}
		}
		for _, r := range mustExec(t, db, `SELECT query, grant_bytes FROM stv_query_memory`).Rows {
			if id != 0 && r[0].I == id {
				sawMemory = true
				if want := sess.effectiveMemBudget(); r[1].I != want {
					t.Errorf("stv_query_memory.grant_bytes = %d, want %d", r[1].I, want)
				}
			}
		}
		return sawWorkers && sawMemory
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"stv_inflight", "stv_exec_workers", "stv_query_memory"} {
		if n := mustExec(t, db, `SELECT COUNT(*) FROM `+view).Rows[0][0].I; n != 0 {
			t.Errorf("%s rows after the query finished = %d, want 0", view, n)
		}
	}
	assertQuiescent(t, db)
}
