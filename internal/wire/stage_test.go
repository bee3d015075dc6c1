package wire

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/core"
	"redshift/internal/s3sim"
	"redshift/internal/telemetry"
)

// TestStageClockWire is core's TestStageClock from the client's side of the
// connection: each statement kind the workloads send leaves one stl_query row
// whose stages still sum to End − Start exactly once the server has charged
// the reply's encoding and write to it — the only stage stamped outside core,
// after the row was logged.
func TestStageClockWire(t *testing.T) {
	store := s3sim.New()
	db := openWireDB(t, core.Config{
		Cluster:      cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 512},
		DataStore:    store,
		SpillDir:     t.TempDir(),
		QueryLogSize: 8, // the ring turns over under the serialize reports
	})
	addr := startSessionServer(t, db)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var facts, dim strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&facts, "%d|%d|%d\n", i, i%4000, i%17)
	}
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&dim, "%d|name-%06d\n", i, i)
	}
	store.Put("lake/facts/f", []byte(facts.String()))
	store.Put("lake/dim/d", []byte(dim.String()))

	ids := map[int64]bool{}
	// send runs one statement and returns the row it left, read once the
	// server has turned to the next request — that is, after it reported the
	// reply's serialization.
	send := func(q string, logged bool) telemetry.QueryRecord {
		t.Helper()
		before := db.QueryLog().Total()
		resp, err := c.Query(q)
		if err != nil || resp.Error != "" {
			t.Fatalf("%s: %+v %v", q, resp, err)
		}
		if sync, err := c.Query(`SELECT 1`); err != nil || sync.Error != "" {
			t.Fatalf("SELECT 1: %+v %v", sync, err)
		}
		recs := db.QueryLog().Records()
		if !logged {
			if db.QueryLog().Total() != before {
				t.Errorf("%s: logged", q)
			}
			return telemetry.QueryRecord{}
		}
		r := recs[len(recs)-1]
		if r.ID <= before || ids[r.ID] || db.QueryLog().Total() != r.ID {
			t.Fatalf("%s: record %d after %d, want exactly one new row", q, r.ID, before)
		}
		ids[r.ID] = true
		var sum time.Duration
		for _, d := range r.Stages {
			sum += d
		}
		if wall := r.End.Sub(r.Start); sum != wall {
			t.Errorf("%s: stages sum to %v, End − Start = %v: %v", q, sum, wall, r.Stages)
		}
		if r.Stages[telemetry.StageSerialize] <= 0 {
			t.Errorf("%s: serialize = %v over the wire", q, r.Stages[telemetry.StageSerialize])
		}
		if r.State != "success" {
			t.Errorf("%s: state %q", q, r.State)
		}
		return r
	}

	send(`CREATE TABLE facts (k BIGINT NOT NULL, g BIGINT, v BIGINT) DISTSTYLE KEY DISTKEY(k) COMPOUND SORTKEY(k)`, false)
	send(`CREATE TABLE dim (k BIGINT NOT NULL, name VARCHAR(24)) DISTSTYLE EVEN`, false)
	send(`COPY facts FROM 's3://lake/facts/'`, true)
	send(`COPY dim FROM 's3://lake/dim/'`, true)
	send(`INSERT INTO facts VALUES (900001, 1, 1), (900002, 2, 2), (900003, 3, 3)`, true)
	send(`VACUUM facts`, true)
	send(`ANALYZE facts`, true)
	send(`SELECT v FROM facts WHERE k = 77`, true)
	send(`SELECT v FROM facts WHERE k = 77`, true) // second sight: stored
	if hit := send(`SELECT v FROM facts WHERE k = 77`, true); hit.Stages[telemetry.StageExec] != 0 {
		t.Errorf("second run executed: %v", hit.Stages)
	}
	send(`PREPARE byk AS SELECT g, v FROM facts WHERE k = 4242`, false)
	send(`EXECUTE byk`, true)
	fetch := send(`SELECT k, v FROM facts ORDER BY k LIMIT 2000`, true)
	point := send(`SELECT v FROM facts WHERE k = 78`, true)
	if f, p := fetch.Stages[telemetry.StageSerialize], point.Stages[telemetry.StageSerialize]; f <= p {
		t.Errorf("a 2000-row reply serialized in %v, a one-row reply in %v", f, p)
	}
	send(`SELECT g, SUM(v), COUNT(*) FROM facts WHERE v > 3 GROUP BY g`, true)
	send(`SET work_mem TO '64KB'`, false)
	if spill := send(`SELECT d.name, SUM(f.v) FROM facts f JOIN dim d ON f.g = d.k GROUP BY d.name`, true); spill.SpillBytes == 0 {
		t.Error("the join under work_mem '64KB' did not spill")
	}
	if err := db.Quiescent(); err != nil {
		t.Error(err)
	}
}
