package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/core"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
)

func startSessionServer(t *testing.T, db *core.Database) string {
	t.Helper()
	srv := NewSessionServer(func() SessionExecutor { return db.NewSession() })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func openWireDB(t *testing.T, cfg core.Config) *core.Database {
	t.Helper()
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func seedKV(t *testing.T, c *Client) {
	t.Helper()
	for _, q := range []string{
		`CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT) DISTSTYLE KEY DISTKEY(k)`,
		`INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)`,
	} {
		resp, err := c.Query(q)
		if err != nil || resp.Error != "" {
			t.Fatalf("%q: %+v %v", q, resp, err)
		}
	}
}

// TestWireSessionState pins per-connection session semantics: prepared
// statements and SET variables are visible only on the connection that made
// them, and die with it.
func TestWireSessionState(t *testing.T) {
	db := openWireDB(t, core.Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 128},
		DataStore: s3sim.New(),
	})
	addr := startSessionServer(t, db)

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	seedKV(t, c1)

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// PREPARE on c1 is invisible on c2.
	if resp, _ := c1.Query(`PREPARE total AS SELECT SUM(v) FROM kv`); resp.Error != "" {
		t.Fatalf("PREPARE: %q", resp.Error)
	}
	if resp, _ := c1.Query(`EXECUTE total`); resp.Error != "" || resp.Rows[0][0] != "60" {
		t.Fatalf("EXECUTE on owner = %+v", resp)
	}
	if resp, _ := c2.Query(`EXECUTE total`); resp.Error == "" {
		t.Fatal("prepared statement leaked to another connection")
	}

	// SET on c2 doesn't bleed into c1: c2 opts out of the result cache,
	// c1 keeps getting hits.
	if resp, _ := c2.Query(`SET result_cache TO off`); resp.Error != "" {
		t.Fatalf("SET: %q", resp.Error)
	}
	c1.Query(`SELECT SUM(v) FROM kv`)
	hit, _ := c1.Query(`SELECT SUM(v) FROM kv`)
	if !hit.Cached {
		t.Error("opted-in connection missed the result cache")
	}
	miss, _ := c2.Query(`SELECT SUM(v) FROM kv`)
	if miss.Cached {
		t.Error("opted-out connection served from the result cache")
	}

	// A new connection doesn't inherit a closed one's state: the name
	// "total" is free again after c1 goes away.
	c1.Close()
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if resp, _ := c3.Query(`EXECUTE total`); resp.Error == "" {
		t.Fatal("prepared statement survived its connection")
	}
	if resp, _ := c3.Query(`PREPARE total AS SELECT COUNT(*) FROM kv`); resp.Error != "" {
		t.Fatalf("name not released: %q", resp.Error)
	}
}

// TestWireDisconnectMidQueryFreesResources is the teardown race test: a
// client that vanishes while its statement executes must have that
// statement cancelled — WLM slot released, exchanges drained, no batches in
// flight. Meaningful under -race.
func TestWireDisconnectMidQueryFreesResources(t *testing.T) {
	inj := faults.NewInjector(&faults.Plan{Seed: 7, Sites: map[string]faults.Rule{
		faults.SitePrimaryRead: {Latency: 2 * time.Millisecond, LatencyProb: 1},
	}})
	inj.SetEnabled(true)
	db := openWireDB(t, core.Config{
		Cluster:         cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 16},
		Mode:            exec.Compiled,
		DataStore:       s3sim.New(),
		BlockCacheBytes: -1,
		QuerySlots:      4,
		Faults:          inj,
	})
	addr := startSessionServer(t, db)

	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	setup.Query(`CREATE TABLE big (x BIGINT, y BIGINT)`)
	var rows strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&rows, "%d|%d\n", i, i%7)
	}
	db.DataStore().Put("lake/big/b.csv", []byte(rows.String()))
	if resp, _ := setup.Query(`COPY big FROM 's3://lake/big/'`); resp.Error != "" {
		t.Fatalf("COPY: %q", resp.Error)
	}
	setup.Close()

	// A fleet of clients each fires a slow aggregate and hangs up without
	// reading the answer.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.Send(`SELECT SUM(x * y) FROM big WHERE x >= 0`); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(3 * time.Millisecond) // let execution start
			c.Close()
		}()
	}
	wg.Wait()

	// Every abandoned statement must unwind: no WLM slot held, no read
	// view open, no pooled batch in flight.
	deadline := time.Now().Add(10 * time.Second)
	for db.Quiescent() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("10s after the disconnects: %v", db.Quiescent())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Each abandoned statement left its one stl_query row — cancelled, unless
	// it won the race and finished — and the serialize report of a reply
	// nobody read kept every row's stages summing to its wall clock.
	var selects, cancelled int
	for _, r := range db.QueryLog().Records() {
		var sum time.Duration
		for _, d := range r.Stages {
			sum += d
		}
		if wall := r.End.Sub(r.Start); sum != wall {
			t.Errorf("query %d (%s): stages sum to %v, End − Start = %v", r.ID, r.State, sum, wall)
		}
		if strings.HasPrefix(r.SQL, "SELECT") {
			selects++
			if r.State == "cancelled" {
				cancelled++
			}
		}
	}
	if selects != 8 || cancelled == 0 {
		t.Errorf("8 abandoned SELECTs left %d rows, %d of them cancelled", selects, cancelled)
	}

	// The server is still healthy for new sessions.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(`SELECT COUNT(*) FROM big`)
	if err != nil || resp.Error != "" || resp.Rows[0][0] != "2000" {
		t.Fatalf("post-teardown query = %+v %v", resp, err)
	}
}

// TestWireCachedFlagTravels asserts the Cached bit reaches the client.
func TestWireCachedFlagTravels(t *testing.T) {
	db := openWireDB(t, core.Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 128},
		DataStore: s3sim.New(),
	})
	addr := startSessionServer(t, db)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedKV(t, c)

	cold, _ := c.Query(`SELECT SUM(v) FROM kv`)
	if cold.Error != "" || cold.Cached {
		t.Fatalf("cold = %+v", cold)
	}
	warm, _ := c.Query(`SELECT SUM(v) FROM kv`)
	if warm.Error != "" || !warm.Cached {
		t.Fatalf("warm = %+v", warm)
	}
	if warm.Stats == nil || warm.Stats.BlocksRead != 0 {
		t.Errorf("cache hit read blocks over the wire: %+v", warm.Stats)
	}
	if fmt.Sprint(warm.Rows) != fmt.Sprint(cold.Rows) {
		t.Errorf("cached rows differ: %v vs %v", warm.Rows, cold.Rows)
	}
}
