package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/sim"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
)

// clockCheck is TestStageClock's bookkeeping: every statement it watches
// must leave exactly one stl_query row whose stages sum to its wall clock.
type clockCheck struct {
	t   *testing.T
	ids map[int64]string // every id seen, by the statement that drew it
}

// one runs a statement and checks the single record it left: the terminal
// state, a WLM queue named iff a slot was requested, stages that sum to
// End − Start exactly, nothing in serialize (no wire), and Result.Stats equal
// to the stages.
func (c *clockCheck) one(db *Database, name, wantState string, wantQueue bool, run func() (*Result, error)) telemetry.QueryRecord {
	c.t.Helper()
	mark := db.QueryLog().Len()
	res, err := run()
	if (err == nil) != (wantState == "success") {
		c.t.Fatalf("%s: err = %v, want state %s", name, err, wantState)
	}
	recs := db.QueryLog().Records()[mark:]
	if len(recs) != 1 {
		c.t.Fatalf("%s: left %d stl_query records, want 1", name, len(recs))
	}
	r := recs[0]
	if prev, dup := c.ids[r.ID]; dup || r.ID == 0 {
		c.t.Errorf("%s: id %d already drawn by %q", name, r.ID, prev)
	}
	c.ids[r.ID] = name
	if r.State != wantState {
		c.t.Errorf("%s: state %q, want %q (error %q)", name, r.State, wantState, r.Error)
	}
	if (r.Queue != "") != wantQueue {
		c.t.Errorf("%s: queue %q, slot requested = %v", name, r.Queue, wantQueue)
	}
	var sum time.Duration
	for st, d := range r.Stages {
		if d < 0 {
			c.t.Errorf("%s: stage %s = %v", name, telemetry.StageNames[st], d)
		}
		sum += d
	}
	if wall := r.End.Sub(r.Start); sum != wall {
		c.t.Errorf("%s: stages sum to %v, End − Start = %v: %v", name, sum, wall, r.Stages)
	}
	if d := r.Stages[telemetry.StageSerialize]; d != 0 {
		c.t.Errorf("%s: serialize = %v with no wire", name, d)
	}
	if res != nil {
		st := r.Stages
		if res.QueryID != r.ID || res.Stats.QueueWait != st[telemetry.StageQueue] || res.Stats.PlanTime != st[telemetry.StagePlan] ||
			res.Stats.ExecTime != st[telemetry.StageExec]+st[telemetry.StageLeader] {
			c.t.Errorf("%s: Result id %d stats %+v disagree with record %d stages %v", name, res.QueryID, res.Stats, r.ID, st)
		}
	}
	return r
}

// kind runs one statement kind several times and holds `other` — the time
// inside the statement that no stage names — to its bound: 5 % of the wall
// clock over a millisecond, 5 µs under it. The bound is on the code path, and
// a loaded machine only adds to it, so one run within it is enough.
func (c *clockCheck) kind(db *Database, name string, wantQueue bool, run func(i int) (*Result, error)) telemetry.QueryRecord {
	c.t.Helper()
	reps := 5
	if raceEnabled {
		reps = 1 // the bound is not held under the race detector
	}
	var last telemetry.QueryRecord
	within := 0
	for i := 0; i < reps; i++ {
		last = c.one(db, name, "success", wantQueue, func() (*Result, error) { return run(i) })
		wall, other := last.End.Sub(last.Start), last.Stages[telemetry.StageOther]
		if (wall > time.Millisecond && other <= wall/20) || other <= 5*time.Microsecond {
			within++
		}
	}
	c.t.Logf("%-24s wall %-12v stages %v", name, last.End.Sub(last.Start), last.Stages)
	if !raceEnabled && within == 0 {
		c.t.Errorf("%s: other over its bound in all %d runs; last: %v of %v", name, reps, last.Stages[telemetry.StageOther], last.End.Sub(last.Start))
	}
	return last
}

// TestStageClock is the lifecycle's invariant on every statement kind the
// workloads send and every way a SELECT can end: one stl_query row each,
// unique ids, the right terminal state, stages that sum to the wall clock
// exactly, Result.Stats read from those stages.
func TestStageClock(t *testing.T) {
	c := &clockCheck{t: t, ids: map[int64]string{}}
	store := s3sim.New()
	db, err := Open(Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 512},
		DataStore: store,
		SpillDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE facts (k BIGINT NOT NULL, g BIGINT, v BIGINT, s VARCHAR(16)) DISTSTYLE KEY DISTKEY(k) COMPOUND SORTKEY(k)`)
	mustExec(t, db, `CREATE TABLE dim (k BIGINT NOT NULL, name VARCHAR(24)) DISTSTYLE EVEN`)
	mustExec(t, db, `CREATE TABLE scratch (k BIGINT)`)
	for part := 0; part < 4; part++ {
		var b strings.Builder
		for i := part * 5000; i < (part+1)*5000; i++ {
			fmt.Fprintf(&b, "%d|%d|%d|s%d\n", i, i%4000, i%17, i%9)
		}
		store.Put(fmt.Sprintf("lake/facts/part%d", part), []byte(b.String()))
	}
	var dim strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&dim, "%d|name-%06d\n", i, i)
	}
	store.Put("lake/dim/d", []byte(dim.String()))
	if db.QueryLog().Len() != 0 {
		t.Fatalf("DDL left %d stl_query rows", db.QueryLog().Len())
	}

	// Writes: same lifecycle, same record.
	c.kind(db, "COPY", false, func(int) (*Result, error) { return db.Execute(`COPY facts FROM 's3://lake/facts/'`) })
	mustExec(t, db, `COPY dim FROM 's3://lake/dim/'`)
	c.kind(db, "INSERT", false, func(i int) (*Result, error) {
		var vals strings.Builder
		for j := 0; j < 50; j++ {
			fmt.Fprintf(&vals, "(%d, %d, 1, 'x'),", 1_000_000+i*50+j, j)
		}
		return db.Execute(`INSERT INTO facts VALUES ` + strings.TrimSuffix(vals.String(), ","))
	})
	c.kind(db, "VACUUM", false, func(int) (*Result, error) { return db.Execute(`VACUUM facts`) })
	c.kind(db, "ANALYZE", false, func(int) (*Result, error) { return db.Execute(`ANALYZE facts`) })
	c.kind(db, "TRUNCATE", false, func(int) (*Result, error) { return db.Execute(`TRUNCATE scratch`) })

	// Reads, as serve_point, scan_agg and join_groupby send them.
	c.kind(db, "SELECT point", true, func(i int) (*Result, error) {
		return db.Execute(fmt.Sprintf(`SELECT v FROM facts WHERE k = %d`, 100+i))
	})
	mustExec(t, db, `SELECT v FROM facts WHERE k = 100`) // second sight: stored
	hit := c.kind(db, "result-cache hit", false, func(int) (*Result, error) { return db.Execute(`SELECT v FROM facts WHERE k = 100`) })
	if hit.Stages[telemetry.StageExec] != 0 || hit.Stages[telemetry.StageOther] != 0 || hit.Trace != nil {
		t.Errorf("result-cache hit executed or registered: %v", hit.Stages)
	}
	mustExec(t, db, `PREPARE byk AS SELECT g, v FROM facts WHERE k = 4242`)
	mustExec(t, db, `SET result_cache TO off`)
	exe := c.kind(db, "EXECUTE", true, func(int) (*Result, error) { return db.Execute(`EXECUTE byk`) })
	if want := `SELECT g, v FROM facts WHERE (k = 4242)`; exe.SQL != want {
		t.Errorf("EXECUTE logged %q, want the text PREPARE rendered, %q", exe.SQL, want)
	}
	c.kind(db, "SELECT fetch", true, func(int) (*Result, error) { return db.Execute(`SELECT k, v FROM facts ORDER BY k LIMIT 2000`) })
	agg := c.kind(db, "SELECT scan-aggregate", true, func(int) (*Result, error) {
		return db.Execute(`SELECT g, SUM(v), COUNT(*) FROM facts WHERE v > 3 GROUP BY g`)
	})
	if agg.Stages[telemetry.StageLeader] <= 0 || agg.Stages[telemetry.StageExec] <= 0 {
		t.Errorf("scan-aggregate: exec %v, leader %v", agg.Stages[telemetry.StageExec], agg.Stages[telemetry.StageLeader])
	}
	c.kind(db, "SELECT explain-analyze", true, func(int) (*Result, error) {
		return db.Execute(`EXPLAIN ANALYZE SELECT g, COUNT(*) FROM facts GROUP BY g`)
	})
	mustExec(t, db, `SET work_mem TO '64KB'`)
	spill := c.kind(db, "SELECT spilling join", true, func(int) (*Result, error) {
		return db.Execute(`SELECT d.name, SUM(f.v) FROM facts f JOIN dim d ON f.g = d.k GROUP BY d.name`)
	})
	if spill.SpillBytes == 0 {
		t.Error("the join under work_mem '64KB' did not spill")
	}
	c.one(db, "bind error", "error", false, func() (*Result, error) { return db.Execute(`SELECT nope FROM facts`) })
	assertQuiescent(t, db)

	// Statements the data plane never sees leave no row and draw no id.
	mark := db.QueryLog().Len()
	for _, q := range []string{`SELECT 1`, `SELECT COUNT(*) FROM stl_query`, `SET work_mem TO '1MB'`, `EXPLAIN SELECT v FROM facts`, `SELEC`} {
		db.Execute(q)
	}
	if n := db.QueryLog().Len(); n != mark {
		t.Errorf("leader-only statements left %d stl_query rows", n-mark)
	}

	// Ways a SELECT ends without a slot.
	t.Run("evicted", func(t *testing.T) {
		c := &clockCheck{t: t, ids: map[int64]string{}}
		db, err := Open(Config{
			Cluster:   cluster.Config{Nodes: 1, SlicesPerNode: 1, BlockCap: 64},
			DataStore: s3sim.New(),
			WLMQueues: []QueueSpec{{Name: "default", Slots: 1, Timeout: 10 * time.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		seedSales(t, db)
		held, err := db.wlm.AcquireQueueCtx(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		const q = `SELECT COUNT(*) FROM sales WHERE qty > 1`
		r := c.one(db, "evicted", "evicted", true, func() (*Result, error) { return db.Execute(q) })
		if r.Stages[telemetry.StageQueue] < 10*time.Millisecond || r.Stages[telemetry.StageExec] != 0 {
			t.Errorf("evicted after a 10ms queue timeout: %v", r.Stages)
		}
		// A statement_timeout that fires first, in the queue: nothing ran, so
		// the statement may be resent.
		mustExec(t, db, `SET statement_timeout TO 5`)
		c.one(db, "queue timeout", "timeout", true, func() (*Result, error) {
			_, err = db.Execute(q)
			return nil, err
		})
		if !faults.Retryable(err) {
			t.Errorf("a statement_timeout that fires in the queue is not retryable: %v", err)
		}
		db.wlm.ReleaseTicket(held)
		assertQuiescent(t, db)
	})

	// Ways a SELECT ends mid-execution: every read takes 2ms here.
	t.Run("aborted", func(t *testing.T) {
		c := &clockCheck{t: t, ids: map[int64]string{}}
		db := openSlowDB(t, 2*time.Millisecond)
		seedSales(t, db)
		const q = `SELECT SUM(qty) FROM sales WHERE qty >= 0`
		// whenRunning calls stop once the statement run under ctx shows in the
		// running set.
		whenRunning := func(ctx context.Context, stop func(id int64)) {
			go func() {
				for ctx.Err() == nil {
					for _, rq := range db.runningQueries() {
						stop(rq.id)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
		}
		c.one(db, "CANCEL", "cancelled", true, func() (*Result, error) {
			ctx, done := context.WithCancel(context.Background())
			defer done()
			whenRunning(ctx, func(id int64) { db.NewSession().Execute(fmt.Sprintf(`CANCEL %d`, id)) })
			return db.Execute(q)
		})
		c.one(db, "disconnect", "cancelled", true, func() (*Result, error) {
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			whenRunning(ctx, func(int64) { hangUp() })
			return db.ExecuteContext(ctx, q)
		})
		mustExec(t, db, `SET statement_timeout TO 5`)
		var err error
		r := c.one(db, "statement_timeout", "timeout", true, func() (*Result, error) {
			_, err = db.Execute(q)
			return nil, err
		})
		if faults.Retryable(err) || r.Stages[telemetry.StageExec] < 4*time.Millisecond {
			t.Errorf("timeout mid-execution: retryable = %v, stages %v", faults.Retryable(err), r.Stages)
		}
		assertQuiescent(t, db)
	})
}

// countRows reads a table's row count and a checksum of column x, past the
// result cache.
func countRows(t *testing.T, db *Database, table string) string {
	t.Helper()
	sess := db.NewSession()
	sess.resultCacheOff.Store(true)
	res, err := sess.Execute(`SELECT COUNT(*), SUM(x) FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	return rowsText(res)
}

// A write that is cancelled or times out is rolled back whole: it ends in
// stl_query as 'cancelled' / 'timeout', the table reads exactly as before,
// nothing is held.
func TestCancelAndTimeoutOfWrites(t *testing.T) {
	db := openSlowDB(t, time.Millisecond)
	store := db.cfg.DataStore
	const tables = 12
	var body strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&body, "%d\n", (i*7919)%400)
	}
	before := make([]string, tables)
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("w%02d", i)
		mustExec(t, db, `CREATE TABLE `+name+` (x BIGINT) COMPOUND SORTKEY(x)`)
		store.Put("lake/"+name+"/a", []byte(body.String()))
		store.Put("lake/"+name+"/b", []byte(body.String()))
		mustExec(t, db, `COPY `+name+` FROM 's3://lake/`+name+`/a'`)
		mustExec(t, db, `COPY `+name+` FROM 's3://lake/`+name+`/b'`)
		before[i] = countRows(t, db, name)
	}
	state := func(prefix string) string {
		recs := db.QueryLog().Records()
		for i := len(recs) - 1; i >= 0; i-- {
			if strings.HasPrefix(recs[i].SQL, prefix) {
				return recs[i].State
			}
		}
		return "not logged"
	}

	// VACUUM of every table, cancelled by id once it shows in the running set.
	// Alone it takes a few milliseconds, less than a busy machine may starve
	// the poller for; with every block evicted and each fetch back from the
	// secondary 5ms slower, it takes about a second.
	db.cl.EvictAll()
	db.cfg.Faults.SetRule(faults.SiteSecondaryFetch, faults.Rule{Latency: 5 * time.Millisecond, LatencyProb: 1})
	done := make(chan error, 1)
	go func() {
		_, err := db.Execute(`VACUUM`)
		done <- err
	}()
	deadline := time.After(time.Minute)
	for cancelled := false; !cancelled; time.Sleep(100 * time.Microsecond) {
		select {
		case err := <-done:
			t.Fatalf("waiting for VACUUM in the running set to cancel it: it returned first (%v)", err)
		case <-deadline:
			t.Fatalf("waiting for VACUUM in the running set to cancel it: not there after a minute (running %v)", db.runningQueries())
		default:
		}
		for _, rq := range db.runningQueries() {
			if rq.sql == "VACUUM" {
				cancelled = db.Cancel(rq.id)
			}
		}
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "cancelled on user request") {
		t.Fatalf("cancelled VACUUM returned %v", err)
	}
	if got := state("VACUUM"); got != "cancelled" {
		t.Errorf("cancelled VACUUM logged as %q", got)
	}
	db.cfg.Faults.SetRule(faults.SiteSecondaryFetch, faults.Rule{})

	// A multi-object COPY under a 1ms statement_timeout.
	var big strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&big, "%d\n", i)
	}
	for part := 0; part < 4; part++ {
		store.Put(fmt.Sprintf("lake/big/part%d", part), []byte(big.String()))
	}
	sess := db.NewSession()
	if _, err := sess.Execute(`SET statement_timeout TO 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(`COPY w00 FROM 's3://lake/big/'`); err == nil || !strings.Contains(err.Error(), "statement timeout") {
		t.Fatalf("COPY under a 1ms statement_timeout returned %v", err)
	}
	if got := state("COPY w00 FROM 's3://lake/big/'"); got != "timeout" {
		t.Errorf("timed-out COPY logged as %q", got)
	}

	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("w%02d", i)
		if got := countRows(t, db, name); got != before[i] {
			t.Errorf("%s reads %q after the aborted writes, %q before", name, got, before[i])
		}
	}
	assertQuiescent(t, db)
	// ANALYZE observes its context too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecuteContext(ctx, `ANALYZE`); err == nil {
		t.Error("ANALYZE ran under a cancelled context")
	}
	if got := state("ANALYZE"); got != "cancelled" {
		t.Errorf("cancelled ANALYZE logged as %q", got)
	}
}

// A multi-object COPY cancelled once its first object is read stops
// reading: it ends 'cancelled' having fetched fewer objects than it lists,
// the table is as before, and nothing is held.
func TestCopyCancelStopsReading(t *testing.T) {
	db := openDB(t, exec.Compiled)
	store := db.cfg.DataStore
	mustExec(t, db, `CREATE TABLE c (x BIGINT)`)
	const objects = 64
	for i := 0; i < objects; i++ {
		store.Put(fmt.Sprintf("lake/c/part%02d", i), []byte("1\n2\n3\n"))
	}
	before := countRows(t, db, "c")
	store.WithDelays(sim.Wall{}, 2*time.Millisecond, 0) // every GET takes 2ms
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for deadline := time.Now().Add(10 * time.Second); store.Stats().Gets == 0; time.Sleep(50 * time.Microsecond) {
			if ctx.Err() != nil || time.Now().After(deadline) {
				return // the test is over, or COPY never read: leave it uncancelled
			}
		}
		cancel()
	}()
	if _, err := db.ExecuteContext(ctx, `COPY c FROM 's3://lake/c/'`); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled COPY returned %v", err)
	}
	if gets := store.Stats().Gets; gets >= objects {
		t.Errorf("cancelled COPY fetched %d of its %d objects", gets, objects)
	}
	recs := db.QueryLog().Records()
	if got := recs[len(recs)-1]; !strings.HasPrefix(got.SQL, "COPY c") || got.State != "cancelled" {
		t.Errorf("last logged statement is %q in state %q", got.SQL, got.State)
	}
	if got := countRows(t, db, "c"); got != before {
		t.Errorf("c reads %q after the cancelled COPY, %q before", got, before)
	}
	assertQuiescent(t, db)
}

// TestLifecycleAllocationBudget pins what the lifecycle costs the cheapest,
// most frequent statement, an in-process result-cache hit: 31 allocations
// and three clock readings before stmtRun (Start, the running-set entry,
// End — none of parse, normalize or lookup timed); now one reading per stage
// boundary of the three stages it crosses, no cancel context, no running-set
// entry.
func TestLifecycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	const q = `SELECT SUM(qty) FROM sales WHERE region = 'us'`
	mustExec(t, db, q)
	mustExec(t, db, q) // second sight: stored
	if res := mustExec(t, db, q); !res.Cached {
		t.Fatal("second run missed the result cache")
	}
	if allocs := testing.AllocsPerRun(200, func() { db.Execute(q) }); allocs > 31 {
		t.Errorf("a result-cache hit made %.0f allocations, 31 before stmtRun", allocs)
	}
	reads := 0
	now = func() time.Time { reads++; return time.Now() }
	defer func() { now = time.Now }()
	mustExec(t, db, q)
	if reads != 4 {
		t.Errorf("a result-cache hit read the clock %d times, want 4 (begin, normalize, cache, finish)", reads)
	}
	if n := len(db.runningQueries()); n != 0 {
		t.Errorf("%d statements left in the running set", n)
	}
}

// The stl_query columns an operator sums: the nine stage columns add up to
// endtime − starttime (to the microsecond the timestamps carry).
func TestStlQueryStageColumns(t *testing.T) {
	db := openDB(t, exec.Compiled)
	seedSales(t, db)
	mustExec(t, db, `SELECT region, SUM(qty) FROM sales GROUP BY region`)
	var cols []string
	for _, name := range telemetry.StageNames {
		cols = append(cols, name+"_ms")
	}
	res := mustExec(t, db, `SELECT querytxt, starttime, endtime, `+strings.Join(cols, ", ")+` FROM stl_query`)
	if len(res.Rows) != 3 {
		t.Fatalf("stl_query rows = %d, want two COPYs and a SELECT", len(res.Rows))
	}
	var kinds []string
	for _, row := range res.Rows {
		kinds = append(kinds, strings.Fields(row[0].S)[0])
		var sumMs float64
		for _, v := range row[3:] {
			sumMs += v.F
		}
		if wallMs := float64(row[2].I-row[1].I) / 1e3; sumMs < wallMs-0.002 || sumMs > wallMs+0.002 {
			t.Errorf("%s: stage columns sum to %.4f ms, endtime − starttime = %.4f ms", row[0].S, sumMs, wallMs)
		}
	}
	sort.Strings(kinds)
	if got := strings.Join(kinds, " "); got != "COPY COPY SELECT" {
		t.Errorf("stl_query logged %q", got)
	}
	if _, err := sql.Parse(`SELECT ` + strings.Join(cols, " + ") + ` FROM stl_query`); err != nil {
		t.Errorf("the verify one-liner does not parse: %v", err)
	}
}
