package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"redshift"
	"redshift/benchmark/span"
	"redshift/benchmark/stream"
	"redshift/internal/cluster"
	"redshift/internal/storage"
	"redshift/internal/wire"
)

// maxResends is how often a retryable error reply is resent before the
// statement counts as failed.
const maxResends = 3

// numClients is C: closed-loop connections, min(nproc, 4). Closed loop
// because a warehouse's callers — BI tools, ETL jobs — each wait for their
// reply before sending the next statement.
func numClients() int { return min(runtime.NumCPU(), 4) }

// instance is one launched warehouse served on loopback TCP, with its
// replay connections open and warmed.
type instance struct {
	w     *stream.Workload
	wh    *redshift.Warehouse
	srv   *wire.Server
	conns []*conn

	// warm is the untimed warm-up replay that ended set-up.
	warm     *window
	setupS   float64
	copyRows int
	copyS    float64
}

// settings are the per-statement session settings a session currently has.
type settings struct{ workMem, group string }

// settle issues, through exec, the SETs that bring a session from its
// current settings to the ones stmt needs.
func (cur *settings) settle(s stream.Stmt, exec func(string) error) error {
	if s.WorkMem != cur.workMem {
		v := s.WorkMem
		if v == "" {
			v = "default"
		}
		if err := exec(fmt.Sprintf(`SET work_mem TO '%s'`, v)); err != nil {
			return err
		}
		cur.workMem = s.WorkMem
	}
	if s.QueryGroup != cur.group {
		v := s.QueryGroup
		if v == "" {
			v = "none"
		}
		if err := exec(`SET query_group TO ` + v); err != nil {
			return err
		}
		cur.group = s.QueryGroup
	}
	return nil
}

// conn is one replay connection and the session settings it currently has.
type conn struct {
	c *wire.Client
	settings
}

// exec runs a control statement that must succeed.
func (c *conn) exec(q string) error {
	resp, err := c.c.Query(q)
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("%s: %s", q, resp.Error)
	}
	return nil
}

// query sends one statement, resending a retryable error reply up to
// maxResends times. A transport error is returned as err.
func (c *conn) query(q string) (resp *wire.Response, resends int, err error) {
	for {
		resp, err = c.c.Query(q)
		if err != nil || resp.Error == "" || !resp.Retryable || resends == maxResends {
			return resp, resends, err
		}
		resends++
		time.Sleep(time.Duration(resends) * 200 * time.Microsecond)
	}
}

// options maps the workload's needs onto warehouse options. Everything is
// the engine default except what the workload's definition states.
func options(w *stream.Workload, spillDir string, interpreted bool) redshift.Options {
	o := redshift.Options{Nodes: 2, SlicesPerNode: 2, SpillDir: spillDir, Interpreted: interpreted}
	if w.BlockCacheFrac > 0 {
		o.BlockCacheBytes = int64(float64(w.Tables[0].DecodedBytes) * w.BlockCacheFrac)
	}
	if w.NamedQueues {
		// cmd/redshift-workload's queues; the etl queue has a single slot so
		// two concurrent transforms queue and core.queue_ms has something to
		// report.
		o.WLMQueues = []redshift.QueueSpec{
			{Name: "express", Slots: 2, MaxEstRows: 20_000, Priority: 10},
			{Name: "dash", Slots: 2, Priority: 5},
			{Name: "etl", Slots: 1, MemFraction: 0.5},
			{Name: "default", Slots: 2},
		}
	}
	return o
}

// load creates and fills the workload's tables: DDL + PutObject + COPY per
// table, then the Setup statements — or, for an INSERT-loaded workload on
// the warehouse under test, the Setup statements alone. skipMutable leaves
// out tables the stream writes to (the reference engine never reads them).
func load(wh *redshift.Warehouse, w *stream.Workload, viaCopy, skipMutable bool) (copyRows int, copyS float64, err error) {
	if viaCopy {
		for _, t := range w.Tables {
			if skipMutable && t.Mutable {
				continue
			}
			if _, err := wh.Execute(t.DDL); err != nil {
				return 0, 0, fmt.Errorf("create %s: %w", t.Name, err)
			}
			for i, obj := range t.Objects {
				if err := wh.PutObject(fmt.Sprintf("lake/%s/part%02d.csv", t.Name, i), obj); err != nil {
					return 0, 0, err
				}
			}
			t0 := time.Now()
			if _, err := wh.Execute(fmt.Sprintf(`COPY %s FROM 's3://lake/%s/'`, t.Name, t.Name)); err != nil {
				return 0, 0, fmt.Errorf("copy %s: %w", t.Name, err)
			}
			copyS += time.Since(t0).Seconds()
			copyRows += t.Rows
		}
	}
	if viaCopy && w.InsertLoad {
		return copyRows, copyS, nil // Setup is the INSERT script COPY just replaced
	}
	for _, s := range w.Setup {
		if _, err := wh.Execute(s); err != nil {
			return 0, 0, fmt.Errorf("setup %.60s: %w", s, err)
		}
	}
	return copyRows, copyS, nil
}

// launch performs one full set-up: launch the warehouse, load and ANALYZE,
// serve it on loopback, open and initialise the replay connections, and
// replay the untimed warm-up prefix. Its wall time is setup_s. A twin is the
// reference engine instead: interpreted execution, immutable tables only,
// always bulk-loaded, no warm-up.
func launch(w *stream.Workload, clients int, spillDir string, twin bool) (*instance, error) {
	t0 := time.Now()
	wh, err := redshift.Launch(options(w, spillDir, twin))
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, wh: wh}
	if in.copyRows, in.copyS, err = load(wh, w, twin || !w.InsertLoad, twin); err != nil {
		wh.Close()
		return nil, err
	}
	in.srv = wire.NewSessionServer(func() wire.SessionExecutor { return wh.NewWireSession() })
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		wh.Close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			in.close()
			return nil, err
		}
		cn := &conn{c: c}
		in.conns = append(in.conns, cn)
		for _, s := range w.SessionInit {
			if err := cn.exec(s); err != nil {
				in.close()
				return nil, err
			}
		}
	}
	if twin {
		return in, nil
	}
	in.warm = in.replay(replayArgs{stmts: func(i int) stream.Stmt { return w.Warmup[i] }, n: len(w.Warmup)})
	in.setupS = time.Since(t0).Seconds()
	if errs := in.warm.errors(); len(errs) > 0 {
		in.close()
		return nil, fmt.Errorf("warm-up: %s", errs[0])
	}
	return in, nil
}

// close stops the server and every connection and releases the warehouse.
func (in *instance) close() {
	for _, c := range in.conns {
		c.c.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
	in.wh.Close()
}

// sample is one replayed statement's outcome. It keeps the statement's
// kind and accounting but not its text (Workload.At re-renders that from
// the id), so a long serve_point window stays small in memory.
type sample struct {
	id        int // position in the stream (warm-up first)
	kind      string
	verify    bool
	sqlHash   uint64 // of the statement text: equal texts must give equal digests
	insRows   int    // rows and raw bytes a write added
	userBytes int
	lat       time.Duration
	resends   int
	err       string // transport or final error reply
	digest    uint64 // of the reply, for verify statements
	rows      int
	cached    bool
	execMs    float64
	stats     wire.Stats
}

// counters is a point-in-time reading of everything cumulative the engine
// and the runtime expose; per-layer C metrics are differences of two.
type counters struct {
	cpu                                 time.Duration
	mallocs, allocBytes, gcPauseNs      uint64
	cache                               storage.CacheStats
	planHits, planMisses, planInval     int64
	resultInval                         int64
	morsels, spilledQueries, spillBytes int64
	netShuffle, netBroadcast, netGather int64
}

func (in *instance) counters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	db := in.wh.DB()
	c.cache = db.BlockCache().Stats()
	if res, err := in.wh.Execute(`SELECT hits, misses, invalidations FROM stv_plan_cache`); err == nil && len(res.Rows) == 1 {
		c.planHits, c.planMisses, c.planInval = res.Rows[0][0].I, res.Rows[0][1].I, res.Rows[0][2].I
	}
	if res, err := in.wh.Execute(`SELECT invalidations FROM stv_result_cache`); err == nil && len(res.Rows) == 1 {
		c.resultInval = res.Rows[0][0].I
	}
	m := in.wh.Metrics()
	c.morsels = m.Counter("morsels_dispatched_total").Value()
	c.spilledQueries = m.Counter("spilled_queries_total").Value()
	c.spillBytes = m.Counter("spill_bytes_total").Value()
	cl := db.Cluster()
	c.netShuffle = cl.NetBytesByKind(cluster.TransferShuffle)
	c.netBroadcast = cl.NetBytesByKind(cluster.TransferBroadcast)
	c.netGather = cl.NetBytesByKind(cluster.TransferGather)
	return c
}

// window is one closed-loop replay: its samples, the wall-clock span from
// first send to last reply, and the counter readings around it.
type window struct {
	samples       []sample
	start, end    time.Time
	before, after counters
	// busy is the summed time clients spent waiting for the server; clients
	// × wall minus busy is the time the generator held things up.
	busy    time.Duration
	clients int
	// handed is how many statements were taken off the queue (all of them
	// ran); exhausted reports that the stream ran out before the deadline.
	handed    int
	exhausted bool
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func (w *window) errors() []string {
	var out []string
	for _, s := range w.samples {
		if s.err != "" {
			out = append(out, fmt.Sprintf("stmt %d (%s): %s", s.id, s.kind, s.err))
		}
	}
	return out
}

// replayArgs describes one replay: statements 0..n-1 from stmts, stopping
// early at deadline (zero = none); ids are idBase+i. rec, when non-nil,
// receives one wire.query root span per statement with the engine-reported
// stages as children — the traced half window.
type replayArgs struct {
	stmts    func(i int) stream.Stmt
	n        int
	idBase   int
	deadline time.Duration
	rec      *span.Recorder
}

// replay runs the statements closed-loop: every connection pulls the next
// statement from one ordered queue, waits for its reply, and pulls again.
func (in *instance) replay(a replayArgs) *window {
	win := &window{clients: len(in.conns)}
	win.before = in.counters()
	var next atomic.Int64
	var stop time.Time
	per := make([][]sample, len(in.conns))
	busy := make([]time.Duration, len(in.conns))
	var wg sync.WaitGroup
	win.start = time.Now()
	if a.deadline > 0 {
		stop = win.start.Add(a.deadline)
	}
	for ci, c := range in.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for {
				if !stop.IsZero() && !time.Now().Before(stop) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= a.n {
					return
				}
				stmt := a.stmts(i)
				s := sample{id: a.idBase + i, kind: stmt.Kind, verify: stmt.Verify, insRows: stmt.Rows, userBytes: stmt.UserBytes}
				// The SETs are server round trips too: they count as busy time,
				// though not towards the statement's latency.
				t0 := time.Now()
				if err := c.settle(stmt, c.exec); err != nil {
					s.err = err.Error()
					per[ci] = append(per[ci], s)
					continue
				}
				root := a.rec.Begin("wire.query", -1, s.id)
				t1 := time.Now()
				resp, resends, err := c.query(stmt.SQL)
				s.lat = time.Since(t1)
				a.rec.End(root)
				busy[ci] += time.Since(t0)
				s.resends = resends
				switch {
				case err != nil:
					s.err = err.Error()
				case resp.Error != "":
					s.err = resp.Error
				default:
					s.rows, s.cached, s.execMs = len(resp.Rows), resp.Cached, resp.ExecMillis
					if resp.Stats != nil {
						s.stats = *resp.Stats
					}
					if s.verify {
						s.sqlHash, s.digest = hashString(stmt.SQL), digest(resp)
					}
					if a.rec != nil {
						stages(a.rec, root, s.id, &s)
					}
				}
				per[ci] = append(per[ci], s)
			}
		}(ci, c)
	}
	wg.Wait()
	win.end = time.Now()
	win.after = in.counters()
	for ci := range per {
		win.samples = append(win.samples, per[ci]...)
		win.busy += busy[ci]
	}
	sort.Slice(win.samples, func(i, j int) bool { return win.samples[i].id < win.samples[j].id })
	if win.handed = int(next.Load()); win.handed > a.n {
		win.handed = a.n
	}
	win.exhausted = a.deadline > 0 && win.end.Before(stop)
	return win
}

// stages lays the engine-reported queue, plan and exec times end to end
// under a statement's root span. Exec is what remains of the server-side
// time once queue and plan are taken out.
func stages(rec *span.Recorder, root, stmt int, s *sample) {
	at := rec.StartOf(root)
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	queue, planT := ms(s.stats.QueueMillis), ms(s.stats.PlanMillis)
	run := ms(s.execMs) - queue - planT
	if run < 0 {
		run = 0
	}
	rec.Add("core.queue", root, stmt, at, queue)
	rec.Add("core.plan", root, stmt, at+queue, planT)
	rec.Add("exec.run", root, stmt, at+queue+planT, run)
}

// streamStmts adapts a workload's lazily rendered blocks to replay's
// index → statement function, keeping the few blocks the clients are
// currently passing through so each is rendered once.
func streamStmts(w *stream.Workload) func(i int) stream.Stmt {
	var mu sync.Mutex
	cache := map[int][]stream.Stmt{}
	return func(i int) stream.Stmt {
		b := i / w.BlockLen
		mu.Lock()
		blk, ok := cache[b]
		if !ok {
			blk = w.Block(b)
			cache[b] = blk
			delete(cache, b-4) // clients are never more than a block or two apart
		}
		mu.Unlock()
		return blk[i%w.BlockLen]
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}

// storedBytes sums the encoded size of every table of the workload.
func (in *instance) storedBytes() int64 {
	db := in.wh.DB()
	var n int64
	for _, def := range db.Catalog().List() {
		n += db.Cluster().TableBytes(def.ID)
	}
	return n
}

// spillDirFor returns a scratch directory for spills inside the output
// directory, so the benchmark writes nothing outside its checkout.
func spillDirFor(outDir string) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("spill-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
