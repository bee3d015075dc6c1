package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/cluster"
	"redshift/internal/exec"
	"redshift/internal/plan"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// exchangeBuf is the per-(src,dst) slack of an exchange, in batches. Small
// on purpose: it is what bounds a query's in-flight memory to
// O(slices × pipeline depth) instead of O(intermediate result size).
const exchangeBuf = 2

// DOP policy constants.
const (
	// parallelRowsThreshold is the estimated base-scan cardinality below
	// which a query's pipelines run with one worker: short queries (the
	// serving fast path) must not pay goroutine fan-out and partial-state
	// merge overhead. Unknown estimates (-1) also stay at one —
	// parallelism is an optimization, never a guess.
	parallelRowsThreshold = 32768
	// parallelWorkerMinBytes is the minimum share of the query's memory
	// grant one worker must have before it is worth spinning up: workers
	// carry their own partial agg/sort state, and slicing a tiny grant
	// across many workers would just trigger earlier spills.
	parallelWorkerMinBytes = 64 << 10
)

// queryRun carries one SELECT's execution state.
type queryRun struct {
	db    *Database
	p     *plan.Plan
	mode  exec.Mode
	scans *exec.ScanStats
	view  *readView // nil for system-table queries, which read no segments
	// run is the statement's lifecycle — its id, its stage clock, its root
	// span (a system-table query has neither id nor span: it is not logged
	// or traced). reqDOP is the session's SET max_parallel_workers override
	// (-1 = automatic).
	run    *stmtRun
	reqDOP int64
	// sys, when set, resolves scans from materialized in-memory rows: the
	// system-table path, which runs leader-only on one "slice".
	sys map[*catalog.TableDef][]types.Row

	// Execution state, built by execute(). stats/scanInsts/exBytes are
	// indexed/keyed by physical node ID.
	ph        *plan.Physical
	flight    *exec.FlightTracker
	stats     []*exec.OpStats
	scanInsts [][]scanInstance
	exs       map[int]*exec.Exchange
	exBytes   map[int]*atomic.Int64
	// gathered is the per-slice gather stream (non-aggregate plans), which
	// the leader's merge consumes; aggTables the per-slice partial
	// aggregates, aggGroups their group counts snapshotted before the
	// leader merge.
	gathered  [][]*exec.Batch
	aggTables []*exec.GroupTable
	aggGroups []int64
	// gatherBytes totals the bytes shipped to the leader (merge span attr).
	gatherBytes atomic.Int64

	// dop is the worker count a pipeline over a table scan runs with; par
	// carries the live counters of the N > 1 ones (nil for system-table
	// queries). goroutines counts the tasks execute() launched. mu guards
	// the lazily built nodeMem/nodeSpill/scanInsts state, which every task
	// touches from its own goroutine.
	dop        int
	par        *exec.FanoutStats
	goroutines int64
	mu         sync.Mutex

	// Memory governance (nil for system-table queries, which run
	// leader-only over already-materialized rows).
	mem       *exec.MemTracker
	spillDir  *exec.SpillDir
	leaderAgg *exec.GroupTable
	nodeMem   map[int]*exec.MemTracker
	nodeSpill map[int]*exec.SpillStats
}

// memCtx hands an operator instance its memory context: a fresh child of
// the physical node's tracker (so EXPLAIN ANALYZE gets per-node peaks and
// each instance's Close releases only its own charges), plus the query
// scratch dir and the node's spill stats.
func (q *queryRun) memCtx(n *plan.PhysNode) *exec.MemContext {
	if q.mem == nil || n == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.nodeMem == nil {
		q.nodeMem = map[int]*exec.MemTracker{}
		q.nodeSpill = map[int]*exec.SpillStats{}
	}
	nt, ok := q.nodeMem[n.ID]
	if !ok {
		nt = q.mem.Child()
		q.nodeMem[n.ID] = nt
		q.nodeSpill[n.ID] = &exec.SpillStats{}
	}
	return &exec.MemContext{T: nt.Child(), Dir: q.spillDir, Stats: q.nodeSpill[n.ID]}
}

// scanInstance is one slice's instantiation of a physical scan node; its
// counters fold into the query totals and stv_slice_stats after the run.
type scanInstance struct {
	// slice is the slice whose storage this instance read (for a replicated
	// build table, the node's home slice — every slice of the node reads the
	// same local copy).
	slice int
	stats *exec.ScanStats
}

// numSlices returns the execution width: every slice for data-plane
// queries, a single leader slice for system-table queries.
func (q *queryRun) numSlices() int {
	if q.sys != nil {
		return 1
	}
	return q.db.cl.NumSlices()
}

// chooseDOP picks how many workers the query's table-scan pipelines run
// with, from the cost estimates, the configured cap and the memory grant.
// A session's SET max_parallel_workers override forces it outright (the
// twin batteries pin it on arbitrarily small tables).
func (q *queryRun) chooseDOP() int {
	if q.sys != nil {
		return 1
	}
	if q.reqDOP >= 1 {
		return int(q.reqDOP)
	}
	max := q.db.maxParallelWorkers()
	if max <= 1 {
		return 1
	}
	if q.ph.Base.EstRows < parallelRowsThreshold {
		return 1
	}
	dop := max
	if q.mem != nil {
		if grant := q.mem.Limit(); grant > 0 {
			if byMem := int(grant / parallelWorkerMinBytes); byMem < dop {
				dop = byMem
			}
			if dop < 1 {
				dop = 1
			}
		}
	}
	return dop
}

// execute lowers the plan to its physical tree and runs it as a streaming
// dataflow of exec.Pipelines: per slice, one pipeline per segment of the
// plan (segments are cut where a DS_DIST_BOTH join re-shuffles the probe
// side), plus one per build-side exchange producer. Each runs on its own
// goroutine with q.dop workers when its source is a table scan, so
// intermediate results are never materialized between stages — peak live
// batches are O(slices × workers), bounded by the exchange buffers and one
// outstanding batch per worker. The leader phase is one more pipeline, run
// inline: it merges the slice results into the final batch.
func (q *queryRun) execute(ctx context.Context) (*exec.Batch, error) {
	nslices := q.numSlices()
	q.ph = q.p.Physical()
	ph := q.ph
	q.stats = make([]*exec.OpStats, len(ph.Nodes))
	for i := range q.stats {
		q.stats[i] = &exec.OpStats{}
	}
	q.scanInsts = make([][]scanInstance, len(ph.Nodes))
	q.exs = map[int]*exec.Exchange{}
	q.exBytes = map[int]*atomic.Int64{}
	m := q.db.metrics
	q.flight = exec.NewFlightTracker(m.Gauge("exec_batches_in_flight"))

	// Pick the worker count before any pipeline is built, and publish it
	// for stv_exec_workers.
	q.dop = q.chooseDOP()
	if q.sys == nil {
		q.par = &exec.FanoutStats{DOP: q.dop, Live: m.Gauge("exec_parallel_workers")}
		q.run.attachExec(q.par)
	}

	if q.p.HasAgg {
		q.aggTables = make([]*exec.GroupTable, nslices)
		q.aggGroups = make([]int64, nslices)
	} else {
		q.gathered = make([][]*exec.Batch, nslices)
	}
	defer func() {
		// By the time any return runs, every task has been joined (or never
		// launched), so draining the exchange buffers is safe — it retires
		// the batches an early stop (error, cancel, timeout) parked in
		// flight, keeping exec_batches_in_flight at zero between queries.
		for _, ex := range q.exs {
			ex.Drain()
		}
		// Gathered batches the leader never got to consume (an early stop in
		// either phase) are still parked in flight.
		for _, bs := range q.gathered {
			for _, b := range bs {
				if b != nil {
					q.flight.Dec()
					exec.PutBatch(b)
				}
			}
		}
		q.foldScanStats()
		if q.par != nil {
			m.Counter("morsels_dispatched_total").Add(q.par.Morsels.Load())
			q.goroutines += q.par.Started.Load()
		}
		m.Counter("exec_goroutines_total").Add(q.goroutines)
		m.Gauge("exec_batches_in_flight_peak").Set(q.flight.HighWater())
		q.emitSpans()
	}()

	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	spawn := func(task func() error) {
		q.goroutines++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := task(); err != nil {
				once.Do(func() { first = err })
				// Unblock every producer and consumer parked on an exchange.
				q.abortExchanges(err)
			}
		}()
	}

	// Exchanges are shared across slices, so all of them (and the build
	// sides' routes) exist before any task starts. cuts are the joins whose
	// probe side is re-shuffled.
	var cuts []int
	routes := make([]exec.RouteFn, len(ph.Joins))
	for ji := range ph.Joins {
		pj := &ph.Joins[ji]
		if pj.ProbeEx != nil {
			q.newExchange(pj.ProbeEx, nslices)
			cuts = append(cuts, ji)
		}
		if pj.BuildEx == nil {
			continue
		}
		q.newExchange(pj.BuildEx, nslices)
		routes[ji] = exec.BroadcastRoute(nslices)
		if pj.BuildEx.ExKind != plan.ExchangeBroadcast {
			var err error
			if routes[ji], err = exec.NewShuffleRouter(q.mode, q.p.Joins[ji].RightKeys, nslices); err != nil {
				return nil, err
			}
		}
	}
	// Build-side exchange producers: a scan pipeline with no stages whose
	// sink is the routed send.
	for ji, route := range routes {
		if route == nil {
			continue
		}
		pj := &ph.Joins[ji]
		for src := 0; src < nslices; src++ {
			spawn(func() error {
				p, err := q.scanPipeline(pj.BuildScan, src, q.dop)
				if err != nil {
					return err
				}
				return q.exs[pj.BuildEx.ID].Run(ctx, src, p, route)
			})
		}
	}
	// One task per slice per segment: segment i covers joins
	// [bounds[i-1], bounds[i]) and all of a slice's segments run concurrently.
	bounds := append(cuts, len(ph.Joins))
	for sl := 0; sl < nslices; sl++ {
		var recv *plan.PhysNode // nil: the segment starts at the base scan
		lo := 0
		for _, hi := range bounds {
			from, start := recv, lo
			spawn(func() error { return q.runSegment(ctx, sl, from, start, hi) })
			if hi < len(ph.Joins) {
				recv, lo = ph.Joins[hi].ProbeEx, hi
			}
		}
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}

	q.run.enter(telemetry.StageLeader)
	return q.runLeader(ctx)
}

// runLeader is the leader phase as a pipeline: the source merges the slice
// results (partial group tables, or the gathered batch lists), the stages
// are HAVING and the projection of an aggregate query, and the sink builds
// the result — a one-worker TopNSink under ORDER BY, otherwise an ordered
// collect cut at LIMIT — behind a DISTINCT sieve when one is asked for.
// Either sink yields exactly one freshly materialized, possibly empty batch;
// what the sieve and the collect charge for it stays charged until the
// query's tracker is released, since the caller still reads the batch.
func (q *queryRun) runLeader(ctx context.Context) (*exec.Batch, error) {
	ph := q.ph
	var p *exec.Pipeline
	if q.p.HasAgg {
		ship := func(sl int, t *exec.GroupTable) {
			// Partial-state shipping accounts the real encoded state size.
			shipped := t.StateBytes()
			q.account(q.db.cl.Slice(sl).Node.ID, -1, shipped, cluster.TransferGather)
			q.gatherBytes.Add(shipped)
		}
		leaderGt, err := exec.NewGroupTable(q.mode, q.p.GroupBy, q.p.Aggs)
		if err != nil {
			return nil, err
		}
		leaderGt.SetMemory(q.memCtx(ph.LeaderAgg))
		q.leaderAgg = leaderGt
		p = q.opPipeline(exec.NewGroupMergeOp(leaderGt, q.aggTables, ship), ph.LeaderAgg)
		if ph.Having != nil {
			p.Stages = append(p.Stages, q.filterStage(ph.Having, q.p.Having))
		}
		p.Stages = append(p.Stages, q.projectStage())
	} else {
		p = q.opPipeline(exec.NewLeaderMergeOp(q.gathered, q.flight), ph.Merge)
	}

	st := q.stats[ph.Finalize.ID]
	p.SinkStats = st
	if q.p.Distinct {
		dedupe := exec.NewDeduper(q.memCtx(ph.Finalize))
		p.Stages = append(p.Stages, exec.Stage{New: func() (exec.StageFn, error) { return dedupe.Apply, nil }})
	}
	var final *exec.Batch
	width := len(q.p.Project)
	if len(q.p.OrderBy) > 0 {
		mem := func() *exec.MemContext { return q.memCtx(ph.Finalize) }
		p.Sink = exec.NewTopNSink(q.p.OrderBy, q.p.Limit, width, mem, nil, func(b *exec.Batch) error {
			final = b
			return nil
		})
	} else {
		final = exec.NewBatch(width)
		p.Sink = exec.NewOrderedSink(exec.Collect(final, q.p.Limit, q.memCtx(ph.Finalize)))
	}
	if err := p.Run(ctx); err != nil {
		return nil, err
	}
	st.Batches.Add(1)
	st.Rows.Add(int64(final.N))
	return final, nil
}

// runSegment is THE rendering of plan.Physical into execution: slice sl's
// share of joins [lo, hi) as a pipeline. The source is the base scan's
// morsel queue or, when recv is set, the receive side of join lo's probe
// shuffle; the stages are the join probes and — past the last join — the
// residual filter and the projection; the sink is the routed send into
// join hi's probe shuffle or, for the last segment, the slice's result:
// partial aggregation, ordered distinct, top-N or the plain ordered gather.
//
// A join whose build overflowed its grant pins the segment to one worker
// (the grace join threads probe sequence numbers through scratch files,
// which has no morsel decomposition) and cuts it in two pipelines run back
// to back: everything up to the join drains into its probe partitions, and
// its merged output — row for row the in-memory order — sources the rest.
func (q *queryRun) runSegment(ctx context.Context, sl int, recv *plan.PhysNode, lo, hi int) error {
	ph := q.ph
	nslices := q.numSlices()

	joins := make([]*exec.HashJoin, 0, hi-lo)
	defer func() {
		for _, j := range joins {
			j.ReleaseMem()
		}
	}()
	workers := q.dop
	for ji := lo; ji < hi; ji++ {
		j, err := q.buildJoin(ctx, sl, ji)
		if j != nil {
			joins = append(joins, j)
		}
		if err != nil {
			return err
		}
		if j.Spilled() {
			workers = 1
		}
	}

	var p *exec.Pipeline
	switch {
	case recv != nil:
		p = q.recvPipeline(recv, sl)
	case q.sys == nil && ph.Base.Scan.Def.DistStyle == catalog.DistAll && sl >= q.db.cl.Config().SlicesPerNode:
		// A replicated base table is duplicated per node; only the first
		// node's slices scan it (reading every copy would multiply rows).
		p = q.opPipeline(exec.NewBatchSource(nil), ph.Base)
	default:
		var err error
		if p, err = q.scanPipeline(ph.Base, sl, workers); err != nil {
			return err
		}
	}
	for i, j := range joins {
		probe := ph.Joins[lo+i].Probe
		if j.Spilled() {
			p.Sink, p.SinkStats = exec.NewOrderedSink(j.SpillProbe), q.stats[probe.ID]
			if err := p.Run(ctx); err != nil {
				return err
			}
			p = q.opPipeline(j.SpillOutput(), probe)
			continue
		}
		p.Stages = append(p.Stages, exec.Stage{Stats: q.stats[probe.ID],
			New: func() (exec.StageFn, error) { return j.Probe, nil }})
	}

	if hi < len(ph.Joins) {
		// DS_DIST_BOTH: this segment is the shuffle's producer; the next one
		// continues from the exchange's output.
		route, err := exec.NewShuffleRouter(q.mode, q.p.Joins[hi].LeftKeys, nslices)
		if err != nil {
			return err
		}
		return q.exs[ph.Joins[hi].ProbeEx.ID].Run(ctx, sl, p, route)
	}

	if ph.Where != nil {
		p.Stages = append(p.Stages, q.filterStage(ph.Where, q.p.Where))
	}
	if q.p.HasAgg {
		sink := exec.NewAggSink(func() (*exec.GroupTable, error) {
			gt, err := exec.NewGroupTable(q.mode, q.p.GroupBy, q.p.Aggs)
			if err != nil {
				return nil, err
			}
			gt.SetMemory(q.memCtx(ph.PartialAgg))
			return gt, nil
		})
		p.Sink, p.SinkStats = sink, q.stats[ph.PartialAgg.ID]
		if err := p.Run(ctx); err != nil {
			return err
		}
		// The slice's output is its merged table, counted once: rows = groups,
		// whatever the worker count.
		q.aggTables[sl] = sink.Table()
		q.aggGroups[sl] = int64(sink.Table().NumGroups())
		p.SinkStats.Batches.Add(1)
		p.SinkStats.Rows.Add(q.aggGroups[sl])
		return nil
	}

	p.Stages = append(p.Stages, q.projectStage())
	// Collecting a batch at the leader is the gather transfer. Parked
	// batches are flight-tracked until the leader's merge takes them (or,
	// after an early stop, execute's cleanup does); empties carry nothing
	// and go straight back to the pool.
	node := q.db.cl.Slice(sl).Node.ID
	gather := func(b *exec.Batch) error {
		if b.N == 0 {
			exec.PutBatch(b)
			return nil
		}
		sz := b.ByteSize()
		q.account(node, -1, sz, cluster.TransferGather)
		q.gatherBytes.Add(sz)
		q.flight.Inc()
		q.gathered[sl] = append(q.gathered[sl], b)
		return nil
	}
	switch {
	case ph.Distinct != nil:
		// The ordered tail drops duplicates against everything the slice
		// already emitted. Several workers each pre-sieve their own stream
		// first: a worker's sequences increase, so the globally first
		// occurrence of any key always survives its worker's sieve, and the
		// tail still sees — and keeps — exactly the one-worker survivors.
		if p.Workers() > 1 {
			p.Stages = append(p.Stages, exec.Stage{New: func() (exec.StageFn, error) {
				return exec.NewDeduper(q.memCtx(ph.Distinct)).Apply, nil
			}})
		}
		st := q.stats[ph.Distinct.ID]
		p.Sink, p.SinkStats = exec.NewOrderedSink(exec.NewDeduper(q.memCtx(ph.Distinct)).Emit(st, gather)), st
	case ph.TopN != nil:
		st := q.stats[ph.TopN.ID]
		mem := func() *exec.MemContext { return q.memCtx(ph.TopN) }
		p.Sink, p.SinkStats = exec.NewTopNSink(q.p.OrderBy, q.p.Limit, len(q.p.Project), mem, st, gather), st
	default:
		p.Sink = exec.NewOrderedSink(gather)
	}
	return p.Run(ctx)
}

// buildJoin drains join ji's build side on slice sl — an exchange receive,
// or a one-worker scan of the local (collocated or replicated) table —
// into a fresh hash table. With q.dop > 1 the key inserts are deferred to
// a parallel FinishBuild. The join is returned even on error so the
// caller's release covers it.
func (q *queryRun) buildJoin(ctx context.Context, sl, ji int) (*exec.HashJoin, error) {
	pj := &q.ph.Joins[ji]
	step := &q.p.Joins[ji]
	right := q.p.Tables[step.Right]
	join, err := exec.NewHashJoin(q.mode, *step, len(right.Def.Columns))
	if err != nil {
		return nil, err
	}
	join.SetMemory(q.memCtx(pj.Probe))
	join.SetSizeHint(q.ph.BuildDemand(ji, q.numSlices()))
	join.SetBuildWorkers(q.dop)

	var p *exec.Pipeline
	switch {
	case pj.BuildEx != nil:
		p = q.recvPipeline(pj.BuildEx, sl)
	case q.sys == nil && step.Strategy == plan.StrategyBroadcast && right.Def.DistStyle == catalog.DistAll:
		// Already replicated: every slice reads its node's local copy.
		spn := q.db.cl.Config().SlicesPerNode
		p, err = q.scanPipeline(pj.BuildScan, (sl/spn)*spn, 1)
	default: // collocated
		p, err = q.scanPipeline(pj.BuildScan, sl, 1)
	}
	if err != nil {
		return join, err
	}
	// Build-side batches are never released: a broadcast exchange shares
	// one batch across every consumer slice.
	st := q.stats[pj.Probe.ID]
	p.Sink, p.SinkStats = exec.NewOrderedSink(join.Build), st
	if err := p.Run(ctx); err != nil {
		return join, err
	}
	start := time.Now()
	err = join.FinishBuild(ctx)
	st.Nanos.Add(int64(time.Since(start)))
	return join, err
}

// filterStage is predicate pred as node n's step: the residual WHERE on a
// slice, HAVING at the leader.
func (q *queryRun) filterStage(n *plan.PhysNode, pred plan.Expr) exec.Stage {
	return exec.Stage{Stats: q.stats[n.ID], New: func() (exec.StageFn, error) {
		f, err := exec.NewFilter(q.mode, pred)
		if err != nil {
			return nil, err
		}
		return f.Apply, nil
	}}
}

// projectStage computes the output columns: a slice's last step, or the
// leader's over the merged aggregate layout.
func (q *queryRun) projectStage() exec.Stage {
	return exec.Stage{Stats: q.stats[q.ph.Project.ID], New: func() (exec.StageFn, error) {
		proj, err := exec.NewProjector(q.mode, q.p.Project)
		if err != nil {
			return nil, err
		}
		return proj.Apply, nil
	}}
}

// newPipeline starts a pipeline whose source (still to be set) produces
// node n's output, stats-wise.
func (q *queryRun) newPipeline(n *plan.PhysNode) *exec.Pipeline {
	return &exec.Pipeline{SrcStats: q.stats[n.ID], Flight: q.flight, Fanout: q.par}
}

// opPipeline starts a pipeline over a serial source.
func (q *queryRun) opPipeline(op exec.Operator, n *plan.PhysNode) *exec.Pipeline {
	p := q.newPipeline(n)
	p.Op = op
	return p
}

// recvPipeline starts a pipeline from slice sl's receive side of exchange
// node n.
func (q *queryRun) recvPipeline(n *plan.PhysNode, sl int) *exec.Pipeline {
	return q.opPipeline(exec.NewRecvOp(q.exs[n.ID], sl), n)
}

// scanPipeline starts a pipeline from scan node n reading statSlice's
// visible segments with the given number of workers — the only place
// Scanners are made. The workers share one ScanStats, registered for
// post-run folding, so the counters match a one-worker run. System tables
// have no blocks: their materialized rows are a serial source.
func (q *queryRun) scanPipeline(n *plan.PhysNode, statSlice, workers int) (*exec.Pipeline, error) {
	if q.sys != nil {
		op, err := q.sysRows(n)
		return q.opPipeline(op, n), err
	}
	local := &exec.ScanStats{}
	q.mu.Lock()
	q.scanInsts[n.ID] = append(q.scanInsts[n.ID], scanInstance{slice: statSlice, stats: local})
	q.mu.Unlock()
	scanners := make([]*exec.Scanner, workers)
	for w := range scanners {
		sc, err := exec.NewScanner(q.mode, n.Scan, q.db.cl.FetchBlockCtx, local)
		if err != nil {
			return nil, err
		}
		// Before the segments are resolved below: beginRead, step 3.
		sc.SetCache(q.db.cache)
		sc.SetFaults(q.db.inj)
		scanners[w] = sc
	}
	p := q.newPipeline(n)
	p.Scan = &exec.ScanSource{
		Queue:    exec.NewMorselQueue(q.view.segments(statSlice, n.Scan.Def.ID)),
		Scanners: scanners,
	}
	return p, nil
}

// sysRows materializes a system table's rows and applies the pushed-down
// filter; system queries run leader-only against in-memory rows.
func (q *queryRun) sysRows(n *plan.PhysNode) (exec.Operator, error) {
	scan := n.Scan
	schema := make([]types.Type, len(scan.Def.Columns))
	for i, c := range scan.Def.Columns {
		schema[i] = c.Type
	}
	b := exec.FromRows(schema, q.sys[scan.Def])
	f, err := exec.NewFilter(q.mode, scan.Filter)
	if err != nil {
		return nil, err
	}
	if b, err = f.Apply(b); err != nil {
		return nil, err
	}
	return exec.NewBatchSource([]*exec.Batch{b}), nil
}

// newExchange creates the shared exchange behind one physical movement
// node, wiring transfer accounting and cross-node byte attribution in.
func (q *queryRun) newExchange(n *plan.PhysNode, nslices int) *exec.Exchange {
	bytes := &atomic.Int64{}
	q.exBytes[n.ID] = bytes
	kind := cluster.TransferShuffle
	if n.ExKind == plan.ExchangeBroadcast {
		kind = cluster.TransferBroadcast
	}
	account := func(src, dst int, b *exec.Batch) {
		srcNode := q.db.cl.Slice(src).Node.ID
		dstNode := q.db.cl.Slice(dst).Node.ID
		sz := b.ByteSize()
		q.account(srcNode, dstNode, sz, kind)
		if srcNode != dstNode {
			bytes.Add(sz)
		}
	}
	ex := exec.NewExchange(nslices, exchangeBuf, account, q.flight)
	ex.SetFaults(q.db.inj)
	q.exs[n.ID] = ex
	return ex
}

// abortExchanges fails every exchange so no producer or consumer stays
// parked on a channel after an error elsewhere in the dataflow.
func (q *queryRun) abortExchanges(err error) {
	for _, ex := range q.exs {
		ex.Abort(err)
	}
}

// account records cross-node traffic for data-plane queries; system-table
// queries run leader-only, so their batch movement is not network traffic.
func (q *queryRun) account(fromNode, toNode int, bytes int64, kind cluster.TransferKind) {
	if q.sys == nil {
		q.db.cl.AccountTransfer(fromNode, toNode, bytes, kind)
	}
}

// foldScanStats merges every scan instance's counters into the query-wide
// totals and the owning slice's cumulative stv_slice_stats counters.
func (q *queryRun) foldScanStats() {
	if q.sys != nil {
		return
	}
	for _, insts := range q.scanInsts {
		for _, inst := range insts {
			br := inst.stats.BlocksRead.Load()
			bs := inst.stats.BlocksSkipped.Load()
			rr := inst.stats.RowsRead.Load()
			by := inst.stats.BytesRead.Load()
			q.scans.BlocksRead.Add(br)
			q.scans.BlocksSkipped.Add(bs)
			q.scans.RowsRead.Add(rr)
			q.scans.RowsEmitted.Add(inst.stats.RowsEmitted.Load())
			q.scans.PageFaults.Add(inst.stats.PageFaults.Load())
			q.scans.BytesRead.Add(by)
			q.scans.CacheHits.Add(inst.stats.CacheHits.Load())
			q.scans.CacheMisses.Add(inst.stats.CacheMisses.Load())
			q.scans.Retries.Add(inst.stats.Retries.Load())
			q.scans.FailoverReads.Add(inst.stats.FailoverReads.Load())

			st := &q.db.sliceStats[inst.slice]
			st.scans.Add(1)
			st.blocksRead.Add(br)
			st.blocksSkipped.Add(bs)
			st.rowsRead.Add(rr)
			st.bytesRead.Add(by)
		}
	}
}

// emitSpans reconstructs the query's trace tree from the per-operator
// stats the pipelines collected: one span per physical node (duration = the
// node's own time summed over its slice instances, children excluded), with
// per-slice children carrying scan block counters and partial-agg group
// counts.
func (q *queryRun) emitSpans() {
	trace := q.run.rec.Trace
	if trace == nil {
		return
	}
	for _, n := range q.ph.Nodes {
		sp := trace.StartChild(n.SpanName())
		st := q.stats[n.ID]
		sp.Add("rows", st.Rows.Load())
		if n.EstRows >= 0 {
			sp.Add("est_rows", n.EstRows)
		}
		sp.Add("batches", st.Batches.Load())
		switch n.Kind {
		case plan.PhysScan:
			if n == q.ph.Base && q.sys == nil {
				sp.Add("dop", int64(q.dop))
			}
			// Parallel slices register their instances in completion order;
			// render in slice order so traces compare across runs.
			sort.Slice(q.scanInsts[n.ID], func(a, b int) bool {
				return q.scanInsts[n.ID][a].slice < q.scanInsts[n.ID][b].slice
			})
			for _, inst := range q.scanInsts[n.ID] {
				child := sp.StartChild(fmt.Sprintf("slice %d", inst.slice))
				child.Add("rows", inst.stats.RowsRead.Load())
				child.Add("blocks_read", inst.stats.BlocksRead.Load())
				child.Add("blocks_skipped", inst.stats.BlocksSkipped.Load())
				child.Add("bytes", inst.stats.BytesRead.Load())
				child.Add("cache_hits", inst.stats.CacheHits.Load())
				child.Add("cache_misses", inst.stats.CacheMisses.Load())
				// Attributes are integers and a slice's decode is often
				// under a millisecond: microseconds.
				child.Add("decode_us", inst.stats.DecodeNs.Load()/1e3)
				if r := inst.stats.Retries.Load(); r > 0 {
					child.Add("retries", r)
				}
				if f := inst.stats.FailoverReads.Load(); f > 0 {
					child.Add("failover_reads", f)
				}
				child.SetDuration(0)
				sp.Add("blocks_read", inst.stats.BlocksRead.Load())
				sp.Add("blocks_skipped", inst.stats.BlocksSkipped.Load())
				sp.Add("bytes", inst.stats.BytesRead.Load())
				sp.Add("cache_hits", inst.stats.CacheHits.Load())
				sp.Add("cache_misses", inst.stats.CacheMisses.Load())
				if r := inst.stats.Retries.Load(); r > 0 {
					sp.Add("retries", r)
				}
				if f := inst.stats.FailoverReads.Load(); f > 0 {
					sp.Add("failover_reads", f)
				}
			}
		case plan.PhysPartialAgg:
			for sl := range q.aggGroups {
				child := sp.StartChild(fmt.Sprintf("slice %d", sl))
				child.Add("groups", q.aggGroups[sl])
				child.SetDuration(0)
			}
		case plan.PhysLeaderAgg:
			sp.Add("bytes", q.gatherBytes.Load())
			if q.leaderAgg != nil {
				sp.Add("groups", int64(q.leaderAgg.NumGroups()))
			} else if len(q.aggTables) > 0 && q.aggTables[0] != nil {
				sp.Add("groups", int64(q.aggTables[0].NumGroups()))
			}
		case plan.PhysLeaderMerge:
			sp.Add("bytes", q.gatherBytes.Load())
		case plan.PhysExchange:
			if c := q.exBytes[n.ID]; c != nil {
				sp.Add("bytes", c.Load())
			}
		}
		// Memory-governance attrs for the blocking operators that charge a
		// tracker: peak resident bytes, plus spill volume when they spilled.
		if nt := q.nodeMem[n.ID]; nt != nil {
			if p := nt.Peak(); p > 0 {
				sp.Add("mem_peak", p)
			}
			if ss := q.nodeSpill[n.ID]; ss != nil {
				if b := ss.Bytes.Load(); b > 0 {
					sp.Add("spill_bytes", b)
					sp.Add("spill_files", ss.Files.Load())
					sp.Add("spill_partitions", ss.Partitions.Load())
					if r := ss.Runs.Load(); r > 0 {
						sp.Add("spill_runs", r)
					}
				}
			}
		}
		sp.SetDuration(time.Duration(st.Nanos.Load()))
	}
}
