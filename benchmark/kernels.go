package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"redshift/internal/catalog"
	"redshift/internal/compress"
	"redshift/internal/core"
	"redshift/internal/exec"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/storage"
	"redshift/internal/types"
)

// codecStat is one encoding's cost on the workload's own column vectors.
type codecStat struct {
	values             int64
	encodeNs, decodeNs int64
	rawBytes, encBytes int64
}

// perRow is a kernel's cost per input row.
type perRow struct{ ns, allocs float64 }

// kernels is what the kernel pass measured. Zero means the workload does
// not exercise that kernel.
type kernels struct {
	decodeNsPerValue   float64
	cacheGetNs         float64
	codecs             map[compress.Encoding]*codecStat
	filter             perRow
	aggLow, aggHigh    perRow
	joinBuild          perRow
	joinProbe          perRow
	sortNsPerRow       float64
	exchangeNsPerBatch float64
}

// kernelPass feeds each layer's public entry point the workload's own data:
// every block of the kernel table through Block.Decode, a sample of its
// column vectors through every applicable codec, and the decoded batches of
// one slice through the filter, group table, hash join, sort and exchange
// that the workload's kernel statements plan to.
func (in *instance) kernelPass() (kernels, error) {
	k := &kernelRun{db: in.wh.DB(), ctx: context.Background()}
	out := kernels{codecs: map[compress.Encoding]*codecStat{}}
	ks := in.w.Kernels
	def, err := k.db.Catalog().Get(ks.Table)
	if err != nil {
		return out, err
	}
	vecs, err := k.decodeAll(def, &out)
	if err != nil {
		return out, err
	}
	codecKernels(vecs, &out)
	out.cacheGetNs = cacheGetKernel(vecs)

	if ks.Filter != "" {
		if out.filter, err = k.filterKernel(ks.Filter); err != nil {
			return out, fmt.Errorf("filter kernel: %w", err)
		}
	}
	if ks.AggLow != "" {
		if out.aggLow, err = k.aggKernel(ks.AggLow); err != nil {
			return out, fmt.Errorf("agg kernel: %w", err)
		}
	}
	if ks.AggHigh != "" {
		if out.aggHigh, err = k.aggKernel(ks.AggHigh); err != nil {
			return out, fmt.Errorf("agg kernel: %w", err)
		}
	}
	if ks.Join != "" {
		if out.joinBuild, out.joinProbe, err = k.joinKernel(ks.Join); err != nil {
			return out, fmt.Errorf("join kernel: %w", err)
		}
	}
	if ks.Sort != "" {
		if out.sortNsPerRow, err = k.sortKernel(ks.Sort); err != nil {
			return out, fmt.Errorf("sort kernel: %w", err)
		}
	}
	if out.exchangeNsPerBatch, err = k.exchangeKernel(def); err != nil {
		return out, fmt.Errorf("exchange kernel: %w", err)
	}
	return out, nil
}

type kernelRun struct {
	db  *core.Database
	ctx context.Context
}

// measure runs fn with the heap counters read on both sides and returns its
// wall time and allocation count. Nothing else runs during the kernel pass.
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, err
}

func per(d time.Duration, allocs uint64, rows int) perRow {
	if rows == 0 {
		return perRow{}
	}
	return perRow{ns: float64(d.Nanoseconds()) / float64(rows), allocs: float64(allocs) / float64(rows)}
}

// decodeAll times Block.Decode over every block of the table and returns a
// sample of the decoded vectors (every stride-th block of each column) for
// the codec and cache kernels.
func (k *kernelRun) decodeAll(def *catalog.TableDef, out *kernels) ([]*types.Vector, error) {
	cl := k.db.Cluster()
	snap := k.db.Txns().CurrentXid()
	var blocks []*storage.Block
	for sl := 0; sl < cl.NumSlices(); sl++ {
		for _, seg := range cl.VisibleSegments(sl, def.ID, snap) {
			seg.Blocks(func(b *storage.Block) { blocks = append(blocks, b) })
		}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("table %s has no blocks", def.Name)
	}
	const sampleBlocks = 160
	stride := len(blocks)/sampleBlocks + 1
	var sample []*types.Vector
	var values int64
	var spent time.Duration
	for i, b := range blocks {
		t0 := time.Now()
		v, err := b.Decode()
		spent += time.Since(t0)
		if err != nil {
			return nil, err
		}
		values += int64(b.Rows)
		if i%stride == 0 {
			sample = append(sample, v)
		}
	}
	out.decodeNsPerValue = float64(spent.Nanoseconds()) / float64(values)
	return sample, nil
}

// codecKernels runs every sampled vector through every encoding applicable
// to its type — not only the one COPY's analyzer chose — so each codec's
// cost and ratio on this workload's data is on record.
func codecKernels(vecs []*types.Vector, out *kernels) {
	for _, v := range vecs {
		raw, err := compress.Encode(compress.Raw, v)
		if err != nil {
			continue
		}
		for _, e := range encodings {
			if !compress.Applicable(e, v.T) {
				continue
			}
			t0 := time.Now()
			data, err := compress.Encode(e, v)
			enc := time.Since(t0)
			if err != nil {
				continue // BYTEDICT overflows on high-cardinality blocks
			}
			t0 = time.Now()
			_, err = compress.Decode(data)
			dec := time.Since(t0)
			if err != nil {
				continue
			}
			st := out.codecs[e]
			if st == nil {
				st = &codecStat{}
				out.codecs[e] = st
			}
			st.values += int64(v.Len())
			st.encodeNs += enc.Nanoseconds()
			st.decodeNs += dec.Nanoseconds()
			st.rawBytes += int64(len(raw))
			st.encBytes += int64(len(data))
		}
	}
}

// cacheGetKernel times BlockCache.Get over a cache holding the sampled
// vectors.
func cacheGetKernel(vecs []*types.Vector) float64 {
	cache := storage.NewBlockCache(1 << 30)
	ids := make([]storage.BlockID, len(vecs))
	for i, v := range vecs {
		ids[i] = storage.BlockID{Table: 1, Index: int32(i)}
		cache.Put(ids[i], v, 0)
	}
	const gets = 200_000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		cache.Get(ids[i%len(ids)], 0)
	}
	return float64(time.Since(t0).Nanoseconds()) / gets
}

// planOf plans a kernel statement with the engine's default options.
func (k *kernelRun) planOf(q string) (*plan.Plan, error) {
	ast, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	sel, ok := ast.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("kernel statement is not a SELECT: %.60s", q)
	}
	opts := plan.DefaultOptions()
	opts.NumNodes = k.db.Cluster().NumNodes()
	return plan.BuildWith(k.db.Catalog(), sel, opts)
}

// scan decodes the scan's needed columns on the given slices into batches,
// applying the pushed-down filter unless raw is set.
func (k *kernelRun) scan(scan *plan.TableScan, slices []int, raw bool) ([]*exec.Batch, int, error) {
	if raw {
		c := *scan
		c.Filter, c.Ranges = nil, nil
		scan = &c
	}
	cl := k.db.Cluster()
	sc, err := exec.NewScanner(exec.Compiled, scan, cl.FetchBlockCtx, nil)
	if err != nil {
		return nil, 0, err
	}
	snap := k.db.Txns().CurrentXid()
	var out []*exec.Batch
	rows := 0
	for _, sl := range slices {
		for _, seg := range cl.VisibleSegments(sl, scan.Def.ID, snap) {
			err := sc.ScanSegment(k.ctx, seg, func(b *exec.Batch) error {
				out = append(out, b)
				rows += b.N
				return nil
			})
			if err != nil {
				return nil, 0, err
			}
		}
	}
	return out, rows, nil
}

// buildSlices is where one probing slice's build side comes from: its own
// slice for a co-located or replicated table, every slice for a broadcast
// or shuffled one.
func (k *kernelRun) buildSlices(step plan.JoinStep, right *plan.TableScan) []int {
	if right.Def.DistStyle == catalog.DistAll || step.Strategy == plan.StrategyCollocated {
		return []int{0}
	}
	all := make([]int, k.db.Cluster().NumSlices())
	for i := range all {
		all[i] = i
	}
	return all
}

// pipeline materializes what slice 0 feeds its aggregation or sort: the
// filtered base scan, probed through every join of the plan in order, then
// the residual predicate.
func (k *kernelRun) pipeline(p *plan.Plan) ([]*exec.Batch, int, error) {
	ph := plan.BuildPhysical(p)
	cur, _, err := k.scan(ph.Base.Scan, []int{0}, false)
	if err != nil {
		return nil, 0, err
	}
	for _, step := range p.Joins {
		right := p.Tables[step.Right]
		j, err := exec.NewHashJoin(exec.Compiled, step, len(right.Def.Columns))
		if err != nil {
			return nil, 0, err
		}
		build, _, err := k.scan(right, k.buildSlices(step, right), false)
		if err != nil {
			return nil, 0, err
		}
		for _, b := range build {
			if err := j.Build(b); err != nil {
				return nil, 0, err
			}
		}
		var next []*exec.Batch
		for _, b := range cur {
			out, err := j.Probe(b)
			if err != nil {
				return nil, 0, err
			}
			if out.N > 0 {
				next = append(next, out)
			}
		}
		cur = next
	}
	if p.Where != nil {
		f, err := exec.NewFilter(exec.Compiled, p.Where)
		if err != nil {
			return nil, 0, err
		}
		for i, b := range cur {
			if cur[i], err = f.Apply(b); err != nil {
				return nil, 0, err
			}
		}
	}
	rows := 0
	for _, b := range cur {
		rows += b.N
	}
	return cur, rows, nil
}

// filterKernel times exec.Filter.Select — the scan's predicate-first entry
// point — over slice 0's undecimated batches.
func (k *kernelRun) filterKernel(q string) (perRow, error) {
	p, err := k.planOf(q)
	if err != nil {
		return perRow{}, err
	}
	scan := plan.BuildPhysical(p).Base.Scan
	if scan.Filter == nil {
		return perRow{}, errors.New("statement pushes no predicate to its scan")
	}
	batches, rows, err := k.scan(scan, []int{0}, true)
	if err != nil {
		return perRow{}, err
	}
	f, err := exec.NewFilter(exec.Compiled, scan.Filter)
	if err != nil {
		return perRow{}, err
	}
	var sel []int
	d, allocs, err := measure(func() error {
		for _, b := range batches {
			var err error
			if sel, _, err = f.Select(b, sel[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	return per(d, allocs, rows), err
}

// aggKernel times exec.GroupTable (Consume over every batch, then Result)
// with the statement's group keys and aggregates.
func (k *kernelRun) aggKernel(q string) (perRow, error) {
	p, err := k.planOf(q)
	if err != nil {
		return perRow{}, err
	}
	if !p.HasAgg {
		return perRow{}, errors.New("statement does not aggregate")
	}
	batches, rows, err := k.pipeline(p)
	if err != nil {
		return perRow{}, err
	}
	gt, err := exec.NewGroupTable(exec.Compiled, p.GroupBy, p.Aggs)
	if err != nil {
		return perRow{}, err
	}
	d, allocs, err := measure(func() error {
		for _, b := range batches {
			if err := gt.Consume(b); err != nil {
				return err
			}
		}
		_, err := gt.Result()
		return err
	})
	return per(d, allocs, rows), err
}

// joinKernel times exec.HashJoin with the statement's first join step:
// Build over the build side one slice sees, Probe over slice 0's probe rows.
func (k *kernelRun) joinKernel(q string) (build, probe perRow, err error) {
	p, err := k.planOf(q)
	if err != nil {
		return
	}
	if len(p.Joins) == 0 {
		return build, probe, errors.New("statement does not join")
	}
	step := p.Joins[0]
	right := p.Tables[step.Right]
	left, leftRows, err := k.scan(plan.BuildPhysical(p).Base.Scan, []int{0}, false)
	if err != nil {
		return
	}
	inner, innerRows, err := k.scan(right, k.buildSlices(step, right), false)
	if err != nil {
		return
	}
	j, err := exec.NewHashJoin(exec.Compiled, step, len(right.Def.Columns))
	if err != nil {
		return
	}
	d, allocs, err := measure(func() error {
		for _, b := range inner {
			if err := j.Build(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return
	}
	build = per(d, allocs, innerRows)
	d, allocs, err = measure(func() error {
		for _, b := range left {
			if _, err := j.Probe(b); err != nil {
				return err
			}
		}
		return nil
	})
	return build, per(d, allocs, leftRows), err
}

// sortKernel times exec.SortBatch + TopN with the statement's order keys
// over slice 0's projected rows.
func (k *kernelRun) sortKernel(q string) (float64, error) {
	p, err := k.planOf(q)
	if err != nil {
		return 0, err
	}
	if len(p.OrderBy) == 0 || p.HasAgg {
		return 0, errors.New("statement is not a plain ORDER BY")
	}
	batches, rows, err := k.pipeline(p)
	if err != nil || rows == 0 {
		return 0, err
	}
	proj, err := exec.NewProjector(exec.Compiled, p.Project)
	if err != nil {
		return 0, err
	}
	all := exec.NewBatch(len(p.Project))
	for _, b := range batches {
		out, err := proj.Apply(b)
		if err != nil {
			return 0, err
		}
		if err := all.Concat(out); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	exec.TopN(exec.SortBatch(all, p.OrderBy), p.Limit)
	return float64(time.Since(t0).Nanoseconds()) / float64(rows), nil
}

// exchangeKernel times a batch's trip through exec.Exchange: slice 0
// produces the table's first batches, slice 1 receives them.
func (k *kernelRun) exchangeKernel(def *catalog.TableDef) (float64, error) {
	scan := &plan.TableScan{Def: def, NeedCols: []int{0}}
	batches, _, err := k.scan(scan, []int{0}, true)
	if err != nil || len(batches) == 0 {
		return 0, err
	}
	const maxBatches = 512
	if len(batches) > maxBatches {
		batches = batches[:maxBatches]
	}
	ex := exec.NewExchange(2, 4, nil, nil) // 4 batches of slack, as a small pipeline would have
	toOne := func(b *exec.Batch) ([]*exec.Batch, error) { return []*exec.Batch{nil, b}, nil }
	var wg sync.WaitGroup
	t0 := time.Now()
	for src, bs := range [][]*exec.Batch{batches, nil} {
		wg.Add(1)
		go func(src int, bs []*exec.Batch) {
			defer wg.Done()
			ex.Produce(k.ctx, src, exec.NewBatchSource(bs), toOne)
		}(src, bs)
	}
	recv := exec.NewRecvOp(ex, 1)
	got := 0
	for {
		b, err := recv.Next(k.ctx)
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		got++
	}
	d := time.Since(t0)
	wg.Wait()
	if got != len(batches) {
		return 0, fmt.Errorf("exchange delivered %d of %d batches", got, len(batches))
	}
	return float64(d.Nanoseconds()) / float64(got), nil
}
