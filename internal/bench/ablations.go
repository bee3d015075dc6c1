package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"redshift"
	"redshift/internal/compress"
	"redshift/internal/exec"
	"redshift/internal/faults"
	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// AblationCompression (A1): per-encoding ratio and decode speed on typical
// warehouse columns, and what the automatic chooser picks.
func AblationCompression(quick bool) Table {
	n := 262_144
	if quick {
		n = 32_768
	}
	t := Table{
		ID:     "A1",
		Title:  "Compression encodings: ratio, decode speed, automatic choice (§1, §3.3)",
		Header: []string{"column", "encoding", "ratio", "decode_MB_per_s", "auto_choice"},
		Notes: []string{
			"paper: 'we automatically pick compression types based on data sampling'",
			"claim shape: the chooser's pick is at or near the best ratio per column",
		},
	}
	rng := rand.New(rand.NewSource(20150531))
	statuses := []string{"open", "shipped", "returned", "cancelled", "pending"}
	columns := map[string]*types.Vector{
		"sorted_timestamps": column(types.Int64, n, func(i int) types.Value { return types.NewInt(1_400_000_000_000 + int64(i)*250) }),
		"small_ints":        column(types.Int64, n, func(int) types.Value { return types.NewInt(rng.Int63n(120)) }),
		"low_card_strings":  column(types.String, n, func(int) types.Value { return types.NewString([]string{"us-east", "us-west", "eu", "ap"}[rng.Intn(4)]) }),
		"unique_strings":    column(types.String, n, func(i int) types.Value { return types.NewString(fmt.Sprintf("user-%08d-%d", rng.Int63n(1e8), i)) }),
		"constant":          column(types.Int64, n, func(int) types.Value { return types.NewInt(42) }),
		"prices":            column(types.Float64, n, func(int) types.Value { return types.NewFloat(float64(1+rng.Intn(4000)) * 0.25) }),
		"status":            column(types.String, n, func(int) types.Value { return types.NewString(statuses[rng.Intn(5)]) }),
	}
	for _, name := range []string{"sorted_timestamps", "small_ints", "low_card_strings", "unique_strings", "constant", "prices", "status"} {
		col := columns[name]
		auto := compress.Choose(compress.Sample(col, 4096))
		for _, r := range compress.Analyze(col) {
			if !r.Applicable {
				continue
			}
			// Measure decode throughput.
			data, err := compress.Encode(r.Encoding, col)
			if err != nil {
				continue
			}
			start := time.Now()
			v, err := compress.Decode(data)
			if err != nil {
				panic(err)
			}
			d := time.Since(start)
			mbps := float64(v.ByteSize()) / 1e6 / d.Seconds()
			mark := ""
			if r.Encoding == auto {
				mark = "<-- chosen"
			}
			t.Rows = append(t.Rows, []string{
				name, r.Encoding.String(), f2(r.Ratio), fmt.Sprintf("%.0f", mbps), mark,
			})
		}
	}
	return t
}

func column(t types.Type, n int, f func(int) types.Value) *types.Vector {
	v := types.NewVector(t, n)
	for i := 0; i < n; i++ {
		v.Append(f(i))
	}
	return v
}

// benchWarehouse builds a sorted fact table for the scan ablations.
func benchWarehouse(rows int, create string, rowFn func(i int) string) *redshift.Warehouse {
	wh, err := redshift.Launch(redshift.Options{Nodes: 2, SlicesPerNode: 2, BlockCap: 1024})
	if err != nil {
		panic(err)
	}
	wh.MustExecute(create)
	var b strings.Builder
	for i := 0; i < rows; i++ {
		b.WriteString(rowFn(i))
	}
	if err := wh.PutObject("bench/a.csv", []byte(b.String())); err != nil {
		panic(err)
	}
	wh.MustExecute(`COPY ` + tableNameOf(create) + ` FROM 's3://bench/'`)
	return wh
}

func tableNameOf(create string) string {
	fields := strings.Fields(create)
	return fields[2]
}

// AblationZoneMaps (A2): blocks read vs selectivity on a sorted column.
func AblationZoneMaps(quick bool) Table {
	rows := 1_000_000
	if quick {
		rows = 100_000
	}
	t := Table{
		ID:     "A2",
		Title:  "Zone-map block skipping vs selectivity (§6)",
		Header: []string{"selectivity", "blocks_read", "blocks_skipped", "latency", "full_scan_latency"},
		Notes: []string{
			"paper: sequential scan + 'column-block skipping based on value-ranges stored in memory'",
			"claim shape: blocks read ∝ selectivity on the sort key; selective scans approach index speed",
		},
	}
	wh := benchWarehouse(rows,
		`CREATE TABLE f (ts BIGINT NOT NULL, v BIGINT) COMPOUND SORTKEY(ts)`,
		func(i int) string { return fmt.Sprintf("%d|%d\n", i, i%1000) })

	full := wh.MustExecute(`SELECT SUM(v) FROM f`)
	fullLatency := full.Stats.ExecTime
	for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1, 1.0} {
		hi := int(float64(rows) * sel)
		res := wh.MustExecute(fmt.Sprintf(`SELECT SUM(v) FROM f WHERE ts < %d`, hi))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.4f", sel),
			i64(res.Stats.BlocksRead), i64(res.Stats.BlocksSkipped),
			dur(res.Stats.ExecTime), dur(fullLatency),
		})
	}
	return t
}

// AblationZOrder (A3): interleaved vs compound sort keys under predicates
// on each key column — §3.3's graceful degradation.
func AblationZOrder(quick bool) Table {
	rows := 500_000
	if quick {
		rows = 60_000
	}
	t := Table{
		ID:     "A3",
		Title:  "Interleaved z-order vs compound sort under per-column predicates (§3.3)",
		Header: []string{"predicate_on", "compound_blocks_read", "interleaved_blocks_read", "compound_frac", "interleaved_frac"},
		Notes: []string{
			"paper: z-curves 'degrade more gracefully with excess participation and still provide",
			"utility if leading columns are not specified' — unlike projections/compound keys",
			"claim shape: compound prunes only on the leading column; interleaved prunes on all four",
		},
	}
	mk := func(style string) *redshift.Warehouse {
		return benchWarehouse(rows,
			fmt.Sprintf(`CREATE TABLE f (c1 BIGINT, c2 BIGINT, c3 BIGINT, c4 BIGINT) %s SORTKEY(c1, c2, c3, c4)`, style),
			func(i int) string {
				r := rand.New(rand.NewSource(int64(i)))
				return fmt.Sprintf("%d|%d|%d|%d\n", r.Int63n(1000), r.Int63n(1000), r.Int63n(1000), r.Int63n(1000))
			})
	}
	compound := mk("COMPOUND")
	interleaved := mk("INTERLEAVED")
	for col := 1; col <= 4; col++ {
		q := fmt.Sprintf(`SELECT COUNT(*) FROM f WHERE c%d < 50`, col) // 5% band
		rc := compound.MustExecute(q)
		ri := interleaved.MustExecute(q)
		cTotal := float64(rc.Stats.BlocksRead + rc.Stats.BlocksSkipped)
		iTotal := float64(ri.Stats.BlocksRead + ri.Stats.BlocksSkipped)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("c%d", col),
			i64(rc.Stats.BlocksRead), i64(ri.Stats.BlocksRead),
			f2(float64(rc.Stats.BlocksRead) / cTotal),
			f2(float64(ri.Stats.BlocksRead) / iTotal),
		})
	}
	return t
}

// AblationCompilation (A4): compiled vs interpreted across row counts —
// the fixed-overhead-vs-tight-execution tradeoff of §2.1.
func AblationCompilation(quick bool) Table {
	t := Table{
		ID:     "A4",
		Title:  "Compiled (vectorized, specialized) vs interpreted execution (§2.1)",
		Header: []string{"rows", "compiled", "interpreted", "speedup"},
		Notes: []string{
			"paper: compilation 'adds a fixed overhead per query that ... is generally amortized",
			"by the tighter execution at compute nodes vs ... a general-purpose set of executor functions'",
			"claim shape: interpreted is closest at tiny row counts; compiled wins ~5-10x once batches amortize the setup",
		},
	}
	sizes := []int{100, 10_000, 1_000_000}
	if quick {
		sizes = []int{100, 10_000, 100_000}
	}
	// Measure pure engine evaluation (no I/O) on the expression
	// ts > lo AND ts < hi AND v * 2 + 1 > 100.
	for _, n := range sizes {
		batch := exec.NewBatch(2)
		ts := types.NewVector(types.Int64, n)
		v := types.NewVector(types.Int64, n)
		for i := 0; i < n; i++ {
			ts.Append(types.NewInt(int64(i)))
			v.Append(types.NewInt(int64(i % 500)))
		}
		batch.Cols[0], batch.Cols[1], batch.N = ts, v, n

		expr := &plan.Bin{Op: sql.OpAnd, T: types.Bool,
			L: &plan.Bin{Op: sql.OpGt, L: &plan.Col{Index: 0, T: types.Int64}, R: &plan.Const{V: types.NewInt(10)}, T: types.Bool},
			R: &plan.Bin{Op: sql.OpGt,
				L: &plan.Bin{Op: sql.OpAdd,
					L: &plan.Bin{Op: sql.OpMul, L: &plan.Col{Index: 1, T: types.Int64}, R: &plan.Const{V: types.NewInt(2)}, T: types.Int64},
					R: &plan.Const{V: types.NewInt(1)}, T: types.Int64},
				R: &plan.Const{V: types.NewInt(100)}, T: types.Bool}}

		timeMode := func(mode exec.Mode) time.Duration {
			iters := 1
			if n <= 10_000 {
				iters = 50
			}
			start := time.Now()
			for k := 0; k < iters; k++ {
				ev, err := exec.NewEvaluator(mode, expr)
				if err != nil {
					panic(err)
				}
				if _, err := ev.Eval(batch); err != nil {
					panic(err)
				}
			}
			return time.Since(start) / time.Duration(iters)
		}
		comp := timeMode(exec.Compiled)
		interp := timeMode(exec.Interpreted)
		t.Rows = append(t.Rows, []string{
			human(int64(n)), dur(comp), dur(interp), f1(float64(interp) / float64(comp)),
		})
	}
	return t
}

// AblationDistribution (A5): the same join under KEY (collocated), EVEN
// (shuffle) and inner-ALL (broadcast-free) distribution.
func AblationDistribution(quick bool) Table {
	rows := 400_000
	if quick {
		rows = 60_000
	}
	t := Table{
		ID:     "A5",
		Title:  "Join data movement by DISTSTYLE (§2.1)",
		Header: []string{"diststyle", "strategy", "net_bytes_moved", "latency"},
		Notes: []string{
			"paper: distribution keys allow 'join processing on that key to be co-located on",
			"individual slices ... avoiding the redistribution of intermediate results'",
			"claim shape: KEY moves ~zero bytes; EVEN pays a shuffle of both sides; ALL pre-pays at load",
		},
	}
	cases := []struct {
		name              string
		factDist, dimDist string
	}{
		{"KEY/KEY (collocated)", "DISTSTYLE KEY DISTKEY(k)", "DISTSTYLE KEY DISTKEY(k)"},
		{"EVEN/EVEN (shuffle)", "DISTSTYLE EVEN", "DISTSTYLE EVEN"},
		{"EVEN/ALL (local dim)", "DISTSTYLE EVEN", "DISTSTYLE ALL"},
	}
	for _, c := range cases {
		wh, err := redshift.Launch(redshift.Options{Nodes: 4, SlicesPerNode: 2, BlockCap: 2048, BroadcastRows: 1})
		if err != nil {
			panic(err)
		}
		wh.MustExecute(fmt.Sprintf(`CREATE TABLE fact (k BIGINT, v BIGINT) %s`, c.factDist))
		wh.MustExecute(fmt.Sprintf(`CREATE TABLE dim (k BIGINT, w BIGINT) %s`, c.dimDist))
		var fb, db strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&fb, "%d|%d\n", i%10_000, i)
		}
		for i := 0; i < 10_000; i++ {
			fmt.Fprintf(&db, "%d|%d\n", i, i*3)
		}
		wh.PutObject("f/a.csv", []byte(fb.String()))
		wh.PutObject("d/a.csv", []byte(db.String()))
		wh.MustExecute(`COPY fact FROM 'f/'`)
		wh.MustExecute(`COPY dim FROM 'd/'`)

		explain := wh.MustExecute(`EXPLAIN SELECT COUNT(*) FROM fact f JOIN dim d ON f.k = d.k`)
		strategy := "?"
		for _, r := range explain.Rows {
			for _, s := range []string{"DS_DIST_NONE", "DS_BCAST_INNER", "DS_DIST_BOTH"} {
				if strings.Contains(r[0].S, s) {
					strategy = s
				}
			}
		}
		res := wh.MustExecute(`SELECT SUM(f.v + d.w) FROM fact f JOIN dim d ON f.k = d.k`)
		t.Rows = append(t.Rows, []string{
			c.name, strategy, human(res.Stats.NetBytes), dur(res.Stats.ExecTime),
		})
	}
	return t
}

// AblationCohorts (A6): re-replication traffic after a node failure, by
// cohort size.
func AblationCohorts(quick bool) Table {
	rows := 120_000
	if quick {
		rows = 24_000
	}
	t := Table{
		ID:     "A6",
		Title:  "Cohorted replication: node-failure recovery traffic (§2.1)",
		Header: []string{"cohort_size", "recovered_blocks", "recovery_bytes", "nodes_supplying_data", "p_second_failure_in_cohort"},
		Notes: []string{
			"paper: 'Cohorting is used to limit the number of slices impacted by an individual",
			"disk or node failure ... balance the resource impact of re-replication against",
			"the increased probability of correlated failures'",
			"claim shape: recovery reads come only from cohort peers, regardless of cluster size",
		},
	}
	for _, cohort := range []int{2, 4, 8} {
		wh := mustLaunchCohort(cohort)
		wh.MustExecute(`CREATE TABLE d (k BIGINT, v BIGINT) DISTSTYLE EVEN`)
		var b strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d|%d\n", i, i)
		}
		wh.PutObject("d/a.csv", []byte(b.String()))
		wh.MustExecute(`COPY d FROM 'd/'`)

		wh.FailNode(1)
		blocks, bytes, err := wh.ReplaceNode(1)
		if err != nil {
			panic(err)
		}
		// With cohorting, only the failed node's cohort peer supplies the
		// rebuild (1 supplier); without it, suppliers would scale with the
		// cluster.
		// The tradeoff §2.1 names: a larger cohort spreads re-replication
		// load but raises the chance an independent second failure lands in
		// the same cohort (and can threaten durability before re-replication
		// completes): p = (cohort-1)/(nodes-1).
		pCorr := float64(cohort-1) / float64(8-1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", cohort), fmt.Sprintf("%d", blocks), human(bytes), "1 (cohort peer)", f2(pCorr),
		})
	}
	return t
}

func mustLaunchCohort(cohort int) *redshift.Warehouse {
	wh, err := redshift.Launch(redshift.Options{Nodes: 8, SlicesPerNode: 1, BlockCap: 1024, CohortSize: cohort})
	if err != nil {
		panic(err)
	}
	return wh
}

// AblationResize (A7): online resize duration with live read AND write
// traffic — writes that land in the cutover window see retryable errors
// and back off through the shared retry policy, so no write is lost.
func AblationResize(quick bool) Table {
	rows := 200_000
	if quick {
		rows = 40_000
	}
	t := Table{
		ID:     "A7",
		Title:  "Online elastic resize: live traffic, bounded cutover (§3.1)",
		Header: []string{"direction", "rows_copied", "duration", "cutover_window", "catchup_rounds", "writes_landed", "write_retries"},
		Notes: []string{
			"paper: 'we provision a new cluster, put the original cluster in read-only mode,",
			"and run a parallel node-to-node copy ... source cluster is available for reads';",
			"here writes keep flowing too and are quiesced only for the final delta",
		},
	}
	for _, to := range []int{4, 1} {
		wh := benchWarehouse(rows,
			`CREATE TABLE f (ts BIGINT NOT NULL, v BIGINT) DISTSTYLE KEY DISTKEY(ts) COMPOUND SORTKEY(ts)`,
			func(i int) string { return fmt.Sprintf("%d|%d\n", i, i%97) })

		// A concurrent writer keeps inserting through the whole resize. A
		// retryable rejection (the cutover window) is backed off and the
		// same statement resent until it lands — the window is bounded, so
		// patience always wins; anything non-retryable is a lost write.
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		var landed, retries int
		go func() {
			defer close(writerDone)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				stmt := fmt.Sprintf(`INSERT INTO f VALUES (%d, %d)`, rows+i, i)
				for {
					if _, err := wh.Execute(stmt); err == nil {
						landed++
						break
					} else if !faults.Retryable(err) {
						panic(fmt.Sprintf("write lost during resize: %v", err))
					}
					retries++
					time.Sleep(500 * time.Microsecond)
				}
			}
		}()

		start := time.Now()
		stats, err := wh.Resize(to)
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		close(stop)
		<-writerDone
		res := wh.MustExecute(`SELECT COUNT(*) FROM f`)
		if res.Rows[0][0].I != int64(rows+landed) {
			panic(fmt.Sprintf("resize lost rows: want %d got %d", rows+landed, res.Rows[0][0].I))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("2 → %d nodes", to), i64(stats.Rows), dur(d),
			dur(stats.CutoverWindow), fmt.Sprintf("%d", stats.CatchupRounds),
			fmt.Sprintf("%d", landed), fmt.Sprintf("%d", retries),
		})
	}
	return t
}

// AblationApproximate (A8): APPROXIMATE COUNT(DISTINCT) vs exact.
func AblationApproximate(quick bool) Table {
	rows := 1_000_000
	if quick {
		rows = 120_000
	}
	t := Table{
		ID:     "A8",
		Title:  "APPROXIMATE COUNT(DISTINCT) vs exact (§4)",
		Header: []string{"distinct_values", "exact", "exact_latency", "approx", "approx_latency", "rel_error"},
		Notes: []string{
			"paper (§4): 'we would like to build distributed approximate equivalents for all",
			"non-linear exact operations' — HLL sketches merge across slices in constant space",
		},
	}
	wh := benchWarehouse(rows,
		`CREATE TABLE f (ts BIGINT NOT NULL, u BIGINT) COMPOUND SORTKEY(ts)`,
		func(i int) string { return fmt.Sprintf("%d|%d\n", i, (int64(i)*2654435761)%500_000) })
	for _, mod := range []int64{1_000, 100_000, 500_000} {
		q := fmt.Sprintf(`SELECT COUNT(DISTINCT u %% %d) FROM f`, mod)
		aq := fmt.Sprintf(`SELECT APPROXIMATE COUNT(DISTINCT u %% %d) FROM f`, mod)
		exact := wh.MustExecute(q)
		approx := wh.MustExecute(aq)
		e, a := exact.Rows[0][0].I, approx.Rows[0][0].I
		relErr := float64(a-e) / float64(e)
		if relErr < 0 {
			relErr = -relErr
		}
		t.Rows = append(t.Rows, []string{
			human(e), i64(e), dur(exact.Stats.ExecTime),
			i64(a), dur(approx.Stats.ExecTime), f3(relErr),
		})
	}
	return t
}
