package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"redshift/internal/workload"
)

// analyzeAll renders one ANALYZE per table.
func analyzeAll(tables []Table) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = "ANALYZE " + t.Name
	}
	return out
}

// dateRange draws a window of span days inside the fact table's dates.
func dateRange(rng *rand.Rand, span int) (lo, hi string) {
	d := rng.Intn(factDays - span)
	return dayString(d), dayString(d + span)
}

// scanAgg: the working set is larger than the cache. Fresh-parameter
// aggregates over the fact table alone, each returning at most 50 rows, with
// the block cache at a quarter of the table's decoded size and the result
// cache off — decode and the scan/filter/aggregate kernels do nearly all the
// work; parse, plan, wire, caches, joins and exchange do almost none.
func scanAgg(p Params) *Workload {
	d := dimsFor(scaled(factRows, p.Scale, 2000))
	w := &Workload{
		Name:           ScanAgg,
		Tables:         []Table{factTable(p.Seed, d)},
		SessionInit:    []string{`SET result_cache TO off`},
		BlockCacheFrac: 0.25,
	}
	w.Setup = analyzeAll(w.Tables)
	w.stratify(p, 10,
		[]quota{{"full", 3}, {"range", 2}, {"like", 2}, {"group", 1}},
		func(rng *rand.Rand, kind string, _, _ int) Stmt {
			return Stmt{Kind: kind, SQL: scanSQL(rng, kind), Verify: true}
		})
	w.warmWithFirstBlock()
	w.Kernels = Kernels{
		Table:  "bm_fact",
		Filter: scanSQL(subRand(p.Seed, 11), "full"),
		AggLow: scanSQL(subRand(p.Seed, 12), "group"),
	}
	return w
}

func scanSQL(rng *rand.Rand, kind string) string {
	switch kind {
	case "full":
		// A computed predicate: zone maps cannot prune it, every block of
		// three columns is decoded.
		m := 7 + rng.Intn(7)
		return fmt.Sprintf(`SELECT COUNT(*), SUM(f_price), MAX(f_qty) FROM bm_fact WHERE (f_cust + f_qty) %% %d < %d`, m, 1+rng.Intn(m-1))
	case "range":
		// A tenth of the date range: zone maps on the sort key prune ~90%.
		lo, hi := dateRange(rng, factDays/10)
		return fmt.Sprintf(`SELECT f_status, COUNT(*), AVG(f_price) FROM bm_fact WHERE f_date BETWEEN DATE '%s' AND DATE '%s' GROUP BY f_status`, lo, hi)
	case "like":
		return fmt.Sprintf(`SELECT COUNT(*), MIN(f_price), MAX(f_price) FROM bm_fact WHERE f_note LIKE 'tag%d%%' AND f_qty > %d`, 10+rng.Intn(noteTags), rng.Intn(20))
	default: // group: low-cardinality GROUP BY, 50 groups
		m := 3 + rng.Intn(5)
		return fmt.Sprintf(`SELECT f_status, f_store, SUM(f_price * f_qty), COUNT(*) FROM bm_fact WHERE f_store < 10 AND f_prod %% %d = %d GROUP BY f_status, f_store`, m, rng.Intn(m))
	}
}

const (
	// spillMem is the per-statement work_mem of the spilling quarter: small
	// enough that the grace hash join partitions its build side to disk and
	// the external sort writes runs, large enough that neither recurses — the
	// join spills through 72 scratch files (8 partitions × 2 sides × 4 slices
	// and a few), the sort through 4 to 18.
	spillMem = "1MB"
	// joinScale shrinks the star schema for join_groupby so that a 20-second
	// window still holds well over 240 statements: 200k fact lines, a
	// 100k-row co-located build side, 25k customers.
	joinScale = 0.5
)

// joinGroupBy: everything fits the (default, warmed) block cache, result
// cache off. Star joins against the three dimensions with high-cardinality
// GROUP BY, COUNT(DISTINCT) and ORDER BY … LIMIT 100; a fixed quarter of the
// stream (one join and one topn per block of eight) runs under spillMem, so
// the grace hash join and the external sort spill. Hash build/probe, group
// tables, exchange, sort and spill dominate; decode is cached away. The
// in-memory join appears twice per block so that the median statement is one
// of them — inside one kind's latency mass, not on the edge between two.
//
// The spilling statements are chosen to create few scratch files, and the
// issue's 256KB is raised to 1MB for the same reason. The file system under
// a checkout may be an ext4 without a journal, which will not reuse an inode
// freed in the last minutes: every create walks past all of them, so a create
// costs 30µs on an idle machine and 350µs after a few runs' worth of spilling.
// At 256KB the top-N's dimension join spilled too and a block of eight made
// 340 files (the high-cardinality aggregation alone would make 800 per
// statement): throughput fell 13% and p95 rose 40% over ten consecutive runs
// of identical code. Hence the aggregation does not spill here, and the
// top-N joins the 200-row replicated dimension, which never does.
func joinGroupBy(p Params) *Workload {
	d := dimsFor(scaled(factRows, p.Scale*joinScale, 2000))
	w := &Workload{
		Name:        JoinGroupBy,
		Tables:      append([]Table{factTable(p.Seed, d)}, dimTables(p.Seed, d)...),
		SessionInit: []string{`SET result_cache TO off`},
	}
	w.Setup = analyzeAll(w.Tables)
	w.stratify(p, 20,
		[]quota{{"star", 1}, {"colo", 1}, {"distinct", 1}, {"join", 2}, {"join.spill", 1}, {"topn", 1}, {"topn.spill", 1}},
		func(rng *rand.Rand, kind string, _, _ int) Stmt {
			s := Stmt{Kind: kind, Verify: true}
			if base, spills := strings.CutSuffix(kind, ".spill"); spills {
				s.SQL, s.WorkMem = joinSQL(rng, base), spillMem
			} else {
				s.SQL = joinSQL(rng, kind)
			}
			return s
		})
	w.warmWithFirstBlock()
	w.Kernels = Kernels{
		Table:   "bm_fact",
		Filter:  scanSQL(subRand(p.Seed, 11), "full"),
		AggLow:  joinSQL(subRand(p.Seed, 21), "star"),
		AggHigh: joinSQL(subRand(p.Seed, 22), "colo"),
		Join:    joinSQL(subRand(p.Seed, 23), "join"),
		Sort:    joinSQL(subRand(p.Seed, 24), "topn"),
	}
	return w
}

func joinSQL(rng *rand.Rand, kind string) string {
	switch kind {
	case "star":
		// Replicated dimension + a dimension keyed off the dist key: the
		// planner must broadcast or shuffle bm_prod. 500 groups.
		lo, hi := dateRange(rng, factDays/3)
		return fmt.Sprintf(`SELECT s_region, p_cat, SUM(f_price * f_qty) AS rev, COUNT(*) AS n FROM bm_fact JOIN bm_store ON f_store = s_store JOIN bm_prod ON f_prod = p_prod WHERE f_date BETWEEN DATE '%s' AND DATE '%s' GROUP BY s_region, p_cat ORDER BY rev DESC, s_region, p_cat LIMIT 100`, lo, hi)
	case "colo":
		// Co-located join against the large build side, grouped by customer
		// (tens of thousands of groups), top 100.
		return fmt.Sprintf(`SELECT o_cust, SUM(f_price) AS rev, COUNT(*) AS n FROM bm_fact JOIN bm_order ON f_order = o_order WHERE o_prio <> %d AND f_qty > %d GROUP BY o_cust ORDER BY rev DESC, o_cust LIMIT 100`, rng.Intn(5), rng.Intn(10))
	case "join":
		// The same co-located join with five groups: under spillMem only the
		// grace hash join spills.
		return fmt.Sprintf(`SELECT o_prio, SUM(f_price) AS rev, COUNT(*) AS n FROM bm_fact JOIN bm_order ON f_order = o_order WHERE f_qty > %d AND f_store <> %d GROUP BY o_prio ORDER BY o_prio LIMIT 100`, rng.Intn(10), rng.Intn(stores))
	case "distinct":
		return fmt.Sprintf(`SELECT f_store, COUNT(DISTINCT f_cust) AS custs, COUNT(*) AS n FROM bm_fact WHERE f_qty > %d AND f_prod %% 3 = %d GROUP BY f_store ORDER BY f_store LIMIT 100`, rng.Intn(20), rng.Intn(3))
	default: // topn: a wide sort with a limit; under spillMem only the sort spills
		m := 2 + rng.Intn(3)
		return fmt.Sprintf(`SELECT f_order, f_prod, f_price, s_region FROM bm_fact JOIN bm_store ON f_store = s_store WHERE f_cust %% %d = %d ORDER BY f_price DESC, f_order, f_prod LIMIT 100`, m, rng.Intn(m))
	}
}

const (
	eventRows = 200_000
	hotPanels = 64
	prepared  = 8
	fetchRows = 2000
)

// servePoint: the serving tier, plan and result cache at their defaults. A
// long stream of short statements: 70% verbatim repeats from a 64-query hot
// panel set (result-cache hits), 20% fresh-parameter sort-key point lookups
// (parse + plan + one-block exec), 8% EXECUTE of statements PREPAREd at
// session start, 2% LIMIT 2000 fetches (result encoding). wire, sql, plan
// and core's session/cache/admission path do the work; exec and storage do
// little.
func servePoint(p Params) *Workload {
	rows := scaled(eventRows, p.Scale, 4000)
	w := &Workload{Name: ServePoint, Tables: []Table{eventsTable(p.Seed, rows)}}
	w.Setup = analyzeAll(w.Tables)
	rng := subRand(p.Seed, 30)
	hot := make([]string, hotPanels)
	for i := range hot {
		hot[i] = panelSQL(rng, i)
	}
	for i := 0; i < prepared; i++ {
		w.SessionInit = append(w.SessionInit, fmt.Sprintf(`PREPARE panel%d AS %s`, i, panelSQL(rng, hotPanels+i)))
	}
	// One pass over the hot set and the prepared statements fills the
	// result cache before the window opens.
	for _, q := range hot {
		w.Warmup = append(w.Warmup, Stmt{Kind: "hot", SQL: q, Verify: true})
	}
	for i := 0; i < prepared; i++ {
		w.Warmup = append(w.Warmup, Stmt{Kind: "execute", SQL: fmt.Sprintf(`EXECUTE panel%d`, i), Verify: true})
	}
	// Fresh keys come from one permutation, indexed by stream position, so
	// no lookup can repeat an earlier one and turn into a result-cache hit.
	keys := rng.Perm(rows)
	w.stratify(p, 31,
		[]quota{{"hot", 35}, {"point", 10}, {"execute", 4}, {"fetch", 1}},
		func(rng *rand.Rand, kind string, b, j int) Stmt {
			s := Stmt{Kind: kind, Verify: true}
			key := eventsBase + keys[(b*50+j)%rows]
			switch kind {
			case "hot":
				s.SQL = hot[rng.Intn(hotPanels)]
			case "point":
				s.SQL = fmt.Sprintf(`SELECT e_user, e_type, e_val FROM sp_events WHERE e_ts = %d`, key)
			case "execute":
				s.SQL = fmt.Sprintf(`EXECUTE panel%d`, rng.Intn(prepared))
			default:
				s.SQL = fetchSQL(key)
			}
			return s
		})
	w.Kernels = Kernels{
		Table:  "sp_events",
		Filter: `SELECT COUNT(*) FROM sp_events WHERE e_type = 3 AND e_user % 7 < 3`,
		AggLow: hot[1],
		Sort:   fetchSQL(eventsBase),
	}
	return w
}

// fetchSQL is the LIMIT 2000 fetch: a bounded sort-key range, so zone maps
// keep the scan to a few blocks and result encoding is what it measures.
func fetchSQL(key int) string {
	return fmt.Sprintf(`SELECT e_ts, e_user, e_type, e_val FROM sp_events WHERE e_ts >= %d AND e_ts < %d ORDER BY e_ts LIMIT %d`, key, key+2*fetchRows, fetchRows)
}

// panelSQL renders dashboard panel i — the three shapes the multi-tenant
// trace's dashboards use, with parameters spread so all panels differ.
func panelSQL(rng *rand.Rand, i int) string {
	switch i % 3 {
	case 0:
		return fmt.Sprintf(`SELECT COUNT(*) FROM sp_events WHERE e_type = %d AND e_user < %d`, i%eventTypes, 10+i)
	case 1:
		return fmt.Sprintf(`SELECT e_type, COUNT(*), SUM(e_val) FROM sp_events WHERE e_user = %d GROUP BY e_type`, rng.Intn(eventUsers))
	default:
		return fmt.Sprintf(`SELECT MAX(e_val), MIN(e_val) FROM sp_events WHERE e_type = %d AND e_user >= %d`, i%eventTypes, i)
	}
}

// Tenant names and queues of the multi-tenant trace, as in
// cmd/redshift-workload.
var tenants = []workload.TenantSpec{
	{Name: "wallboard", Archetype: workload.Dashboard, Queue: "dash", Rate: 40, Burstiness: 0.3, BurstSize: 6, Repeat: 0.7, Sessions: 4},
	{Name: "nightly-etl", Archetype: workload.ETL, Queue: "etl", Rate: 10, Sessions: 2},
	{Name: "analyst", Archetype: workload.AdHoc, Rate: 5, Repeat: 0.2, Sessions: 2},
}

const (
	tenantScale = 100
	ingestRows  = 50
	// KindIngest and KindIngestMaint are the trickle loader's statements;
	// the other kinds are internal/workload's.
	KindIngest      = "ingest"
	KindIngestMaint = "ingest_maint"
)

// mixedQuotas is the multi-tenant block: per 50 statements 30 dashboard, 4
// ETL writes, 4 ETL transforms, 2 ETL maintenance, 6 ad-hoc, 3 ingest, 1
// ingest maintenance. The 8% of transforms put p95 inside their latency
// mass instead of on the edge between two kinds. The first five kinds are
// internal/workload's tenants.
var mixedQuotas = []quota{
	{workload.KindShort, 30}, {workload.KindWrite, 4}, {workload.KindTransform, 4},
	{workload.KindMaintenance, 2}, {workload.KindAdHoc, 6}, {KindIngest, 3}, {KindIngestMaint, 1},
}

// mixedTenants: writes beside reads. internal/workload synthesizes the
// dashboard, ETL and ad-hoc tenants' statements from the seed; a
// benchmark-generated trickle loader INSERTs 50 rows at a time into the
// dashboards' own table (wl_events) and alternately VACUUMs and ANALYZEs it,
// so result- and plan-cache entries are invalidated by data-version bumps,
// scans cross unsorted regions, and VACUUM's block-cache epoch fence runs
// under read traffic. The tenants' statements keep their per-kind order but
// are interleaved by fixed per-block quotas rather than by arrival offset:
// closed-loop replay ignores offsets anyway, and quotas keep each kind's
// share exact in any window.
func mixedTenants(p Params) *Workload {
	scale := scaled(tenantScale, p.Scale, 2)
	w := &Workload{Name: MixedTenants, NamedQueues: true, InsertLoad: true}
	blocks := (p.Stmts+49)/50 + 1 // + the warm-up block
	// The slowest tenant (ad-hoc: 6 per block at 5/s) needs ~1.2s of arrival
	// horizon per block; double it until every tenant has produced enough of
	// each kind. Each tenant draws from its own seeded generator, so a longer
	// horizon only extends the per-tenant sequences.
	var byKind map[string][]workload.Event
	for dur := time.Duration(blocks) * 1500 * time.Millisecond; ; dur *= 2 {
		st := workload.Synthesize(workload.Workload{Tenants: tenants, Duration: dur, Seed: p.Seed, Scale: scale})
		byKind = map[string][]workload.Event{}
		for _, e := range st.Events {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
		w.Setup = st.Setup
		enough := true
		for _, q := range mixedQuotas[:5] {
			enough = enough && len(byKind[q.kind]) >= q.n*blocks
		}
		if enough {
			break
		}
	}
	w.Tables = insertLoaded(w.Setup)
	w.Counts = map[string]int{}
	for i := range w.Tables {
		t := &w.Tables[i]
		t.Mutable = t.Name == "wl_events" || t.Name == "wl_stage"
		if t.Mutable {
			w.Counts[t.Name] = t.Rows
		}
	}
	queueOf := map[string]string{}
	for _, t := range tenants {
		queueOf[t.Name] = t.Queue
	}
	w.stratify(p, 40, mixedQuotas, func(rng *rand.Rand, kind string, b, j int) Stmt {
		switch kind {
		case KindIngest:
			var sb strings.Builder
			sb.WriteString(`INSERT INTO wl_events VALUES `)
			for i := 0; i < ingestRows; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, %d, %g)", 2_000_000+(b*50+j)*ingestRows+i, rng.Intn(50), rng.Intn(8), float64(rng.Intn(4000))*0.25)
			}
			return writeStmt(kind, sb.String(), "")
		case KindIngestMaint:
			if b%2 == 0 {
				return Stmt{Kind: kind, SQL: `VACUUM wl_events`}
			}
			return Stmt{Kind: kind, SQL: `ANALYZE wl_events`}
		}
		return Stmt{Kind: kind} // a tenant statement, filled in below
	})
	// Tenant statements are taken in per-kind FIFO order: block b's i-th
	// statement of a kind is that kind's (b*quota+i)-th synthesized event.
	quotaOf := map[string]int{}
	for _, q := range mixedQuotas {
		quotaOf[q.kind] = q.n
	}
	ingest := w.Block
	w.Block = func(b int) []Stmt {
		out := ingest(b)
		taken := map[string]int{}
		for i := range out {
			kind := out[i].Kind
			if out[i].SQL != "" {
				continue
			}
			e := byKind[kind][b*quotaOf[kind]+taken[kind]]
			taken[kind]++
			switch kind {
			case workload.KindWrite:
				out[i] = writeStmt(kind, e.SQL, queueOf[e.Tenant])
			case workload.KindTransform, workload.KindAdHoc:
				// wl_orders and wl_lineitems are never written by the
				// stream, so these replies are a function of the seed —
				// unless a LIMIT without ORDER BY leaves the row choice to
				// the engine.
				verify := !strings.Contains(e.SQL, " LIMIT ") || strings.Contains(e.SQL, " ORDER BY ")
				out[i] = Stmt{Kind: kind, SQL: e.SQL, QueryGroup: queueOf[e.Tenant], Verify: verify}
			default:
				out[i] = Stmt{Kind: kind, SQL: e.SQL, QueryGroup: queueOf[e.Tenant]}
			}
		}
		return out
	}
	w.warmWithFirstBlock()
	w.Kernels = Kernels{
		Table:   "wl_lineitems",
		Filter:  `SELECT COUNT(*) FROM wl_lineitems WHERE l_qty > 3 AND l_partkey % 7 < 3`,
		AggLow:  `SELECT o_region, SUM(l_price * l_qty), COUNT(*) FROM wl_orders JOIN wl_lineitems ON o_id = l_orderkey WHERE l_partkey <> 7 GROUP BY o_region`,
		AggHigh: `SELECT l_partkey, AVG(l_price) FROM wl_lineitems WHERE l_qty > 2 GROUP BY l_partkey`,
		Join:    `SELECT o_region, SUM(l_price * l_qty), COUNT(*) FROM wl_orders JOIN wl_lineitems ON o_id = l_orderkey WHERE l_partkey <> 7 GROUP BY o_region`,
	}
	return w
}

// writeStmt wraps a multi-row INSERT with its write accounting.
func writeStmt(kind, sqlText, queue string) Stmt {
	table, csv := ValuesCSV(sqlText)
	return Stmt{Kind: kind, SQL: sqlText, QueryGroup: queue, Table: table, Rows: strings.Count(csv, "\n"), UserBytes: len(csv)}
}

// ValuesCSV converts `INSERT INTO t VALUES (a, b), (c, d)` — the only INSERT
// shape the generators render — into the table name and the '|'-delimited
// lines COPY would load for the same rows. It gives writes their raw user
// byte count and lets the reference engine bulk-load an INSERT-built table.
func ValuesCSV(sqlText string) (table, csv string) {
	const head, mid = "INSERT INTO ", " VALUES ("
	i := strings.Index(sqlText, mid)
	if !strings.HasPrefix(sqlText, head) || i < 0 {
		return "", ""
	}
	body := strings.TrimSuffix(sqlText[i+len(mid):], ")")
	body = strings.ReplaceAll(body, "), (", "\n")
	return sqlText[len(head):i], strings.ReplaceAll(body, ", ", "|") + "\n"
}

// insertLoaded rebuilds COPY-loadable tables from a setup script of CREATE
// TABLE and multi-row INSERT statements.
func insertLoaded(setup []string) []Table {
	var tables []Table
	index := map[string]int{}
	for _, s := range setup {
		if rest, ok := strings.CutPrefix(s, "CREATE TABLE "); ok {
			name := rest[:strings.IndexByte(rest, ' ')]
			index[name] = len(tables)
			tables = append(tables, Table{Name: name, DDL: s, Objects: [][]byte{nil}})
			continue
		}
		name, csv := ValuesCSV(s)
		if i, ok := index[name]; ok {
			t := &tables[i]
			t.Objects[0] = append(t.Objects[0], csv...)
			t.Rows += strings.Count(csv, "\n")
			t.UserBytes += int64(len(csv))
			t.DecodedBytes = int64(t.Rows) * 32
		}
	}
	return tables
}
