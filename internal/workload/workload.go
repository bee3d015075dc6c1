// Package workload synthesizes multi-tenant query streams in the spirit of
// Redbench (workload synthesis from cloud traces): tenants are archetypes —
// dashboard refreshers firing high-repeat parameterized short queries on a
// bursty Poisson arrival process, ETL batches running write/transform/
// maintenance waves, ad-hoc analysts issuing low-repeat heavy joins — and a
// seeded generator turns the mix into one deterministic, replayable stream.
// The replay driver (replay.go) runs a stream against a live engine and
// folds per-statement outcomes into a Report (report.go); the QoS batteries
// use the pair to put the WLM's named queues under realistic pressure.
package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Archetype names a tenant behavior class.
type Archetype string

const (
	// Dashboard refreshers: short parameterized SELECTs, heavily repeated
	// (high result-cache affinity), bursty arrivals — a wallboard redraw
	// fires its whole panel at once.
	Dashboard Archetype = "dashboard"
	// ETL batches: waves of INSERT loads followed by heavy transform
	// SELECTs and a VACUUM/ANALYZE maintenance tail.
	ETL Archetype = "etl"
	// AdHoc analysts: low-repeat joins and aggregates with shifting
	// predicates — the queries nobody saw coming.
	AdHoc Archetype = "adhoc"
)

// Statement kinds recorded on events and in replay samples.
const (
	KindShort       = "short"       // dashboard refresh query
	KindTransform   = "transform"   // ETL heavy transform SELECT
	KindWrite       = "write"       // ETL INSERT load
	KindMaintenance = "maintenance" // VACUUM / ANALYZE
	KindAdHoc       = "adhoc"       // analyst exploration query
)

// TenantSpec is one tenant's behavior.
type TenantSpec struct {
	Name      string
	Archetype Archetype
	// Queue is the WLM queue this tenant's sessions SET query_group to
	// ("" = default queue).
	Queue string
	// Rate is the tenant's mean arrival rate in statements/second of
	// workload time (exponential inter-arrivals; <= 0 defaults to 1).
	Rate float64
	// Burstiness is the probability an arrival is a burst head: the whole
	// burst lands at one instant (a dashboard redraw, an ETL wave).
	Burstiness float64
	// BurstSize is statements per burst (default 6).
	BurstSize int
	// Repeat is the probability a dashboard/ad-hoc statement re-issues the
	// tenant's previous statement verbatim instead of drawing fresh
	// parameters — what makes dashboards cache-friendly.
	Repeat float64
	// Sessions is the tenant's replay concurrency (default 1).
	Sessions int
}

// Workload is a complete synthesis spec.
type Workload struct {
	Tenants []TenantSpec
	// Duration is the arrival horizon in workload time. Replay compresses
	// or dilates it (see ReplayOptions.Pace); closed-loop replay ignores
	// offsets entirely.
	Duration time.Duration
	Seed     int64
	// Scale multiplies the seed dataset size (default 1 ≈ 4k rows).
	Scale int
}

// Event is one scheduled statement.
type Event struct {
	// Offset is the arrival time relative to replay start.
	Offset time.Duration
	Tenant string
	Kind   string
	SQL    string
	// Seq orders events within a tenant (and tie-breaks equal offsets).
	Seq int
}

// Stream is a synthesized workload: run Setup once, then replay Events.
type Stream struct {
	Seed   int64
	Setup  []string
	Events []Event
}

// Synthesize expands a workload spec into its deterministic stream: the
// same spec and seed always yield byte-identical SQL and arrival schedule.
// Each tenant draws from its own seeded generator (derived from the
// workload seed and the tenant name), so adding a tenant never perturbs
// the others' streams.
func Synthesize(w Workload) *Stream {
	scale := w.Scale
	if scale <= 0 {
		scale = 1
	}
	dur := w.Duration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	s := &Stream{Seed: w.Seed, Setup: setupSQL(w.Seed, scale)}
	for _, t := range w.Tenants {
		s.Events = append(s.Events, synthTenant(t, w.Seed, dur)...)
	}
	// Merge tenant streams into one schedule. The tie-break (name, seq)
	// keeps the order total, so the schedule is deterministic even when
	// bursts from different tenants collide at one instant.
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Seq < b.Seq
	})
	return s
}

// Render serializes the stream's schedule and SQL — the determinism
// battery compares renders byte-for-byte across Synthesize calls.
func (s *Stream) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d\n", s.Seed)
	for _, stmt := range s.Setup {
		fmt.Fprintf(&b, "setup: %s\n", stmt)
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, "%12d %s/%s: %s\n", e.Offset.Microseconds(), e.Tenant, e.Kind, e.SQL)
	}
	return b.String()
}

// subSeed derives a tenant's generator seed from the workload seed, so
// tenants are independent but jointly deterministic.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// synthTenant generates one tenant's events on an exponential arrival
// process with burst heads.
func synthTenant(t TenantSpec, seed int64, dur time.Duration) []Event {
	rng := rand.New(rand.NewSource(subSeed(seed, t.Name)))
	rate := t.Rate
	if rate <= 0 {
		rate = 1
	}
	burst := t.BurstSize
	if burst <= 0 {
		burst = 6
	}
	gen := newStatementGen(t, rng)
	var events []Event
	seq := 0
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		n := 1
		if t.Burstiness > 0 && rng.Float64() < t.Burstiness {
			n = burst
		}
		for i := 0; i < n; i++ {
			kind, sqlText := gen.next()
			events = append(events, Event{Offset: at, Tenant: t.Name, Kind: kind, SQL: sqlText, Seq: seq})
			seq++
		}
	}
	return events
}

// statementGen draws one tenant's statements. All randomness comes from
// the tenant's own rng — never the global source, never the clock.
type statementGen struct {
	t    TenantSpec
	rng  *rand.Rand
	last struct {
		sql string
		ok  bool
	}
	// etlStep cycles write → write → transform → transform → maintenance,
	// the shape of one ETL wave.
	etlStep int
	// etlBatch numbers INSERT batches so generated rows never collide.
	etlBatch int
}

func newStatementGen(t TenantSpec, rng *rand.Rand) *statementGen {
	return &statementGen{t: t, rng: rng}
}

func (g *statementGen) next() (kind, sqlText string) {
	switch g.t.Archetype {
	case ETL:
		kind, sqlText = g.nextETL()
	case AdHoc:
		kind, sqlText = KindAdHoc, g.repeatOrDraw(&adHocQueries)
	default:
		kind, sqlText = KindShort, g.repeatOrDraw(&dashboardQueries)
	}
	return kind, sqlText
}

// dashboardQueries are the short panel queries a dashboard tenant draws.
var dashboardQueries = [3]template{
	{`SELECT COUNT(*) FROM wl_events WHERE e_type = %d`, 8},
	{`SELECT e_type, COUNT(*) FROM wl_events WHERE e_user = %d GROUP BY e_type`, 50},
	{`SELECT MAX(e_val) FROM wl_events WHERE e_type = %d`, 8},
}

// adHocQueries are exploration queries: joins and grouped aggregates with
// shifting predicates.
var adHocQueries = [3]template{
	{`SELECT o_custkey, SUM(o_total) FROM wl_orders WHERE o_region = %d GROUP BY o_custkey`, 5},
	{`SELECT o_id, o_total FROM wl_orders JOIN wl_lineitems ON o_id = l_orderkey WHERE l_qty > %d LIMIT 100`, 6},
	{`SELECT l_partkey, AVG(l_price) FROM wl_lineitems WHERE l_qty > %d GROUP BY l_partkey`, 6},
}

// template is a statement with one integer parameter drawn from [0, bound).
type template struct {
	format string
	bound  int
}

// repeatOrDraw re-issues the previous statement with probability Repeat,
// else fills one of the three templates.
func (g *statementGen) repeatOrDraw(ts *[3]template) string {
	if g.last.ok && g.rng.Float64() < g.t.Repeat {
		return g.last.sql
	}
	t := ts[g.rng.Intn(3)]
	g.last.sql, g.last.ok = fmt.Sprintf(t.format, g.rng.Intn(t.bound)), true
	return g.last.sql
}

// nextETL cycles a wave: bulk INSERTs, then heavy transforms (each with a
// fresh predicate so no transform ever hits the result cache), then a
// maintenance statement.
func (g *statementGen) nextETL() (string, string) {
	step := g.etlStep
	g.etlStep = (g.etlStep + 1) % 5
	switch step {
	case 0, 1:
		g.etlBatch++
		var b strings.Builder
		b.WriteString(`INSERT INTO wl_stage VALUES `)
		base := int64(1_000_000) + int64(g.etlBatch)*100
		for i := 0; i < 20; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %g)", base+int64(i), g.rng.Intn(300), 1+g.rng.Intn(7), float64(g.rng.Intn(1000))/10)
		}
		return KindWrite, b.String()
	case 2, 3:
		// The fanout join over the two biggest tables — what saturates the
		// ETL queue's slots for long stretches.
		return KindTransform, fmt.Sprintf(
			`SELECT o_region, SUM(l_price * l_qty), COUNT(*) FROM wl_orders JOIN wl_lineitems ON o_id = l_orderkey WHERE l_partkey <> %d GROUP BY o_region`,
			g.rng.Intn(100_000))
	default:
		if g.rng.Intn(2) == 0 {
			return KindMaintenance, `VACUUM wl_stage`
		}
		return KindMaintenance, `ANALYZE wl_stage`
	}
}

// setupSQL builds the shared schema and its deterministic seed data. Three
// tables shaped like a miniature retail warehouse: orders and lineitems
// collocated on the join key for the ETL transforms, events as the
// dashboard target.
func setupSQL(seed int64, scale int) []string {
	rng := rand.New(rand.NewSource(subSeed(seed, "~setup")))
	stmts := []string{
		`CREATE TABLE wl_orders (o_id BIGINT NOT NULL, o_custkey BIGINT, o_region BIGINT, o_total DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(o_id)`,
		`CREATE TABLE wl_lineitems (l_orderkey BIGINT NOT NULL, l_partkey BIGINT, l_qty BIGINT, l_price DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(l_orderkey)`,
		`CREATE TABLE wl_events (e_ts BIGINT NOT NULL, e_user BIGINT, e_type BIGINT, e_val DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(e_user)`,
		// wl_stage is the ETL tenant's landing zone: its INSERT/VACUUM churn
		// stays off the dashboard's tables, so the only cross-tenant
		// interference is what the WLM governs — slots and memory.
		`CREATE TABLE wl_stage (s_id BIGINT NOT NULL, s_partkey BIGINT, s_qty BIGINT, s_price DOUBLE PRECISION) DISTSTYLE KEY DISTKEY(s_id)`,
	}
	orders, lineitems, events := 400*scale, 1600*scale, 1000*scale
	stmts = append(stmts, insertBatches("wl_orders", orders, 200, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %g)", i, rng.Intn(200), rng.Intn(5), float64(rng.Intn(100000))/100)
	})...)
	stmts = append(stmts, insertBatches("wl_lineitems", lineitems, 200, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %g)", rng.Intn(400*scale), rng.Intn(300), 1+rng.Intn(7), float64(rng.Intn(50000))/100)
	})...)
	stmts = append(stmts, insertBatches("wl_events", events, 200, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %g)", 500_000+i, rng.Intn(50), rng.Intn(8), float64(rng.Intn(1000))/10)
	})...)
	stmts = append(stmts, `ANALYZE wl_orders`, `ANALYZE wl_lineitems`, `ANALYZE wl_events`)
	return stmts
}

// insertBatches renders n generated rows as multi-row INSERTs of batch
// rows each.
func insertBatches(table string, n, batch int, row func(i int) string) []string {
	var stmts []string
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for i := start; i < end; i++ {
			if i > start {
				b.WriteString(", ")
			}
			b.WriteString(row(i))
		}
		stmts = append(stmts, b.String())
	}
	return stmts
}
