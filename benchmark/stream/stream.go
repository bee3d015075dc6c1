// Package stream generates the benchmark's inputs: the tables each
// workload loads and the ordered statement stream it replays. Everything
// here is a pure function of (workload, seed, size) — the engine sees only
// the SQL and CSV bytes this package renders, and the same arguments always
// render the same bytes.
//
// Streams are stratified, not sampled: each is a sequence of fixed-size
// blocks holding an exact count of every statement kind, shuffled inside
// the block by the seed. A window of any length therefore replays almost
// exactly the declared mix, which keeps run-to-run spread (across seeds and
// across runs) well below the benchmark's regression bounds.
package stream

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload names, in the order `-workload all` runs them.
const (
	ScanAgg      = "scan_agg"
	JoinGroupBy  = "join_groupby"
	ServePoint   = "serve_point"
	MixedTenants = "mixed_tenants"
)

// Names lists every workload.
var Names = []string{ScanAgg, JoinGroupBy, ServePoint, MixedTenants}

// Stmt is one statement of a stream.
type Stmt struct {
	// Kind groups statements for per-kind latency and mix accounting.
	Kind string
	SQL  string
	// WorkMem and QueryGroup are the session settings the statement runs
	// under ("" = the session default). The replay client issues the SETs
	// whenever a connection's current settings differ.
	WorkMem    string
	QueryGroup string
	// Verify marks a reply that is a deterministic function of the seed,
	// so its digest can be held against a golden or a twin engine. Reads of
	// tables the stream itself mutates, and LIMIT without ORDER BY, are not.
	Verify bool
	// Write accounting: rows and raw delimited bytes an INSERT adds.
	Table     string
	Rows      int
	UserBytes int
}

// Table is one table the workload creates before the stream starts.
type Table struct {
	Name string
	DDL  string
	// Objects are the delimited parts COPY loads (nil for tables the
	// workload fills with INSERT statements in Setup).
	Objects   [][]byte
	Rows      int
	UserBytes int64
	// DecodedBytes estimates the table's decoded in-memory size (8 bytes
	// per fixed-width value, string payload plus a 16-byte header) — what
	// the block cache would need to hold all of it.
	DecodedBytes int64
	// Mutable marks a table the stream writes to: its reads are not
	// digest-checked and the reference engine does not load it.
	Mutable bool
}

// Kernels names the SELECTs whose plans supply fragments (predicate, group
// keys and aggregates, join step, order keys) to the traced run's kernel
// pass, and the table whose blocks feed the decode and codec kernels. An
// empty SQL means the workload does not exercise that kernel.
type Kernels struct {
	Table   string
	Filter  string
	AggLow  string
	AggHigh string
	Join    string
	Sort    string
}

// Workload is everything one workload needs: tables, load statements,
// per-connection session set-up, and the statement stream.
type Workload struct {
	Name   string
	Tables []Table
	// Setup runs once after the tables are created and COPY-loaded. With
	// InsertLoad the warehouse under test runs only Setup, which then holds
	// the CREATE TABLE and INSERT statements itself, and Tables is the
	// COPY-loadable equivalent the reference engine bulk-loads.
	Setup      []string
	InsertLoad bool
	// SessionInit runs on every replay connection before any stream
	// statement (SET result_cache, PREPAREs).
	SessionInit []string
	// Warmup is replayed untimed as the last step of set-up (cache
	// warm-up); the timed window replays Block(0), Block(1), … after it.
	Warmup []Stmt
	// The stream is Blocks blocks of BlockLen statements. Block renders
	// block b from (seed, b) alone, so replay clients generate blocks as
	// they reach them instead of holding a long stream in memory.
	BlockLen int
	Blocks   int
	Block    func(b int) []Stmt
	// BlockCacheFrac, when > 0, sizes the block cache to that fraction of
	// the fact table's decoded size (working set larger than the cache);
	// 0 keeps the engine default.
	BlockCacheFrac float64
	// NamedQueues launches the warehouse with the express/dash/etl/default
	// WLM queues the multi-tenant trace routes into.
	NamedQueues bool
	// Counts maps each table the stream INSERTs into to its row count
	// before the stream starts, for the final row-count invariant.
	Counts  map[string]int
	Kernels Kernels
}

// Params sizes a workload.
type Params struct {
	Seed int64
	// Scale multiplies table rows; 1 is the committed benchmark size and
	// the smoke test runs at 1/50.
	Scale float64
	// Stmts bounds the stream length (rounded up to whole blocks). The
	// replay stops at the deadline or at the end of the stream, whichever
	// comes first.
	Stmts int
}

// Generate renders the named workload.
func Generate(name string, p Params) (*Workload, error) {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	switch name {
	case ScanAgg:
		return scanAgg(p), nil
	case JoinGroupBy:
		return joinGroupBy(p), nil
	case ServePoint:
		return servePoint(p), nil
	case MixedTenants:
		return mixedTenants(p), nil
	}
	return nil, fmt.Errorf("stream: unknown workload %q (have %v)", name, Names)
}

// quota is one kind's exact count per block.
type quota struct {
	kind string
	n    int
}

// stratify installs the workload's stream: blocks holding each kind
// exactly quota times, shuffled by a generator derived from (seed, purpose,
// block). gen draws statement j of block b from that same generator.
func (w *Workload) stratify(p Params, purpose int64, quotas []quota, gen func(rng *rand.Rand, kind string, b, j int) Stmt) {
	var kinds []string
	for _, q := range quotas {
		for i := 0; i < q.n; i++ {
			kinds = append(kinds, q.kind)
		}
	}
	w.BlockLen = len(kinds)
	w.Blocks = (p.Stmts + w.BlockLen - 1) / w.BlockLen
	w.Block = func(b int) []Stmt {
		rng := subRand(p.Seed, purpose*1_000_000+int64(b))
		order := append([]string(nil), kinds...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		out := make([]Stmt, len(order))
		for j, k := range order {
			out[j] = gen(rng, k, b, j)
		}
		return out
	}
}

// Len is the number of statement ids: the warm-up prefix, then the stream.
func (w *Workload) Len() int { return len(w.Warmup) + w.Blocks*w.BlockLen }

// At returns the statement with the given id: warm-up statements come
// first, then the stream in block order.
func (w *Workload) At(id int) Stmt {
	if id < len(w.Warmup) {
		return w.Warmup[id]
	}
	i := id - len(w.Warmup)
	return w.Block(i / w.BlockLen)[i%w.BlockLen]
}

// warmWithFirstBlock makes block 0 the warm-up prefix and starts the stream
// at block 1, so the warm-up — like every block — does not depend on how
// long a stream was asked for.
func (w *Workload) warmWithFirstBlock() {
	render := w.Block
	w.Warmup = render(0)
	w.Block = func(b int) []Stmt { return render(b + 1) }
}

// Render serializes the warm-up prefix and the first blocks blocks — the
// determinism tests compare renders byte for byte.
func (w *Workload) Render(blocks int) string {
	var sb strings.Builder
	line := func(s Stmt) {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%v\t%s\n", s.Kind, s.WorkMem, s.QueryGroup, s.Verify, s.SQL)
	}
	for _, s := range w.Warmup {
		line(s)
	}
	for b := 0; b < blocks && b < w.Blocks; b++ {
		for _, s := range w.Block(b) {
			line(s)
		}
	}
	return sb.String()
}

// scaled returns round(n*scale), at least min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// subRand derives an independent generator for one purpose of a seed.
func subRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}
