package core

import (
	"hash/maphash"
	"slices"
	"time"
	"unsafe"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/telemetry"
	"redshift/internal/types"
)

// tableVersion pins one referenced table's data version at artifact-build
// time; an artifact is valid only while every pinned version still matches
// the catalog.
type tableVersion struct {
	id  int64
	ver int64
}

// planEntry is a cached bound plan plus its invalidation key: the global
// catalog version (any DDL moves it) and the referenced tables' data
// versions (COPY/INSERT/DELETE/VACUUM/ANALYZE move those — ANALYZE matters
// because the plan embeds cardinality estimates from the stats it saw).
type planEntry struct {
	p          *plan.Plan
	catVersion int64
	tables     []tableVersion
}

// resultEntry is a cached query result plus the data versions of every
// table it read, captured before the executing query took its snapshot —
// so a version-matched hit can never be staler than executing again.
type resultEntry struct {
	schema types.Schema
	rows   []types.Row
	tables []tableVersion
}

// versionsMatch reports whether every pinned table data version still
// matches the live catalog — the lazy invalidation check both caches share.
func (db *Database) versionsMatch(tvs []tableVersion) bool {
	for _, tv := range tvs {
		if db.cat.DataVersion(tv.id) != tv.ver {
			return false
		}
	}
	return true
}

// captureTableVersions pins the current data version of every table a plan
// references, sorted by table id (deterministic, deduplicated — a
// self-join references one version, not two).
func (db *Database) captureTableVersions(p *plan.Plan) []tableVersion {
	ids := make([]int64, len(p.Tables))
	for i, t := range p.Tables {
		ids[i] = t.Def.ID
	}
	slices.Sort(ids)
	out := make([]tableVersion, 0, len(ids))
	for _, id := range slices.Compact(ids) {
		out = append(out, tableVersion{id: id, ver: db.cat.DataVersion(id)})
	}
	return out
}

// planFor is the plan stage of run's lifecycle: bind/plan with reuse. A
// cached plan is returned only while the global catalog version AND every
// referenced table's data version match what it was built under — DDL moves
// the former, data mutations and ANALYZE move the latter (a plan embeds
// cardinality estimates from the statistics it saw, so stale stats must
// invalidate it). The returned plan is immutable after build and shared
// across concurrent queries, its lowered physical tree (plan.Physical)
// included; per-run state (snapshot, visible segments, operator instances)
// is derived fresh each execution. An entry's cost is its plan stage: on a
// miss one more clock reading, after the build, closes the stage so far; a
// hit reads the clock only to enter the stage.
func (db *Database) planFor(run *stmtRun, sel *sql.Select, norm string) (*plan.Plan, error) {
	run.enter(telemetry.StagePlan)
	catVer := db.cat.Version()
	if ent, ok := db.planCache.Get(norm); ok {
		if ent.catVersion == catVer && db.versionsMatch(ent.tables) {
			return ent.p, nil
		}
		db.planCache.Invalidate(norm)
	}
	p, err := plan.BuildWith(db.cat, sel, db.cfg.Plan)
	if err != nil {
		return nil, err
	}
	run.enter(telemetry.StagePlan)
	cost := run.rec.Stages[telemetry.StagePlan]
	db.planCache.Put(norm, planEntry{p: p, catVersion: catVer, tables: db.captureTableVersions(p)}, 1, int64(cost))
	return p, nil
}

// resultCacheable gates the result cache: it needs the cache enabled, the
// session opted in, a data-plane query (leader-only SELECTs are cheaper
// than a lookup; system tables change without version bumps), and only
// deterministic functions.
func (db *Database) resultCacheable(sess *Session, sel *sql.Select) bool {
	if db.resultCache == nil || sess.resultCacheOff.Load() {
		return false
	}
	if sel.From == nil || isSystemTable(sel.From.Table) {
		return false
	}
	for _, j := range sel.Joins {
		if isSystemTable(j.Table.Table) {
			return false
		}
	}
	return deterministicSelect(sel)
}

// deterministicSelect walks every expression position of a SELECT and
// rejects the statement if any function is non-deterministic.
func deterministicSelect(s *sql.Select) bool {
	exprs := make([]sql.Expr, 0, len(s.Items)+len(s.Joins)+len(s.GroupBy)+len(s.OrderBy)+2)
	for _, it := range s.Items {
		exprs = append(exprs, it.Expr) // nil for *
	}
	for _, j := range s.Joins {
		exprs = append(exprs, j.On)
	}
	exprs = append(exprs, s.Where, s.Having)
	exprs = append(exprs, s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if !deterministicExpr(e) {
			return false
		}
	}
	return true
}

func deterministicExpr(e sql.Expr) bool {
	return sql.Walk(e, func(x sql.Expr) bool {
		call, ok := x.(*sql.FuncCall)
		return !ok || call.Name.Deterministic()
	})
}

// resultLookup serves a stored result if its version key still matches; a
// mismatch deletes the entry (lazy invalidation — mutations never scan the
// cache) and marks the key seen, so its next run is stored again at once.
// The hit shares the stored schema and rows (callers treat results as
// read-only) under a fresh header with zeroed stats and Cached set.
func (db *Database) resultLookup(norm string) (*Result, bool) {
	ent, ok := db.resultCache.Get(norm)
	if !ok {
		return nil, false
	}
	if !db.versionsMatch(ent.tables) {
		db.resultCache.Invalidate(norm)
		db.sawBefore(norm)
		return nil, false
	}
	return &Result{Schema: ent.schema, Rows: ent.rows, Cached: true}, true
}

// ghostSeed seeds the admission ghost's hashes of normalized keys.
var ghostSeed = maphash.MakeSeed()

// sawBefore marks norm seen in the admission ghost and reports whether it
// was already. The ghost is direct-mapped: a colliding key overwrites the
// slot, which costs the key it held one more miss.
func (db *Database) sawBefore(norm string) bool {
	h := maphash.String(ghostSeed, norm)
	return db.ghost[h%uint64(len(db.ghost))].Swap(h) == h
}

// resultStore caches a completed result under the version key captured
// before the query took its snapshot, priced by cost — what producing it
// took. A key is admitted on second sight (TinyLFU's doorkeeper): the first
// run only marks it seen, so one-shot results never occupy the cache.
// Oversized results (more than a quarter of the budget) are not stored —
// one giant result must not wipe the working set.
func (db *Database) resultStore(norm string, res *Result, tables []tableVersion, cost time.Duration) {
	if !db.sawBefore(norm) {
		db.metrics.Counter("result_cache_declined_total").Add(1)
	} else if size := resultBytes(norm, res); size <= db.cfg.ResultCacheBytes/4 {
		db.resultCache.Put(norm, resultEntry{schema: res.Schema, rows: res.Rows, tables: tables}, size, int64(cost))
	}
}

// What a cached result holds besides its key's and strings' bytes: per
// value a types.Value, per row a slice header, per column a types.Column,
// and per entry the storage.Cache entry (the resultEntry, the key's header,
// size, cost, two ranks, heap index: 72 B beside the resultEntry) and its
// map and heap slots (≈ 40 B at Go's map load factor and slice growth).
const (
	valueBytes  = int64(unsafe.Sizeof(types.Value{}))
	rowBytes    = int64(unsafe.Sizeof(types.Row{}))
	columnBytes = int64(unsafe.Sizeof(types.Column{}))
	entryBytes  = int64(unsafe.Sizeof(resultEntry{})) + 72 + 40
)

// resultBytes is what caching res under key holds resident: the budget
// the result cache charges it.
func resultBytes(key string, res *Result) int64 {
	n := entryBytes + int64(len(key)) + int64(len(res.Schema.Columns))*columnBytes
	for _, c := range res.Schema.Columns {
		n += int64(len(c.Name))
	}
	for _, row := range res.Rows {
		n += rowBytes + int64(len(row))*valueBytes
		for _, v := range row {
			n += int64(len(v.S))
		}
	}
	return n
}
