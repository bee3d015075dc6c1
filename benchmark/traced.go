package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"redshift/benchmark/report"
	"redshift/benchmark/span"
	"redshift/benchmark/stream"
	"redshift/internal/plan"
	"redshift/internal/sql"
)

// staged is what the stage-by-stage pass of the traced run measured.
type staged struct {
	stmts int
	// mean microseconds per statement of each stage span, keyed by span name
	stageUs map[string]float64
	// lifecycleSelfUs is the median self time of core.execute: the span
	// minus the queue, plan and exec time the engine itself reported.
	lifecycleSelfUs float64
	parseAllocs     float64
	execMs          float64 // mean engine-reported exec time
	scanNsPerRow    float64 // summed exec time / summed rows scanned
	respBytes       float64 // mean json-encoded reply size
	coverage        float64 // median share of a root span its stage spans cover
}

// isRead reports whether the statement may be re-executed freely.
func isRead(s stream.Stmt) bool {
	return strings.HasPrefix(s.SQL, "SELECT") || strings.HasPrefix(s.SQL, "EXECUTE")
}

// stagedPass replays the given statement ids serially, one stage at a time,
// calling each layer's public entry point itself and recording a span
// around the call: sql.parse, sql.normalize, plan.build, plan.physical,
// core.execute (Session.ExecuteStmtContext, with core.queue / core.plan /
// exec.run children synthesized from Result.Stats) and wire.query (the same
// statement over TCP), all under one root span per statement. Writes are
// skipped: the pass must not change what the tables hold.
func (in *instance) stagedPass(rec *span.Recorder, ids []int) (staged, error) {
	db := in.wh.DB()
	sess := in.wh.NewSession()
	defer sess.Close()
	for _, s := range in.w.SessionInit {
		if _, err := sess.Execute(s); err != nil {
			return staged{}, fmt.Errorf("staged session: %w", err)
		}
	}
	popts := plan.DefaultOptions()
	popts.NumNodes = db.Cluster().NumNodes()
	ctx := context.Background()
	cn := in.conns[0]
	var sessSettings settings
	sessExec := func(q string) error {
		_, err := sess.Execute(q)
		return err
	}

	var st staged
	var texts []string
	var execNs, rowsScanned, respBytes int64
	first := rec.Len()
	for _, id := range ids {
		stmt := in.w.At(id)
		if !isRead(stmt) {
			continue
		}
		// Bring both the in-process session and the connection to the
		// statement's settings before the root span opens.
		if err := sessSettings.settle(stmt, sessExec); err != nil {
			return st, err
		}
		if err := cn.settle(stmt, cn.exec); err != nil {
			return st, err
		}

		root := rec.Begin("stmt", -1, id)
		sp := rec.Begin("sql.parse", root, id)
		ast, err := sql.Parse(stmt.SQL)
		rec.End(sp)
		if err != nil {
			return st, fmt.Errorf("staged stmt %d: %w", id, err)
		}
		sp = rec.Begin("sql.normalize", root, id)
		_ = sql.Normalize(ast)
		rec.End(sp)
		if sel, ok := ast.(*sql.Select); ok && sel.From != nil {
			sp = rec.Begin("plan.build", root, id)
			p, err := plan.BuildWith(db.Catalog(), sel, popts)
			rec.End(sp)
			if err != nil {
				return st, fmt.Errorf("staged stmt %d: %w", id, err)
			}
			sp = rec.Begin("plan.physical", root, id)
			_ = plan.BuildPhysical(p)
			rec.End(sp)
		}
		sp = rec.Begin("core.execute", root, id)
		res, err := sess.ExecuteStmtContext(ctx, ast)
		rec.End(sp)
		if err != nil {
			return st, fmt.Errorf("staged stmt %d: %w", id, err)
		}
		at := rec.StartOf(sp)
		rec.Add("core.queue", sp, id, at, res.Stats.QueueWait)
		rec.Add("core.plan", sp, id, at+res.Stats.QueueWait, res.Stats.PlanTime)
		rec.Add("exec.run", sp, id, at+res.Stats.QueueWait+res.Stats.PlanTime, res.Stats.ExecTime)
		execNs += res.Stats.ExecTime.Nanoseconds()
		rowsScanned += res.Stats.RowsScanned

		sp = rec.Begin("wire.query", root, id)
		resp, _, err := cn.query(stmt.SQL)
		rec.End(sp)
		rec.End(root)
		if err != nil {
			return st, fmt.Errorf("staged stmt %d: %w", id, err)
		}
		if resp.Error != "" {
			return st, fmt.Errorf("staged stmt %d: %s", id, resp.Error)
		}
		if enc, err := json.Marshal(resp); err == nil {
			respBytes += int64(len(enc))
		}
		texts = append(texts, stmt.SQL)
		st.stmts++
	}
	if st.stmts == 0 {
		return st, nil
	}

	// Parser allocations: one more pass over the same texts, bracketed by
	// two heap-counter readings, with nothing else running.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range texts {
		if _, err := sql.Parse(q); err != nil {
			return st, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(st.stmts)
	st.parseAllocs = float64(after.Mallocs-before.Mallocs) / n
	st.execMs = float64(execNs) / 1e6 / n
	if rowsScanned > 0 {
		st.scanNsPerRow = float64(execNs) / float64(rowsScanned)
	}
	st.respBytes = float64(respBytes) / n

	spans := rec.Spans()
	self := span.SelfTimes(spans)
	sums := map[string]time.Duration{}
	var lifecycle, coverage []float64
	covered := map[int]time.Duration{} // root span → summed stage durations
	for i := first; i < len(spans); i++ {
		s := spans[i]
		sums[s.Name] += s.Dur()
		if s.Name == "core.execute" {
			lifecycle = append(lifecycle, float64(self[i].Nanoseconds())/1e3)
		}
		if s.Parent >= first && spans[s.Parent].Name == "stmt" {
			covered[s.Parent] += s.Dur()
		}
	}
	for p, d := range covered {
		if root := spans[p].Dur(); root > 0 {
			coverage = append(coverage, float64(d)/float64(root))
		}
	}
	st.stageUs = map[string]float64{}
	for name, d := range sums {
		st.stageUs[name] = float64(d.Nanoseconds()) / 1e3 / n
	}
	st.lifecycleSelfUs = median(lifecycle)
	st.coverage = median(coverage)
	return st, nil
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	_, med, _ := report.Quartiles(xs)
	return med
}
