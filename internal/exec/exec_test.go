package exec

import (
	"fmt"
	"math"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// both runs a subtest in each engine mode — every behavior must agree.
func both(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Helper()
	for _, mode := range []Mode{Compiled, Interpreted} {
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

func col(i int, t types.Type) plan.Expr { return &plan.Col{Index: i, T: t} }
func icon(v int64) plan.Expr            { return &plan.Const{V: types.NewInt(v)} }
func fcon(v float64) plan.Expr          { return &plan.Const{V: types.NewFloat(v)} }
func scon(s string) plan.Expr           { return &plan.Const{V: types.NewString(s)} }
func bin(op sql.BinOp, l, r plan.Expr, t types.Type) plan.Expr {
	return &plan.Bin{Op: op, L: l, R: r, T: t}
}

// intBatch builds a single-column Int64 batch; -1 sentinel means NULL when
// nullAt matches the index.
func intBatch(vals []int64, nulls map[int]bool) *Batch {
	v := types.NewVector(types.Int64, len(vals))
	for i, x := range vals {
		if nulls[i] {
			v.AppendNull()
		} else {
			v.Append(types.NewInt(x))
		}
	}
	b := NewBatch(1)
	b.Cols[0] = v
	b.N = v.Len()
	return b
}

func evalOne(t *testing.T, mode Mode, e plan.Expr, b *Batch) *types.Vector {
	t.Helper()
	ev, err := NewEvaluator(mode, e)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 2, 3, 0}, map[int]bool{3: true})
		e := bin(sql.OpAdd, bin(sql.OpMul, col(0, types.Int64), icon(10), types.Int64), icon(5), types.Int64)
		v := evalOne(t, mode, e, b)
		want := []int64{15, 25, 35}
		for i, w := range want {
			if v.IsNull(i) || v.Ints[i] != w {
				t.Errorf("row %d = %v, want %d", i, v.Get(i), w)
			}
		}
		if !v.IsNull(3) {
			t.Error("null row should propagate")
		}
	})
}

func TestDivisionByZeroBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{10, 0}, nil)
		e := bin(sql.OpDiv, icon(100), col(0, types.Int64), types.Int64)
		ev, err := NewEvaluator(mode, e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Eval(b); err == nil {
			t.Error("division by zero not reported")
		}
	})
}

func TestDivisionByZeroSkippedOnNullRows(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		// Null placeholder payload is 0 — dividing by a NULL must not
		// raise division by zero.
		b := intBatch([]int64{5, 0}, map[int]bool{1: true})
		e := bin(sql.OpDiv, icon(100), col(0, types.Int64), types.Int64)
		v := evalOne(t, mode, e, b)
		if v.Ints[0] != 20 || !v.IsNull(1) {
			t.Errorf("got %v %v", v.Get(0), v.Get(1))
		}
	})
}

// TestConstantOperandsBothModes pins what a constant operand means on each
// of the compiled engine's paths for one — held by value on either side,
// folded with another constant, NULL — by the interpreted engine's answer,
// errors included.
func TestConstantOperandsBothModes(t *testing.T) {
	c0 := col(0, types.Int64)
	null := &plan.Const{V: types.NewNull(types.Int64)}
	mod0 := bin(sql.OpEq, bin(sql.OpMod, c0, icon(0), types.Int64), icon(1), types.Bool)
	fold0 := bin(sql.OpMod, icon(1), icon(0), types.Int64)
	rows := intBatch([]int64{7, 0, 40}, map[int]bool{1: true})
	cases := []struct {
		name string
		e    plan.Expr
		b    *Batch
		want string // the rendered rows, or "error"
	}{
		{"const - col", bin(sql.OpSub, icon(100), c0, types.Int64), rows, "[93 NULL 60]"},
		{"const < col", bin(sql.OpLt, icon(10), c0, types.Bool), rows, "[false NULL true]"},
		{"const + const < col", bin(sql.OpLt, bin(sql.OpAdd, icon(2), icon(3), types.Int64), c0, types.Bool), rows, "[true NULL true]"},
		{"col / NULL", bin(sql.OpDiv, c0, null, types.Int64), rows, "[NULL NULL NULL]"},
		{"NULL = col", bin(sql.OpEq, null, c0, types.Bool), rows, "[NULL NULL NULL]"},
		{"(100 / col) + NULL", bin(sql.OpAdd, bin(sql.OpDiv, icon(100), c0, types.Int64), null, types.Int64), intBatch([]int64{0}, nil), "error"},
		{"col % 0", mod0, rows, "error"},
		{"col % 0, every row NULL", mod0, intBatch([]int64{0, 0}, map[int]bool{0: true, 1: true}), "[NULL NULL]"},
		{"col % 0, no rows", mod0, intBatch(nil, nil), "[]"},
		{"col > 100 AND col % 0 = 1", bin(sql.OpAnd, bin(sql.OpGt, c0, icon(100), types.Bool), mod0, types.Bool), intBatch([]int64{7, 40}, nil), "[false false]"},
		{"1 % 0", fold0, rows, "error"},
		{"1 % 0, no rows", fold0, intBatch(nil, nil), "[]"},
		{"CASE WHEN col > 100 THEN 1 % 0 END", &plan.Case{Whens: []plan.CaseWhen{{Cond: bin(sql.OpGt, c0, icon(100), types.Bool), Then: fold0}}, T: types.Int64}, rows, "[NULL NULL NULL]"},
	}
	both(t, func(t *testing.T, mode Mode) {
		for _, c := range cases {
			ev, err := NewEvaluator(mode, c.e)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got := "error"
			if v, err := ev.Eval(c.b); err == nil {
				vals := make([]types.Value, v.Len())
				for i := range vals {
					vals[i] = v.Get(i)
				}
				got = fmt.Sprint(vals)
			}
			if got != c.want {
				t.Errorf("%s = %s, want %s", c.name, got, c.want)
			}
		}
	})
}

func TestComparisonsAndTernaryLogic(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 5, 9, 0}, map[int]bool{3: true})
		lt := bin(sql.OpLt, col(0, types.Int64), icon(5), types.Bool)
		ge := bin(sql.OpGe, col(0, types.Int64), icon(9), types.Bool)
		orE := bin(sql.OpOr, lt, ge, types.Bool)
		v := evalOne(t, mode, orE, b)
		wantTrue := []bool{true, false, true}
		for i, w := range wantTrue {
			if got := !v.IsNull(i) && v.Ints[i] != 0; got != w {
				t.Errorf("row %d = %v, want %v", i, got, w)
			}
		}
		if !v.IsNull(3) {
			t.Error("NULL OR NULL should be NULL")
		}

		// NULL AND FALSE = FALSE (ternary).
		andE := bin(sql.OpAnd,
			bin(sql.OpLt, col(0, types.Int64), icon(100), types.Bool), // NULL on row 3
			&plan.Const{V: types.NewBool(false)}, types.Bool)
		v2 := evalOne(t, mode, andE, b)
		if v2.IsNull(3) || v2.Ints[3] != 0 {
			t.Error("NULL AND FALSE must be FALSE")
		}
	})
}

func TestStringOpsBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		v := types.NewVector(types.String, 3)
		v.Append(types.NewString("Books"))
		v.Append(types.NewString("music"))
		v.AppendNull()
		b := NewBatch(1)
		b.Cols[0] = v
		b.N = 3

		lower := &plan.Call{Name: sql.FuncLower, Args: []plan.Expr{col(0, types.String)}, T: types.String}
		lv := evalOne(t, mode, lower, b)
		if lv.Strs[0] != "books" || !lv.IsNull(2) {
			t.Errorf("LOWER = %v", lv)
		}

		like := &plan.Like{E: col(0, types.String), Pattern: "%oo%"}
		lk := evalOne(t, mode, like, b)
		if lk.Ints[0] != 1 || lk.Ints[1] != 0 || !lk.IsNull(2) {
			t.Errorf("LIKE = %v %v %v", lk.Get(0), lk.Get(1), lk.Get(2))
		}

		cmp := bin(sql.OpLt, col(0, types.String), scon("m"), types.Bool)
		cv := evalOne(t, mode, cmp, b)
		if cv.Ints[0] != 1 || cv.Ints[1] != 0 {
			t.Errorf("string < = %v", cv)
		}
	})
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"_", "", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%%x", "x", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.pattern, c.s, got)
		}
	}
}

func TestInListBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 2, 3, 0}, map[int]bool{3: true})
		in := &plan.InList{E: col(0, types.Int64), Vals: []types.Value{types.NewInt(1), types.NewInt(3)}}
		v := evalOne(t, mode, in, b)
		if v.Ints[0] != 1 || v.Ints[1] != 0 || v.Ints[2] != 1 || !v.IsNull(3) {
			t.Errorf("IN = %v", v)
		}
		notIn := &plan.InList{E: col(0, types.Int64), Vals: []types.Value{types.NewInt(1)}, Not: true}
		nv := evalOne(t, mode, notIn, b)
		if nv.Ints[0] != 0 || nv.Ints[1] != 1 {
			t.Errorf("NOT IN = %v", nv)
		}
	})
}

func TestCaseBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 5, 50}, nil)
		c := &plan.Case{
			Whens: []plan.CaseWhen{
				{Cond: bin(sql.OpLt, col(0, types.Int64), icon(3), types.Bool), Then: scon("small")},
				{Cond: bin(sql.OpLt, col(0, types.Int64), icon(10), types.Bool), Then: scon("medium")},
			},
			T: types.String,
		}
		v := evalOne(t, mode, c, b)
		if v.Strs[0] != "small" || v.Strs[1] != "medium" || !v.IsNull(2) {
			t.Errorf("CASE = %v", v)
		}
	})
}

func TestIsNullAndNotBothModes(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 0}, map[int]bool{1: true})
		isn := &plan.IsNull{E: col(0, types.Int64)}
		v := evalOne(t, mode, isn, b)
		if v.Ints[0] != 0 || v.Ints[1] != 1 {
			t.Errorf("IS NULL = %v", v)
		}
		notNull := &plan.IsNull{E: col(0, types.Int64), Not: true}
		v2 := evalOne(t, mode, notNull, b)
		if v2.Ints[0] != 1 || v2.Ints[1] != 0 {
			t.Errorf("IS NOT NULL = %v", v2)
		}
		neg := &plan.Not{E: &plan.IsNull{E: col(0, types.Int64)}}
		v3 := evalOne(t, mode, neg, b)
		if v3.Ints[0] != 1 || v3.Ints[1] != 0 {
			t.Errorf("NOT IS NULL = %v", v3)
		}
	})
}

func TestFilterApply(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{1, 2, 3, 4, 5, 0}, map[int]bool{5: true})
		f, err := NewFilter(mode, bin(sql.OpGt, col(0, types.Int64), icon(2), types.Bool))
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 3 || out.Cols[0].Ints[0] != 3 || out.Cols[0].Ints[2] != 5 {
			t.Errorf("filtered = %v", out.Cols[0])
		}
		// Nil predicate passes through.
		pass, _ := NewFilter(mode, nil)
		same, _ := pass.Apply(b)
		if same != b {
			t.Error("nil filter should pass through")
		}
	})
}

func TestProjector(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{2, 4}, nil)
		p, err := NewProjector(mode, []plan.Expr{
			col(0, types.Int64),
			bin(sql.OpMul, col(0, types.Int64), icon(3), types.Int64),
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 2 || out.Cols[1].Ints[1] != 12 {
			t.Errorf("projected = %+v", out)
		}
	})
}

func mkJoinStep(kind sql.JoinKind) plan.JoinStep {
	return plan.JoinStep{
		Kind:      kind,
		LeftKeys:  []plan.Expr{col(0, types.Int64)},
		RightKeys: []plan.Expr{col(0, types.Int64)},
	}
}

func twoColBatch(ids []int64, names []string) *Batch {
	b := NewBatch(2)
	idv := types.NewVector(types.Int64, len(ids))
	nv := types.NewVector(types.String, len(names))
	for i := range ids {
		idv.Append(types.NewInt(ids[i]))
		nv.Append(types.NewString(names[i]))
	}
	b.Cols[0], b.Cols[1], b.N = idv, nv, len(ids)
	return b
}

func TestHashJoinInner(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		j, err := NewHashJoin(mode, mkJoinStep(sql.InnerJoin), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Build(twoColBatch([]int64{1, 2, 2}, []string{"a", "b", "b2"})); err != nil {
			t.Fatal(err)
		}
		if j.BuildRows() != 3 {
			t.Errorf("BuildRows = %d", j.BuildRows())
		}
		out, err := j.Probe(twoColBatch([]int64{2, 3, 1}, []string{"x", "y", "z"}))
		if err != nil {
			t.Fatal(err)
		}
		// id=2 matches twice, id=3 none, id=1 once → 3 rows.
		if out.N != 3 {
			t.Fatalf("joined %d rows", out.N)
		}
		if out.Cols[0].Ints[0] != 2 || out.Cols[3].Strs[0] != "b" || out.Cols[3].Strs[1] != "b2" {
			t.Errorf("row0 = %v", out.Row(0))
		}
		if out.Cols[0].Ints[2] != 1 || out.Cols[3].Strs[2] != "a" {
			t.Errorf("row2 = %v", out.Row(2))
		}
	})
}

func TestHashJoinLeft(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		j, err := NewHashJoin(mode, mkJoinStep(sql.LeftJoin), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Build(twoColBatch([]int64{1}, []string{"a"})); err != nil {
			t.Fatal(err)
		}
		out, err := j.Probe(twoColBatch([]int64{1, 9}, []string{"x", "y"}))
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 2 {
			t.Fatalf("joined %d rows", out.N)
		}
		if out.Cols[2].IsNull(0) || !out.Cols[2].IsNull(1) {
			t.Errorf("null extension wrong: %v %v", out.Row(0), out.Row(1))
		}
	})
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		j, _ := NewHashJoin(mode, mkJoinStep(sql.InnerJoin), 1)
		bv := types.NewVector(types.Int64, 2)
		bv.AppendNull()
		bv.Append(types.NewInt(7))
		build := NewBatch(1)
		build.Cols[0], build.N = bv, 2
		j.Build(build)

		pv := types.NewVector(types.Int64, 2)
		pv.AppendNull()
		pv.Append(types.NewInt(7))
		probe := NewBatch(1)
		probe.Cols[0], probe.N = pv, 2
		out, err := j.Probe(probe)
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 1 || out.Cols[0].Ints[0] != 7 {
			t.Errorf("NULL keys matched: %d rows", out.N)
		}
	})
}

func TestHashJoinResidual(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		step := mkJoinStep(sql.InnerJoin)
		// Joined layout: [left.id, left.name, right.id, right.name];
		// residual: left.name <> right.name.
		step.Residual = bin(sql.OpNe, col(1, types.String), col(3, types.String), types.Bool)
		j, err := NewHashJoin(mode, step, 2)
		if err != nil {
			t.Fatal(err)
		}
		j.Build(twoColBatch([]int64{1, 1}, []string{"same", "diff"}))
		out, err := j.Probe(twoColBatch([]int64{1}, []string{"same"}))
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 1 || out.Cols[3].Strs[0] != "diff" {
			t.Errorf("residual filtering wrong: %d rows", out.N)
		}
	})
}

func TestGroupTableBasic(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		specs := []plan.AggSpec{
			{Func: sql.FuncCount, T: types.Int64},                           // COUNT(*)
			{Func: sql.FuncSum, Arg: col(0, types.Int64), T: types.Int64},   // SUM(id)
			{Func: sql.FuncAvg, Arg: col(0, types.Int64), T: types.Float64}, // AVG(id)
			{Func: sql.FuncMin, Arg: col(1, types.String), T: types.String}, // MIN(name)
			{Func: sql.FuncMax, Arg: col(1, types.String), T: types.String}, // MAX(name)
			{Func: sql.FuncCount, Arg: col(0, types.Int64), Distinct: true, T: types.Int64},
		}
		g, err := NewGroupTable(mode, []plan.Expr{col(1, types.String)}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Consume(twoColBatch([]int64{1, 2, 3, 2}, []string{"a", "a", "b", "a"})); err != nil {
			t.Fatal(err)
		}
		out, err := g.Result()
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 2 {
			t.Fatalf("groups = %d", out.N)
		}
		// Group "a": count=3 sum=5 avg≈1.667 distinct=2.
		if out.Cols[0].Strs[0] != "a" || out.Cols[1].Ints[0] != 3 || out.Cols[2].Ints[0] != 5 {
			t.Errorf("group a = %v", out.Row(0))
		}
		if av := out.Cols[3].Floats[0]; av < 1.6 || av > 1.7 {
			t.Errorf("avg = %v", av)
		}
		if out.Cols[6].Ints[0] != 2 {
			t.Errorf("count distinct = %v", out.Cols[6].Ints[0])
		}
		// Group "b": count=1 sum=3.
		if out.Cols[0].Strs[1] != "b" || out.Cols[1].Ints[1] != 1 {
			t.Errorf("group b = %v", out.Row(1))
		}
	})
}

func TestGroupTableMergeEqualsSingle(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		specs := []plan.AggSpec{
			{Func: sql.FuncCount, T: types.Int64},
			{Func: sql.FuncSum, Arg: col(0, types.Int64), T: types.Int64},
			{Func: sql.FuncCount, Arg: col(0, types.Int64), Distinct: true, Approx: true, T: types.Int64},
		}
		groupBy := []plan.Expr{col(1, types.String)}

		// One table consuming everything.
		single, _ := NewGroupTable(mode, groupBy, specs)
		// Two tables consuming halves, then merged (slice → leader).
		p1, _ := NewGroupTable(mode, groupBy, specs)
		p2, _ := NewGroupTable(mode, groupBy, specs)

		all := twoColBatch([]int64{1, 2, 3, 4, 5, 6}, []string{"x", "y", "x", "y", "x", "y"})
		single.Consume(all)
		p1.Consume(twoColBatch([]int64{1, 2, 3}, []string{"x", "y", "x"}))
		p2.Consume(twoColBatch([]int64{4, 5, 6}, []string{"y", "x", "y"}))
		p1.Merge(p2)

		a, _ := single.Result()
		b, _ := p1.Result()
		if a.N != b.N {
			t.Fatalf("group counts differ: %d vs %d", a.N, b.N)
		}
		// Compare group by group (order may differ).
		find := func(batch *Batch, key string) types.Row {
			for i := 0; i < batch.N; i++ {
				if batch.Cols[0].Strs[i] == key {
					return batch.Row(i)
				}
			}
			t.Fatalf("group %q missing", key)
			return nil
		}
		for _, key := range []string{"x", "y"} {
			ra, rb := find(a, key), find(b, key)
			for c := range ra {
				if !types.Equal(ra[c], rb[c]) {
					t.Errorf("group %s col %d: %v vs %v", key, c, ra[c], rb[c])
				}
			}
		}
	})
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		specs := []plan.AggSpec{
			{Func: sql.FuncCount, T: types.Int64},
			{Func: sql.FuncSum, Arg: col(0, types.Int64), T: types.Int64},
			{Func: sql.FuncMin, Arg: col(0, types.Int64), T: types.Int64},
		}
		g, _ := NewGroupTable(mode, nil, specs)
		out, err := g.Result()
		if err != nil {
			t.Fatal(err)
		}
		if out.N != 1 {
			t.Fatalf("scalar agg rows = %d", out.N)
		}
		if out.Cols[0].Ints[0] != 0 {
			t.Errorf("COUNT(*) over empty = %v", out.Cols[0].Get(0))
		}
		if !out.Cols[1].IsNull(0) || !out.Cols[2].IsNull(0) {
			t.Error("SUM/MIN over empty must be NULL")
		}
	})
}

func TestAggNullHandling(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		specs := []plan.AggSpec{
			{Func: sql.FuncCount, T: types.Int64},                           // COUNT(*)
			{Func: sql.FuncCount, Arg: col(0, types.Int64), T: types.Int64}, // COUNT(x)
			{Func: sql.FuncAvg, Arg: col(0, types.Int64), T: types.Float64},
		}
		g, _ := NewGroupTable(mode, nil, specs)
		g.Consume(intBatch([]int64{10, 0, 20}, map[int]bool{1: true}))
		out, _ := g.Result()
		if out.Cols[0].Ints[0] != 3 {
			t.Errorf("COUNT(*) = %d", out.Cols[0].Ints[0])
		}
		if out.Cols[1].Ints[0] != 2 {
			t.Errorf("COUNT(x) = %d", out.Cols[1].Ints[0])
		}
		if out.Cols[2].Floats[0] != 15 {
			t.Errorf("AVG ignoring nulls = %v", out.Cols[2].Floats[0])
		}
	})
}

func TestSortBatchAndTopN(t *testing.T) {
	b := twoColBatch([]int64{3, 1, 2, 1}, []string{"c", "b", "a", "a"})
	sorted := SortBatch(b, []plan.OrderKey{{Index: 0}, {Index: 1, Desc: true}})
	ids := sorted.Cols[0].Ints
	names := sorted.Cols[1].Strs
	if ids[0] != 1 || names[0] != "b" || ids[1] != 1 || names[1] != "a" || ids[3] != 3 {
		t.Errorf("sorted = %v %v", ids, names)
	}
	top := TopN(sorted, 2)
	if top.N != 2 || top.Cols[0].Ints[1] != 1 {
		t.Errorf("topN = %+v", top)
	}
	if TopN(sorted, -1).N != 4 {
		t.Error("TopN(-1) should be identity")
	}
}

func TestDistinct(t *testing.T) {
	b := twoColBatch([]int64{1, 1, 2, 1}, []string{"a", "a", "a", "b"})
	dd := NewDeduper(nil)
	d, _ := dd.Apply(b)
	if d.N != 3 {
		t.Errorf("distinct rows = %d", d.N)
	}
	// The seen-set spans batches: a replay of the same rows adds nothing.
	if again, _ := dd.Apply(b); again.N != 0 {
		t.Errorf("replayed batch kept %d rows, want 0", again.N)
	}
}

func TestBatchRowAndGather(t *testing.T) {
	b := twoColBatch([]int64{1, 2, 3}, []string{"x", "y", "z"})
	r := b.Row(1)
	if r[0].I != 2 || r[1].S != "y" {
		t.Errorf("Row = %v", r)
	}
	g := b.Gather([]int{2, 0})
	if g.N != 2 || g.Cols[0].Ints[0] != 3 || g.Cols[1].Strs[1] != "x" {
		t.Errorf("Gather = %v", g.Row(0))
	}
}

func TestFromRows(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewNull(types.Int64), types.NewString("b")},
	}
	b := FromRows([]types.Type{types.Int64, types.String}, rows)
	if b.N != 2 || !b.Cols[0].IsNull(1) || b.Cols[1].Strs[0] != "a" {
		t.Errorf("FromRows = %+v", b)
	}
}

func TestKeyEncoderInjective(t *testing.T) {
	// Values that could collide under naive encodings.
	rows := [][]types.Value{
		{types.NewString("ab"), types.NewString("c")},
		{types.NewString("a"), types.NewString("bc")},
		{types.NewString(""), types.NewString("abc")},
		{types.NewInt(0)},
		{types.NewNull(types.Int64)},
		{types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(2)},
		{types.NewInt(1), types.NewInt(3)},
	}
	seen := map[string]int{}
	for i, r := range rows {
		k := KeyEncoder(r)
		if j, ok := seen[k]; ok {
			t.Errorf("rows %d and %d collide", i, j)
		}
		seen[k] = i
	}
}

// TestHashValuesIsFNVOverKeyEncoder ties types.HashValues' byte stream to
// the encoding KeyTable's keys use: FNV-1a over KeyEncoder's bytes, for every
// shape of value (types.TestHashValuesStable pins the values themselves).
func TestHashValuesIsFNVOverKeyEncoder(t *testing.T) {
	for _, vals := range [][]types.Value{
		{types.NewInt(-1)}, {types.NewDate(42)}, {types.NewBool(true)},
		{types.NewFloat(math.Copysign(0, -1))}, {types.NewFloat(3.25)},
		{types.NewString("")}, {types.NewString("a\x00b")}, {types.NewNull(types.String)},
		{types.NewInt(7), types.NewString("x"), types.NewNull(types.Float64), types.NewTimestamp(1700000000000000)},
		nil,
	} {
		ref := uint64(14695981039346656037)
		for _, c := range []byte(KeyEncoder(vals)) {
			ref = (ref ^ uint64(c)) * 1099511628211
		}
		if got := types.HashValues(vals); got != ref {
			t.Errorf("HashValues(%v) = %#x, FNV-1a over KeyEncoder = %#x", vals, got, ref)
		}
	}
}

func TestFloatPromotionKernel(t *testing.T) {
	both(t, func(t *testing.T, mode Mode) {
		b := intBatch([]int64{4, 10}, nil)
		e := bin(sql.OpDiv,
			&plan.Call{Name: sql.FuncFloat, Args: []plan.Expr{col(0, types.Int64)}, T: types.Float64},
			fcon(8), types.Float64)
		v := evalOne(t, mode, e, b)
		if v.Floats[0] != 0.5 || v.Floats[1] != 1.25 {
			t.Errorf("promoted div = %v", v.Floats)
		}
	})
}

func BenchmarkCompiledVsInterpreted(b *testing.B) {
	// The A4 microbench kernel: scan-filter-sum over one column.
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	batch := intBatch(vals, nil)
	expr := bin(sql.OpAnd,
		bin(sql.OpGt, col(0, types.Int64), icon(100), types.Bool),
		bin(sql.OpLt, col(0, types.Int64), icon(900), types.Bool), types.Bool)
	for _, mode := range []Mode{Compiled, Interpreted} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev, err := NewEvaluator(mode, expr)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ev.Eval(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleKeyEncoder() {
	k1 := KeyEncoder([]types.Value{types.NewInt(1), types.NewString("a")})
	k2 := KeyEncoder([]types.Value{types.NewInt(1), types.NewString("a")})
	fmt.Println(k1 == k2)
	// Output: true
}
