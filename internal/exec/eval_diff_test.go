package exec

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"redshift/internal/plan"
	"redshift/internal/sql"
	"redshift/internal/types"
)

// entropy is where the expression/batch generator takes its choices from: a
// seeded PRNG in the property test, the fuzzer's bytes in the fuzz target.
// Every n asked for is at most 256, so one byte answers one question and a
// recorded run replays from its transcript.
type entropy interface{ intn(n int) int }

// recorder draws from a PRNG and keeps the transcript a byteEntropy replays.
type recorder struct {
	rng *rand.Rand
	log []byte
}

func (r *recorder) intn(n int) int {
	v := r.rng.Intn(n)
	r.log = append(r.log, byte(v))
	return v
}

// byteEntropy answers from a byte string, and 0 once it runs out.
type byteEntropy struct{ b []byte }

func (e *byteEntropy) intn(n int) int {
	if len(e.b) == 0 {
		return 0
	}
	v := int(e.b[0]) % n
	e.b = e.b[1:]
	return v
}

// The generated batch's layout: two columns of every payload type the
// engine has. Column 1 and 3 are zero-heavy, the divisors that raise.
var diffLayout = []types.Type{
	types.Int64, types.Int64, types.Float64, types.Float64, types.String, types.String,
	types.Date, types.Timestamp, types.Bool, types.Bool,
}

var (
	diffStrings  = []string{"", "a", "ab", "abc", "b", "Books", "music", "a_c", "%", "tag12"}
	diffPatterns = []string{"%", "a%", "%c", "_", "a_c", "%oo%", "tag1%", "", "%%b"}
	diffUnits    = []string{"year", "quarter", "month", "week", "day", "hour", "minute", "YEAR"} // the last passes the binder and fails at run time
	cmpOps       = []sql.BinOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
	arithOps     = []sql.BinOp{sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod}
	valueTypes   = []types.Type{types.Int64, types.Float64, types.String, types.Date, types.Timestamp, types.Bool}
)

// exprGen builds well-typed plan.Expr trees the way the binder types them
// (numeric promotion through FLOAT, temporal ± integer, typed IN lists) and
// tallies what it built, so the test can hold "every node kind × operator ×
// operand type" to account.
type exprGen struct {
	en     entropy
	seen   map[string]int
	raises bool // the tree holds a division, a modulo or a DATE_TRUNC
}

func (g *exprGen) note(format string, args ...any) { g.seen[fmt.Sprintf(format, args...)]++ }

func (g *exprGen) value(t types.Type) types.Value {
	k := int64(g.en.intn(9)) - 4
	switch t {
	case types.Int64:
		if g.en.intn(8) == 0 {
			k *= 1000
		}
		return types.NewInt(k)
	case types.Float64:
		return types.NewFloat(float64(k) / 2)
	case types.String:
		return types.NewString(diffStrings[g.en.intn(len(diffStrings))])
	case types.Date:
		return types.NewDate(19000 + 40*k)
	case types.Timestamp:
		return types.NewTimestamp(1_700_000_000_000_000 + k*37*3_600_000_000)
	default:
		return types.NewBool(k&1 == 1)
	}
}

func (g *exprGen) constant(t types.Type) plan.Expr {
	if g.en.intn(10) == 0 {
		return &plan.Const{V: types.NewNull(t)}
	}
	return &plan.Const{V: g.value(t)}
}

func (g *exprGen) column(t types.Type) plan.Expr {
	var idx []int
	for i, ct := range diffLayout {
		if ct == t {
			idx = append(idx, i)
		}
	}
	return &plan.Col{Index: idx[g.en.intn(len(idx))], T: t}
}

// pair returns two operands of type t in one of the four shapes: constant on
// the right, on the left, on both sides, on neither.
func (g *exprGen) pair(t types.Type, depth int) (plan.Expr, plan.Expr) {
	shape := g.en.intn(4)
	g.note("shape/%d", shape)
	switch shape {
	case 0:
		return g.expr(t, depth), g.constant(t)
	case 1:
		return g.constant(t), g.expr(t, depth)
	case 2:
		return g.constant(t), g.constant(t)
	default:
		return g.expr(t, depth), g.expr(t, depth)
	}
}

// promoted is plan.promote: an Int64 operand of float arithmetic.
func (g *exprGen) promoted(depth int) plan.Expr {
	e := g.expr(types.Int64, depth)
	if c, ok := e.(*plan.Const); ok && !c.V.Null {
		return &plan.Const{V: types.NewFloat(float64(c.V.I))}
	}
	g.note("call/%s", sql.FuncFloat)
	return &plan.Call{Name: sql.FuncFloat, Args: []plan.Expr{e}, T: types.Float64}
}

func (g *exprGen) caseExpr(t types.Type, depth int) plan.Expr {
	g.note("case/%s", t)
	branch := func() plan.Expr {
		switch {
		case g.en.intn(10) == 0:
			return &plan.Const{V: types.Value{Null: true}} // an untyped THEN NULL
		case t == types.Float64 && g.en.intn(3) == 0:
			return g.promoted(depth)
		}
		return g.expr(t, depth)
	}
	c := &plan.Case{T: t}
	for n := 1 + g.en.intn(3); n > 0; n-- {
		c.Whens = append(c.Whens, plan.CaseWhen{Cond: g.expr(types.Bool, depth), Then: branch()})
	}
	if g.en.intn(3) > 0 {
		c.Else = branch()
	}
	return c
}

func (g *exprGen) coalesce(t types.Type, depth int) plan.Expr {
	g.note("call/%s", sql.FuncCoalesce)
	c := &plan.Call{Name: sql.FuncCoalesce, T: t}
	for n := 1 + g.en.intn(3); n > 0; n-- {
		if t == types.Float64 && g.en.intn(3) == 0 {
			c.Args = append(c.Args, g.expr(types.Int64, depth)) // the binder leaves the mix to evalCall
		} else {
			c.Args = append(c.Args, g.expr(t, depth))
		}
	}
	return c
}

func (g *exprGen) call(name sql.FuncName, t types.Type, args ...plan.Expr) plan.Expr {
	g.note("call/%s", name)
	return &plan.Call{Name: name, Args: args, T: t}
}

// expr returns an expression of type t at most depth operators deep.
func (g *exprGen) expr(t types.Type, depth int) plan.Expr {
	if depth <= 0 {
		if g.en.intn(4) == 0 {
			return g.constant(t)
		}
		return g.column(t)
	}
	d := depth - 1
	// Productions every type has.
	switch g.en.intn(8) {
	case 0:
		return g.caseExpr(t, d)
	case 1:
		return g.coalesce(t, d)
	case 2:
		return g.expr(t, 0)
	}
	switch t {
	case types.Bool:
		switch g.en.intn(6) {
		case 0:
			op, ot := cmpOps[g.en.intn(len(cmpOps))], valueTypes[g.en.intn(len(valueTypes))]
			g.note("cmp/%s/%s", op, ot)
			l, r := g.pair(ot, d)
			return &plan.Bin{Op: op, L: l, R: r, T: types.Bool}
		case 1:
			op := []sql.BinOp{sql.OpAnd, sql.OpOr}[g.en.intn(2)]
			g.note("logic/%s", op)
			l, r := g.pair(types.Bool, d)
			return &plan.Bin{Op: op, L: l, R: r, T: types.Bool}
		case 2:
			g.note("not")
			return &plan.Not{E: g.expr(types.Bool, d)}
		case 3:
			ot := valueTypes[g.en.intn(len(valueTypes))]
			g.note("isnull/%s", ot)
			return &plan.IsNull{E: g.expr(ot, d), Not: g.en.intn(2) == 0}
		case 4:
			ot := valueTypes[g.en.intn(len(valueTypes))]
			g.note("in/%s", ot)
			in := &plan.InList{E: g.expr(ot, d), Not: g.en.intn(2) == 0}
			for n := 1 + g.en.intn(4); n > 0; n-- {
				in.Vals = append(in.Vals, g.constant(ot).(*plan.Const).V)
			}
			return in
		default:
			g.note("like")
			return &plan.Like{E: g.expr(types.String, d), Pattern: diffPatterns[g.en.intn(len(diffPatterns))], Not: g.en.intn(2) == 0}
		}
	case types.Int64:
		switch g.en.intn(6) {
		case 0, 1:
			op := arithOps[g.en.intn(len(arithOps))]
			g.note("arith/%s/%s", op, t)
			g.raises = g.raises || op == sql.OpDiv || op == sql.OpMod
			l, r := g.pair(t, d)
			return &plan.Bin{Op: op, L: l, R: r, T: t}
		case 2:
			g.note("neg/%s", t)
			return &plan.Neg{E: g.expr(t, d)}
		case 3:
			return g.call(sql.FuncAbs, t, g.expr(t, d))
		case 4:
			return g.call(sql.FuncLength, t, g.expr(types.String, d))
		default:
			name := []sql.FuncName{sql.FuncExtractYear, sql.FuncExtractMonth}[g.en.intn(2)]
			return g.call(name, t, g.expr([]types.Type{types.Date, types.Timestamp}[g.en.intn(2)], d))
		}
	case types.Float64:
		switch g.en.intn(5) {
		case 0, 1:
			op := arithOps[g.en.intn(4)] // the binder rejects float %
			g.note("arith/%s/%s", op, t)
			g.raises = g.raises || op == sql.OpDiv
			l, r := g.pair(t, d)
			if g.en.intn(3) == 0 {
				r = g.promoted(d)
			}
			return &plan.Bin{Op: op, L: l, R: r, T: t}
		case 2:
			g.note("neg/%s", t)
			return &plan.Neg{E: g.expr(t, d)}
		case 3:
			return g.call(sql.FuncAbs, t, g.expr(t, d))
		default:
			return g.promoted(d)
		}
	case types.String:
		name := []sql.FuncName{sql.FuncLower, sql.FuncUpper}[g.en.intn(2)]
		return g.call(name, t, g.expr(t, d))
	default: // Date, Timestamp
		switch g.en.intn(3) {
		case 0:
			op := arithOps[g.en.intn(2)] // temporal ± integer keeps the type
			g.note("arith/%s/%s", op, t)
			return &plan.Bin{Op: op, L: g.expr(t, d), R: g.expr(types.Int64, d), T: t}
		case 1:
			g.note("neg/%s", t)
			return &plan.Neg{E: g.expr(t, d)}
		default:
			g.raises = true
			unit := &plan.Const{V: types.NewString(diffUnits[g.en.intn(len(diffUnits))])}
			return g.call(sql.FuncDateTrunc, t, unit, g.expr(t, d))
		}
	}
}

// batch fills diffLayout with 0–40 rows. nulls picks the density: 0 no mask
// at all, 1 sparse, 2 every row NULL, 3 one of those per column. A NULL
// slot's payload is the zero placeholder or, every other batch, a value like
// any other: kernels must neither read it nor raise from it.
func (g *exprGen) batch(nulls int) *Batch {
	n := g.en.intn(41)
	dirty := g.en.intn(2) == 0
	b := NewBatch(len(diffLayout))
	b.N = n
	for c, t := range diffLayout {
		mode := nulls
		if mode == 3 {
			mode = g.en.intn(3)
		}
		v := &types.Vector{T: t}
		if mode > 0 {
			v.Nulls = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			val := g.value(t)
			if c == 1 || c == 3 { // the zero-heavy divisors
				if g.en.intn(3) > 0 {
					val.I, val.F = 0, 0
				}
			}
			if mode == 2 || (mode == 1 && g.en.intn(6) == 0) {
				v.Nulls[i] = true
				if !dirty {
					val = types.Value{}
				}
			}
			switch t {
			case types.Float64:
				v.Floats = append(v.Floats, val.F)
			case types.String:
				v.Strs = append(v.Strs, val.S)
			default:
				v.Ints = append(v.Ints, val.I)
			}
		}
		b.Cols[c] = v
	}
	return b
}

// scalarPaths names the ways e hands the compiled engine a constant as an
// operand — each its own path there: held by value, folded at compile time,
// or, NULL, deciding the result without the other side's rows.
func scalarPaths(e plan.Expr, guarded bool, found map[string]int) {
	isConst := func(e plan.Expr) (types.Value, bool) {
		c, ok := e.(*plan.Const)
		if !ok {
			return types.Value{}, false
		}
		return c.V, true
	}
	switch x := e.(type) {
	case *plan.Bin:
		if x.Op == sql.OpAnd || x.Op == sql.OpOr {
			scalarPaths(x.L, guarded, found)
			scalarPaths(x.R, true, found)
			return
		}
		kind := "arith"
		if x.T == types.Bool {
			kind = "cmp"
		}
		l, lk := isConst(x.L)
		r, rk := isConst(x.R)
		divides := x.Op == sql.OpDiv || x.Op == sql.OpMod
		switch {
		case lk && rk:
			found["scalar/"+kind+"/both"]++
			if divides && !l.Null && !r.Null && r.I == 0 && r.F == 0 {
				found["scalar/fold-raises"]++
			}
		case lk:
			found["scalar/"+kind+"/left"]++
		case rk:
			found["scalar/"+kind+"/right"]++
		}
		if lk != rk && (l.Null || r.Null) {
			found["scalar/"+kind+"/null"]++
		}
		if divides && rk && !lk {
			switch {
			case r.Null:
				found["scalar/div-null"]++
			case r.I == 0 && r.F == 0 && guarded:
				found["scalar/div-zero-guarded"]++
			case r.I == 0 && r.F == 0:
				found["scalar/div-zero"]++
			}
		}
		scalarPaths(x.L, guarded, found)
		scalarPaths(x.R, guarded, found)
	case *plan.Not:
		scalarPaths(x.E, guarded, found)
	case *plan.Neg:
		scalarPaths(x.E, guarded, found)
	case *plan.IsNull:
		scalarPaths(x.E, guarded, found)
	case *plan.InList:
		scalarPaths(x.E, guarded, found)
	case *plan.Like:
		scalarPaths(x.E, guarded, found)
	case *plan.Case:
		for _, w := range x.Whens {
			scalarPaths(w.Cond, true, found)
			scalarPaths(w.Then, true, found)
		}
		if x.Else != nil {
			scalarPaths(x.Else, true, found)
		}
	case *plan.Call:
		for _, a := range x.Args {
			if _, ok := isConst(a); ok {
				found["scalar/call-arg"]++
			}
			scalarPaths(a, guarded, found)
		}
	}
}

// diffCase is one generated expression over one generated batch.
type diffCase struct {
	e      plan.Expr
	b      *Batch
	raises bool
}

func genDiffCase(en entropy, seen map[string]int) diffCase {
	g := &exprGen{en: en, seen: seen}
	nulls := en.intn(4)
	g.note("nulls/%d", nulls)
	e := g.expr(valueTypes[en.intn(len(valueTypes))], 1+en.intn(4))
	return diffCase{e: e, b: g.batch(nulls), raises: g.raises}
}

// cloneBatch deep-copies a batch, NULL-slot payloads included.
func cloneBatch(b *Batch) *Batch {
	out := NewBatch(len(b.Cols))
	out.N = b.N
	for c, v := range b.Cols {
		out.Cols[c] = v.Clone()
	}
	return out
}

// samePayload is bitwise equality, placeholders under NULL slots included.
func samePayload(a, b *types.Vector) bool {
	return fmt.Sprint(a.Nulls, a.Ints, a.Floats, a.Strs) == fmt.Sprint(b.Nulls, b.Ints, b.Floats, b.Strs)
}

// checkDiffCase evaluates the case on both engines and demands error parity
// (both fail or neither does), the same type, length, NULLs and values row by
// row, and an input batch the compiled engine did not write to. It returns
// the compiled output (nil when both engines raised).
func checkDiffCase(t testing.TB, c diffCase) *types.Vector {
	t.Helper()
	cev, err := NewEvaluator(Compiled, c.e)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.e, err)
	}
	iev, _ := NewEvaluator(Interpreted, c.e)
	before := cloneBatch(c.b)
	cv, cerr := cev.Eval(c.b)
	iv, ierr := iev.Eval(c.b)
	for col := range before.Cols {
		if !samePayload(before.Cols[col], c.b.Cols[col]) {
			t.Fatalf("%s: evaluation wrote to input column %d", c.e, col)
		}
	}
	if (cerr == nil) != (ierr == nil) {
		t.Fatalf("%s over %d rows: compiled error = %v, interpreted error = %v", c.e, c.b.N, cerr, ierr)
	}
	if cerr != nil {
		return nil
	}
	if cv.T != iv.T || cv.Len() != c.b.N || iv.Len() != c.b.N {
		t.Fatalf("%s: compiled %s×%d, interpreted %s×%d, batch has %d rows", c.e, cv.T, cv.Len(), iv.T, iv.Len(), c.b.N)
	}
	for i := 0; i < c.b.N; i++ {
		if cv.IsNull(i) != iv.IsNull(i) || !types.Equal(cv.Get(i), iv.Get(i)) {
			t.Fatalf("%s row %d %v: compiled = %v, interpreted = %v", c.e, i, c.b.Row(i), cv.Get(i), iv.Get(i))
		}
	}
	return cv
}

// parentKernelDigest is the FNV-1a digest of the compiled engine's output
// over the generated cases that cannot raise, recorded from the per-type
// kernels this file's subject replaced (commit c690ebc): the rewrite is held
// to the old kernels, not only to the oracle.
const parentKernelDigest = 0x4fd6fe3b2ad71563

// TestPropCompiledMatchesInterpreted is the compiled engine's differential
// test against its oracle: seeded, generated expressions — every plan.Expr
// node kind, every operator, every operand type, constants on either side,
// up to four operators deep, operands that raise included — over batches
// with no NULLs, sparse NULLs and only NULLs.
func TestPropCompiledMatchesInterpreted(t *testing.T) {
	const cases = 6000
	en := &recorder{rng: rand.New(rand.NewSource(20260926))}
	seen := map[string]int{}
	digest := fnv.New64a()
	raising := 0
	for n := 0; n < cases; n++ {
		c := genDiffCase(en, seen)
		scalarPaths(c.e, false, seen)
		cv := checkDiffCase(t, c)
		if c.raises {
			raising++
			continue
		}
		for i := 0; i < cv.Len(); i++ {
			fmt.Fprintf(digest, "%d:%d:%s|", n, i, cv.Get(i))
		}
	}
	if got := digest.Sum64(); got != parentKernelDigest {
		t.Errorf("digest of the non-raising cases = %#x, want the parent kernels' %#x", got, uint64(parentKernelDigest))
	}
	if raising < cases/10 {
		t.Errorf("only %d of %d cases could raise", raising, cases)
	}
	var missing []string
	for _, key := range diffCoverage() {
		if seen[key] == 0 {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("never generated: %v", missing)
	}
}

// scalarCoverage is every path a constant operand takes through the compiled
// engine (scalarPaths): on either side of a comparison or an arithmetic
// operator or on both, NULL beside a vector, a NULL or zero constant divisor in
// the open and behind a guard, a constant pair whose folding raises, a
// constant function argument.
var scalarCoverage = []string{
	"scalar/cmp/left", "scalar/cmp/right", "scalar/cmp/both", "scalar/cmp/null",
	"scalar/arith/left", "scalar/arith/right", "scalar/arith/both", "scalar/arith/null",
	"scalar/div-null", "scalar/div-zero", "scalar/div-zero-guarded", "scalar/fold-raises", "scalar/call-arg",
}

// diffCoverage lists what the generator must have produced at least once.
func diffCoverage() []string {
	keys := []string{"not", "like", "logic/AND", "logic/OR"}
	for i := 0; i < 4; i++ {
		keys = append(keys, fmt.Sprintf("shape/%d", i), fmt.Sprintf("nulls/%d", i))
	}
	for _, t := range valueTypes {
		keys = append(keys, fmt.Sprintf("isnull/%s", t), fmt.Sprintf("in/%s", t), fmt.Sprintf("case/%s", t))
		for _, op := range cmpOps {
			keys = append(keys, fmt.Sprintf("cmp/%s/%s", op, t))
		}
	}
	for _, op := range arithOps {
		keys = append(keys, fmt.Sprintf("arith/%s/%s", op, types.Int64))
		if op != sql.OpMod {
			keys = append(keys, fmt.Sprintf("arith/%s/%s", op, types.Float64))
		}
	}
	for _, t := range []types.Type{types.Int64, types.Float64, types.Date, types.Timestamp} {
		keys = append(keys, fmt.Sprintf("neg/%s", t))
	}
	for _, t := range []types.Type{types.Date, types.Timestamp} {
		keys = append(keys, fmt.Sprintf("arith/%s/%s", sql.OpAdd, t), fmt.Sprintf("arith/%s/%s", sql.OpSub, t))
	}
	for _, name := range []sql.FuncName{sql.FuncLower, sql.FuncUpper, sql.FuncLength, sql.FuncAbs, sql.FuncCoalesce,
		sql.FuncFloat, sql.FuncDateTrunc, sql.FuncExtractYear, sql.FuncExtractMonth} {
		keys = append(keys, fmt.Sprintf("call/%s", name))
	}
	return append(keys, scalarCoverage...)
}

// FuzzEvalCompiledVsInterpreted reads its bytes as the generator's choices —
// an expression, then a batch — and holds the two engines to each other.
func FuzzEvalCompiledVsInterpreted(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiffCase(t, genDiffCase(&byteEntropy{b: data}, map[string]int{}))
	})
}

// TestEvalDiffSeedCorpus keeps the fuzz target's committed seeds equal to the
// transcripts of the property test's first cases of each kind — one that
// raises under a guard, one per top-level node kind, one per path a constant
// operand takes (scalarCoverage); UPDATE_FUZZ_CORPUS=1 writes them.
func TestEvalDiffSeedCorpus(t *testing.T) {
	en := &recorder{rng: rand.New(rand.NewSource(20260926))}
	seeds := map[string][]byte{}
	for n := 0; n < 6000; n++ {
		en.log = nil
		c := genDiffCase(en, map[string]int{})
		name := fmt.Sprintf("%T", c.e)[len("*plan."):]
		if c.raises {
			name += "-raises"
		}
		paths := map[string]int{}
		scalarPaths(c.e, false, paths)
		for path := range paths {
			if path = strings.ReplaceAll(path, "/", "-"); seeds[path] == nil {
				seeds[path] = en.log
			}
		}
		if _, ok := seeds[name]; !ok && n < 400 {
			seeds[name] = en.log
			// The transcript replays to the same case.
			if r := genDiffCase(&byteEntropy{b: en.log}, map[string]int{}); r.e.String() != c.e.String() || r.b.N != c.b.N {
				t.Errorf("%s: transcript replays to %s over %d rows, recorded %s over %d", name, r.e, r.b.N, c.e, c.b.N)
			}
		}
	}
	if len(seeds) < 12+len(scalarCoverage) {
		names := make([]string, 0, len(seeds))
		for name := range seeds {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("only %d kinds of seed: %v", len(seeds), names)
	}
	checkSeedCorpus(t, "FuzzEvalCompiledVsInterpreted", seeds)
}

// TestFilterSelectAllocationBudget pins the allocations one Filter.Select
// (or, for the aggregate argument, one Eval) makes per 1024-row batch for
// the benchmark's expression shapes: two — the vector and its payload — per
// comparison, arithmetic or LIKE kernel, none for a constant held by value,
// none for an AND over a left operand it may overwrite, one more for the
// all-NULL mask a NULL constant makes.
func TestFilterSelectAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	b := NewBatch(4)
	b.N = BatchSize
	for c, vt := range []types.Type{types.Int64, types.Int64, types.Float64, types.String} {
		v := types.NewVector(vt, b.N)
		for i := 0; i < b.N; i++ {
			switch vt {
			case types.Float64:
				v.Append(types.NewFloat(float64(i%97) / 4))
			case types.String:
				v.Append(types.NewString(fmt.Sprintf("tag%d", i%40)))
			default:
				v.Append(types.NewInt(int64(i * (c + 3) % 101)))
			}
		}
		b.Cols[c] = v
	}
	i0, i1, f2 := col(0, types.Int64), col(1, types.Int64), col(2, types.Float64)
	cmp := func(op sql.BinOp, l, r plan.Expr) plan.Expr { return bin(op, l, r, types.Bool) }
	shapes := []struct {
		name   string
		e      plan.Expr
		budget float64
	}{
		{"col < const", cmp(sql.OpLt, i0, icon(10)), 2},
		{"between", cmp(sql.OpAnd, cmp(sql.OpGe, i0, icon(20)), cmp(sql.OpLe, i0, icon(60))), 4},
		{"col % k = c", cmp(sql.OpEq, bin(sql.OpMod, i0, icon(7), types.Int64), icon(3)), 4},
		{"(a + b) % k < c", cmp(sql.OpLt, bin(sql.OpMod, bin(sql.OpAdd, i0, i1, types.Int64), icon(7), types.Int64), icon(3)), 6},
		{"a AND b % k = c", cmp(sql.OpAnd, cmp(sql.OpLt, i0, icon(10)), cmp(sql.OpEq, bin(sql.OpMod, i1, icon(7), types.Int64), icon(3))), 6},
		{"like AND col > const", cmp(sql.OpAnd, &plan.Like{E: col(3, types.String), Pattern: "tag1%"}, cmp(sql.OpGt, i1, icon(9))), 4},
		{"f_price * f_qty", bin(sql.OpMul, f2, &plan.Call{Name: sql.FuncFloat, Args: []plan.Expr{i1}, T: types.Float64}, types.Float64), 4},
		{"const - col > const", cmp(sql.OpGt, bin(sql.OpSub, icon(100), i0, types.Int64), icon(50)), 4},
		{"col < NULL", cmp(sql.OpLt, i0, &plan.Const{V: types.NewNull(types.Int64)}), 3},
		{"const < const", cmp(sql.OpLt, icon(1), icon(2)), 2},
	}
	for _, s := range shapes {
		var run func()
		if s.e.Type() == types.Bool {
			f, err := NewFilter(Compiled, s.e)
			if err != nil {
				t.Fatal(err)
			}
			sel := make([]int, 0, b.N)
			run = func() {
				if _, _, err := f.Select(b, sel[:0]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			ev, err := NewEvaluator(Compiled, s.e)
			if err != nil {
				t.Fatal(err)
			}
			run = func() {
				if _, err := ev.Eval(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(50, run); got > s.budget {
			t.Errorf("%s: %.0f allocations per batch, budget %.0f", s.name, got, s.budget)
		}
	}
}
