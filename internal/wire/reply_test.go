package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"redshift/internal/cluster"
	"redshift/internal/core"
	"redshift/internal/faults"
	"redshift/internal/s3sim"
	"redshift/internal/types"
)

// oracleReply is the reply as the server wrote it before replies were
// appended: handle's Response and Stats building, verbatim but for taking the
// statement's outcome as arguments and rendering values with parentString,
// then json.NewEncoder(w).Encode(resp).
func oracleReply(t testing.TB, res *core.Result, err error, execMs float64) []byte {
	t.Helper()
	resp := &Response{ExecMillis: execMs}
	if err != nil {
		resp.Error = err.Error()
		resp.Retryable = faults.Retryable(err)
	} else {
		resp.Message = res.Message
		resp.Cached = res.Cached
		for _, c := range res.Schema.Columns {
			resp.Columns = append(resp.Columns, c.Name)
			resp.Types = append(resp.Types, c.Type.String())
		}
		for _, row := range res.Rows {
			line := make([]string, len(row))
			for i, v := range row {
				line[i] = parentString(v)
			}
			resp.Rows = append(resp.Rows, line)
		}
		resp.Stats = &Stats{
			BlocksRead:    res.Stats.BlocksRead,
			BlocksSkipped: res.Stats.BlocksSkipped,
			RowsScanned:   res.Stats.RowsScanned,
			NetBytes:      res.Stats.NetBytes,
			QueueMillis:   float64(res.Stats.QueueWait.Microseconds()) / 1e3,
			PlanMillis:    float64(res.Stats.PlanTime.Microseconds()) / 1e3,
			Queue:         res.Stats.Queue,
		}
	}
	var w bytes.Buffer
	if err := json.NewEncoder(&w).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// parentString is types.Value.String as it was before Value.Append, kept so
// the oracle does not share the code it checks.
func parentString(v types.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case types.Int64:
		return strconv.FormatInt(v.I, 10)
	case types.Float64:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case types.String:
		return v.S
	case types.Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case types.Date:
		return types.DaysToDate(v.I).Format("2006-01-02")
	case types.Timestamp:
		return time.UnixMicro(v.I).UTC().Format("2006-01-02 15:04:05.000000")
	default:
		return "<invalid>"
	}
}

func checkReply(t testing.TB, res *core.Result, err error, execMs float64) {
	t.Helper()
	got, want := appendReply([]byte("prefix"), res, err, execMs), oracleReply(t, res, err, execMs)
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("reply differs from encoding/json's\n got: %q\nwant: %q", got[len("prefix"):], want)
	}
	if v := types.NewString(string(want)); string(v.Append(nil)) != v.String() {
		t.Fatal("Value.Append and Value.String disagree on a string")
	}
	checkDecode(t, want)
}

// checkDecode holds decodeReply to json.Unmarshal on one line: it errs
// exactly when encoding/json does, and otherwise gives an equal Response.
func checkDecode(t testing.TB, line []byte) {
	t.Helper()
	var want Response
	wantErr := json.Unmarshal(line, &want)
	got, err := decodeReply(line)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeReply(%q): error %v; encoding/json's %v", line, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(*got, want) {
		t.Fatalf("decodeReply(%q)\n got: %#v\nwant: %#v", line, *got, want)
	}
}

var (
	replyInts    = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53}
	replyFloats  = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e14, 999999999999999, 1e15, -1e15, 1e15 + 2, 123456789012345678, 1e21, 1e22, 1e-7, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308 / 7, math.MaxFloat64}
	replyStrings = []string{"", "plain", `quote"`, `back\slash`, "<a href='x'>&amp;</a>", "\u2028line\u2029para", "bad\xff\xfeutf8", "trunc\xe6\x97", "surrogate\xed\xa0\x80", "\ufffd", "é日本語🚀", "\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f", "mixed \"<\\>\" \u2028 \xc3(", strings.Repeat("long-", 100)}
	replyDays    = []int64{0, -1, 19000, 2932896, -719162}
	replyMicros  = []int64{0, -1, 1700000000123456, 253402300799999999, -62135596800000000}
	replyMillis  = []float64{0, 1e-7, 1e22, 1e21, 9.99e-7, 1e-6, 0.001, 0.5, 123.456, 999999999999999999999, math.Copysign(0, -1), 5e-324}
)

// replyValue draws a value of type t, NULL one time in six; Invalid is the
// zero Value a row holds for a column the query never materialized.
func replyValue(rng *rand.Rand, t types.Type) types.Value {
	if rng.Intn(6) == 0 && t != types.Invalid {
		return types.NewNull(t)
	}
	switch t {
	case types.Int64:
		if rng.Intn(2) == 0 {
			return types.NewInt(rng.Int63() - rng.Int63())
		}
		return types.NewInt(replyInts[rng.Intn(len(replyInts))])
	case types.Float64:
		if rng.Intn(3) == 0 {
			return types.NewFloat(math.Float64frombits(rng.Uint64()))
		}
		return types.NewFloat(replyFloats[rng.Intn(len(replyFloats))])
	case types.String:
		return types.NewString(replyStrings[rng.Intn(len(replyStrings))])
	case types.Bool:
		return types.NewBool(rng.Intn(2) == 0)
	case types.Date:
		return types.NewDate(replyDays[rng.Intn(len(replyDays))] + int64(rng.Intn(3)))
	case types.Timestamp:
		return types.NewTimestamp(replyMicros[rng.Intn(len(replyMicros))] + rng.Int63n(1000))
	}
	return types.Value{}
}

var replyTypes = []types.Type{types.Int64, types.Float64, types.String, types.Bool, types.Date, types.Timestamp, types.Invalid}

// randomResult is a result of 0–6 columns of any type and 0–12 rows, with
// random stats, message and cache flag.
func randomResult(rng *rand.Rand) *core.Result {
	res := &core.Result{Cached: rng.Intn(3) == 0}
	var cols []types.Type
	for i := rng.Intn(7); i > 0; i-- {
		t := replyTypes[rng.Intn(len(replyTypes))]
		cols = append(cols, t)
		name := fmt.Sprintf("c%d", i)
		if rng.Intn(4) == 0 {
			name = replyStrings[rng.Intn(len(replyStrings))]
		}
		res.Schema.Columns = append(res.Schema.Columns, types.Column{Name: name, Type: t})
	}
	for i := rng.Intn(13); i > 0; i-- {
		row := make(types.Row, len(cols))
		for c, t := range cols {
			row[c] = replyValue(rng, t)
		}
		res.Rows = append(res.Rows, row)
	}
	if rng.Intn(3) == 0 {
		res.Message = replyStrings[rng.Intn(len(replyStrings))]
	}
	res.Stats = core.ExecStats{
		BlocksRead: rng.Int63n(1000), BlocksSkipped: rng.Int63n(10), RowsScanned: rng.Int63(), NetBytes: rng.Int63n(1 << 40),
		QueueWait: time.Duration(rng.Int63n(int64(10 * time.Second))), PlanTime: time.Duration(rng.Int63n(int64(time.Millisecond))),
	}
	if rng.Intn(2) == 0 {
		res.Stats.Queue = []string{"default", "fast", "etl <bulk>"}[rng.Intn(3)]
	}
	return res
}

// TestReplyMatchesEncodingJSON holds appendReply to the Response and
// json.Encoder path it replaced, byte for byte: every column type and NULL,
// the float edge cases of both formats, strings that need every kind of
// escape, zero rows and zero columns, error, retryable, cached and queued
// replies, and exec_ms on both sides of encoding/json's format switch.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	empty := &core.Result{Message: "CREATE TABLE"}
	zeroWidth := &core.Result{Rows: []types.Row{{}, {}}}
	allTypes := &core.Result{}
	for _, typ := range replyTypes {
		allTypes.Schema.Columns = append(allTypes.Schema.Columns, types.Column{Name: typ.String(), Type: typ})
	}
	for r := 0; r < 64; r++ {
		row := make(types.Row, len(replyTypes))
		for c, typ := range replyTypes {
			row[c] = replyValue(rng, typ)
		}
		allTypes.Rows = append(allTypes.Rows, row)
	}
	for _, f := range replyFloats {
		allTypes.Rows = append(allTypes.Rows, types.Row{{}, types.NewFloat(f), {}, {}, {}, {}, {}})
	}
	for _, s := range replyStrings {
		allTypes.Rows = append(allTypes.Rows, types.Row{{}, {}, types.NewString(s), {}, {}, {}, {}})
	}
	errs := []error{
		errors.New("plan: unknown column \"x\" <in> & out"),
		faults.MarkRetryable(errors.New("wlm: admission timeout")),
		fmt.Errorf("wrapped: %w", faults.MarkRetryable(errors.New("resize cutover"))),
		errors.New(""),
		errors.New("bad \xff utf8 \u2028"),
	}
	for _, ms := range replyMillis {
		checkReply(t, empty, nil, ms)
		checkReply(t, zeroWidth, nil, ms)
		checkReply(t, allTypes, nil, ms)
		for _, err := range errs {
			checkReply(t, nil, err, ms)
		}
	}
	for i := 0; i < 2000; i++ {
		checkReply(t, randomResult(rng), nil, replyMillis[rng.Intn(len(replyMillis))])
	}
}

var replyFuzzTypes = []types.Type{types.String, types.Float64, types.Int64, types.Bool, types.Date, types.Timestamp}

// fuzzReply reads data as a statement outcome: data[0] is flags (bit 0 an
// error whose text is the rest, bit 1 retryable, bit 2 no columns, bit 3
// cached, bit 4 a queue name, bit 5 a message), data[1] picks exec_ms, and
// the rest split at NUL bytes is the rows — each field a string, and its
// first eight bytes read as a float, an integer, a date and a timestamp.
func fuzzReply(data []byte) (*core.Result, error, float64) {
	n := len(data)
	data = append(data, 0, 0)
	flags, ms, rest := data[0], replyMillis[int(data[1])%len(replyMillis)], data[2:max(n, 2)]
	if flags&1 != 0 {
		err := errors.New(string(rest))
		if flags&2 != 0 {
			err = faults.MarkRetryable(err)
		}
		return nil, err, ms
	}
	res := &core.Result{Cached: flags&8 != 0}
	res.Stats.QueueWait = time.Duration(len(rest)) * 1234567
	if flags&16 != 0 {
		res.Stats.Queue = string(rest)
	}
	if flags&32 != 0 {
		res.Message = string(rest)
	}
	width := len(replyFuzzTypes)
	if flags&4 != 0 {
		width = 0
	}
	for _, t := range replyFuzzTypes[:width] {
		res.Schema.Columns = append(res.Schema.Columns, types.Column{Name: t.String(), Type: t})
	}
	for _, field := range bytes.Split(rest, []byte{0}) {
		var word [8]byte
		copy(word[:], field)
		bits := binary.LittleEndian.Uint64(word[:])
		row := types.Row{types.NewString(string(field)), types.NewFloat(math.Float64frombits(bits)), types.NewInt(int64(bits)),
			types.NewBool(bits&1 != 0), types.NewDate(int64(int32(bits))), types.NewTimestamp(int64(bits) >> 8)}[:width]
		for c := range row {
			if len(field) > c && field[c]%5 == 0 {
				row[c] = types.NewNull(row[c].T)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil, ms
}

// FuzzReplyEncoding holds appendReply to encoding/json on results built from
// arbitrary bytes (see fuzzReply).
func FuzzReplyEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err, ms := fuzzReply(data)
		checkReply(t, res, err, ms)
	})
}

// replySeeds is FuzzReplyEncoding's committed corpus.
var replySeeds = map[string]string{
	"empty":         "",
	"plain":         "\x00\x04row one\x00row two",
	"escapes":       "\x20\x03<b>\"q\"\\ & \u2028\u2029\x01\x1f\t\x00\x7f",
	"invalid-utf8":  "\x10\x06\xff\xfe\xc3(\x00\xed\xa0\x80\x00\xe6\x97",
	"multibyte":     "\x00\x07é日本語🚀\x00\ufffd",
	"floats":        "\x00\x08\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\xf8\x7f",
	"error":         "\x01\x00plan: unknown column \"x\"",
	"retryable":     "\x03\x01wlm: admission timeout <q>",
	"empty-error":   "\x01\x02",
	"zero-columns":  "\x2c\x03CREATE TABLE",
	"exec-ms-1e22":  "\x00\x02x",
	"exec-ms-1e-7":  "\x00\x01x",
	"cached-queued": "\x18\x09fast",
}

// TestReplySeedCorpus keeps FuzzReplyEncoding's committed seeds equal to
// replySeeds (UPDATE_FUZZ_CORPUS=1 writes them) and runs each through the
// fuzz target's check.
func TestReplySeedCorpus(t *testing.T) {
	for name, seed := range replySeeds {
		res, err, ms := fuzzReply([]byte(seed))
		checkReply(t, res, err, ms)
		path := filepath.Join("testdata", "fuzz", "FuzzReplyEncoding", name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: seed missing or stale (%v); run with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzDecodeReply holds decodeReply to encoding/json on arbitrary bytes (see
// checkDecode): rows it cuts by hand, rows it leaves to encoding/json, and
// lines that are not replies at all.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, line)
	})
}

// decodeSeeds is FuzzDecodeReply's committed corpus.
var decodeSeeds = map[string]string{
	"fetch":         `{"columns":["k","s"],"types":["BIGINT","VARCHAR"],"rows":[["1","a"],["2","é日本"]],"exec_ms":0.5,"stats":{"blocks_read":1,"blocks_skipped":0,"rows_scanned":2,"net_bytes":0,"queue_ms":0,"plan_ms":0.01,"queue":"fast"}}` + "\n",
	"empty-rows":    `{"rows":[[],[]],"exec_ms":0}`,
	"rows-empty":    `{"rows":[],"exec_ms":0}`,
	"escapes":       `{"rows":[["a\"b","c\\d","\u003c\u2028","\n\t"]],"message":"\u0026"}`,
	"whitespace":    "{ \"rows\" : [ [ \"a\" , \"b\" ] ,[\"c\"]] }\r\n",
	"rows-null":     `{"rows":null,"error":"x","retryable":true}`,
	"numeric-cells": `{"rows":[["1",2],[3.5,null]]}`,
	"nested-cells":  `{"rows":[[["a"]],[{"b":"c"}]]}`,
	"invalid-utf8":  "{\"rows\":[[\"\xff\xfe\",\"\xc3(\"]],\"columns\":[\"\xed\xa0\x80\"]}",
	"control-bytes": "{\"rows\":[[\"a\x01b\",\"\x1f\"]]}",
	"duplicate":     `{"rows":5,"rows":[["a"]]}`,
	"case-folded":   `{"ROWS":[["a"]],"Rows":[["b","c"]],"Cached":true}`,
	"unterminated":  `{"rows":[["a"],`,
	"not-an-object": `[["a"]]`,
}

// TestDecodeReplySeedCorpus keeps FuzzDecodeReply's committed seeds equal to
// decodeSeeds (UPDATE_FUZZ_CORPUS=1 writes them) and runs each through the
// fuzz target's check.
func TestDecodeReplySeedCorpus(t *testing.T) {
	for name, seed := range decodeSeeds {
		checkDecode(t, []byte(seed))
		path := filepath.Join("testdata", "fuzz", "FuzzDecodeReply", name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: seed missing or stale (%v); run with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// TestDecodedReplySharesOnlyRows: the cells of a decoded reply share one
// string, and nothing else does — no other string of the Response lies in
// it or in the line — so a caller that keeps a reply's Stats, say, does not
// keep its rows alive.
func TestDecodedReplySharesOnlyRows(t *testing.T) {
	line, err := json.Marshal(Response{
		Columns: []string{"k", "note"}, Types: []string{"BIGINT", "VARCHAR"},
		Rows:    [][]string{{"1", "one"}, {"2", "two"}, {"3", "three"}},
		Message: "SELECT", Error: "not really", ExecMillis: 1,
		Stats: &Stats{BlocksRead: 1, Queue: "fast"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeReply(line)
	if err != nil {
		t.Fatal(err)
	}
	span := func(s string) (uintptr, uintptr) {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p, p + uintptr(len(s))
	}
	lo, hi := span(resp.Rows[0][0])
	for _, row := range resp.Rows {
		for _, cell := range row {
			p, e := span(cell)
			lo, hi = min(lo, p), max(hi, e)
		}
	}
	if hi-lo > uintptr(len(line)) {
		t.Fatalf("the cells span %d bytes, more than the %d-byte line: not one string", hi-lo, len(line))
	}
	lineLo := uintptr(unsafe.Pointer(unsafe.SliceData(line)))
	lineHi := lineLo + uintptr(len(line))
	others := append(append([]string{resp.Message, resp.Error, resp.Stats.Queue}, resp.Columns...), resp.Types...)
	for _, s := range others {
		if p, e := span(s); p < hi && e > lo || p < lineHi && e > lineLo {
			t.Errorf("%q shares the rows' or the line's memory", s)
		}
	}
}

// rowsExec answers "ROWS n" with n rows of four columns and "FAIL" with a
// retryable error.
type rowsExec struct{}

func (rowsExec) Close() {}

func (rowsExec) ExecuteContext(_ context.Context, q string) (*core.Result, error) {
	if q == "FAIL" {
		return nil, faults.MarkRetryable(errors.New("try again <later>"))
	}
	n, err := strconv.Atoi(strings.TrimPrefix(q, "ROWS "))
	if err != nil {
		return nil, err
	}
	return fetchResult(n), nil
}

// fetchResult is a LIMIT-fetch-shaped result: n rows of (BIGINT key, DOUBLE,
// VARCHAR, DATE).
func fetchResult(n int) *core.Result {
	res := &core.Result{Schema: types.NewSchema(
		types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "price", Type: types.Float64},
		types.Column{Name: "note", Type: types.String}, types.Column{Name: "day", Type: types.Date})}
	vals := make([]types.Value, 4*n)
	for i := 0; i < n; i++ {
		row := vals[4*i : 4*i+4 : 4*i+4]
		row[0], row[1] = types.NewInt(int64(i)*7919), types.NewFloat(float64(i%1000)*1.25+0.01)
		row[2], row[3] = types.NewString(fmt.Sprintf("note-%06d", i)), types.NewDate(int64(18000+i%3000))
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TestReplyPoolDropsLargeBuffers: the buffer a 200 000-row reply grew is not
// pooled — after it, no pooled buffer is over maxPooledReply. It runs on one
// P, so the test goroutine's Gets see what the server's Puts left, the
// per-P private slot included.
func TestReplyPoolDropsLargeBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv := NewSessionServer(func() SessionExecutor { return rowsExec{} })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{3, 200000, 3} {
		resp, err := c.Query(fmt.Sprintf("ROWS %d", n))
		if err != nil || resp.Error != "" || len(resp.Rows) != n {
			t.Fatalf("ROWS %d: %d rows, %v %v", n, len(resp.Rows), err, resp.Error)
		}
	}
	for {
		buf := replyPool.Get().(*[]byte)
		if cap(*buf) == 0 {
			break // the pool is empty: New made this one
		}
		if cap(*buf) > maxPooledReply {
			t.Fatalf("pool holds a %d-byte buffer, over the %d bound", cap(*buf), maxPooledReply)
		}
	}
}

// TestReplyPoolConcurrent: connections on goroutines of their own take reply
// buffers from one pool, small and over the bound, replies and errors mixed;
// every reply still decodes to its own statement's rows. Meaningful under
// -race.
func TestReplyPoolConcurrent(t *testing.T) {
	srv := NewSessionServer(func() SessionExecutor { return rowsExec{} })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 12; i++ {
				q, n := "FAIL", 0
				if (i+w)%4 != 0 {
					n = []int{0, 1, 3, 2000, 40000}[(i*w+i)%5]
					q = fmt.Sprintf("ROWS %d", n)
				}
				resp, err := c.Query(q)
				switch {
				case err != nil:
					t.Error(err)
					return
				case q == "FAIL" && (!resp.Retryable || resp.Error != "try again <later>"):
					t.Errorf("FAIL: %+v", resp)
				case q != "FAIL" && (len(resp.Rows) != n || n > 0 && resp.Rows[n-1][2] != fmt.Sprintf("note-%06d", n-1)):
					t.Errorf("%s: %d rows", q, len(resp.Rows))
				}
			}
		}(w)
	}
	wg.Wait()
}

// rawReplies writes data on a fresh connection (from a goroutine: the server
// may answer before it has read everything) and returns every reply line
// until the server closes the connection.
func rawReplies(t *testing.T, addr string, data []byte) []Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	go conn.Write(data)
	var out []Response
	r := bufio.NewReader(conn)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return out
		}
		if err != nil {
			t.Fatalf("after %d replies: %v", len(out), err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("reply %q: %v", line, err)
		}
		out = append(out, resp)
	}
}

// TestRequestLineBounded: a request line over 16 MB and a line that is not a
// request each get an error reply — after the replies to what came before
// them on the connection — and then the connection closes. Other connections
// are served throughout, and nothing is left held.
func TestRequestLineBounded(t *testing.T) {
	db := openWireDB(t, core.Config{
		Cluster:   cluster.Config{Nodes: 2, SlicesPerNode: 2, BlockCap: 128},
		DataStore: s3sim.New(),
	})
	addr := startSessionServer(t, db)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedKV(t, c)
	sum := func() {
		t.Helper()
		if resp, err := c.Query(`SELECT SUM(v) FROM kv`); err != nil || resp.Error != "" || resp.Rows[0][0] != "60" {
			t.Fatalf("the healthy connection: %+v %v", resp, err)
		}
	}
	sum()

	huge := []byte(`{"query":"SELECT k FROM kv -- ` + strings.Repeat("x", 17<<20) + "\"}\n")
	if got := rawReplies(t, addr, huge); len(got) != 1 || !strings.Contains(got[0].Error, "request line longer than") {
		t.Errorf("a 17 MB line: %d replies %+v", len(got), got)
	}
	sum()

	got := rawReplies(t, addr, []byte("{\"query\":\"SELECT SUM(v) FROM kv\"}\n\n  \n{\"query\": SELECT broken\n{\"query\":\"SELECT 1\"}\n"))
	if len(got) != 2 || got[0].Error != "" || got[0].Rows[0][0] != "60" || !strings.Contains(got[1].Error, "malformed request") {
		t.Errorf("a statement, blank lines, then broken JSON: %+v", got)
	}
	sum()

	deadline := time.Now().Add(10 * time.Second)
	for db.Quiescent() != nil {
		if time.Now().After(deadline) {
			t.Fatal(db.Quiescent())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkReplyEncode times appendReply on a 2000 × 4 LIMIT-fetch-shaped
// reply and a 3-row result-cache hit: ns/row, B/op and allocs/op — the
// in-repo form of the harness's wire.encode_us_per_krow.
func BenchmarkReplyEncode(b *testing.B) {
	for _, n := range []int{2000, 3} {
		res := fetchResult(n)
		res.Cached = n == 3
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := new([]byte)
			for i := 0; i < b.N; i++ {
				*buf = appendReply((*buf)[:0], res, nil, 0.123)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}

// BenchmarkReplyDecode times the client's decodeReply on the replies
// BenchmarkReplyEncode writes, and encoding/json on the same lines.
func BenchmarkReplyDecode(b *testing.B) {
	for _, n := range []int{2000, 3} {
		res := fetchResult(n)
		res.Cached = n == 3
		line := appendReply(nil, res, nil, 0.123)
		for _, dec := range []struct {
			name string
			fn   func([]byte) error
		}{
			{"decodeReply", func(l []byte) error { _, err := decodeReply(l); return err }},
			{"encoding-json", func(l []byte) error { return json.Unmarshal(l, new(Response)) }},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, dec.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.fn(line); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
	}
}
