package wire

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redshift/internal/core"
	"redshift/internal/faults"
	"redshift/internal/types"
)

// fakeExec is a canned session executor.
type fakeExec struct{}

func (fakeExec) Close() {}

func (fakeExec) ExecuteContext(_ context.Context, q string) (*core.Result, error) {
	switch q {
	case "SELECT":
		return &core.Result{
			Schema: types.NewSchema(
				types.Column{Name: "a", Type: types.Int64},
				types.Column{Name: "b", Type: types.String},
			),
			Rows: []types.Row{
				{types.NewInt(1), types.NewString("x")},
				{types.NewNull(types.Int64), types.NewString("y")},
			},
			Stats: core.ExecStats{BlocksRead: 3, RowsScanned: 2},
		}, nil
	case "DDL":
		return &core.Result{Message: "CREATE TABLE"}, nil
	default:
		return nil, fmt.Errorf("boom: %s", q)
	}
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewSessionServer(func() SessionExecutor { return fakeExec{} })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestQueryRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Query("SELECT")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("error = %q", resp.Error)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "a" || resp.Types[1] != "VARCHAR" {
		t.Errorf("columns = %v %v", resp.Columns, resp.Types)
	}
	if len(resp.Rows) != 2 || resp.Rows[0][0] != "1" || resp.Rows[1][0] != "NULL" {
		t.Errorf("rows = %v", resp.Rows)
	}
	if resp.Stats == nil || resp.Stats.BlocksRead != 3 {
		t.Errorf("stats = %+v", resp.Stats)
	}

	ddl, err := c.Query("DDL")
	if err != nil || ddl.Message != "CREATE TABLE" {
		t.Errorf("ddl = %+v, %v", ddl, err)
	}
	bad, err := c.Query("nope")
	if err != nil {
		t.Fatal(err)
	}
	if bad.Error == "" {
		t.Error("expected error response")
	}
	if srv.Handled() != 3 {
		t.Errorf("handled = %d", srv.Handled())
	}
}

func TestMultipleSequentialQueriesOneConnection(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		resp, err := c.Query("SELECT")
		if err != nil || resp.Error != "" {
			t.Fatalf("iteration %d: %v %q", i, err, resp.Error)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Query("SELECT"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerCloseDropsClients(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Query("SELECT")
	srv.Close()
	if _, err := c.Query("SELECT"); err == nil {
		t.Error("query succeeded after server close")
	}
	if _, err := Dial(addr); err == nil {
		t.Error("dial succeeded after close")
	}
}

// flakyExec fails its first fail statements, marked retryable or not, then
// answers; calls counts every statement it ran.
type flakyExec struct {
	fail      int64
	retryable bool
	calls     *atomic.Int64
}

func (flakyExec) Close() {}

func (e flakyExec) ExecuteContext(context.Context, string) (*core.Result, error) {
	if n := e.calls.Add(1); n <= e.fail {
		err := fmt.Errorf("attempt %d failed", n)
		if e.retryable {
			err = faults.MarkRetryable(err)
		}
		return nil, err
	}
	return &core.Result{Message: "OK"}, nil
}

// TestQueryRetry: QueryRetry resends a statement while the server marks its
// failure retryable, and only then: a plain error returns after one attempt,
// an exhausted policy returns the last error reply, and a closed connection
// returns the transport error.
func TestQueryRetry(t *testing.T) {
	policy := faults.Policy{MaxAttempts: 4, Base: time.Microsecond, Max: time.Microsecond}
	dial := func(e flakyExec) *Client {
		srv := NewSessionServer(func() SessionExecutor { return e })
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, tc := range []struct {
		name      string
		fail      int64
		retryable bool
		calls     int64
		errReply  string
	}{
		{"retried-until-success", 3, true, 4, ""},
		{"not-retryable", 3, false, 1, "attempt 1 failed"},
		{"exhausted", 9, true, 4, "attempt 4 failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := &atomic.Int64{}
			c := dial(flakyExec{fail: tc.fail, retryable: tc.retryable, calls: calls})
			resp, err := c.QueryRetry(context.Background(), "SELECT", policy)
			if err != nil {
				t.Fatal(err)
			}
			if n := calls.Load(); n != tc.calls {
				t.Errorf("server ran %d attempts, want %d", n, tc.calls)
			}
			switch {
			case tc.errReply == "" && (resp.Error != "" || resp.Message != "OK"):
				t.Errorf("reply = %+v, want the answer", resp)
			case tc.errReply != "" && (!strings.Contains(resp.Error, tc.errReply) || resp.Retryable != tc.retryable):
				t.Errorf("reply error = %q (retryable %v), want %q (retryable %v)", resp.Error, resp.Retryable, tc.errReply, tc.retryable)
			}
		})
	}
	t.Run("closed-connection", func(t *testing.T) {
		calls := &atomic.Int64{}
		c := dial(flakyExec{fail: 9, retryable: true, calls: calls})
		c.Close()
		resp, err := c.QueryRetry(context.Background(), "SELECT", policy)
		if err == nil || resp != nil || !strings.Contains(err.Error(), "wire: send") {
			t.Errorf("QueryRetry on a closed connection = %+v, %v; want the send error", resp, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("server ran %d attempts", n)
		}
	})
}
