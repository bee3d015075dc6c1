package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"redshift/internal/core"
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
