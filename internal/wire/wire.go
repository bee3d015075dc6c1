// Package wire implements the client/server protocol of the leader node
// (§2.1: "The leader node accepts connections from client programs").
//
// The protocol is newline-delimited JSON over TCP — a deliberately simple
// stand-in for the PostgreSQL wire format the real system speaks so that
// "customers' existing tools ecosystem would largely work" (§3.1). One
// request line yields exactly one response line.
//
// Each accepted connection is bound to its own session: prepared
// statements and SET variables live exactly as long as the connection, and
// a client that disconnects mid-query cancels that query (the reader
// goroutine notices the broken connection while the statement executes and
// tears the session's context down, releasing its WLM slot).
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"redshift/internal/core"
	"redshift/internal/faults"
)

// Request is one statement from the client.
type Request struct {
	Query string `json:"query"`
}

// Response is one statement's outcome.
type Response struct {
	Columns []string   `json:"columns,omitempty"`
	Types   []string   `json:"types,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Message string     `json:"message,omitempty"`
	Error   string     `json:"error,omitempty"`
	// Retryable classifies Error per the elasticity taxonomy: true means
	// the statement failed transiently (resize cutover window, quarantined
	// replicas exhausted, WLM admission timeout) and resending the same
	// statement after a backoff is safe and expected to succeed.
	Retryable bool `json:"retryable,omitempty"`
	// Cached reports that the result came from the leader's result cache
	// without executing.
	Cached bool `json:"cached,omitempty"`
	// ExecMillis is server-side execution time.
	ExecMillis float64 `json:"exec_ms"`
	// Stats carries the engine counters for EXPLAIN ANALYZE-style tools.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats mirrors core.ExecStats over the wire.
type Stats struct {
	BlocksRead    int64 `json:"blocks_read"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	RowsScanned   int64 `json:"rows_scanned"`
	NetBytes      int64 `json:"net_bytes"`
	// QueueMillis is WLM queue wait; PlanMillis is planning time; Queue is
	// the WLM queue that admitted the query ("" when WLM was bypassed).
	QueueMillis float64 `json:"queue_ms"`
	PlanMillis  float64 `json:"plan_ms"`
	Queue       string  `json:"queue,omitempty"`
}

// SessionExecutor is one connection's execution context: statements run
// under the connection's context (disconnect cancels them) and Close
// releases per-session state (prepared statements, SET variables).
// *core.Session implements it.
type SessionExecutor interface {
	ExecuteContext(ctx context.Context, query string) (*core.Result, error)
	Close()
}

// Server is the leader node's TCP listener.
type Server struct {
	open func() SessionExecutor

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	handled atomic.Int64
}

// NewSessionServer builds a server that opens a fresh session per accepted
// connection. open is typically Database.NewSession (or Warehouse
// equivalent) wrapped to return the interface.
func NewSessionServer(open func() SessionExecutor) *Server {
	return &Server{open: open, conns: map[net.Conn]struct{}{}}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:5439") and returns the
// bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// serve runs one connection. The read side lives on its own goroutine so a
// disconnect is noticed even while a statement executes: the decoder fails
// the moment the peer goes away, which cancels ctx and aborts the in-flight
// statement at its next batch boundary.
func (s *Server) serve(conn net.Conn) {
	sess := s.open()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		conn.Close()
		sess.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	reqs := make(chan Request)
	go func() {
		defer close(reqs)
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var req Request
			if err := dec.Decode(&req); err != nil {
				cancel() // EOF or bad framing: drop the session, abort in-flight work
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()

	enc := json.NewEncoder(conn)
	for req := range reqs {
		resp, res, done := s.handle(ctx, sess, req)
		err := enc.Encode(resp)
		// The statement finished at done; building and writing its reply is
		// its stl_query row's serialize stage.
		res.ReportSerialize(time.Since(done))
		if err != nil {
			cancel() // unblocks the reader goroutine
			return
		}
	}
}

// handle runs one request and builds its reply; it also returns the
// statement's result (nil on error) and when ExecuteContext returned.
func (s *Server) handle(ctx context.Context, sess SessionExecutor, req Request) (*Response, *core.Result, time.Time) {
	s.handled.Add(1)
	start := time.Now()
	res, err := sess.ExecuteContext(ctx, req.Query)
	done := time.Now()
	resp := &Response{ExecMillis: float64(done.Sub(start).Microseconds()) / 1000}
	if err != nil {
		resp.Error = err.Error()
		resp.Retryable = faults.Retryable(err)
		return resp, nil, done
	}
	resp.Message = res.Message
	resp.Cached = res.Cached
	for _, c := range res.Schema.Columns {
		resp.Columns = append(resp.Columns, c.Name)
		resp.Types = append(resp.Types, c.Type.String())
	}
	for _, row := range res.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = v.String()
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
	return resp, res, done
}

// Handled returns how many requests the server has processed.
func (s *Server) Handled() int64 { return s.handled.Load() }

// Close stops the listener and closes live connections (their in-flight
// statements are cancelled by the per-connection reader noticing the
// close).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// Client is a minimal driver.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Query sends one statement and waits for its response.
func (c *Client) Query(query string) (*Response, error) {
	if err := c.enc.Encode(Request{Query: query}); err != nil {
		return nil, fmt.Errorf("wire: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("wire: server closed the connection")
		}
		return nil, fmt.Errorf("wire: receive: %w", err)
	}
	return &resp, nil
}

// QueryRetry sends the statement and, when the server classifies the
// failure as retryable (resize cutover window, admission timeout,
// quarantine-exhausted read), backs off per policy and resends. A
// non-retryable error or an exhausted policy returns the last response.
func (c *Client) QueryRetry(ctx context.Context, query string, p faults.Policy) (*Response, error) {
	var resp *Response
	var sendErr error
	_, doErr := p.Do(ctx, func() error {
		r, err := c.Query(query)
		if err != nil {
			sendErr = err
			return faults.Permanent(err) // transport error: the session is gone
		}
		sendErr, resp = nil, r
		if r.Error != "" && r.Retryable {
			return fmt.Errorf("wire: retryable: %s", r.Error)
		}
		return nil
	})
	if sendErr != nil {
		return nil, sendErr
	}
	if resp == nil {
		return nil, doErr
	}
	// Policy exhaustion surfaces through resp.Error — the caller sees the
	// last server-side outcome either way.
	return resp, nil
}

// Send transmits one statement without waiting for its response; pair with
// Recv. Useful for tests that disconnect mid-query.
func (c *Client) Send(query string) error {
	if err := c.enc.Encode(Request{Query: query}); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// Recv waits for the next response.
func (c *Client) Recv() (*Response, error) {
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: receive: %w", err)
	}
	return &resp, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }
