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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"redshift/internal/core"
	"redshift/internal/faults"
	"redshift/internal/types"
)

// Request is one statement from the client.
type Request struct {
	Query string `json:"query"`
}

// Response is one statement's outcome.
type Response struct {
	Columns []string `json:"columns,omitempty"`
	Types   []string `json:"types,omitempty"`
	// Rows, as Client decodes them, are windows of one backing and their
	// cells substrings of one string, the reply's rows array: holding any
	// cell holds every row's text. No other field shares that memory.
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

// maxRequestLine caps one request line at Redshift's documented maximum
// statement size, 16 MB.
const maxRequestLine = 16 << 20

// request is one line read off a connection: a statement, or bad — why the
// line is not one, which is answered before the connection closes.
type request struct {
	Request
	bad error
}

// serve runs one connection. The read side lives on its own goroutine so a
// disconnect is noticed even while a statement executes: the read fails the
// moment the peer goes away, which cancels ctx and aborts the in-flight
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

	reqs := make(chan request)
	go func() {
		defer close(reqs)
		r := bufio.NewReader(conn)
		for {
			req, err := readRequest(r)
			if err != nil {
				cancel() // EOF or a broken connection: drop the session, abort in-flight work
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
			if req.bad != nil {
				return
			}
		}
	}()

	for req := range reqs {
		var res *core.Result
		err, start := req.bad, time.Now()
		if err == nil {
			s.handled.Add(1)
			res, err = sess.ExecuteContext(ctx, req.Query)
		}
		done := time.Now()
		buf := replyPool.Get().(*[]byte)
		*buf = appendReply((*buf)[:0], res, err, float64(done.Sub(start).Microseconds())/1000)
		_, werr := conn.Write(*buf)
		if cap(*buf) <= maxPooledReply {
			replyPool.Put(buf)
		}
		if err == nil {
			// The statement finished at done; building and writing its reply
			// is its stl_query row's serialize stage.
			res.ReportSerialize(time.Since(done))
		}
		if werr != nil || req.bad != nil {
			return // the deferred cancel unblocks the reader goroutine
		}
	}
}

// readRequest reads the next non-blank line. One longer than maxRequestLine
// is read to its end and dropped; it, and a line that is not a Request, come
// back as req.bad. err is the connection's own: EOF, or a failed read.
func readRequest(r *bufio.Reader) (request, error) {
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line = append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				var more []byte
				if more, err = r.ReadSlice('\n'); len(line) <= maxRequestLine {
					line = append(line, more...)
				}
			}
		}
		if len(bytes.TrimSpace(line)) > 0 { // a last line may end at EOF
			var req request
			if len(line) > maxRequestLine {
				req.bad = fmt.Errorf("wire: request line longer than %d bytes", maxRequestLine)
			} else if q, ok := plainRequest(line); ok {
				req.Query = q
			} else if err := json.Unmarshal(line, &req.Request); err != nil {
				req.bad = fmt.Errorf("wire: malformed request: %w", err)
			}
			return req, nil
		}
		if err != nil {
			return request{}, err
		}
	}
}

// plainRequest reads a line that is exactly {"query":"…"}\n with nothing in
// the text to unescape but the \u003c, \u003e and \u0026 that Client.Send
// (and encoding/json) write for <, > and & — valid UTF-8 without quotes,
// other backslashes or control bytes — without encoding/json.
func plainRequest(line []byte) (string, bool) {
	body, ok := bytes.CutPrefix(line, []byte(`{"query":"`))
	body, ok2 := bytes.CutSuffix(body, []byte("\"}\n"))
	q := string(body)
	if strings.IndexByte(q, '\\') >= 0 {
		q = htmlUnescaper.Replace(q) // a backslash it leaves declines the line
	}
	clean := !strings.ContainsFunc(q, func(r rune) bool { return r < 0x20 || r == '"' || r == '\\' })
	return q, ok && ok2 && clean && utf8.ValidString(q)
}

var htmlUnescaper = strings.NewReplacer(`\u003c`, "<", `\u003e`, ">", `\u0026`, "&")

// maxPooledReply bounds the reply buffers the pool keeps. A buffer that a
// large result grew past it is dropped, as the pooled parser drops a huge
// token buffer, so one big fetch does not pin its size for the process's life.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// appendReply appends the line json.Encoder writes for the Response of one
// statement's outcome — res, or err — that took execMs: Response's fields in
// order under their omitempty rules, each row value's text written straight
// from its types.Value. Nothing is reflected and no Response is built.
func appendReply(b []byte, res *core.Result, err error, execMs float64) []byte {
	b = append(b, '{')
	if err != nil {
		if msg := err.Error(); msg != "" {
			b = appendString(append(b, `"error":`...), msg)
		}
		if faults.Retryable(err) {
			b = append(sep(b), `"retryable":true`...)
		}
		return append(appendFloat(append(sep(b), `"exec_ms":`...), execMs), '}', '\n')
	}
	if cols := res.Schema.Columns; len(cols) > 0 {
		b = append(b, `"columns":[`...)
		for _, c := range cols {
			b = appendString(sep(b), c.Name)
		}
		b = append(b, `],"types":[`...)
		for _, c := range cols {
			b = appendString(sep(b), c.Type.String())
		}
		b = append(b, ']')
	}
	if len(res.Rows) > 0 {
		b = append(sep(b), `"rows":[`...)
		for _, row := range res.Rows {
			b = append(sep(b), '[')
			for _, v := range row {
				if b = sep(b); v.Null || v.T != types.String && v.T != types.Invalid {
					b = append(v.Append(append(b, '"')), '"') // digits, signs, dates: nothing to escape
				} else {
					b = appendString(b, v.String())
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if res.Message != "" {
		b = appendString(append(sep(b), `"message":`...), res.Message)
	}
	if res.Cached {
		b = append(sep(b), `"cached":true`...)
	}
	st := &res.Stats
	b = appendFloat(append(sep(b), `"exec_ms":`...), execMs)
	b = strconv.AppendInt(append(b, `,"stats":{"blocks_read":`...), st.BlocksRead, 10)
	b = strconv.AppendInt(append(b, `,"blocks_skipped":`...), st.BlocksSkipped, 10)
	b = strconv.AppendInt(append(b, `,"rows_scanned":`...), st.RowsScanned, 10)
	b = strconv.AppendInt(append(b, `,"net_bytes":`...), st.NetBytes, 10)
	b = appendFloat(append(b, `,"queue_ms":`...), float64(st.QueueWait.Microseconds())/1e3)
	b = appendFloat(append(b, `,"plan_ms":`...), float64(st.PlanTime.Microseconds())/1e3)
	if st.Queue != "" {
		b = appendString(append(b, `,"queue":`...), st.Queue)
	}
	return append(b, '}', '}', '\n')
}

// sep separates an object member or array element from the one before it.
func sep(b []byte) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		return append(b, ',')
	}
	return b
}

// appendFloat writes f as encoding/json does: the shortest 'f' form, or 'e'
// with a one-digit negative exponent unpadded outside [1e-6, 1e21).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString writes s as a JSON string exactly as encoding/json does: <, >
// and & HTML-escaped, control bytes as \b \f \n \r \t or \u00XX, U+2028 and
// U+2029 escaped, each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if k := strings.IndexRune("\"\\\b\f\n\r\t", c); k >= 0 {
			b = append(b, '\\', `"\bfnrt`[k])
		} else if c == utf8.RuneError {
			b = append(b, `\ufffd`...)
		} else {
			b = append(b, '\\', 'u', hex[c>>12&0xF], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
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
	r    *bufio.Reader
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Query sends one statement and waits for its response.
func (c *Client) Query(query string) (*Response, error) {
	if err := c.Send(query); err != nil {
		return nil, err
	}
	return c.Recv()
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
// Recv. Useful for tests that disconnect mid-query. The line is the one
// json.Encoder writes for Request: appendString escapes as it does.
func (c *Client) Send(query string) error {
	if _, err := c.conn.Write(append(appendString([]byte(`{"query":`), query), '}', '\n')); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// Recv waits for the next response.
func (c *Client) Recv() (*Response, error) {
	line, err := c.r.ReadBytes('\n')
	if err == nil {
		return decodeReply(line)
	} else if err == io.EOF && len(line) == 0 {
		return nil, fmt.Errorf("wire: server closed the connection")
	}
	return nil, fmt.Errorf("wire: receive: %w", err)
}

// decodeReply reads one reply line with encoding/json, replyRows reading the
// rows member in its place.
func decodeReply(line []byte) (*Response, error) {
	var r struct {
		Response
		Rows replyRows `json:"rows"`
	}
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("wire: receive: %w", err)
	}
	r.Response.Rows = r.Rows
	return &r.Response, nil
}

// replyRows is a reply's rows member: cut by hand when it is exactly
// [["…",…],…] with no whitespace, backslash or invalid UTF-8 in it, as
// appendReply writes most rows, and read by encoding/json otherwise. (A raw
// value decoded after the rest would keep only a repeated member's last
// value, where encoding/json fails on any one of them that is not rows.)
type replyRows [][]string

// UnmarshalJSON cuts b, which encoding/json has checked is one JSON value —
// so a string in it holds no control byte — into one string, one backing of
// cells that are substrings of it, and rows that are windows of that backing.
func (r *replyRows) UnmarshalJSON(b []byte) error {
	s := string(b)
	if strings.IndexByte(s, '\\') >= 0 || !utf8.ValidString(s) {
		return json.Unmarshal(b, (*[][]string)(r))
	}
	cells := make([]string, 0, strings.Count(s, `"`)/2)
	*r = make([][]string, 0, strings.Count(s, "["))
	for i, depth, start := 0, 0, 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[' && depth < 2:
			depth, start = depth+1, len(cells)
		case c == ']':
			if depth--; depth == 1 {
				*r = append(*r, cells[start:len(cells):len(cells)])
			}
		case c == '"' && depth == 2:
			j := strings.IndexByte(s[i+1:], '"') + i + 1
			cells, i = append(cells, s[i+1:j]), j
		case c != ',':
			return json.Unmarshal(b, (*[][]string)(r))
		}
	}
	return nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }
