package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// splitRequests is what a connection carrying data asks for, read without
// a bufio.Reader: data cut at every newline, blank pieces dropped, each
// other piece a Request or, when it is longer than maxRequestLine or not
// one, the bad request the connection ends on.
func splitRequests(data []byte) []request {
	var out []request
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i+1]
		}
		data = data[len(line):]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req request
		if len(line) > maxRequestLine {
			req.bad = fmt.Errorf("too long")
		} else if err := json.Unmarshal(line, &req.Request); err != nil {
			req.bad = err
		}
		out = append(out, req)
		if req.bad != nil {
			break
		}
	}
	return out
}

// checkReadRequest reads data as serve's reader goroutine does, through a
// 16-byte buffer so that most lines take readRequest's over-the-buffer path,
// and holds what it gets to splitRequests: no panic, blank lines skipped,
// every request either the line's Query or bad, nothing read after a bad
// request, and EOF — again on the next call — once data is used up.
func checkReadRequest(t *testing.T, data []byte) {
	want := splitRequests(data)
	r := bufio.NewReaderSize(bytes.NewReader(data), 16)
	for i := 0; ; i++ {
		req, err := readRequest(r)
		if err != nil {
			if err != io.EOF || i != len(want) {
				t.Fatalf("after %d requests: %v; want EOF after %d", i, err, len(want))
			}
			if _, err := readRequest(r); err != io.EOF {
				t.Fatalf("read past EOF: %v", err)
			}
			return
		}
		if i == len(want) {
			t.Fatalf("request %d read from %q, which holds %d", i, data, len(want))
		}
		if (req.bad != nil) != (want[i].bad != nil) || req.bad == nil && req.Query != want[i].Query {
			t.Fatalf("request %d of %q: query %q bad %v; want query %q bad %v",
				i, data, req.Query, req.bad, want[i].Query, want[i].bad)
		}
		if req.bad != nil {
			if i != len(want)-1 {
				t.Fatalf("bad request %d of %q is not the last", i, data)
			}
			return // serve answers it and closes the connection
		}
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request side of the wire:
// readRequest's line framing and request decoding (see checkReadRequest).
func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadRequest(t, data)
	})
}

// requestSeeds is FuzzReadRequest's committed corpus.
var requestSeeds = map[string]string{
	"empty":          "",
	"blank-lines":    "\n \r\n\t\n",
	"one":            "{\"query\":\"SELECT 1\"}\n",
	"no-final-nl":    "{\"query\":\"SELECT 1\"}",
	"blanks-between": "\n{\"query\":\"a\"}\n\n  \n{\"query\":\"b\"}\r\n",
	"long-line":      "{\"query\":\"SELECT category, COUNT(*) FROM products GROUP BY category\"}\n",
	"malformed":      "not json\n{\"query\":\"never read\"}\n",
	"two-objects":    "{\"query\":\"x\"}{\"query\":\"y\"}\n",
	"empty-object":   "{}\n{\"query\":\"\"}\n",
	"wrong-type":     "{\"query\":5}\n",
	"unicode-space":  "\u00a0\u2003\n{\"query\":\"é\\u00e9\"}\n",
	"escaped-nl":     "{\"query\":\"a\\nb\"}\n{\"query\":\n\"split\"}\n",
}

// TestReadRequestSeedCorpus keeps FuzzReadRequest's committed seeds equal to
// requestSeeds (UPDATE_FUZZ_CORPUS=1 writes them) and runs each through the
// fuzz target's check.
func TestReadRequestSeedCorpus(t *testing.T) {
	for name, seed := range requestSeeds {
		checkReadRequest(t, []byte(seed))
		path := filepath.Join("testdata", "fuzz", "FuzzReadRequest", name)
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

// TestPlainRequestPath: readRequest reads a line without encoding/json only
// when it is exactly {"query":"…"}\n with plain text inside, and what it
// reads either way is what checkReadRequest's oracle reads.
func TestPlainRequestPath(t *testing.T) {
	for line, plain := range map[string]bool{
		"{\"query\":\"SELECT 1\"}\n":                true,
		"{\"query\":\"\"}\n":                        true,
		"{\"query\":\"é日本\"}\n":                     true,
		"\"}\n":                                     false,
		"{\"query\":\"}\n":                          false,
		"{\"query\":\"a\"}":                         false,
		"{\"query\":\"a\"}\r\n":                     false,
		"{\"query\":\"a\\\"b\"}\n":                  false,
		"{\"query\":\"a\",\"x\":\"b\"}\n":           false,
		"{\"query\":\"\\u003c\"}\n":                 true,
		"{\"query\":\"a\\u003e\\u0026\\u003cb\"}\n": true,
		"{\"query\":\"\\\\u003c\"}\n":               false,
		"{\"query\":\"\\u003C\"}\n":                 false,
		"{\"query\":\"\\u003\"}\n":                  false,
		"{\"query\":\"a\tb\"}\n":                    false,
		"{\"query\":\"\xff\"}\n":                    false,
		"{\"query\": \"a\"}\n":                      false,
	} {
		if _, ok := plainRequest([]byte(line)); ok != plain {
			t.Errorf("plainRequest(%q) = %v, want %v", line, ok, plain)
		}
		checkReadRequest(t, []byte(line))
	}
}
