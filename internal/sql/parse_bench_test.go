package sql

import (
	"strings"
	"testing"
)

// parseFreshForBench is the pre-pooling Parse path: a new parser and a new
// token slice per statement. It exists only so the benchmark can show what
// the sync.Pool buys.
func parseFreshForBench(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

var benchStatements = []string{
	`SELECT user_id, COUNT(*) FROM events WHERE event_date BETWEEN '2024-01-01' AND '2024-01-31' GROUP BY user_id ORDER BY 2 DESC LIMIT 100`,
	`SELECT o.region, SUM(o.amount) AS total FROM orders o JOIN customers c ON o.cust_id = c.id WHERE c.segment = 'enterprise' GROUP BY o.region HAVING SUM(o.amount) > 1000`,
	`INSERT INTO metrics (host, ts, value) VALUES ('db-1', '2024-03-04 10:00:00', 42.5)`,
	`SELECT CASE WHEN amount > 100 THEN 'big' ELSE 'small' END, ABS(delta) FROM ledger WHERE id IN (1, 2, 3) AND note LIKE 'ok%'`,
}

func BenchmarkParsePooling(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(benchStatements[i%len(benchStatements)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseFreshForBench(benchStatements[i%len(benchStatements)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParseFreshMatchesPooled pins that the pooled path is behaviorally
// identical to the fresh path the benchmark compares against.
func TestParseFreshMatchesPooled(t *testing.T) {
	for _, q := range benchStatements {
		a, err := Parse(q)
		if err != nil {
			t.Fatalf("pooled Parse(%q): %v", q, err)
		}
		b, err := parseFreshForBench(q)
		if err != nil {
			t.Fatalf("fresh parse(%q): %v", q, err)
		}
		if a.String() != b.String() {
			t.Fatalf("pooled vs fresh mismatch for %q:\n  pooled: %s\n  fresh:  %s", q, a.String(), b.String())
		}
	}
}

// TestParserPoolDoesNotRetainHugeBuffer: one hostile statement must not leave
// its token buffer — tens of megabytes — in the pool for as long as the
// process parses. Whatever parser the pool hands out next, recycled or new,
// holds at most maxPooledTokens.
func TestParserPoolDoesNotRetainHugeBuffer(t *testing.T) {
	huge := "SELECT 1" + strings.Repeat(", 1", 4<<20/3) + " FROM t"
	if _, err := Parse(huge); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := parserPool.Get().(*parser)
		if n := cap(p.toks); n > maxPooledTokens {
			t.Fatalf("pooled parser kept a %d-token buffer after a %d-byte statement, bound %d", n, len(huge), maxPooledTokens)
		}
		defer parserPool.Put(p)
	}
}
