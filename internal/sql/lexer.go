package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexical unit. Keywords are uppercased in Text; identifiers
// keep their original case (lookups are case-insensitive downstream).
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

// keywords is the reserved-word set. Anything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"AS": true, "JOIN": true, "INNER": true, "LEFT": true, "OUTER": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "IS": true, "NULL": true, "TRUE": true,
	"FALSE": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "ASC": true, "DESC": true, "CREATE": true, "TABLE": true,
	"DROP": true, "IF": true, "EXISTS": true, "INSERT": true, "INTO": true,
	"VALUES": true, "COPY": true, "FORMAT": true, "DELIMITER": true,
	"DISTSTYLE": true, "DISTKEY": true, "SORTKEY": true, "COMPOUND": true,
	"INTERLEAVED": true, "ENCODE": true, "EVEN": true, "ALL": true, "KEY": true,
	"VACUUM": true, "ANALYZE": true, "COMPRESSION": true, "EXPLAIN": true,
	"TRUNCATE": true, "COMPUPDATE": true, "STATUPDATE": true, "GZIP": true,
	"DATE": true, "TIMESTAMP": true, "APPROXIMATE": true, "COUNT": true,
	"PRECISION": true, "DOUBLE": true, "CHARACTER": true, "VARYING": true,
	"CSV": true, "JSON": true, "SET": true, "TO": true, "CANCEL": true,
	"PREPARE": true, "EXECUTE": true, "DEALLOCATE": true,
}

// lex tokenizes the input. It returns a descriptive error with a byte
// position on any malformed token.
func lex(input string) ([]token, error) {
	return lexInto(nil, input)
}

// lexInto tokenizes into buf (reusing its capacity), so a pooled parser
// can amortize the token-slice allocation across statements. buf should be
// sliced to length 0 by the caller; the (possibly re-grown) slice is
// returned even on error.
func lexInto(buf []token, input string) ([]token, error) {
	toks := buf
	i, n := 0, len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(runeAt(input, i)):
			start := i
			for i < n {
				r := runeAt(input, i)
				if !isIdentPart(r) {
					break
				}
				i += utf8.RuneLen(r)
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{tokKeyword, upper, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			seenDot, seenExp := false, false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return toks, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '"': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return toks, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{tokIdent, input[i : i+j], start})
			i += j + 1
		default:
			start := i
			// Multi-character operators first.
			for _, op := range []string{"<>", "!=", "<=", ">=", "||"} {
				if strings.HasPrefix(input[i:], op) {
					toks = append(toks, token{tokSymbol, op, start})
					i += 2
					goto next
				}
			}
			switch c {
			case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', '%', ';', '.':
				toks = append(toks, token{tokSymbol, string(c), start})
				i++
			default:
				return toks, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
		next:
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// runeAt decodes the character at input[i]; a byte that is not UTF-8 decodes
// to utf8.RuneError, which is no part of any token.
func runeAt(input string, i int) rune {
	if c := input[i]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(input[i:])
	return r
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
