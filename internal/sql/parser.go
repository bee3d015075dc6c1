package sql

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// parserPool recycles parser objects — and, through them, their token
// buffers — across statements (the VictoriaMetrics pooled-yacc-parser
// trick). The serving path parses every statement of every session, so at
// thousands of queries per second the per-parse allocations are the
// dominant leader-node garbage; pooling drops a parse to near-zero
// steady-state allocations (see BenchmarkParsePooling).
//
// N.B.: pooling means Parse must never return anything that aliases the
// parser or its token buffer. AST nodes copy token text as strings (which
// share the input's backing array, not the parser's), so they are safe.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(input string) (Statement, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	if err := p.reset(input); err != nil {
		return nil, err
	}
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

// ParseExpr parses a standalone scalar expression (used by tests and the
// admin tools).
func ParseExpr(input string) (Expr, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	if err := p.reset(input); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
	// depth is how deep in an expression the parser stands (see deeper).
	depth int
}

// maxExprDepth bounds the depth of an expression tree Parse returns. The
// parser, String, the binder and the expression compiler all recurse over
// that tree, and a goroutine that outgrows its stack takes the process down —
// no recover catches it — so a statement nested deeper is refused here, the
// one place every statement passes. Real statements are tens of levels deep.
const maxExprDepth = 4096

// deeper steps one level down: into a parenthesis, an operand of NOT or
// unary minus, a CASE branch, a call or IN-list argument — or one operator
// further along a chain like a + b + c, which parses left-deep, a level per
// operator. Whoever steps down steps back up once its subtree is parsed.
func (p *parser) deeper() error {
	if p.depth++; p.depth > maxExprDepth {
		return p.errorf("expression nested more than %d levels deep", maxExprDepth)
	}
	return nil
}

// reset re-lexes the parser onto a new input, reusing its token buffer.
func (p *parser) reset(input string) error {
	toks, err := lexInto(p.toks[:0], input)
	p.toks, p.pos, p.input, p.depth = toks, 0, input, 0
	return err
}

// maxPooledTokens bounds the token buffer a pooled parser keeps: three
// orders of magnitude above any workload statement, and far below what a
// hostile one lexes into (a 4 MB statement: a ~160 MB buffer).
const maxPooledTokens = 64 << 10

// release clears input references and returns the parser to the pool. The
// token buffer's capacity is kept, but its strings (which alias the input)
// are dropped so a pooled parser never pins a dead query's text; a buffer
// over maxPooledTokens is dropped whole, for the collector.
func (p *parser) release() {
	if cap(p.toks) > maxPooledTokens {
		p.toks = nil
	}
	for i := range p.toks {
		p.toks[i] = token{}
	}
	p.toks = p.toks[:0]
	p.pos, p.input = 0, ""
	parserPool.Put(p)
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, if given).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches; reports whether it did.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token or fails with context.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokNumber: "number", tokString: "string",
		}[kind]
	}
	return token{}, p.errorf("expected %s, found %q", want, p.peek().text)
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// kw consumes a required keyword.
func (p *parser) kw(word string) error {
	_, err := p.expect(tokKeyword, word)
	return err
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreateTable()
	case p.at(tokKeyword, "DROP"):
		return p.parseDropTable()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "COPY"):
		return p.parseCopy()
	case p.accept(tokKeyword, "VACUUM"):
		v := &Vacuum{}
		if p.at(tokIdent, "") {
			v.Table = p.next().text
		}
		return v, nil
	case p.accept(tokKeyword, "ANALYZE"):
		a := &Analyze{}
		if p.accept(tokKeyword, "COMPRESSION") {
			a.Compression = true
		}
		if p.at(tokIdent, "") {
			a.Table = p.next().text
		}
		return a, nil
	case p.accept(tokKeyword, "SET"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if !p.accept(tokKeyword, "TO") && !p.accept(tokSymbol, "=") {
			return nil, p.errorf("expected TO or = after SET %s", name.text)
		}
		t := p.next()
		if t.kind != tokNumber && t.kind != tokString && t.kind != tokIdent && t.kind != tokKeyword {
			return nil, p.errorf("expected a value after SET %s, found %q", name.text, t.text)
		}
		return &Set{Name: strings.ToLower(name.text), Value: t.text}, nil
	case p.accept(tokKeyword, "PREPARE"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch inner.(type) {
		case *Prepare, *Execute, *Deallocate:
			return nil, p.errorf("cannot prepare a %T statement", inner)
		}
		return &Prepare{Name: name.text, Stmt: inner}, nil
	case p.accept(tokKeyword, "EXECUTE"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Execute{Name: name.text}, nil
	case p.accept(tokKeyword, "DEALLOCATE"):
		p.accept(tokKeyword, "PREPARE") // optional noise word, as in Postgres
		if p.accept(tokKeyword, "ALL") {
			return &Deallocate{All: true}, nil
		}
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Deallocate{Name: name.text}, nil
	case p.accept(tokKeyword, "CANCEL"):
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		id, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad query id %q", t.text)
		}
		return &Cancel{ID: id}, nil
	case p.accept(tokKeyword, "TRUNCATE"):
		p.accept(tokKeyword, "TABLE")
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Truncate{Table: name.text}, nil
	case p.accept(tokKeyword, "EXPLAIN"):
		// EXPLAIN ANALYZE <select> executes the query; a bare ANALYZE after
		// EXPLAIN would otherwise parse as the stats-collection statement,
		// so only treat it as the modifier when a statement follows.
		analyze := false
		if p.at(tokKeyword, "ANALYZE") && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "SELECT" {
			p.next()
			analyze = true
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.errorf("expected a statement, found %q", p.peek().text)
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.kw("CREATE"); err != nil {
		return nil, err
	}
	if err := p.kw("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{}
	if p.accept(tokKeyword, "IF") {
		if err := p.kw("NOT"); err != nil {
			return nil, err
		}
		if err := p.kw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ct.Name = name.text
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnSpec()
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, col)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	// Table attributes in any order.
	for {
		switch {
		case p.accept(tokKeyword, "DISTSTYLE"):
			t := p.next()
			style := strings.ToUpper(t.text)
			if style != "EVEN" && style != "KEY" && style != "ALL" {
				return nil, p.errorf("bad DISTSTYLE %q", t.text)
			}
			ct.DistStyle = style
		case p.accept(tokKeyword, "DISTKEY"):
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			ct.DistKey = col.text
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		case p.accept(tokKeyword, "COMPOUND"):
			ct.SortStyle = "COMPOUND"
			if err := p.parseSortKeyList(ct); err != nil {
				return nil, err
			}
		case p.accept(tokKeyword, "INTERLEAVED"):
			ct.SortStyle = "INTERLEAVED"
			if err := p.parseSortKeyList(ct); err != nil {
				return nil, err
			}
		case p.at(tokKeyword, "SORTKEY"):
			if err := p.parseSortKeyList(ct); err != nil {
				return nil, err
			}
		default:
			return ct, nil
		}
	}
}

func (p *parser) parseSortKeyList(ct *CreateTable) error {
	if err := p.kw("SORTKEY"); err != nil {
		return err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return err
	}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		ct.SortKeys = append(ct.SortKeys, col.text)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	_, err := p.expect(tokSymbol, ")")
	return err
}

func (p *parser) parseColumnSpec() (ColumnSpec, error) {
	var col ColumnSpec
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return col, err
	}
	col.Name = name.text
	typ, err := p.parseTypeName()
	if err != nil {
		return col, err
	}
	col.Type = typ
	for {
		switch {
		case p.accept(tokKeyword, "NOT"):
			if err := p.kw("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.accept(tokKeyword, "ENCODE"):
			t := p.next()
			enc, err := compress.ParseEncoding(t.text)
			if err != nil {
				return col, p.errorf("bad encoding %q", t.text)
			}
			col.Encoding = enc
			col.HasEncoding = true
		default:
			return col, nil
		}
	}
}

// parseTypeName handles single- and multi-word type names plus ignored
// length arguments like VARCHAR(256) and DECIMAL(18,4).
func (p *parser) parseTypeName() (types.Type, error) {
	t := p.next()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return types.Invalid, p.errorf("expected a type name, found %q", t.text)
	}
	name := strings.ToUpper(t.text)
	switch name {
	case "DOUBLE":
		if p.accept(tokKeyword, "PRECISION") {
			name = "DOUBLE PRECISION"
		}
	case "CHARACTER":
		if p.accept(tokKeyword, "VARYING") {
			name = "CHARACTER VARYING"
		}
	}
	typ := types.ParseType(name)
	if typ == types.Invalid {
		return types.Invalid, p.errorf("unknown type %q", t.text)
	}
	// Swallow (n) or (p, s).
	if p.accept(tokSymbol, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return types.Invalid, err
		}
		if p.accept(tokSymbol, ",") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return types.Invalid, err
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return types.Invalid, err
		}
	}
	return typ, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	if err := p.kw("DROP"); err != nil {
		return nil, err
	}
	if err := p.kw("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTable{}
	if p.accept(tokKeyword, "IF") {
		if err := p.kw("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	d.Name = name.text
	return d, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.kw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.kw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.text}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col.text)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.kw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseCopy() (Statement, error) {
	if err := p.kw("COPY"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	c := &Copy{Table: name.text}
	if err := p.kw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	c.From = from.text
	for {
		switch {
		case p.accept(tokKeyword, "FORMAT"):
			t := p.next()
			f := strings.ToUpper(t.text)
			if f != "CSV" && f != "JSON" {
				return nil, p.errorf("bad COPY format %q", t.text)
			}
			c.Format = f
		case p.accept(tokKeyword, "DELIMITER"):
			d, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			r, size := utf8.DecodeRuneInString(d.text)
			if size == 0 || size != len(d.text) {
				return nil, p.errorf("DELIMITER must be a single character")
			}
			c.Delimiter = r
		case p.accept(tokKeyword, "COMPUPDATE"):
			v, err := p.parseOnOff()
			if err != nil {
				return nil, err
			}
			c.CompUpdate = &v
		case p.accept(tokKeyword, "STATUPDATE"):
			v, err := p.parseOnOff()
			if err != nil {
				return nil, err
			}
			c.StatUpdate = &v
		case p.accept(tokKeyword, "GZIP"):
			c.GZip = true
		default:
			return c, nil
		}
	}
}

func (p *parser) parseOnOff() (bool, error) {
	t := p.next()
	switch strings.ToUpper(t.text) {
	case "ON", "TRUE":
		return true, nil
	case "OFF", "FALSE":
		return false, nil
	}
	return false, p.errorf("expected ON or OFF, found %q", t.text)
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.kw("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{Limit: -1}
	s.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		if p.accept(tokSymbol, "*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = alias.text
			} else if p.at(tokIdent, "") {
				item.Alias = p.next().text
			}
			s.Items = append(s.Items, item)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = ref
		for {
			var kind JoinKind
			switch {
			case p.accept(tokKeyword, "JOIN"):
				kind = InnerJoin
			case p.at(tokKeyword, "INNER"):
				p.next()
				if err := p.kw("JOIN"); err != nil {
					return nil, err
				}
				kind = InnerJoin
			case p.at(tokKeyword, "LEFT"):
				p.next()
				p.accept(tokKeyword, "OUTER")
				if err := p.kw("JOIN"); err != nil {
					return nil, err
				}
				kind = LeftJoin
			default:
				goto afterJoins
			}
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.kw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Joins = append(s.Joins, Join{Kind: kind, Table: ref, On: on})
		}
	}
afterJoins:
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if err := p.kw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if err := p.kw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.ParseInt(num.text, 10, 64)
		if err != nil || limit < 0 {
			return nil, p.errorf("bad LIMIT %q", num.text)
		}
		s.Limit = limit
	}
	return s, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: name.text}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ref.Alias = alias.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression parsing: classic precedence-climbing recursive descent.
//
//	OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < additive < multiplicative < unary < primary

func (p *parser) parseExpr() (Expr, error) {
	if err := p.deeper(); err != nil {
		return nil, err
	}
	e, err := p.parseChain(levelOr)
	p.depth--
	return e, err
}

// The four left-associative operator levels, loosest first. NOT and the
// comparison forms sit between AND and additive and do not chain.
const (
	levelOr = iota
	levelAnd
	levelAdditive
	levelMultiplicative
)

// parseChain parses one level — operand (operator operand)* — left-deep; a
// level's operands are the next tighter level.
func (p *parser) parseChain(level int) (Expr, error) {
	var left Expr
	var op BinOp
	depth := p.depth
	for {
		var operand Expr
		var err error
		switch level {
		case levelOr, levelAdditive:
			operand, err = p.parseChain(level + 1)
		case levelAnd:
			operand, err = p.parseNot()
		default:
			operand, err = p.parseUnary()
		}
		if err != nil {
			return nil, err
		}
		if left == nil {
			left = operand
		} else {
			left = &Binary{Op: op, Left: left, Right: operand}
		}
		var more bool
		if op, more = p.acceptOperator(level); !more {
			p.depth = depth
			return left, nil
		}
		if err := p.deeper(); err != nil {
			return nil, err
		}
	}
}

// acceptOperator consumes the current token if it is one of the level's
// operators.
func (p *parser) acceptOperator(level int) (BinOp, bool) {
	switch {
	case level == levelOr && p.accept(tokKeyword, "OR"):
		return OpOr, true
	case level == levelAnd && p.accept(tokKeyword, "AND"):
		return OpAnd, true
	case level == levelAdditive && p.accept(tokSymbol, "+"):
		return OpAdd, true
	case level == levelAdditive && p.accept(tokSymbol, "-"):
		return OpSub, true
	case level == levelMultiplicative && p.accept(tokSymbol, "*"):
		return OpMul, true
	case level == levelMultiplicative && p.accept(tokSymbol, "/"):
		return OpDiv, true
	case level == levelMultiplicative && p.accept(tokSymbol, "%"):
		return OpMod, true
	}
	return 0, false
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &Unary{Op: "NOT", Expr: inner}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseChain(levelAdditive)
	if err != nil {
		return nil, err
	}
	// Negatable predicate forms.
	not := false
	if p.at(tokKeyword, "NOT") && p.pos+1 < len(p.toks) &&
		(p.toks[p.pos+1].text == "IN" || p.toks[p.pos+1].text == "BETWEEN" || p.toks[p.pos+1].text == "LIKE") {
		p.next()
		not = true
	}
	switch {
	case p.accept(tokKeyword, "IS"):
		n := p.accept(tokKeyword, "NOT")
		if err := p.kw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Expr: left, Not: n}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseChain(levelAdditive)
		if err != nil {
			return nil, err
		}
		if err := p.kw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseChain(levelAdditive)
		if err != nil {
			return nil, err
		}
		return &Between{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &In{Expr: left, List: list, Not: not}, nil
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &Like{Expr: left, Pattern: pat.text, Not: not}, nil
	}
	if not {
		return nil, p.errorf("dangling NOT")
	}
	if p.peek().kind == tokSymbol {
		if op, ok := comparisonOps[p.peek().text]; ok {
			p.next()
			right, err := p.parseChain(levelAdditive)
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		// Fold negative numeric literals immediately.
		if lit, ok := inner.(*Literal); ok && !lit.Value.Null {
			switch lit.Value.T {
			case types.Int64:
				return &Literal{Value: types.NewInt(-lit.Value.I)}, nil
			case types.Float64:
				return &Literal{Value: types.NewFloat(-lit.Value.F)}, nil
			}
		}
		return &Unary{Op: "-", Expr: inner}, nil
	}
	p.accept(tokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Value: types.NewInt(i)}, nil
	case t.kind == tokString:
		p.next()
		return &Literal{Value: types.NewString(t.text)}, nil
	case p.accept(tokKeyword, "NULL"):
		return &Literal{Value: types.NewNull(types.Invalid)}, nil
	case p.accept(tokKeyword, "TRUE"):
		return &Literal{Value: types.NewBool(true)}, nil
	case p.accept(tokKeyword, "FALSE"):
		return &Literal{Value: types.NewBool(false)}, nil
	case p.at(tokKeyword, "DATE"):
		p.next()
		lit, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		v, err := types.ParseDate(lit.text)
		if err != nil {
			return nil, p.errorf("bad DATE literal %q", lit.text)
		}
		return &Literal{Value: v}, nil
	case p.at(tokKeyword, "TIMESTAMP"):
		p.next()
		lit, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		v, err := types.ParseTimestamp(lit.text)
		if err != nil {
			return nil, p.errorf("bad TIMESTAMP literal %q", lit.text)
		}
		return &Literal{Value: v}, nil
	case p.at(tokKeyword, "CASE"):
		return p.parseCase()
	case p.at(tokKeyword, "APPROXIMATE"):
		p.next()
		if !p.at(tokKeyword, "COUNT") {
			return nil, p.errorf("APPROXIMATE supports only COUNT(DISTINCT ...)")
		}
		call, err := p.parseFuncCall()
		if err != nil {
			return nil, err
		}
		fc := call.(*FuncCall)
		if !fc.Distinct {
			return nil, p.errorf("APPROXIMATE requires COUNT(DISTINCT ...)")
		}
		fc.Approximate = true
		return fc, nil
	case p.at(tokKeyword, "COUNT"):
		return p.parseFuncCall()
	case t.kind == tokIdent:
		// Function call or column reference.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		ref := &ColumnRef{Column: t.text}
		if p.accept(tokSymbol, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			ref.Table = t.text
			ref.Column = col.text
		}
		return ref, nil
	default:
		return nil, p.errorf("expected an expression, found %q", t.text)
	}
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.kw("CASE"); err != nil {
		return nil, err
	}
	c := &Case{}
	for p.accept(tokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.kw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.kw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// knownFuncs maps (uppercase) names to FuncName.
var knownFuncs = map[string]FuncName{
	"COUNT": FuncCount, "SUM": FuncSum, "AVG": FuncAvg,
	"MIN": FuncMin, "MAX": FuncMax, "LOWER": FuncLower, "UPPER": FuncUpper,
	"LENGTH": FuncLength, "ABS": FuncAbs, "COALESCE": FuncCoalesce,
	"DATE_TRUNC": FuncDateTrunc, "YEAR": FuncExtractYear, "MONTH": FuncExtractMonth,
}

func (p *parser) parseFuncCall() (Expr, error) {
	t := p.next() // name (ident or keyword COUNT)
	name, ok := knownFuncs[strings.ToUpper(t.text)]
	if !ok {
		return nil, p.errorf("unknown function %q", t.text)
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.accept(tokSymbol, "*") {
		if name != FuncCount {
			return nil, p.errorf("%s(*) is not valid", name)
		}
		fc.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(tokKeyword, "DISTINCT") {
		fc.Distinct = true
	}
	if !p.at(tokSymbol, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if fc.Distinct && name != FuncCount {
		return nil, p.errorf("DISTINCT is supported only in COUNT")
	}
	return fc, nil
}
