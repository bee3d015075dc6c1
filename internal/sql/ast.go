// Package sql implements the SQL front end of the leader node: lexer,
// parser and AST for the analytics dialect the engine executes — SELECT with
// joins and aggregates, CREATE TABLE with the distribution and sort clauses
// of §2.1/§3.3, COPY (§2.1's load path), and the small administrative verbs
// (VACUUM, ANALYZE, EXPLAIN).
package sql

import (
	"fmt"
	"strconv"
	"strings"

	"redshift/internal/compress"
	"redshift/internal/types"
)

// ident renders an identifier, quoting it when it would otherwise lex as a
// keyword or fail to lex as a plain identifier.
func ident(s string) string {
	if keywords[strings.ToUpper(s)] {
		return `"` + s + `"`
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) || i > 0 && !isIdentPart(r) {
			return `"` + s + `"`
		}
	}
	if s == "" {
		return `""`
	}
	return s
}

// quote renders a string literal.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// joinIdents renders a comma-separated identifier list.
func joinIdents(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = ident(n)
	}
	return strings.Join(out, ", ")
}

// Statement is any parsed SQL statement.
type Statement interface {
	fmt.Stringer
	stmt()
}

// Expr is any scalar expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// CreateTable is CREATE TABLE with Redshift's physical-design clauses.
type CreateTable struct {
	Name        string
	Columns     []ColumnSpec
	DistStyle   string // "", "EVEN", "KEY", "ALL"
	DistKey     string // column name, "" when unset
	SortStyle   string // "", "COMPOUND", "INTERLEAVED"
	SortKeys    []string
	IfNotExists bool
}

// ColumnSpec is one column definition.
type ColumnSpec struct {
	Name     string
	Type     types.Type
	NotNull  bool
	Encoding compress.Encoding
	// HasEncoding distinguishes an explicit ENCODE clause from the default
	// (automatic selection — the dusty knob stays dusty).
	HasEncoding bool
}

func (*CreateTable) stmt() {}

// String renders the statement as parseable SQL.
func (c *CreateTable) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if c.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(ident(c.Name))
	b.WriteString(" (")
	for i, col := range c.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ident(col.Name))
		b.WriteByte(' ')
		b.WriteString(col.Type.String())
		if col.NotNull {
			b.WriteString(" NOT NULL")
		}
		if col.HasEncoding {
			b.WriteString(" ENCODE ")
			b.WriteString(col.Encoding.String())
		}
	}
	b.WriteString(")")
	if c.DistStyle != "" {
		b.WriteString(" DISTSTYLE ")
		b.WriteString(c.DistStyle)
	}
	if c.DistKey != "" {
		b.WriteString(" DISTKEY(")
		b.WriteString(ident(c.DistKey))
		b.WriteString(")")
	}
	if len(c.SortKeys) > 0 {
		b.WriteByte(' ')
		if c.SortStyle != "" {
			b.WriteString(c.SortStyle)
			b.WriteByte(' ')
		}
		b.WriteString("SORTKEY(")
		b.WriteString(joinIdents(c.SortKeys))
		b.WriteString(")")
	}
	return b.String()
}

// DropTable is DROP TABLE.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (d *DropTable) String() string {
	if d.IfExists {
		return "DROP TABLE IF EXISTS " + ident(d.Name)
	}
	return "DROP TABLE " + ident(d.Name)
}

// Insert is INSERT INTO ... VALUES.
type Insert struct {
	Table   string
	Columns []string // empty means positional
	Rows    [][]Expr
}

func (*Insert) stmt() {}

func (ins *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(ident(ins.Table))
	if len(ins.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(joinIdents(ins.Columns))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Copy is the COPY load command (§2.1): parallel ingest from an object
// store path with optional format and knob overrides.
type Copy struct {
	Table string
	// From is the source URI (s3sim:// bucket/key prefix in this system).
	From string
	// Format is "CSV" (default) or "JSON".
	Format string
	// Delimiter for CSV, default '|' like the PostgreSQL COPY text format.
	Delimiter rune
	// CompUpdate controls automatic compression selection; nil means the
	// default (on when the table is empty) — the knob stays dusty.
	CompUpdate *bool
	// StatUpdate controls automatic statistics update; nil means on.
	StatUpdate *bool
	// GZip marks the source objects as compressed.
	GZip bool
}

func (*Copy) stmt() {}

func (c *Copy) String() string {
	var b strings.Builder
	b.WriteString("COPY " + ident(c.Table) + " FROM " + quote(c.From))
	if c.Format != "" {
		b.WriteString(" FORMAT ")
		b.WriteString(c.Format)
	}
	if c.Delimiter != 0 {
		b.WriteString(" DELIMITER " + quote(string(c.Delimiter)))
	}
	if c.CompUpdate != nil {
		b.WriteString(" COMPUPDATE ")
		b.WriteString(onOff(*c.CompUpdate))
	}
	if c.StatUpdate != nil {
		b.WriteString(" STATUPDATE ")
		b.WriteString(onOff(*c.StatUpdate))
	}
	if c.GZip {
		b.WriteString(" GZIP")
	}
	return b.String()
}

func onOff(v bool) string {
	if v {
		return "ON"
	}
	return "OFF"
}

// Vacuum re-sorts and merges a table's segments (or all tables).
type Vacuum struct {
	Table string // empty = all tables
}

func (*Vacuum) stmt() {}

func (v *Vacuum) String() string {
	if v.Table == "" {
		return "VACUUM"
	}
	return "VACUUM " + ident(v.Table)
}

// Analyze refreshes statistics; with Compression it reports the
// per-encoding analysis instead (ANALYZE COMPRESSION).
type Analyze struct {
	Table       string
	Compression bool
}

func (*Analyze) stmt() {}

func (a *Analyze) String() string {
	s := "ANALYZE"
	if a.Compression {
		s += " COMPRESSION"
	}
	if a.Table != "" {
		s += " " + ident(a.Table)
	}
	return s
}

// Explain wraps a SELECT and returns its plan instead of its rows. With
// Analyze the query also executes, and the plan carries actual times,
// rows, bytes and block counts.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}

// Truncate removes all rows from a table.
type Truncate struct {
	Table string
}

func (*Truncate) stmt() {}

func (t *Truncate) String() string { return "TRUNCATE " + ident(t.Table) }

// Set assigns a session option (SET statement_timeout TO 500). Values are
// kept as raw token text; the executor interprets them per option. They
// render quoted, the one spelling that reads back as the same text whatever
// it holds ('64KB' is not one token unquoted).
type Set struct {
	Name  string
	Value string
}

func (*Set) stmt() {}

func (s *Set) String() string { return "SET " + ident(s.Name) + " TO " + quote(s.Value) }

// Cancel aborts a running query by its stl_query id.
type Cancel struct {
	ID int64
}

func (*Cancel) stmt() {}

func (c *Cancel) String() string { return "CANCEL " + strconv.FormatInt(c.ID, 10) }

// Prepare is PREPARE name AS <statement>: the session parses and names a
// statement once, so repeated EXECUTEs skip the parse stage entirely (and
// hit the plan cache through the statement's normalized text).
type Prepare struct {
	Name string
	Stmt Statement
}

func (*Prepare) stmt() {}

func (p *Prepare) String() string { return "PREPARE " + ident(p.Name) + " AS " + p.Stmt.String() }

// Execute runs a previously prepared statement by name.
type Execute struct {
	Name string
}

func (*Execute) stmt() {}

func (e *Execute) String() string { return "EXECUTE " + ident(e.Name) }

// Deallocate drops one prepared statement, or all of them.
type Deallocate struct {
	Name string
	All  bool
}

func (*Deallocate) stmt() {}

func (d *Deallocate) String() string {
	if d.All {
		return "DEALLOCATE ALL"
	}
	return "DEALLOCATE " + ident(d.Name)
}

// Normalize returns the statement's canonical SQL text: the cache key the
// staged query lifecycle uses. Rendering the parsed AST canonicalizes
// whitespace, comments, parenthesization, keyword case and literal
// spelling, so textual variants of the same statement share one plan-cache
// and result-cache entry. Identifier case is preserved (two spellings of
// one table miss each other — correct, merely conservative).
func Normalize(stmt Statement) string { return stmt.String() }

// Select is a SELECT query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 means no limit
}

// SelectItem is one projection; Star marks `*`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the name the table is referenced by.
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

func (t *TableRef) String() string {
	if t.Alias != "" {
		return ident(t.Table) + " " + ident(t.Alias)
	}
	return ident(t.Table)
}

// JoinKind distinguishes join types.
type JoinKind uint8

const (
	// InnerJoin keeps matching rows only.
	InnerJoin JoinKind = iota
	// LeftJoin keeps all left rows.
	LeftJoin
)

func (k JoinKind) String() string {
	if k == LeftJoin {
		return "LEFT JOIN"
	}
	return "JOIN"
}

// Join is one JOIN ... ON clause.
type Join struct {
	Kind  JoinKind
	Table *TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if item.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(item.Expr.String())
		if item.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(ident(item.Alias))
		}
	}
	if s.From != nil {
		b.WriteString(" FROM ")
		b.WriteString(s.From.String())
	}
	for _, j := range s.Joins {
		b.WriteByte(' ')
		b.WriteString(j.Kind.String())
		b.WriteByte(' ')
		b.WriteString(j.Table.String())
		b.WriteString(" ON ")
		b.WriteString(j.On.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Expressions

// ColumnRef references a column, optionally qualified by table name/alias.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return ident(c.Table) + "." + ident(c.Column)
	}
	return ident(c.Column)
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	if l.Value.Null {
		return "NULL"
	}
	switch l.Value.T {
	case types.String:
		return quote(l.Value.S)
	case types.Bool:
		return strings.ToUpper(l.Value.String())
	case types.Date:
		return "DATE '" + l.Value.String() + "'"
	case types.Timestamp:
		return "TIMESTAMP '" + l.Value.String() + "'"
	default:
		return l.Value.String()
	}
}

// BinOp identifies a binary operator.
type BinOp uint8

// Binary operators in precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o BinOp) String() string {
	switch o {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Binary is a binary operation.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

func (*Binary) expr() {}

func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// Unary is NOT or unary minus.
type Unary struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (*Unary) expr() {}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.String() + ")"
	}
	return "(-" + u.Expr.String() + ")"
}

// IsNull is IS NULL / IS NOT NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (*IsNull) expr() {}

func (i *IsNull) String() string {
	if i.Not {
		return "(" + i.Expr.String() + " IS NOT NULL)"
	}
	return "(" + i.Expr.String() + " IS NULL)"
}

// Between is x BETWEEN lo AND hi.
type Between struct {
	Expr, Lo, Hi Expr
	Not          bool
}

func (*Between) expr() {}

func (b *Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.Expr.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// In is x IN (v1, v2, ...).
type In struct {
	Expr Expr
	List []Expr
	Not  bool
}

func (*In) expr() {}

func (i *In) String() string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(i.Expr.String())
	if i.Not {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for j, e := range i.List {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("))")
	return b.String()
}

// Like is x LIKE 'pattern' (% and _ wildcards).
type Like struct {
	Expr    Expr
	Pattern string
	Not     bool
}

func (*Like) expr() {}

func (l *Like) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return "(" + l.Expr.String() + " " + not + "LIKE " + quote(l.Pattern) + ")"
}

// Case is CASE WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Whens []When
	Else  Expr
}

// When is one WHEN/THEN branch.
type When struct {
	Cond, Then Expr
}

func (*Case) expr() {}

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// FuncName identifies a built-in function or aggregate.
type FuncName string

// The supported functions. Aggregates are the classic five plus the
// approximate distinct count the paper's §4 roadmap calls for.
const (
	FuncCount        FuncName = "COUNT"
	FuncSum          FuncName = "SUM"
	FuncAvg          FuncName = "AVG"
	FuncMin          FuncName = "MIN"
	FuncMax          FuncName = "MAX"
	FuncLower        FuncName = "LOWER"
	FuncUpper        FuncName = "UPPER"
	FuncLength       FuncName = "LENGTH"
	FuncAbs          FuncName = "ABS"
	FuncCoalesce     FuncName = "COALESCE"
	FuncDateTrunc    FuncName = "DATE_TRUNC"
	FuncExtractYear  FuncName = "YEAR"
	FuncExtractMonth FuncName = "MONTH"

	// FuncFloat is a synthetic int→float cast the planner inserts for
	// numeric promotion; it is not part of the surface grammar.
	FuncFloat FuncName = "FLOAT"
)

// FuncCall is a function or aggregate invocation.
type FuncCall struct {
	Name FuncName
	Args []Expr
	// Star marks COUNT(*).
	Star bool
	// Distinct marks COUNT(DISTINCT x).
	Distinct bool
	// Approximate marks APPROXIMATE COUNT(DISTINCT x), executed with HLL.
	Approximate bool
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	var b strings.Builder
	if f.Approximate {
		b.WriteString("APPROXIMATE ")
	}
	b.WriteString(string(f.Name))
	b.WriteString("(")
	if f.Star {
		b.WriteString("*")
	} else {
		if f.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range f.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteString(")")
	return b.String()
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case FuncCount, FuncSum, FuncAvg, FuncMin, FuncMax:
		return true
	}
	return false
}

// Deterministic reports whether the function always returns the same value
// for the same arguments — the gate for result-cache eligibility. Every
// built-in today qualifies; names outside the known set (a future RANDOM
// or GETDATE) are conservatively non-deterministic, so adding one cannot
// silently poison cached results.
func (f FuncName) Deterministic() bool {
	switch f {
	case FuncCount, FuncSum, FuncAvg, FuncMin, FuncMax,
		FuncLower, FuncUpper, FuncLength, FuncAbs, FuncCoalesce,
		FuncDateTrunc, FuncExtractYear, FuncExtractMonth, FuncFloat:
		return true
	}
	return false
}

// IntLiteral builds an integer literal, a convenience for tests and tools.
func IntLiteral(v int64) *Literal { return &Literal{Value: types.NewInt(v)} }

// StringLiteral builds a string literal.
func StringLiteral(s string) *Literal { return &Literal{Value: types.NewString(s)} }

// ParseInt is a strict integer parse shared by the parser and tools.
func ParseInt(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
