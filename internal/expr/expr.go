// Package expr defines boolean predicate expressions over dataset tables
// and evaluates them to row sets. It is the evaluation substrate for SQL
// WHERE clauses (package cadql parses into these nodes) and for faceted
// filter stacks (package facet).
package expr

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"dbexplorer/internal/dataset"
)

// Expr is a boolean predicate over one table row.
type Expr interface {
	// Eval reports whether the predicate holds on the given row of t.
	Eval(t *dataset.Table, row int) (bool, error)
	// Validate checks attribute names and types against the schema, so
	// errors surface once per query instead of once per row.
	Validate(t *dataset.Table) error
	// String renders the predicate in SQL-like syntax.
	String() string
}

// SelectInterpreted is the row-at-a-time reference evaluator: it walks
// the expression tree once per row through interface dispatch and
// returns the rows that satisfy e, in input order. A nil expression
// selects every row. Compile(…).Bitmap produces exactly the same row
// sets as bitmap algebra; equivalence tests and benchmarks pin the two
// together.
func SelectInterpreted(t *dataset.Table, rows dataset.RowSet, e Expr) (dataset.RowSet, error) {
	if e == nil {
		return rows.Clone(), nil
	}
	if err := e.Validate(t); err != nil {
		return nil, err
	}
	out := make(dataset.RowSet, 0, len(rows))
	for _, r := range rows {
		ok, err := e.Eval(t, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators supported in predicates.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Cmp compares an attribute against a constant. For categorical
// attributes only Eq and Ne are meaningful; Str holds the constant. For
// numeric attributes Num holds the constant.
type Cmp struct {
	Attr string
	Op   CmpOp
	Str  string  // constant for categorical attributes
	Num  float64 // constant for numeric attributes

	bind atomic.Pointer[cmpBind] // per-table binding cache; see bindTo
}

// cmpBind is a Cmp resolved against one table: the column located once
// and the categorical constant interned to its dictionary code, so Eval
// compares int32 codes instead of re-scanning the schema and comparing
// strings on every row.
type cmpBind struct {
	t     *dataset.Table
	epoch uint64 // table append epoch at bind time; see current
	col   int
	cat   *dataset.CatColumn // nil for numeric columns
	num   *dataset.NumColumn // nil for categorical columns
	code  int32              // dictionary code of Str; -1 when absent
}

// current reports whether the binding still matches t: same table and an
// unchanged append epoch. Keying on the epoch catches every way appends
// can stale a categorical binding — a value absent at bind time (code
// -1) may exist after new rows arrive and grow the dictionary.
func (b *cmpBind) current(t *dataset.Table) bool {
	return b.t == t && (b.cat == nil || b.epoch == t.Epoch())
}

// resolve computes a fresh binding against t without touching any cache.
func (c *Cmp) resolve(t *dataset.Table) (*cmpBind, error) {
	i := t.ColIndex(c.Attr)
	if i < 0 {
		return nil, fmt.Errorf("expr: unknown attribute %q", c.Attr)
	}
	// Epoch loads before the dictionary probe: a concurrent append can
	// only make the binding look staler than what was resolved, never
	// fresher.
	b := &cmpBind{t: t, epoch: t.Epoch(), col: i}
	if cat := t.Cat(i); cat != nil {
		b.cat = cat
		b.code = cat.CodeOf(c.Str)
	} else {
		b.num = t.Num(i)
	}
	return b, nil
}

// bindTo returns the node-cached binding for t, resolving it on first
// use and refreshing it when the target changed or the dictionary grew.
// The node-level cache is a single slot, so a query evaluated against
// two tables alternately re-binds on every call — compiled evaluation
// (package-level Compile) holds per-table bindings in the Compiled plan
// instead and only falls back here.
func (c *Cmp) bindTo(t *dataset.Table) (*cmpBind, error) {
	if b := c.bind.Load(); b != nil && b.current(t) {
		return b, nil
	}
	b, err := c.resolve(t)
	if err != nil {
		return nil, err
	}
	c.bind.Store(b)
	return b, nil
}

// Validate implements Expr.
func (c *Cmp) Validate(t *dataset.Table) error {
	b, err := c.bindTo(t)
	if err != nil {
		return err
	}
	if b.cat != nil {
		if c.Op != Eq && c.Op != Ne {
			return fmt.Errorf("expr: operator %s not valid for categorical attribute %q", c.Op, c.Attr)
		}
		return nil
	}
	// Parsers mark "the literal was not a number" with NaN; comparing a
	// numeric column against it can never be what the user meant.
	if math.IsNaN(c.Num) {
		return fmt.Errorf("expr: numeric attribute %q compared against non-numeric value %q", c.Attr, c.Str)
	}
	return nil
}

// Eval implements Expr.
func (c *Cmp) Eval(t *dataset.Table, row int) (bool, error) {
	b, err := c.bindTo(t)
	if err != nil {
		return false, err
	}
	if b.cat != nil {
		eq := b.cat.Code(row) == b.code
		if c.Op == Eq {
			return eq, nil
		}
		return !eq, nil
	}
	v := b.num.Value(row)
	switch c.Op {
	case Eq:
		return v == c.Num, nil
	case Ne:
		return v != c.Num, nil
	case Lt:
		return v < c.Num, nil
	case Le:
		return v <= c.Num, nil
	case Gt:
		return v > c.Num, nil
	case Ge:
		return v >= c.Num, nil
	}
	return false, fmt.Errorf("expr: bad operator %d", int(c.Op))
}

// String implements Expr. The rendering re-parses to an equivalent
// predicate: numeric literals print unquoted (preserving the source's
// K/M shorthand when the raw text is kept in Str), categorical literals
// print single-quoted.
func (c *Cmp) String() string {
	switch {
	case c.Str == "":
		return fmt.Sprintf("%s %s %g", c.Attr, c.Op, c.Num)
	case isNumericLiteral(c.Str) && !math.IsNaN(c.Num):
		return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Str)
	default:
		return fmt.Sprintf("%s %s '%s'", c.Attr, c.Op, c.Str)
	}
}

// isNumericLiteral reports whether s is a number as the CADQL lexer
// understands it: optional sign, digits with at most one dot, optional
// K/M magnitude suffix.
func isNumericLiteral(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[i] == '-' || s[i] == '+' {
		i++
	}
	digits, dots := 0, 0
	for ; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
			digits++
		case s[i] == '.':
			dots++
		case (s[i] == 'K' || s[i] == 'k' || s[i] == 'M' || s[i] == 'm') && i == len(s)-1:
			// magnitude suffix, must be last
		default:
			return false
		}
	}
	return digits > 0 && dots <= 1
}

// Between restricts a numeric attribute to [Lo, Hi], inclusive on both
// ends as in SQL.
type Between struct {
	Attr   string
	Lo, Hi float64

	bind atomic.Pointer[betweenBind] // per-table binding cache
}

// betweenBind caches the numeric column resolved for one table.
type betweenBind struct {
	t   *dataset.Table
	col int
	num *dataset.NumColumn
}

// current reports whether the binding still targets t.
func (bs *betweenBind) current(t *dataset.Table) bool { return bs.t == t }

// resolve computes a fresh binding against t without touching any cache.
func (b *Between) resolve(t *dataset.Table) (*betweenBind, error) {
	num, err := t.NumByName(b.Attr)
	if err != nil {
		return nil, err
	}
	return &betweenBind{t: t, col: t.ColIndex(b.Attr), num: num}, nil
}

// bindTo returns the node-cached column binding for t, resolving on
// first use (single slot; see Cmp.bindTo on why Compiled plans hold
// their own bindings).
func (b *Between) bindTo(t *dataset.Table) (*betweenBind, error) {
	if bs := b.bind.Load(); bs != nil && bs.current(t) {
		return bs, nil
	}
	bs, err := b.resolve(t)
	if err != nil {
		return nil, err
	}
	b.bind.Store(bs)
	return bs, nil
}

// Validate implements Expr.
func (b *Between) Validate(t *dataset.Table) error {
	if _, err := b.bindTo(t); err != nil {
		return err
	}
	if math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
		return fmt.Errorf("expr: BETWEEN bounds for %q must be numeric", b.Attr)
	}
	return nil
}

// Eval implements Expr.
func (b *Between) Eval(t *dataset.Table, row int) (bool, error) {
	bs, err := b.bindTo(t)
	if err != nil {
		return false, err
	}
	v := bs.num.Value(row)
	return v >= b.Lo && v <= b.Hi, nil
}

// String implements Expr.
func (b *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %g AND %g", b.Attr, b.Lo, b.Hi)
}

// In tests membership of a categorical attribute in a value list.
type In struct {
	Attr   string
	Values []string

	bind atomic.Pointer[inBind] // per-table binding cache
}

// inBind caches the categorical column and the value list interned to a
// code-membership table, so Eval is one slice lookup per row.
type inBind struct {
	t      *dataset.Table
	epoch  uint64 // table append epoch at bind time; see current
	col    int
	cat    *dataset.CatColumn
	member []bool // indexed by dictionary code
}

// current reports whether the binding still matches t: same table and an
// unchanged append epoch (appends can both grow the dictionary past the
// membership table and introduce listed values that were absent at bind
// time).
func (b *inBind) current(t *dataset.Table) bool {
	return b.t == t && b.epoch == t.Epoch()
}

// resolve computes a fresh binding against t without touching any cache.
func (n *In) resolve(t *dataset.Table) (*inBind, error) {
	cat, err := t.CatByName(n.Attr)
	if err != nil {
		return nil, err
	}
	// Epoch loads before the dictionary is probed (see Cmp.resolve).
	b := &inBind{t: t, epoch: t.Epoch(), col: t.ColIndex(n.Attr), cat: cat}
	b.member = make([]bool, cat.Cardinality())
	for _, v := range n.Values {
		if code := cat.CodeOf(v); code >= 0 {
			b.member[code] = true
		}
	}
	return b, nil
}

// bindTo returns the node-cached binding for t, refreshing it when the
// dictionary grew (a listed value absent at bind time may appear later).
// Single slot; see Cmp.bindTo.
func (n *In) bindTo(t *dataset.Table) (*inBind, error) {
	if b := n.bind.Load(); b != nil && b.current(t) {
		return b, nil
	}
	b, err := n.resolve(t)
	if err != nil {
		return nil, err
	}
	n.bind.Store(b)
	return b, nil
}

// Validate implements Expr.
func (n *In) Validate(t *dataset.Table) error {
	_, err := n.bindTo(t)
	return err
}

// Eval implements Expr.
func (n *In) Eval(t *dataset.Table, row int) (bool, error) {
	b, err := n.bindTo(t)
	if err != nil {
		return false, err
	}
	return b.member[b.cat.Code(row)], nil
}

// String implements Expr.
func (n *In) String() string {
	quoted := make([]string, len(n.Values))
	for i, v := range n.Values {
		quoted[i] = "'" + v + "'"
	}
	return fmt.Sprintf("%s IN (%s)", n.Attr, strings.Join(quoted, ", "))
}

// And is logical conjunction of its children.
type And struct {
	Kids []Expr
}

// Validate implements Expr.
func (a *And) Validate(t *dataset.Table) error {
	for _, k := range a.Kids {
		if err := k.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr.
func (a *And) Eval(t *dataset.Table, row int) (bool, error) {
	for _, k := range a.Kids {
		ok, err := k.Eval(t, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// String implements Expr.
func (a *And) String() string { return joinKids(a.Kids, " AND ") }

// Or is logical disjunction of its children.
type Or struct {
	Kids []Expr
}

// Validate implements Expr.
func (o *Or) Validate(t *dataset.Table) error {
	for _, k := range o.Kids {
		if err := k.Validate(t); err != nil {
			return err
		}
	}
	return nil
}

// Eval implements Expr.
func (o *Or) Eval(t *dataset.Table, row int) (bool, error) {
	for _, k := range o.Kids {
		ok, err := k.Eval(t, row)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// String implements Expr.
func (o *Or) String() string { return joinKids(o.Kids, " OR ") }

// Not negates its child.
type Not struct {
	Kid Expr
}

// Validate implements Expr.
func (n *Not) Validate(t *dataset.Table) error { return n.Kid.Validate(t) }

// Eval implements Expr.
func (n *Not) Eval(t *dataset.Table, row int) (bool, error) {
	ok, err := n.Kid.Eval(t, row)
	return !ok, err
}

// String implements Expr.
func (n *Not) String() string { return "NOT (" + n.Kid.String() + ")" }

func joinKids(kids []Expr, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}
