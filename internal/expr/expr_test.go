package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"dbexplorer/internal/dataset"
)

func testTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
		{Name: "Mileage", Kind: dataset.Numeric, Queriable: true},
	})
	rows := []struct {
		m    string
		p, g float64
	}{
		{"Ford", 20000, 15000},
		{"Ford", 25000, 35000},
		{"Jeep", 27000, 12000},
		{"Chevrolet", 22000, 28000},
		{"Jeep", 31000, 9000},
		{"Toyota", 18000, 22000},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r.m, r.p, r.g)
	}
	return tbl
}

func mustSelect(t *testing.T, tbl *dataset.Table, e Expr) dataset.RowSet {
	t.Helper()
	rows, err := selectRows(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil {
		t.Fatalf("selectRows(%v): %v", e, err)
	}
	return rows
}

func TestSelectNil(t *testing.T) {
	tbl := testTable(t)
	rows := mustSelect(t, tbl, nil)
	if rows.Len() != tbl.NumRows() {
		t.Errorf("nil expr selected %d rows", rows.Len())
	}
}

func TestCmpCategorical(t *testing.T) {
	tbl := testTable(t)
	eq := mustSelect(t, tbl, &Cmp{Attr: "Make", Op: Eq, Str: "Jeep"})
	if eq.Len() != 2 {
		t.Errorf("Make=Jeep selected %v", eq)
	}
	ne := mustSelect(t, tbl, &Cmp{Attr: "Make", Op: Ne, Str: "Jeep"})
	if ne.Len() != 4 {
		t.Errorf("Make!=Jeep selected %v", ne)
	}
	if _, err := selectRows(tbl, dataset.AllRows(6), &Cmp{Attr: "Make", Op: Lt, Str: "Jeep"}); err == nil {
		t.Error("Make < x should be rejected")
	}
}

func TestCmpNumericOps(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		op   CmpOp
		val  float64
		want int
	}{
		{Eq, 20000, 1},
		{Ne, 20000, 5},
		{Lt, 22000, 2},
		{Le, 22000, 3},
		{Gt, 25000, 2},
		{Ge, 25000, 3},
	}
	for _, c := range cases {
		got := mustSelect(t, tbl, &Cmp{Attr: "Price", Op: c.op, Num: c.val})
		if got.Len() != c.want {
			t.Errorf("Price %s %g: got %d rows, want %d", c.op, c.val, got.Len(), c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	tbl := testTable(t)
	got := mustSelect(t, tbl, &Between{Attr: "Mileage", Lo: 10000, Hi: 30000})
	if got.Len() != 4 {
		t.Errorf("Mileage BETWEEN 10K AND 30K selected %v", got)
	}
	// Inclusive endpoints.
	got = mustSelect(t, tbl, &Between{Attr: "Price", Lo: 20000, Hi: 22000})
	if got.Len() != 2 {
		t.Errorf("inclusive BETWEEN selected %v", got)
	}
	if _, err := selectRows(tbl, dataset.AllRows(6), &Between{Attr: "Make", Lo: 0, Hi: 1}); err == nil {
		t.Error("BETWEEN on categorical should be rejected")
	}
}

func TestIn(t *testing.T) {
	tbl := testTable(t)
	got := mustSelect(t, tbl, &In{Attr: "Make", Values: []string{"Jeep", "Toyota"}})
	if got.Len() != 3 {
		t.Errorf("IN selected %v", got)
	}
	got = mustSelect(t, tbl, &In{Attr: "Make", Values: nil})
	if got.Len() != 0 {
		t.Errorf("empty IN selected %v", got)
	}
	if _, err := selectRows(tbl, dataset.AllRows(6), &In{Attr: "Price", Values: []string{"x"}}); err == nil {
		t.Error("IN on numeric should be rejected")
	}
}

func TestBooleanCombinators(t *testing.T) {
	tbl := testTable(t)
	jeepCheap := &And{Kids: []Expr{
		&Cmp{Attr: "Make", Op: Eq, Str: "Jeep"},
		&Cmp{Attr: "Price", Op: Lt, Num: 30000},
	}}
	if got := mustSelect(t, tbl, jeepCheap); got.Len() != 1 {
		t.Errorf("AND selected %v", got)
	}
	either := &Or{Kids: []Expr{
		&Cmp{Attr: "Make", Op: Eq, Str: "Toyota"},
		&Cmp{Attr: "Price", Op: Gt, Num: 30000},
	}}
	if got := mustSelect(t, tbl, either); got.Len() != 2 {
		t.Errorf("OR selected %v", got)
	}
	notJeep := &Not{Kid: &Cmp{Attr: "Make", Op: Eq, Str: "Jeep"}}
	if got := mustSelect(t, tbl, notJeep); got.Len() != 4 {
		t.Errorf("NOT selected %v", got)
	}
	// Validation errors propagate through combinators.
	bad := &And{Kids: []Expr{&Cmp{Attr: "Nope", Op: Eq, Str: "x"}}}
	if _, err := selectRows(tbl, dataset.AllRows(6), bad); err == nil {
		t.Error("unknown attribute inside AND should be rejected")
	}
	bad2 := &Or{Kids: []Expr{&Cmp{Attr: "Nope", Op: Eq, Str: "x"}}}
	if bad2.Validate(tbl) == nil {
		t.Error("unknown attribute inside OR should be rejected")
	}
	bad3 := &Not{Kid: &Cmp{Attr: "Nope", Op: Eq, Str: "x"}}
	if bad3.Validate(tbl) == nil {
		t.Error("unknown attribute inside NOT should be rejected")
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Cmp{Attr: "Make", Op: Eq, Str: "Jeep"}, "Make = 'Jeep'"},
		{&Cmp{Attr: "Price", Op: Ge, Num: 100}, "Price >= 100"},
		{&Between{Attr: "Price", Lo: 1, Hi: 2}, "Price BETWEEN 1 AND 2"},
		{&In{Attr: "Make", Values: []string{"a", "b"}}, "Make IN ('a', 'b')"},
		{&Not{Kid: &Cmp{Attr: "Price", Op: Lt, Num: 5}}, "NOT (Price < 5)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	and := &And{Kids: []Expr{
		&Cmp{Attr: "Price", Op: Lt, Num: 5},
		&Cmp{Attr: "Price", Op: Gt, Num: 1},
	}}
	if got := and.String(); !strings.Contains(got, " AND ") {
		t.Errorf("And.String() = %q", got)
	}
	if got := CmpOp(42).String(); got != "CmpOp(42)" {
		t.Errorf("bad op String() = %q", got)
	}
}

// Property: De Morgan — NOT(a AND b) selects the same rows as
// (NOT a) OR (NOT b).
func TestDeMorganProperty(t *testing.T) {
	tbl := testTable(t)
	f := func(lo, hi uint16) bool {
		a := &Between{Attr: "Price", Lo: float64(lo) * 2, Hi: float64(hi) * 2}
		b := &Cmp{Attr: "Mileage", Op: Lt, Num: float64(hi)}
		lhs := &Not{Kid: &And{Kids: []Expr{a, b}}}
		rhs := &Or{Kids: []Expr{&Not{Kid: a}, &Not{Kid: b}}}
		r1, err1 := selectRows(tbl, dataset.AllRows(tbl.NumRows()), lhs)
		r2, err2 := selectRows(tbl, dataset.AllRows(tbl.NumRows()), rhs)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Jaccard(r2) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: selection is monotone — selecting from a subset yields a
// subset of selecting from the full set.
func TestSelectMonotoneProperty(t *testing.T) {
	tbl := testTable(t)
	e := &Cmp{Attr: "Price", Op: Lt, Num: 26000}
	full := mustSelect(t, tbl, e)
	f := func(mask uint8) bool {
		sub := dataset.AllRows(tbl.NumRows()).Filter(func(r int) bool {
			return mask&(1<<uint(r%8)) != 0
		})
		got, err := selectRows(tbl, sub, e)
		if err != nil {
			return false
		}
		for _, r := range got {
			if !full.Contains(r) || !sub.Contains(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

// TestBindCachesRefreshOnAppend pins the epoch keying of the per-table
// bind caches: an expression evaluated before rows were appended must
// re-resolve afterward, so a categorical constant that only entered the
// dictionary with the new rows starts matching, and new rows show up in
// existing predicates instead of serving a stale dictionary snapshot.
func TestBindCachesRefreshOnAppend(t *testing.T) {
	tbl := testTable(t)
	unknown := &Cmp{Attr: "Make", Op: Eq, Str: "Tesla"}
	if got := mustSelect(t, tbl, unknown); got.Len() != 0 {
		t.Fatalf("Tesla matched %d rows before it exists", got.Len())
	}
	in := &In{Attr: "Make", Values: []string{"Tesla", "Jeep"}}
	if got := mustSelect(t, tbl, in); got.Len() != 2 {
		t.Fatalf("In{Tesla,Jeep} = %d rows before append, want 2", got.Len())
	}

	tbl.MustAppendRow("Tesla", 45000.0, 1000.0)
	tbl.MustAppendRow("Jeep", 33000.0, 2000.0)

	if got := mustSelect(t, tbl, unknown); got.Len() != 1 {
		t.Fatalf("stale bind: Tesla matched %d rows after append, want 1", got.Len())
	}
	if got := mustSelect(t, tbl, in); got.Len() != 4 {
		t.Fatalf("stale bind: In{Tesla,Jeep} = %d rows after append, want 4", got.Len())
	}
	// Numeric binds hold no dictionary state but must still see the rows.
	price := &Cmp{Attr: "Price", Op: Gt, Num: 30000}
	if got := mustSelect(t, tbl, price); got.Len() != 3 {
		t.Fatalf("Price > 30000 = %d rows after append, want 3", got.Len())
	}
}
