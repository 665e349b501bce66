package cadql

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/expr"
)

// roundTripTable gives predicates something to select against.
func roundTripTable() *dataset.Table {
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Drive", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
		{Name: "Year", Kind: dataset.Numeric, Queriable: true},
	})
	rng := rand.New(rand.NewSource(4))
	makes := []string{"Ford", "Jeep", "Land Rover", "Kia"}
	drives := []string{"2WD", "4WD", "AWD"}
	for i := 0; i < 200; i++ {
		tbl.MustAppendRow(
			makes[rng.Intn(len(makes))],
			drives[rng.Intn(len(drives))],
			float64(rng.Intn(50))*1000,
			float64(2005+rng.Intn(9)),
		)
	}
	return tbl
}

// randomPredicate builds a random WHERE tree from a seed.
func randomPredicate(rng *rand.Rand, depth int) expr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return &expr.Cmp{Attr: "Make", Op: expr.Eq, Str: []string{"Ford", "Jeep", "Land Rover"}[rng.Intn(3)]}
		case 1:
			return &expr.Cmp{Attr: "Drive", Op: expr.Ne, Str: []string{"2WD", "4WD"}[rng.Intn(2)]}
		case 2:
			ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.Ne}
			return &expr.Cmp{Attr: "Price", Op: ops[rng.Intn(len(ops))], Num: float64(rng.Intn(50)) * 1000}
		case 3:
			lo := float64(2005 + rng.Intn(5))
			return &expr.Between{Attr: "Year", Lo: lo, Hi: lo + float64(rng.Intn(4))}
		default:
			return &expr.In{Attr: "Make", Values: []string{"Ford", "Land Rover"}[:1+rng.Intn(2)]}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &expr.And{Kids: []expr.Expr{randomPredicate(rng, depth-1), randomPredicate(rng, depth-1)}}
	case 1:
		return &expr.Or{Kids: []expr.Expr{randomPredicate(rng, depth-1), randomPredicate(rng, depth-1)}}
	default:
		return &expr.Not{Kid: randomPredicate(rng, depth-1)}
	}
}

// Property: rendering a predicate with String() and re-parsing it selects
// exactly the same rows.
func TestPredicateStringRoundTripProperty(t *testing.T) {
	tbl := roundTripTable()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomPredicate(rng, 3)
		wantRows, err := compiledRows(tbl, orig)
		if err != nil {
			t.Logf("original predicate invalid (%v): %s", err, orig)
			return false
		}
		query := "SELECT * FROM t WHERE " + orig.String()
		stmt, err := Parse(query)
		if err != nil {
			t.Logf("reparse failed for %q: %v", query, err)
			return false
		}
		got, err := compiledRows(tbl, stmt.(*SelectStmt).Where)
		if err != nil {
			t.Logf("re-parsed predicate invalid for %q: %v", query, err)
			return false
		}
		if wantRows.Jaccard(got) != 1 {
			t.Logf("row sets differ for %q", query)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The paper's own query survives a render/reparse cycle.
func TestMarysQueryRoundTrip(t *testing.T) {
	q := `SELECT * FROM t WHERE Price BETWEEN 10K AND 30K AND Drive = 2WD AND Make IN (Jeep, 'Land Rover')`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	where := stmt.(*SelectStmt).Where
	again, err := Parse(fmt.Sprintf("SELECT * FROM t WHERE %s", where.String()))
	if err != nil {
		t.Fatalf("reparse of %q: %v", where.String(), err)
	}
	tbl := roundTripTable()
	r1, err := compiledRows(tbl, where)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := compiledRows(tbl, again.(*SelectStmt).Where)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Jaccard(r2) != 1 {
		t.Error("round trip changed selection")
	}
}

// compiledRows evaluates e over the whole table through the compiled
// bitmap evaluator and unpacks the result.
func compiledRows(tbl *dataset.Table, e expr.Expr) (dataset.RowSet, error) {
	c, err := expr.Compile(tbl, e)
	if err != nil {
		return nil, err
	}
	bm, err := c.Bitmap()
	if err != nil {
		return nil, err
	}
	return bm.ToRowSet(), nil
}
