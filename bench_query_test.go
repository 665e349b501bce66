package dbexplorer_test

import (
	"fmt"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
)

// carStack is the canonical categorical filter stack of the faceted
// user study: each depth adds one more selection to the previous ones,
// narrowing the 40K table step by step.
var carStack = []struct{ attr, value string }{
	{"Transmission", "Automatic"},
	{"BodyType", "SUV"},
	{"Make", "Jeep"},
	{"Drivetrain", "4WD"},
	{"Color", "White"},
}

// stackExpr builds the depth-way conjunction of carStack predicates.
func stackExpr(depth int) expr.Expr {
	kids := make([]expr.Expr, depth)
	for i := 0; i < depth; i++ {
		kids[i] = &expr.Cmp{Attr: carStack[i].attr, Op: expr.Eq, Str: carStack[i].value}
	}
	return &expr.And{Kids: kids}
}

// BenchmarkQueryFilterStack measures WHERE-clause evaluation on the 40K
// used-car table at stack depths 1-5, interpreted (row-at-a-time tree
// walk) against vectorized (compiled posting-bitmap algebra). Both
// return identical row sets; see internal/expr/compile_test.go.
func BenchmarkQueryFilterStack(b *testing.B) {
	fixtures(b)
	tbl := carView.Table()
	for depth := 1; depth <= len(carStack); depth++ {
		e := stackExpr(depth)
		b.Run(fmt.Sprintf("depth=%d/interpreted", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expr.SelectInterpreted(tbl, carRows, e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("depth=%d/vectorized", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiledRows(tbl, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDigestFilterStack measures one faceted interaction — add the
// stack's last selection, read the refreshed digest, remove it — at
// depths 1-5. The interpreted variant recomputes the filtered rows with
// the row-at-a-time evaluator and summarizes them per row; the
// vectorized variant is the incremental Session path (cached per-attr
// bitmaps intersected word-wise, counts via intersect-popcount per
// posting).
func BenchmarkDigestFilterStack(b *testing.B) {
	fixtures(b)
	tbl := carView.Table()
	for depth := 1; depth <= len(carStack); depth++ {
		e := stackExpr(depth)
		b.Run(fmt.Sprintf("depth=%d/interpreted", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := expr.SelectInterpreted(tbl, carRows, e)
				if err != nil {
					b.Fatal(err)
				}
				facet.Summarize(carView, rows, true)
			}
		})
		b.Run(fmt.Sprintf("depth=%d/vectorized", depth), func(b *testing.B) {
			sess := facet.NewSession(carView, carRows)
			for _, sel := range carStack[:depth-1] {
				if err := sess.Select(sel.attr, sel.value); err != nil {
					b.Fatal(err)
				}
			}
			last := carStack[depth-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Select(last.attr, last.value); err != nil {
					b.Fatal(err)
				}
				sess.Digest()
				if err := sess.Deselect(last.attr, last.value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySelectivity evaluates a mixed categorical + numeric
// stack (the Table 1 WHERE clause shape) through both paths.
func BenchmarkQuerySelectivity(b *testing.B) {
	fixtures(b)
	tbl := carView.Table()
	e := &expr.And{Kids: []expr.Expr{
		&expr.Between{Attr: "Mileage", Lo: 10000, Hi: 30000},
		&expr.Cmp{Attr: "Transmission", Op: expr.Eq, Str: "Automatic"},
		&expr.Cmp{Attr: "BodyType", Op: expr.Eq, Str: "SUV"},
		&expr.In{Attr: "Make", Values: []string{"Jeep", "Toyota", "Honda", "Ford", "Chevrolet"}},
	}}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := expr.SelectInterpreted(tbl, carRows, e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiledRows(tbl, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPanelDigest measures the full per-attribute panel refresh
// (each attribute counted over the rows kept by every other filter) at
// stack depth 3.
func BenchmarkPanelDigest(b *testing.B) {
	fixtures(b)
	sess := facet.NewSession(carView, carRows)
	for _, sel := range carStack[:3] {
		if err := sess.Select(sel.attr, sel.value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.PanelDigest()
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
