// Top-level segment-boundary equivalence: tables whose row counts land
// on every awkward segment shape — well inside one segment, one row past
// a segment edge, and an exact multiple of the segment size — must
// produce CAD Views bit-identical to the row-scan reference, facet
// digests that match independent row scans, and compiled predicate plans
// that select the same rows cold (no postings yet) and warm.
package dbexplorer_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
)

// boundaryRowCounts covers a single partial segment, a one-row tail
// spilling into a second segment, and exactly two full segments.
var boundaryRowCounts = []int{40000, dataset.SegmentSize + 1, 2 * dataset.SegmentSize}

// appendBoundaryShapes are (base, final) row counts whose append deltas
// land one row before, exactly on, and one row past the 64K segment
// boundary, plus a growth that stays inside one segment and one that
// opens a full new segment.
var appendBoundaryShapes = [][2]int{
	{dataset.SegmentSize - 100, dataset.SegmentSize - 1},
	{dataset.SegmentSize - 100, dataset.SegmentSize},
	{dataset.SegmentSize - 100, dataset.SegmentSize + 1},
	{dataset.SegmentSize + 50, 2 * dataset.SegmentSize},
	{40000, 41000},
}

func boundaryZipf(n int) *dataset.Table {
	return datagen.ZipfTable(fmt.Sprintf("boundary%d", n), n, []datagen.ZipfColumn{
		{Name: "c0", Card: 50, S: 1.3},
		{Name: "c1", Card: 40, S: 1.2},
	}, int64(n))
}

// tableRows extracts rows [lo, hi) of t in AppendBatch form.
func tableRows(t *dataset.Table, lo, hi int) [][]any {
	schema := t.Schema()
	out := make([][]any, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]any, len(schema))
		for i := range schema {
			if c := t.Cat(i); c != nil {
				row[i] = c.Value(r)
			} else {
				row[i] = t.Num(i).Value(r)
			}
		}
		out = append(out, row)
	}
	return out
}

// warmTableIndex forces every column's posting sets, frequencies, and
// sorted orders, so a later append exercises the incremental extension
// path instead of a lazy cold build.
func warmTableIndex(tbl *dataset.Table) *dataset.Index {
	ix := tbl.Index()
	for i := range tbl.Schema() {
		if tbl.Cat(i) != nil {
			ix.CatPostings(i)
			ix.CatFreqs(i)
		} else {
			ix.NumCmpRangeLen(i, 0, true, true, false)
		}
	}
	return ix
}

// TestAppendBoundaryEquivalence grows a table across every awkward
// segment shape — the append landing one row before, exactly on, and one
// row past a 64K boundary — with the index warmed before the append so
// Table.Index extends sealed segments instead of rebuilding, and
// requires the extended table to be indistinguishable from a reference
// table built with all rows from the start: identical compiled-predicate
// row sets, facet digests (both the posting-bitmap session path and the
// row-scan path), and rendered plus structural CAD Views.
func TestAppendBoundaryEquivalence(t *testing.T) {
	for _, shape := range appendBoundaryShapes {
		n0, n1 := shape[0], shape[1]
		t.Run(fmt.Sprintf("n=%d+%d", n0, n1-n0), func(t *testing.T) {
			ref := boundaryZipf(n1)
			grown := dataset.NewTable(ref.Name(), ref.Schema())
			if err := grown.AppendBatch(tableRows(ref, 0, n0)); err != nil {
				t.Fatal(err)
			}
			// Warm the base index (and remember the extension counters), so
			// the post-append Index call must go down the extend path.
			warmTableIndex(grown)
			catX0, ordX0 := dataset.IndexExtendStats()
			if err := grown.AppendBatch(tableRows(ref, n0, n1)); err != nil {
				t.Fatal(err)
			}
			ixG := warmTableIndex(grown)
			catX1, ordX1 := dataset.IndexExtendStats()
			if catX1 == catX0 && ordX1 == ordX0 {
				t.Fatal("append did not exercise the incremental index extension path")
			}
			if ixG.Rows() != n1 {
				t.Fatalf("extended index covers %d rows, want %d", ixG.Rows(), n1)
			}
			rows := dataset.AllRows(n1)

			// Compiled predicates over the extended index vs the reference.
			e := &expr.And{Kids: []expr.Expr{
				&expr.Cmp{Attr: "c0", Op: expr.Eq, Str: "v0000"},
				&expr.Cmp{Attr: "score", Op: expr.Le, Num: 500},
			}}
			gotC, err := expr.Compile(grown, e)
			if err != nil {
				t.Fatal(err)
			}
			gotBM, err := gotC.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			gotRows := gotBM.ToRowSet()
			wantC, err := expr.Compile(ref, e)
			if err != nil {
				t.Fatal(err)
			}
			wantBM, err := wantC.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			wantRows := wantBM.ToRowSet()
			if !reflect.DeepEqual([]int(gotRows), []int(wantRows)) {
				t.Fatalf("compiled Bitmap over the extended index selects %d rows, reference %d", len(gotRows), len(wantRows))
			}

			// Facet digests: the posting-bitmap session path (which adopts
			// the extended index's posting sets) and the row-scan path must
			// both match the reference build.
			vG, err := dataview.New(grown, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			vR, err := dataview.New(ref, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sG := facet.NewSession(vG, rows)
			sR := facet.NewSession(vR, rows)
			if !reflect.DeepEqual(sG.Digest(), sR.Digest()) {
				t.Fatal("session digest over the grown table differs from the reference build")
			}
			if !reflect.DeepEqual(facet.Summarize(vG, rows, false), facet.Summarize(vR, rows, false)) {
				t.Fatal("scan digest over the grown table differs from the reference build")
			}

			// CAD Views: the production build over the grown table and the
			// reference build over the grown table must both equal the
			// reference build over the reference table.
			cfg := core.Config{Pivot: "c0", MaxCompare: 2, K: 2, L: 3, Seed: 1}
			want, err := core.BuildReference(context.Background(), vR, rows, cfg)
			if err != nil {
				t.Fatalf("reference build (reference table): %v", err)
			}
			refGrown, err := core.BuildReference(context.Background(), vG, rows, cfg)
			if err != nil {
				t.Fatalf("reference build (grown): %v", err)
			}
			got, _, err := core.Build(vG, rows, cfg)
			if err != nil {
				t.Fatalf("build (grown): %v", err)
			}
			for _, c := range []struct {
				name string
				view *core.CADView
			}{{"build", got}, {"reference build", refGrown}} {
				if core.Render(c.view, nil) != core.Render(want, nil) {
					t.Errorf("%s: rendered CAD View over the grown table differs from the reference", c.name)
				}
				if !reflect.DeepEqual(c.view, want) {
					t.Errorf("%s: CAD View structure over the grown table differs from the reference", c.name)
				}
			}
		})
	}
}

func TestSegmentBoundaryEquivalence(t *testing.T) {
	for _, n := range boundaryRowCounts {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tbl := boundaryZipf(n)
			rows := dataset.AllRows(n)

			// Compiled predicates against the cold table: the planner
			// must build whatever postings it wants and still match the
			// row-at-a-time interpreter, and a recompile against the
			// warmed index must keep the same plan and row set.
			e := &expr.And{Kids: []expr.Expr{
				&expr.Cmp{Attr: "c0", Op: expr.Eq, Str: "v0000"},
				&expr.Cmp{Attr: "score", Op: expr.Le, Num: 500},
			}}
			cold, err := expr.Compile(tbl, e)
			if err != nil {
				t.Fatal(err)
			}
			coldPlan := cold.Explain()
			coldBM, err := cold.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			coldRows := coldBM.ToRowSet()
			wantRows, err := expr.SelectInterpreted(tbl, rows, e)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]int(coldRows), []int(wantRows)) {
				t.Fatalf("compiled Bitmap disagrees with interpreter: %d vs %d rows", len(coldRows), len(wantRows))
			}
			warm, err := expr.Compile(tbl, e)
			if err != nil {
				t.Fatal(err)
			}
			if plan := warm.Explain(); plan != coldPlan {
				t.Fatalf("plan changed after index warm-up:\ncold: %s\nwarm: %s", coldPlan, plan)
			}
			warmBM, err := warm.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			warmRows := warmBM.ToRowSet()
			if !reflect.DeepEqual([]int(warmRows), []int(coldRows)) {
				t.Fatal("warm Bitmap disagrees with cold Bitmap")
			}

			// Facet digest vs independent references: categorical
			// summaries against the table's value-count scan, numeric
			// summaries against a per-row code tally.
			v, err := dataview.New(tbl, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			digest := facet.Summarize(v, rows, false)
			for _, name := range []string{"c0", "c1"} {
				sum := digest.Attr(name)
				if sum == nil {
					t.Fatalf("digest has no summary for %s", name)
				}
				want := tbl.ValueCounts(tbl.ColIndex(name), rows)
				if len(sum.Values) != len(want) {
					t.Fatalf("%s: %d facet values, want %d", name, len(sum.Values), len(want))
				}
				for i, vc := range sum.Values {
					if vc.Value != want[i].Value || vc.Count != want[i].Count {
						t.Fatalf("%s[%d] = %s:%d, want %s:%d", name, i, vc.Value, vc.Count, want[i].Value, want[i].Count)
					}
				}
			}
			scoreCol, err := v.Column("score")
			if err != nil {
				t.Fatal(err)
			}
			wantBins := map[string]int{}
			for r := 0; r < n; r++ {
				if code := scoreCol.Code(r); code >= 0 {
					wantBins[scoreCol.Label(code)]++
				}
			}
			gotBins := map[string]int{}
			if sum := digest.Attr("score"); sum != nil {
				for _, vc := range sum.Values {
					gotBins[vc.Value] = vc.Count
				}
			}
			if !reflect.DeepEqual(gotBins, wantBins) {
				t.Fatalf("score facet bins = %v, want %v", gotBins, wantBins)
			}

			// CAD View bit-identity: the row-scan reference build is the
			// unsegmented reference semantics; the segmented posting build
			// must render and structure identically on every boundary shape.
			cfg := core.Config{Pivot: "c0", MaxCompare: 2, K: 2, L: 3, Seed: 1}
			want, err := core.BuildReference(context.Background(), v, rows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := core.Build(v, rows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if core.Render(want, nil) != core.Render(got, nil) {
				t.Error("rendered CAD View differs from scan reference")
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("CAD View structure differs from scan reference")
			}
		})
	}
}
