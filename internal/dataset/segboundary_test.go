package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// boundaryShapes are the table sizes that stress segment geometry: one
// row short of a segment, an exact 64K multiple (no tail), a one-row
// tail, and an exact two-segment table.
var boundaryShapes = []int{SegmentSize - 1, SegmentSize, SegmentSize + 1, 2 * SegmentSize}

// boundaryTable builds an n-row table whose columns exercise every
// container kind the segmented index produces: "cat" is skewed so its
// head code overflows arrayMaxCard per segment (bitmap containers) while
// the tail codes stay sparse (array containers), "run" changes value
// every 8192 rows (run containers after optimize), and "num" mixes NaN
// cells, half-step duplicates, and values that differ only in low
// mantissa bits (the radix sort's truncated-key tie fix-up path).
func boundaryTable(n int) *Table {
	t := NewTable("boundary", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "run", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
	})
	labels := make([]string, 120)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%03d", i)
	}
	runs := []string{"r0", "r1", "r2", "r3", "r4"}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		cat := "head"
		if i%3 != 0 {
			cat = labels[rng.Intn(len(labels))]
		}
		var num float64
		switch {
		case i%97 == 0:
			num = math.NaN()
		case i%13 == 0:
			num = 100 + float64(i%7)*1e-11
		default:
			num = math.Floor(rng.Float64()*2000) / 2
		}
		t.MustAppendRow(cat, runs[(i/8192)%len(runs)], num)
	}
	return t
}

// rowsOf flattens a bitmap for comparison against brute-force row lists.
func rowsOf(b *Bitmap) []int {
	rows := []int(b.ToRowSet())
	if rows == nil {
		rows = []int{}
	}
	return rows
}

// TestSegmentBoundaryShapes checks the segmented index against
// brute-force row scans at every boundary shape: per-code postings,
// inclusive numeric ranges, every comparison operator, and the batched
// edge-ladder counts under full, sparse, dense, and shorter-snapshot
// filters.
func TestSegmentBoundaryShapes(t *testing.T) {
	for _, n := range boundaryShapes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tbl := boundaryTable(n)
			ix := tbl.Index()
			numCol := tbl.ColIndex("num")
			nums := tbl.Num(numCol)

			for _, name := range []string{"cat", "run"} {
				col := tbl.ColIndex(name)
				c := tbl.Cat(col)
				want := make([][]int, c.Cardinality())
				for code := range want {
					want[code] = []int{}
				}
				for i := 0; i < n; i++ {
					code := c.Code(i)
					want[code] = append(want[code], i)
				}
				postings := ix.CatPostings(col)
				if len(postings) != c.Cardinality() {
					t.Fatalf("%s: %d postings for cardinality %d", name, len(postings), c.Cardinality())
				}
				for code, bm := range postings {
					if bm.Len() != len(want[code]) {
						t.Fatalf("%s code %d: Len = %d, want %d", name, code, bm.Len(), len(want[code]))
					}
					if got := rowsOf(bm); !reflect.DeepEqual(got, want[code]) {
						t.Fatalf("%s code %d: posting rows disagree with scan", name, code)
					}
				}
			}

			for _, r := range [][2]float64{{0, 1000}, {100, 100}, {250.5, 750}, {-5, 50}, {999.5, 2000}} {
				lo, hi := r[0], r[1]
				want := []int{}
				for i := 0; i < n; i++ {
					if v := nums.Value(i); v >= lo && v <= hi {
						want = append(want, i)
					}
				}
				bm := ix.NumRange(numCol, lo, hi)
				if got := rowsOf(bm); !reflect.DeepEqual(got, want) {
					t.Fatalf("NumRange[%g, %g]: rows disagree with scan (%d vs %d)", lo, hi, len(got), len(want))
				}
				if got := ix.NumRangeLen(numCol, lo, hi); got != len(want) {
					t.Fatalf("NumRangeLen[%g, %g] = %d, want %d", lo, hi, got, len(want))
				}
			}

			cmpOps := []struct {
				name                    string
				includeEq, below, above bool
				match                   func(v, c float64) bool
			}{
				{"lt", false, true, false, func(v, c float64) bool { return v < c }},
				{"le", true, true, false, func(v, c float64) bool { return v <= c }},
				{"gt", false, false, true, func(v, c float64) bool { return v > c }},
				{"ge", true, false, true, func(v, c float64) bool { return v >= c }},
				{"eq", true, false, false, func(v, c float64) bool { return v == c }},
			}
			for _, cut := range []float64{0, 100, 500.5, 999.5} {
				for _, op := range cmpOps {
					want := []int{}
					for i := 0; i < n; i++ {
						if op.match(nums.Value(i), cut) {
							want = append(want, i)
						}
					}
					bm := ix.NumCmpRange(numCol, cut, op.includeEq, op.below, op.above)
					if got := rowsOf(bm); !reflect.DeepEqual(got, want) {
						t.Fatalf("NumCmpRange %s %g: rows disagree with scan (%d vs %d)", op.name, cut, len(got), len(want))
					}
					if got := ix.NumCmpRangeLen(numCol, cut, op.includeEq, op.below, op.above); got != len(want) {
						t.Fatalf("NumCmpRangeLen %s %g = %d, want %d", op.name, cut, got, len(want))
					}
				}
			}

			edges := []float64{50, 100, 250.5, 500, 900}
			rng := rand.New(rand.NewSource(int64(n) * 7))
			filters := map[string]*Bitmap{"full": FromRowSet(n, AllRows(n))}
			for _, f := range []struct {
				name    string
				density float64
			}{{"sparse", 0.01}, {"dense", 0.6}} {
				bm := NewBitmap(n)
				for i := 0; i < n; i++ {
					if rng.Float64() < f.density {
						bm.Add(i)
					}
				}
				filters[f.name] = bm
			}
			// A filter over a shorter snapshot of the table (a view the
			// table has grown past): segments beyond it must be skipped.
			snap := NewBitmap(min(n-1, SegmentSize-1))
			for i := 0; i < snap.Universe(); i++ {
				if rng.Float64() < 0.6 {
					snap.Add(i)
				}
			}
			filters["snapshot"] = snap
			for fname, filter := range filters {
				wantLt := make([]int, len(edges))
				wantLe := make([]int, len(edges))
				wantValid := 0
				for i := 0; i < n; i++ {
					if !filter.Contains(i) {
						continue
					}
					v := nums.Value(i)
					if math.IsNaN(v) {
						continue
					}
					wantValid++
					for j, e := range edges {
						if v < e {
							wantLt[j]++
						}
						if v <= e {
							wantLe[j]++
						}
					}
				}
				lt, le, valid := ix.NumEdgeCounts(numCol, edges, filter)
				if valid != wantValid {
					t.Fatalf("NumEdgeCounts %s: valid = %d, want %d", fname, valid, wantValid)
				}
				if !reflect.DeepEqual(lt, wantLt) || !reflect.DeepEqual(le, wantLe) {
					t.Fatalf("NumEdgeCounts %s: lt/le = %v/%v, want %v/%v", fname, lt, le, wantLt, wantLe)
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("NumEdgeCounts accepted a filter larger than the index")
					}
				}()
				ix.NumEdgeCounts(numCol, edges, NewBitmap(n+1))
			}()
		})
	}
}
