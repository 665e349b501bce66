package dataview

import (
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/histogram"
)

func testTable(t *testing.T) *dataset.Table {
	t.Helper()
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	makes := []string{"Ford", "Jeep", "Ford", "Chevrolet", "Jeep", "Ford", "Toyota", "Jeep", "Ford", "Chevrolet"}
	for i, m := range makes {
		tbl.MustAppendRow(m, float64(10000+i*5000))
	}
	return tbl
}

func TestNewViewBasics(t *testing.T) {
	tbl := testTable(t)
	v, err := New(tbl, Options{Bins: 3, Method: histogram.EquiDepth})
	if err != nil {
		t.Fatal(err)
	}
	if v.Table() != tbl {
		t.Error("Table() identity")
	}
	if len(v.Columns()) != 2 {
		t.Fatalf("columns = %d", len(v.Columns()))
	}

	mk, err := v.Column("Make")
	if err != nil {
		t.Fatal(err)
	}
	if mk.Kind != dataset.Categorical || mk.Cardinality() != 4 {
		t.Errorf("Make column: kind=%v card=%d", mk.Kind, mk.Cardinality())
	}
	if mk.Label(mk.Code(0)) != "Ford" {
		t.Errorf("Make code/label round trip: %q", mk.Label(mk.Code(0)))
	}
	if mk.CodeOf("Jeep") < 0 || mk.CodeOf("Nope") != -1 {
		t.Error("CodeOf wrong")
	}
	if mk.Histogram() != nil {
		t.Error("categorical column should have nil histogram")
	}

	pr, err := v.Column("Price")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Kind != dataset.Numeric {
		t.Error("Price kind")
	}
	if pr.Cardinality() < 2 || pr.Cardinality() > 3 {
		t.Errorf("Price cardinality = %d", pr.Cardinality())
	}
	if pr.Histogram() == nil {
		t.Error("numeric column should expose its histogram")
	}
	if len(pr.Labels()) != pr.Cardinality() {
		t.Error("Labels length mismatch")
	}
	// Codes must be within range for every row.
	for r := 0; r < tbl.NumRows(); r++ {
		if c := pr.Code(r); c < 0 || c >= pr.Cardinality() {
			t.Errorf("row %d: code %d out of range", r, c)
		}
	}
}

func TestViewErrors(t *testing.T) {
	tbl := testTable(t)
	if _, err := New(tbl, Options{Bins: -1}); err == nil {
		t.Error("negative bins: want error")
	}
	empty := dataset.NewTable("e", dataset.Schema{{Name: "A", Kind: dataset.Numeric}})
	if _, err := New(empty, Options{}); err == nil {
		t.Error("empty table: want error")
	}
	v, err := New(tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Column("Nope"); err == nil {
		t.Error("unknown column: want error")
	}
}

func TestStableBinsUnderSelection(t *testing.T) {
	// Bin boundaries are global: the same row must get the same code no
	// matter what subset is being explored.
	tbl := testTable(t)
	v, err := New(tbl, Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := v.Column("Price")
	want := make([]int, tbl.NumRows())
	for r := range want {
		want[r] = pr.Code(r)
	}
	// Rebuild the view: codes must be deterministic.
	v2, err := New(tbl, Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr2, _ := v2.Column("Price")
	for r := range want {
		if pr2.Code(r) != want[r] {
			t.Errorf("row %d code changed: %d vs %d", r, want[r], pr2.Code(r))
		}
	}
}
