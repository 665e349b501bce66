package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// randomRows draws a random subset of [0, n) as a sorted row set and the
// equivalent bitmap.
func randomRows(rng *rand.Rand, n int) (dataset.RowSet, *dataset.Bitmap) {
	density := 0.05 + rng.Float64()*0.9
	bm := dataset.NewBitmap(n)
	var rows dataset.RowSet
	for r := 0; r < n; r++ {
		if rng.Float64() < density {
			bm.Add(r)
			rows = append(rows, r)
		}
	}
	return rows, bm
}

// TestResolvePivotValuesBitmapMatchesScan is the partition property test:
// over random result subsets, both pivot resolvers must produce the same
// value order and identical per-value row subsets — default order and
// explicit values, categorical and numeric pivots.
func TestResolvePivotValuesBitmapMatchesScan(t *testing.T) {
	v, _ := miniCars(t, 500, 3)
	n := v.Table().NumRows()
	for _, pivot := range []string{"Make", "Price"} {
		pivotCol, err := v.Column(pivot)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
			rows, bm := randomRows(rng, n)
			if len(rows) == 0 {
				continue
			}
			var explicit []string
			if trial%3 == 1 {
				explicit = []string{"Alpha", "Gamma"}
				if pivot == "Price" {
					explicit = pivotCol.Labels()[:2]
				}
			}
			wantVals, wantRows, err := resolvePivotValues(pivotCol, rows, explicit)
			if err != nil {
				t.Fatal(err)
			}
			gotVals, gotRows, gotBms, err := resolvePivotValuesBitmap(pivotCol, bm, explicit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantVals, gotVals) {
				t.Fatalf("pivot %s trial %d: values = %v, want %v", pivot, trial, gotVals, wantVals)
			}
			for _, val := range wantVals {
				if !reflect.DeepEqual([]int(wantRows[val]), []int(gotRows[val])) {
					t.Fatalf("pivot %s trial %d: rows[%s] = %v, want %v", pivot, trial, val, gotRows[val], wantRows[val])
				}
				if b := gotBms[val]; b != nil && !reflect.DeepEqual([]int(b.ToRowSet()), []int(wantRows[val])) {
					t.Fatalf("pivot %s trial %d: bitmap[%s] disagrees with rows", pivot, trial, val)
				}
			}
		}
	}
}

// TestSampleRowsBitmapMatchesSampleRows pins the bitmap sampler to the
// scan sampler position for position — the sample feeds the class remap,
// so even a reordering of identical rows would change downstream output.
func TestSampleRowsBitmapMatchesSampleRows(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 11))
		n := 40 + rng.Intn(500)
		rows, bm := randomRows(rng, n)
		if len(rows) == 0 {
			continue
		}
		size := 1 + rng.Intn(len(rows)+10)
		seed := rng.Int63() - rng.Int63()
		want := sampleRows(rows, size, seed)
		got := sampleRowsBitmap(bm, size, seed)
		if !reflect.DeepEqual([]int(want), []int(got)) {
			t.Fatalf("trial %d (n=%d size=%d seed=%d):\n got %v\nwant %v", trial, len(rows), size, seed, got, want)
		}
	}
}

// TestBuildPathsByteIdentical is the top-level bit-identity guarantee:
// the production bitmap build must render byte-identical CAD Views to
// the row-scan reference across a spread of configurations.
func TestBuildPathsByteIdentical(t *testing.T) {
	v, rows := miniCars(t, 700, 21)
	configs := []Config{
		{Pivot: "Make", Seed: 1},
		{Pivot: "Make", K: 2, L: 5, Seed: 9, Parallel: true},
		{Pivot: "Price", K: 3, Seed: 4},
		{Pivot: "Make", PivotValues: []string{"Gamma", "Alpha"}, Seed: 2},
		{Pivot: "Make", CompareAttrs: []string{"Color"}, MaxCompare: 3, Seed: 3},
		{Pivot: "Make", FeatureSampleSize: 120, ClusterSampleSize: 150, Seed: 8},
		{Pivot: "Make", AutoL: true, K: 2, Seed: 6},
	}
	for i, cfg := range configs {
		assertMatchesReference(t, fmt.Sprintf("config %d", i), v, rows, cfg)
	}
}

// TestBuildOverStaleViewMatchesReference pins the build to the view's
// row snapshot: after rows are appended to the table, a build over a
// view made before the append must still succeed and equal the
// reference, instead of packing its result bitmap over the live table's
// larger universe.
func TestBuildOverStaleViewMatchesReference(t *testing.T) {
	v, rows := miniCars(t, 700, 21)
	tbl := v.Table()
	for i := 0; i < 50; i++ {
		tbl.MustAppendRow("Delta", "Delta Mid", "V6", "AWD", 27000.0+float64(i), "Green")
	}
	if tbl.NumRows() == v.Rows() {
		t.Fatal("append did not grow the table past the view's snapshot")
	}
	for i, cfg := range []Config{
		{Pivot: "Make", Seed: 1},
		{Pivot: "Price", Seed: 4},
		{Pivot: "Make", PivotValues: []string{"Gamma", "Alpha"}, Seed: 2},
	} {
		assertMatchesReference(t, fmt.Sprintf("config %d", i), v, rows, cfg)
	}
}

// assertMatchesReference builds cfg with the production pipeline and
// with BuildReference and requires identical structure and rendering.
func assertMatchesReference(t *testing.T, tag string, v *dataview.View, rows dataset.RowSet, cfg Config) {
	t.Helper()
	want, err := BuildReference(context.Background(), v, rows, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	got, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatalf("%s: build: %v", tag, err)
	}
	if Render(want, nil) != Render(got, nil) {
		t.Errorf("%s: rendered CAD View differs from the reference", tag)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: CAD View structure differs from the reference", tag)
	}
}
