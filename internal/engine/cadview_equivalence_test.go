package engine

import (
	"context"
	"reflect"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataview"
)

// TestCorpusCADViewBitmapMatchesScan is the CAD View counterpart of the
// WHERE-corpus equivalence test: for every corpus result set, the
// bitmap-native production build must produce a CAD View byte-identical
// to the row-scan reference (core.BuildReference) — same structure, same
// rendering — across categorical and numeric pivots.
func TestCorpusCADViewBitmapMatchesScan(t *testing.T) {
	tbl := carsTable(t, 400, 1)
	s := NewSession()
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queryCorpus {
		r, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: exec: %v", q, err)
		}
		if len(r.Rows) == 0 {
			continue // empty result sets cannot host a CAD View
		}
		for _, pivot := range []string{"Make", "Price"} {
			cfg := core.Config{Pivot: pivot, K: 3, MaxCompare: 5, Seed: 1}
			want, err := core.BuildReference(context.Background(), v, r.Rows, cfg)
			if err != nil {
				t.Fatalf("%s pivot %s: reference build: %v", q, pivot, err)
			}
			got, _, err := core.Build(v, r.Rows, cfg)
			if err != nil {
				t.Fatalf("%s pivot %s: %v", q, pivot, err)
			}
			if core.Render(want, nil) != core.Render(got, nil) {
				t.Errorf("%s pivot %s: rendered CAD View diverged from the reference", q, pivot)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s pivot %s: CAD View structure diverged from the reference", q, pivot)
			}
		}
	}
}
