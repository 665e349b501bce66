package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
)

// marshalOracle is the reflection-based encoder AppendJSON replaced: it
// copies the view into the cadViewJSON tree and hands that to
// json.Marshal. AppendJSON must write the same bytes, or fail where it
// fails.
func marshalOracle(v *CADView) ([]byte, error) {
	out := &cadViewJSON{
		Name:         v.Name,
		Pivot:        v.Pivot,
		CompareAttrs: v.CompareAttrs,
		K:            v.K,
		Tau:          v.Tau,
	}
	for _, row := range v.Rows {
		jr := &pivotRowJSON{Value: row.Value, Count: row.Count}
		for _, iu := range row.IUnits {
			jr.IUnits = append(jr.IUnits, &iunitJSON{
				PivotValue:  iu.PivotValue,
				Rank:        iu.Rank,
				Size:        iu.Size,
				Score:       iu.Score,
				Labels:      iu.Labels,
				Rows:        iu.Rows,
				Frequencies: iu.freq,
			})
		}
		out.Rows = append(out.Rows, jr)
	}
	return json.Marshal(out)
}

// checkOracle asserts AppendJSON (after a non-empty prefix, which it
// must keep) and MarshalJSON agree with the oracle byte for byte, and
// that all three fail together.
func checkOracle(t *testing.T, tag string, v *CADView) {
	t.Helper()
	want, wantErr := marshalOracle(v)
	got, err := v.AppendJSON([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendJSON error = %v, oracle error = %v", tag, err, wantErr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Errorf("%s: failed AppendJSON returned %q, want dst unchanged", tag, got)
		}
		if _, err := json.Marshal(v); err == nil {
			t.Errorf("%s: json.Marshal succeeded where the oracle fails", tag)
		}
		return
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: AppendJSON differs from the oracle\n got %s\nwant %s", tag, got[len("prefix"):], want)
	}
	if viaMarshal, err := json.Marshal(v); err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("%s: json.Marshal(view) = %s (%v), want the oracle bytes", tag, viaMarshal, err)
	}
}

// table1Query is the paper's §2.1.2 CREATE CADVIEW statement, as the
// table1 experiment runs it.
const table1Query = `CREATE CADVIEW CompareMakes AS
SET pivot = Make
SELECT Price
FROM UsedCars
WHERE Mileage BETWEEN 10K AND 30K AND
      Transmission = Automatic AND BodyType = SUV AND
      Make IN (Jeep, Toyota, Honda, Ford, Chevrolet)
LIMIT COLUMNS 5 IUNITS 3`

var (
	wireOnce             sync.Once
	wireTable1, wireZipf *CADView
	wireErr              error
)

// wireViews builds the two realistic wire shapes once: the Table-1 view
// over 40K used cars (what the table1 experiment builds), and a
// 200-value Zipf pivot over one score band of a 100K-row table with
// explicit pivot values and one Compare Attribute (the large-body
// shape of a wide-pivot /cad).
func wireViews(tb testing.TB) (table1, zipf *CADView) {
	tb.Helper()
	wireOnce.Do(func() {
		if wireTable1, wireErr = buildTable1View(); wireErr == nil {
			wireZipf, wireErr = buildZipfView()
		}
	})
	if wireErr != nil {
		tb.Fatal(wireErr)
	}
	return wireTable1, wireZipf
}

func buildTable1View() (*CADView, error) {
	st, err := cadql.Parse(table1Query)
	if err != nil {
		return nil, err
	}
	cv := st.(*cadql.CreateCADViewStmt)
	cars := datagen.UsedCars(40000, 1)
	v, err := dataview.New(cars, dataview.Options{})
	if err != nil {
		return nil, err
	}
	comp, err := expr.Compile(cars, cv.Where)
	if err != nil {
		return nil, err
	}
	bm, err := comp.Bitmap()
	if err != nil {
		return nil, err
	}
	view, _, err := BuildContext(context.Background(), v, bm.ToRowSet(), Config{
		Pivot:        cv.Pivot,
		CompareAttrs: cv.Compare,
		MaxCompare:   cv.MaxCompare,
		K:            cv.IUnits,
		Seed:         1,
	})
	if err != nil {
		return nil, err
	}
	view.Name = cv.Name
	return view, nil
}

func buildZipfView() (*CADView, error) {
	cols := []datagen.ZipfColumn{{Name: "c0", Card: 200, S: 1.3}}
	for _, name := range []string{"c1", "c2", "c3", "c4"} {
		cols = append(cols, datagen.ZipfColumn{Name: name, Card: 100, S: 1.3})
	}
	tbl := datagen.ZipfTable("Zipf", 100000, cols, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		return nil, err
	}
	score, err := tbl.NumByName("score")
	if err != nil {
		return nil, err
	}
	var band dataset.RowSet
	for r := 0; r < tbl.NumRows(); r++ {
		if x := score.Value(r); x >= 400 && x < 500 {
			band = append(band, r)
		}
	}
	pivot, err := tbl.CatByName("c0")
	if err != nil {
		return nil, err
	}
	view, _, err := BuildContext(context.Background(), v, band, Config{
		Pivot:       "c0",
		PivotValues: pivot.Dict(),
		K:           3,
		MaxCompare:  1,
		Seed:        1,
		Parallel:    true,
	})
	return view, err
}

func TestCADViewJSONMatchesOracle(t *testing.T) {
	table1, zipf := wireViews(t)
	if len(zipf.Rows) != 200 || len(zipf.CompareAttrs) != 1 {
		t.Fatalf("zipf view has %d rows and %d Compare Attributes, want 200 and 1", len(zipf.Rows), len(zipf.CompareAttrs))
	}
	checkOracle(t, "table1", table1)
	checkOracle(t, "zipf", zipf)
	mini, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 40})
	checkOracle(t, "mini", mini)
	// A per-response name, as /cad sets it on a copy.
	named := *zipf
	named.Name = "cad-17"
	checkOracle(t, "zipf named", &named)
}

// TestCADViewJSONRoundTripNonIntegral feeds non-integral frequencies
// through UnmarshalJSON and checks the decoded view re-encodes to the
// same bytes under both encoders.
func TestCADViewJSONRoundTripNonIntegral(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 40})
	for _, row := range view.Rows {
		for _, iu := range row.IUnits {
			for d, vec := range iu.freq {
				scaled := make([]float64, len(vec))
				for j, f := range vec {
					scaled[j] = f/7 + 1e-9*float64(j)
				}
				iu.freq[d] = scaled
			}
			iu.Score /= 3
		}
	}
	data, err := marshalOracle(view)
	if err != nil {
		t.Fatal(err)
	}
	var back CADView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "round trip", &back)
	if got, _ := back.AppendJSON(nil); !bytes.Equal(got, data) {
		t.Error("round-tripped view re-encodes differently")
	}
}

// nasty holds strings that exercise every escaping rule: HTML
// characters, quotes and backslashes, short and \u00XX control escapes,
// U+2028/U+2029, DEL, multi-byte runes and invalid UTF-8.
var nasty = []string{
	"<b>&amp;</b>", `say "hi" \ bye`, "\b\f\x01\x1f\n\r\t", "line\u2028sep\u2029end",
	"\x7f", "caf\u00e9 \u65e5\u672c \U0001f600", "bad\xffutf8\xc3", "", "plain",
}

// adversarialView is a hand-built view with a nasty string in every
// string field and the given floats as tau, score and frequencies.
func adversarialView(floats []float64) *CADView {
	v := &CADView{
		Name:         nasty[0],
		Pivot:        nasty[1],
		CompareAttrs: []string{nasty[2], nasty[3]},
		K:            2,
		Tau:          floats[0],
	}
	for i, s := range nasty {
		row := &PivotRow{Value: s, Count: i}
		for rank := 1; rank <= 2; rank++ {
			row.IUnits = append(row.IUnits, &IUnit{
				PivotValue: s,
				Rank:       rank,
				Size:       10 * i,
				Score:      floats[(i+rank)%len(floats)],
				Labels: []Label{
					{Attr: nasty[(i+2)%len(nasty)], Groups: []LabelGroup{{Values: []string{s, nasty[(i+4)%len(nasty)]}, Count: i}}},
					{Attr: nasty[(i+3)%len(nasty)], Groups: []LabelGroup{{Values: []string{nasty[(i+5)%len(nasty)]}, Count: 1}, {Values: []string{s}}}},
				},
				Rows: dataset.RowSet{i, i + rank, 1 << 20},
				freq: [][]float64{floats, {floats[i%len(floats)], 1, 2}},
			})
		}
		v.Rows = append(v.Rows, row)
	}
	return v
}

func TestCADViewJSONAdversarial(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 0.1, 1e-7, 1e21, 1<<53 + 1, 123456789.5, -2.5, 1e-6, 3}
	checkOracle(t, "strings and floats", adversarialView(floats))

	// nil vs empty for every slice.
	empties := []struct {
		tag  string
		edit func(v *CADView)
	}{
		{"nil compareAttrs", func(v *CADView) { v.CompareAttrs = nil }},
		{"empty compareAttrs", func(v *CADView) { v.CompareAttrs = []string{} }},
		{"nil rows", func(v *CADView) { v.Rows = nil }},
		{"empty rows", func(v *CADView) { v.Rows = []*PivotRow{} }},
		{"nil iunits", func(v *CADView) { v.Rows[0].IUnits = nil }},
		{"empty iunits", func(v *CADView) { v.Rows[1].IUnits = []*IUnit{} }},
		{"nil labels", func(v *CADView) { v.Rows[0].IUnits[0].Labels = nil }},
		{"empty labels", func(v *CADView) { v.Rows[0].IUnits[0].Labels = []Label{} }},
		{"nil groups", func(v *CADView) { v.Rows[0].IUnits[0].Labels[0].Groups = nil }},
		{"empty groups", func(v *CADView) { v.Rows[0].IUnits[0].Labels[0].Groups = []LabelGroup{} }},
		{"nil values", func(v *CADView) { v.Rows[0].IUnits[0].Labels[0].Groups[0].Values = nil }},
		{"empty values", func(v *CADView) { v.Rows[0].IUnits[0].Labels[0].Groups[0].Values = []string{} }},
		{"nil unit rows", func(v *CADView) { v.Rows[0].IUnits[0].Rows = nil }},
		{"empty unit rows", func(v *CADView) { v.Rows[0].IUnits[0].Rows = dataset.RowSet{} }},
		{"nil frequencies", func(v *CADView) { v.Rows[0].IUnits[0].freq = nil }},
		{"empty frequencies", func(v *CADView) { v.Rows[0].IUnits[0].freq = [][]float64{} }},
		{"nil frequency vector", func(v *CADView) { v.Rows[0].IUnits[0].freq[1] = nil }},
		{"empty frequency vector", func(v *CADView) { v.Rows[0].IUnits[0].freq[1] = []float64{} }},
		{"empty name", func(v *CADView) { v.Name = "" }},
	}
	for _, c := range empties {
		v := adversarialView(floats)
		c.edit(v)
		checkOracle(t, c.tag, v)
	}

	// Non-finite floats have no JSON form: both encoders fail.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := adversarialView(floats)
		v.Tau = bad
		checkOracle(t, "tau", v)
		v = adversarialView(floats)
		v.Rows[3].IUnits[1].Score = bad
		checkOracle(t, "score", v)
		v = adversarialView(floats)
		v.Rows[len(v.Rows)-1].IUnits[1].freq[1][2] = bad
		checkOracle(t, "frequency", v)
	}
}

// FuzzCADViewJSON puts fuzzed strings and floats into every field of a
// small view and compares AppendJSON with the oracle. The seed corpus
// lives in testdata/fuzz/FuzzCADViewJSON.
func FuzzCADViewJSON(f *testing.F) {
	f.Add("Make", "Jeep", "[V6]", 1.5, 0.25, 3.0)
	f.Fuzz(func(t *testing.T, pivot, value, label string, tau, score, freq float64) {
		v := &CADView{
			Name:         value,
			Pivot:        pivot,
			CompareAttrs: []string{pivot, label},
			K:            1,
			Tau:          tau,
			Rows: []*PivotRow{{Value: value, Count: 3, IUnits: []*IUnit{{
				PivotValue: value,
				Rank:       1,
				Size:       3,
				Score:      score,
				Labels: []Label{
					{Attr: pivot, Groups: []LabelGroup{{Values: []string{label, value}, Count: 2}}},
					{Attr: label, Groups: []LabelGroup{{Values: []string{pivot}, Count: 1}}},
				},
				Rows: dataset.RowSet{0, 1, 2},
				freq: [][]float64{{freq, 1, score}, {tau, freq}},
			}}}, {Value: label}},
		}
		checkOracle(t, "fuzz", v)
	})
}

func TestCADViewJSONRoundTrip(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 40})
	data, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pivot":"Make"`) {
		t.Errorf("json missing pivot: %s", data[:120])
	}
	var back CADView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Structure survives.
	if Render(&back, nil) != Render(view, nil) {
		t.Error("round trip changed the rendered view")
	}
	// Similarity operations still work on the decoded view (the
	// frequency vectors travel with it).
	h1, err := HighlightSimilar(view, "Alpha", 1, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HighlightSimilar(&back, "Alpha", 1, back.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Matches) != len(h2.Matches) {
		t.Errorf("highlight differs after round trip: %d vs %d", len(h1.Matches), len(h2.Matches))
	}
	for i := range h1.Matches {
		if h1.Matches[i].Ref != h2.Matches[i].Ref {
			t.Errorf("match %d differs: %+v vs %+v", i, h1.Matches[i], h2.Matches[i])
		}
	}
	_, sims1, err := ReorderRows(view, "Gamma")
	if err != nil {
		t.Fatal(err)
	}
	_, sims2, err := ReorderRows(&back, "Gamma")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sims1 {
		if sims1[i] != sims2[i] {
			t.Errorf("reorder differs after round trip: %+v vs %+v", sims1[i], sims2[i])
		}
	}
}

func TestCADViewJSONErrors(t *testing.T) {
	var v CADView
	if err := json.Unmarshal([]byte(`{"rows": 5}`), &v); err == nil {
		t.Error("malformed json: want error")
	}
	if err := json.Unmarshal([]byte(`{}`), &v); err == nil {
		t.Error("missing pivot: want error")
	}
	// Frequency vectors must align with Compare Attributes.
	bad := `{"pivot":"P","compareAttrs":["A","B"],"k":1,"tau":1,
		"rows":[{"value":"x","count":1,
		"iunits":[{"pivotValue":"x","rank":1,"size":1,"labels":[],"frequencies":[[1]]}]}]}`
	if err := json.Unmarshal([]byte(bad), &v); err == nil {
		t.Error("misaligned frequencies: want error")
	}
}
