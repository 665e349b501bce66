package datagen

import (
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/featsel"
)

func TestUsedCarsShape(t *testing.T) {
	tbl := UsedCars(5000, 1)
	if tbl.NumRows() != 5000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.NumCols() != 11 {
		t.Fatalf("cols = %d, paper's table had 11 attributes", tbl.NumCols())
	}
	mk, err := tbl.CatByName("Make")
	if err != nil {
		t.Fatal(err)
	}
	if mk.Cardinality() < 40 {
		t.Errorf("Make cardinality = %d; the paper says more than 50 values exist", mk.Cardinality())
	}
	// Engine is the hidden attribute (Limitation 2).
	eng := tbl.Schema()[tbl.ColIndex("Engine")]
	if eng.Queriable {
		t.Error("Engine should be non-queriable")
	}
	// Sanity on numeric ranges.
	price, _ := tbl.NumByName("Price")
	year, _ := tbl.NumByName("Year")
	mileage, _ := tbl.NumByName("Mileage")
	for r := 0; r < tbl.NumRows(); r++ {
		if price.Value(r) < 1000 || price.Value(r) > 100000 {
			t.Fatalf("row %d price %g out of range", r, price.Value(r))
		}
		if year.Value(r) < 2005 || year.Value(r) > 2013 {
			t.Fatalf("row %d year %g out of range", r, year.Value(r))
		}
		if mileage.Value(r) < 0 {
			t.Fatalf("row %d negative mileage", r)
		}
	}
}

func TestUsedCarsDeterministic(t *testing.T) {
	a, b := UsedCars(500, 7), UsedCars(500, 7)
	for r := 0; r < 500; r++ {
		for c := 0; c < a.NumCols(); c++ {
			if a.CellString(r, c) != b.CellString(r, c) {
				t.Fatalf("cell (%d,%d) differs between same-seed runs", r, c)
			}
		}
	}
	c := UsedCars(500, 8)
	same := true
	for r := 0; r < 500 && same; r++ {
		if a.CellString(r, 0) != c.CellString(r, 0) || a.CellString(r, 3) != c.CellString(r, 3) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestUsedCarsDependencyStructure(t *testing.T) {
	tbl := UsedCars(8000, 2)
	// Model determines Make: every model name occurs under one make.
	mkCol, _ := tbl.CatByName("Make")
	mdCol, _ := tbl.CatByName("Model")
	modelMake := map[string]string{}
	for r := 0; r < tbl.NumRows(); r++ {
		m := mdCol.Value(r)
		if prev, ok := modelMake[m]; ok && prev != mkCol.Value(r) {
			t.Fatalf("model %q sold by both %q and %q", m, prev, mkCol.Value(r))
		}
		modelMake[m] = mkCol.Value(r)
	}
	// Year anti-correlates with Mileage: average mileage of 2012+ cars
	// must be well below 2006- cars.
	yr, _ := tbl.NumByName("Year")
	mi, _ := tbl.NumByName("Mileage")
	var newSum, oldSum float64
	var newN, oldN int
	for r := 0; r < tbl.NumRows(); r++ {
		if yr.Value(r) >= 2012 {
			newSum += mi.Value(r)
			newN++
		} else if yr.Value(r) <= 2006 {
			oldSum += mi.Value(r)
			oldN++
		}
	}
	if newN == 0 || oldN == 0 {
		t.Fatal("year distribution degenerate")
	}
	if newSum/float64(newN) >= oldSum/float64(oldN)/2 {
		t.Errorf("mileage/year correlation too weak: new avg %.0f, old avg %.0f", newSum/float64(newN), oldSum/float64(oldN))
	}
	// Table 1's paper examples exist: Chevrolet sells the Traverse LT.
	if modelMake["Traverse LT"] != "Chevrolet" {
		t.Errorf("Traverse LT sold by %q", modelMake["Traverse LT"])
	}
	if modelMake["Wrangler Unlimited"] != "Jeep" {
		t.Errorf("Wrangler Unlimited sold by %q", modelMake["Wrangler Unlimited"])
	}
}

func TestUsedCarsSUVQueryIsRich(t *testing.T) {
	// Mary's query must return a healthy result set across all five
	// featured makes.
	tbl := UsedCars(20000, 3)
	where := &expr.And{Kids: []expr.Expr{
		&expr.Between{Attr: "Mileage", Lo: 10000, Hi: 30000},
		&expr.Cmp{Attr: "Transmission", Op: expr.Eq, Str: "Automatic"},
		&expr.Cmp{Attr: "BodyType", Op: expr.Eq, Str: "SUV"},
	}}
	rows, err := compiledRows(tbl, where)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 1000 {
		t.Fatalf("Mary's query returned only %d rows", len(rows))
	}
	counts := map[string]int{}
	mk, _ := tbl.CatByName("Make")
	for _, r := range rows {
		counts[mk.Value(r)]++
	}
	for _, want := range []string{"Chevrolet", "Ford", "Jeep", "Toyota", "Honda"} {
		if counts[want] < 50 {
			t.Errorf("make %s has only %d SUVs in the result", want, counts[want])
		}
	}
}

func TestMushroomShape(t *testing.T) {
	tbl := Mushroom(1)
	if tbl.NumRows() != MushroomSize {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), MushroomSize)
	}
	if tbl.NumCols() != 23 {
		t.Fatalf("cols = %d, want 23", tbl.NumCols())
	}
	cls, err := tbl.CatByName("Class")
	if err != nil {
		t.Fatal(err)
	}
	counts := tbl.ValueCounts(tbl.ColIndex("Class"), dataset.AllRows(tbl.NumRows()))
	if len(counts) != 2 {
		t.Fatalf("class values = %v", counts)
	}
	edible := 0
	for _, vc := range counts {
		if vc.Value == "edible" {
			edible = vc.Count
		}
	}
	frac := float64(edible) / float64(tbl.NumRows())
	if frac < 0.45 || frac > 0.60 {
		t.Errorf("edible fraction = %.3f, want near UCI's 0.518", frac)
	}
	_ = cls
	// VeilType is constant.
	vt, _ := tbl.CatByName("VeilType")
	if vt.Cardinality() != 1 {
		t.Errorf("VeilType cardinality = %d, want 1", vt.Cardinality())
	}
}

func TestMushroomClassifierSignalExists(t *testing.T) {
	// The Simple Classifier task needs RingType=pendant to be a strong
	// predictor of Bruises=true.
	tbl := MushroomN(4000, 2)
	all := dataset.AllRows(tbl.NumRows())
	br, _ := tbl.CatByName("Bruises")
	rt, _ := tbl.CatByName("RingType")
	tp, fp, fn := 0, 0, 0
	for _, r := range all {
		pred := rt.Value(r) == "pendant"
		truth := br.Value(r) == "true"
		switch {
		case pred && truth:
			tp++
		case pred && !truth:
			fp++
		case !pred && truth:
			fn++
		}
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	f1 := 2 * precision * recall / (precision + recall)
	if f1 < 0.75 {
		t.Errorf("RingType=pendant F1 for Bruises=true = %.3f, want >= 0.75", f1)
	}
}

func TestMushroomSimilarGillColors(t *testing.T) {
	// Among {buff, white, brown, green}, the most similar pair by digest
	// similarity must be (brown, white) — the planted ground truth of
	// §6.2.2.
	tbl := MushroomN(6000, 3)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := dataset.AllRows(tbl.NumRows())
	gc, _ := v.Column("GillColor")
	digest := func(value string) *facet.Digest {
		code := gc.CodeOf(value)
		rows := all.Filter(func(r int) bool { return gc.Code(r) == code })
		return facet.Summarize(v, rows, true)
	}
	vals := []string{"buff", "white", "brown", "green"}
	digests := map[string]*facet.Digest{}
	for _, val := range vals {
		digests[val] = digest(val)
	}
	bestPair := ""
	bestSim := -1.0
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			s := facet.DigestSimilarity(digests[vals[i]], digests[vals[j]])
			if s > bestSim {
				bestSim = s
				bestPair = vals[i] + "/" + vals[j]
			}
		}
	}
	if bestPair != "white/brown" && bestPair != "brown/white" {
		t.Errorf("most similar pair = %s (sim %.3f), want brown/white", bestPair, bestSim)
	}
}

func TestMushroomAlternativeCondition(t *testing.T) {
	// StalkShape=enlarged ∧ SporePrintColor=chocolate identifies subtype
	// P1, and so does Odor=foul: their result sets must overlap heavily.
	tbl := MushroomN(6000, 4)
	target, err := compiledRows(tbl, &expr.And{Kids: []expr.Expr{
		&expr.Cmp{Attr: "StalkShape", Op: expr.Eq, Str: "enlarged"},
		&expr.Cmp{Attr: "SporePrintColor", Op: expr.Eq, Str: "chocolate"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := compiledRows(tbl, &expr.Cmp{Attr: "Odor", Op: expr.Eq, Str: "foul"})
	if err != nil {
		t.Fatal(err)
	}
	if len(target) < 300 {
		t.Fatalf("target condition matches only %d rows", len(target))
	}
	if j := target.Jaccard(alt); j < 0.7 {
		t.Errorf("alternative condition overlap = %.3f, want >= 0.7", j)
	}
}

func TestMushroomChiSquareRanksOdorHighly(t *testing.T) {
	tbl := MushroomN(4000, 5)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var candidates []string
	for _, a := range MushroomSchema() {
		if a.Name != "Class" {
			candidates = append(candidates, a.Name)
		}
	}
	scores, err := featsel.ChiSquare(v, dataset.AllRows(tbl.NumRows()), "Class", candidates)
	if err != nil {
		t.Fatal(err)
	}
	top3 := map[string]bool{scores[0].Attr: true, scores[1].Attr: true, scores[2].Attr: true}
	if !top3["Odor"] {
		t.Errorf("Odor not in top-3 class predictors: %v %v %v", scores[0].Attr, scores[1].Attr, scores[2].Attr)
	}
	// Constant VeilType must rank at the bottom with stat 0.
	for _, s := range scores {
		if s.Attr == "VeilType" && s.Stat != 0 {
			t.Errorf("constant attribute has stat %g", s.Stat)
		}
	}
}

func TestMushroomDeterministic(t *testing.T) {
	a, b := MushroomN(300, 9), MushroomN(300, 9)
	for r := 0; r < 300; r++ {
		for c := 0; c < a.NumCols(); c++ {
			if a.CellString(r, c) != b.CellString(r, c) {
				t.Fatalf("cell (%d,%d) differs between same-seed runs", r, c)
			}
		}
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
