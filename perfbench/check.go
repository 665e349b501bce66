package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// scanner answers filter predicates by a plain scan over every row's
// coded value, independent of posting sets and bitmaps.
type scanner struct {
	v     *dataview.View
	codes map[string][]int
}

func newScanner(v *dataview.View) *scanner {
	s := &scanner{v: v, codes: map[string][]int{}}
	for _, col := range v.Columns() {
		cs := make([]int, v.Rows())
		for r := range cs {
			cs[r] = col.Code(r)
		}
		s.codes[col.Attr] = cs
	}
	return s
}

// rows returns the rows that carry one of each filter's values.
func (s *scanner) rows(fs []Filter) (dataset.RowSet, error) {
	type pred struct {
		codes []int
		want  map[int]bool
	}
	preds := make([]pred, 0, len(fs))
	for _, f := range fs {
		col, err := s.v.Column(f.Attr)
		if err != nil {
			return nil, err
		}
		p := pred{codes: s.codes[f.Attr], want: map[int]bool{}}
		for _, val := range f.Values {
			p.want[col.CodeOf(val)] = true
		}
		preds = append(preds, p)
	}
	var out dataset.RowSet
rows:
	for r := 0; r < s.v.Rows(); r++ {
		for _, p := range preds {
			if !p.want[p.codes[r]] {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// checkCounts compares /query counts with the row scan.
func checkCounts(s *scanner, recs []countRec) []string {
	var bad []string
	for _, c := range recs {
		rows, err := s.rows(c.filters)
		if err != nil {
			bad = append(bad, fmt.Sprintf("query %v: %v", c.filters, err))
		} else if len(rows) != c.count {
			bad = append(bad, fmt.Sprintf("query %v: served count %d, row scan %d", c.filters, c.count, len(rows)))
		}
	}
	return bad
}

// checkCADs rebuilds sampled /cad answers in process with core.BuildContext
// on the same snapshot and seed, over the row scan's result set, and
// compares the view JSON and text byte for byte. The per-response id is
// the view's Name, so the rebuilt view takes the served id before
// encoding; timings and cache flags are not part of either.
func checkCADs(s *scanner, seed int64, recs []cadRec) []string {
	var bad []string
	for _, c := range recs {
		rows, err := s.rows(c.spec.Filters)
		if err != nil {
			bad = append(bad, fmt.Sprintf("cad %s: %v", c.spec.Pivot, err))
			continue
		}
		view, _, err := core.BuildContext(context.Background(), s.v, rows, core.Config{
			Pivot: c.spec.Pivot, PivotValues: c.spec.PivotValues, K: c.spec.K, MaxCompare: c.spec.MaxCompare,
			Seed: seed, Parallel: true,
		})
		if err != nil {
			bad = append(bad, fmt.Sprintf("cad %s: rebuild: %v", c.spec.Pivot, err))
			continue
		}
		text := core.Render(view, nil)
		view.Name = c.id
		js, err := json.Marshal(view)
		if err != nil {
			bad = append(bad, fmt.Sprintf("cad %s: encode: %v", c.spec.Pivot, err))
			continue
		}
		if sha256.Sum256(js) != c.view {
			bad = append(bad, fmt.Sprintf("cad %s %v: served view differs from the rebuild", c.spec.Pivot, c.spec.Filters))
		}
		if sha256.Sum256([]byte(text)) != c.text {
			bad = append(bad, fmt.Sprintf("cad %s %v: served text differs from the rebuild", c.spec.Pivot, c.spec.Filters))
		}
	}
	return bad
}

// checkIngest checks the table grew by exactly the acknowledged rows.
func checkIngest(e *env, rec *recorder) []string {
	var ds struct {
		Datasets []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"datasets"`
	}
	c := newClient(e.api)
	defer c.close()
	if err := c.getJSON("/datasets", &ds); err != nil {
		return []string{"datasets: " + err.Error()}
	}
	want := e.rows0 + rec.appended
	for _, d := range ds.Datasets {
		if d.Name != e.w.dataset {
			continue
		}
		if d.Rows != want || rec.lastRows > want {
			return []string{fmt.Sprintf("ingest: %d rows after appending %d to %d (last answer said %d)",
				d.Rows, rec.appended, e.rows0, rec.lastRows)}
		}
		return nil
	}
	return []string{"datasets: " + e.w.dataset + " not listed"}
}

// checkSamePlan checks the replica derived the server's catalog and the
// same session sequence, so paired ops are the same ops.
func checkSamePlan(a, b *planner, n int) []string {
	if !reflect.DeepEqual(a.cat, b.cat) {
		return []string{"replica catalog differs from /schema"}
	}
	for j := 0; j < n; j++ {
		if !reflect.DeepEqual(a.session(j), b.session(j)) {
			return []string{fmt.Sprintf("replica session %d differs from the served one", j)}
		}
	}
	return nil
}
