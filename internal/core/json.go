package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/jsonw"
)

// The paper expects "any real implementation to have a user-friendly
// interface layer on top of the query language"; these codecs give such
// a layer a wire format. The per-IUnit frequency vectors are included so
// a deserialized view still supports the similarity operations
// (HIGHLIGHT, REORDER) without access to the original table.

type iunitJSON struct {
	PivotValue  string         `json:"pivotValue"`
	Rank        int            `json:"rank"`
	Size        int            `json:"size"`
	Score       float64        `json:"score"`
	Labels      []Label        `json:"labels"`
	Rows        dataset.RowSet `json:"rows,omitempty"`
	Frequencies [][]float64    `json:"frequencies"`
}

type pivotRowJSON struct {
	Value  string       `json:"value"`
	Count  int          `json:"count"`
	IUnits []*iunitJSON `json:"iunits"`
}

type cadViewJSON struct {
	Name         string          `json:"name,omitempty"`
	Pivot        string          `json:"pivot"`
	CompareAttrs []string        `json:"compareAttrs"`
	K            int             `json:"k"`
	Tau          float64         `json:"tau"`
	Rows         []*pivotRowJSON `json:"rows"`
}

// MarshalJSON implements json.Marshaler for CADView.
func (v *CADView) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// AppendJSON appends the view's wire encoding to dst: the bytes
// json.Marshal writes for the cadViewJSON tree, field for field, written
// without reflection or an intermediate tree. A slice that is nil, or a
// pivot row or IUnit list that is empty, encodes as null; other empty
// slices encode as []; an IUnit's rows are omitted when empty. A NaN or
// infinite Tau, Score or frequency has no JSON form and returns an error.
func (v *CADView) AppendJSON(dst []byte) ([]byte, error) {
	b := append(slices.Grow(dst, v.encodedSizeHint()), '{')
	if v.Name != "" {
		b = append(b, `"name":`...)
		b = jsonw.AppendString(b, v.Name)
		b = append(b, ',')
	}
	b = append(b, `"pivot":`...)
	b = jsonw.AppendString(b, v.Pivot)
	b = append(b, `,"compareAttrs":`...)
	b = appendStrings(b, v.CompareAttrs)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(v.K), 10)
	b = append(b, `,"tau":`...)
	b, err := jsonw.AppendFloat(b, v.Tau)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"rows":`...)
	if len(v.Rows) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range v.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendPivotRow(b, row); err != nil {
				return dst, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// encodedSizeHint estimates AppendJSON's output length from the view's
// shape, so the buffer grows once rather than doubling its way up: seven
// bytes per member row id, three per frequency, and a fixed allowance
// per IUnit, label and label group besides their strings.
func (v *CADView) encodedSizeHint() int {
	n := 128 + len(v.Name) + len(v.Pivot)
	for _, a := range v.CompareAttrs {
		n += len(a) + 3
	}
	for _, row := range v.Rows {
		n += 48 + len(row.Value)
		for _, iu := range row.IUnits {
			n += 128 + len(iu.PivotValue) + 7*len(iu.Rows)
			for _, vec := range iu.freq {
				n += 3*len(vec) + 2
			}
			for _, l := range iu.Labels {
				n += 24 + len(l.Attr)
				for _, g := range l.Groups {
					n += 32
					for _, s := range g.Values {
						n += len(s) + 3
					}
				}
			}
		}
	}
	return n
}

func appendPivotRow(b []byte, row *PivotRow) ([]byte, error) {
	b = append(b, `{"value":`...)
	b = jsonw.AppendString(b, row.Value)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(row.Count), 10)
	b = append(b, `,"iunits":`...)
	if len(row.IUnits) == 0 {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, iu := range row.IUnits {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendIUnit(b, iu); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

func appendIUnit(b []byte, iu *IUnit) ([]byte, error) {
	b = append(b, `{"pivotValue":`...)
	b = jsonw.AppendString(b, iu.PivotValue)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(iu.Rank), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(iu.Size), 10)
	b = append(b, `,"score":`...)
	b, err := jsonw.AppendFloat(b, iu.Score)
	if err != nil {
		return b, err
	}
	b = append(b, `,"labels":`...)
	b = appendLabels(b, iu.Labels)
	if len(iu.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, r := range iu.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"frequencies":`...)
	if iu.freq == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, vec := range iu.freq {
		if i > 0 {
			b = append(b, ',')
		}
		if vec == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, f := range vec {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = jsonw.AppendFloat(b, f); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendLabels writes labels as encoding/json writes the untagged Label
// and LabelGroup structs: keys Attr, Groups, Values and Count.
func appendLabels(b []byte, labels []Label) []byte {
	if labels == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Attr":`...)
		b = jsonw.AppendString(b, l.Attr)
		b = append(b, `,"Groups":`...)
		if l.Groups == nil {
			b = append(b, "null}"...)
			continue
		}
		b = append(b, '[')
		for j, g := range l.Groups {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Values":`...)
			b = appendStrings(b, g.Values)
			b = append(b, `,"Count":`...)
			b = strconv.AppendInt(b, int64(g.Count), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.AppendString(b, s)
	}
	return append(b, ']')
}

// UnmarshalJSON implements json.Unmarshaler for CADView.
func (v *CADView) UnmarshalJSON(data []byte) error {
	var in cadViewJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decoding CAD View: %w", err)
	}
	if in.Pivot == "" {
		return fmt.Errorf("core: CAD View JSON missing pivot")
	}
	v.Name = in.Name
	v.Pivot = in.Pivot
	v.CompareAttrs = in.CompareAttrs
	v.K = in.K
	v.Tau = in.Tau
	v.Rows = nil
	for _, jr := range in.Rows {
		row := &PivotRow{Value: jr.Value, Count: jr.Count}
		for _, ji := range jr.IUnits {
			if len(ji.Frequencies) != len(in.CompareAttrs) {
				return fmt.Errorf("core: IUnit (%s, %d) has %d frequency vectors for %d Compare Attributes",
					ji.PivotValue, ji.Rank, len(ji.Frequencies), len(in.CompareAttrs))
			}
			row.IUnits = append(row.IUnits, &IUnit{
				PivotValue: ji.PivotValue,
				Rank:       ji.Rank,
				Size:       ji.Size,
				Score:      ji.Score,
				Labels:     ji.Labels,
				Rows:       ji.Rows,
				freq:       ji.Frequencies,
			})
		}
		v.Rows = append(v.Rows, row)
	}
	return nil
}
