package core

import (
	"context"
	"fmt"
	"sort"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/featsel"
)

// BuildReference is the row-at-a-time reference build: it partitions the
// result set by pivot code with one sequential sweep, ranks Compare
// Attributes with the row-set chi-square sweep, and samples with the
// plain systematic sampler — no posting bitmaps until the partition is
// packed for the shared tail. It shares BuildContext's validation and
// its per-pivot-row clustering, labeling and top-k, and its CAD View is
// byte-identical to BuildContext's for every input; the equivalence
// suites pin the production build to it. It has no production caller
// and no timing decomposition.
func BuildReference(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, error) {
	cfg, pivotCol, err := buildHead(ctx, v, rows, cfg)
	if err != nil {
		return nil, err
	}
	pivotValues, rowsByValue, err := resolvePivotValues(pivotCol, rows, cfg.PivotValues)
	if err != nil {
		return nil, err
	}
	rowsV := make(dataset.RowSet, 0, len(rows))
	for _, val := range pivotValues {
		rowsV = append(rowsV, rowsByValue[val]...)
	}
	sort.Ints(rowsV)
	if len(rowsV) == 0 {
		return nil, errNoPivotRows
	}
	compareAttrs, err := selectCompareAttrs(ctx, v, rowsV, cfg)
	if err != nil {
		return nil, err
	}
	bmByValue := make(map[string]*dataset.Bitmap, len(rowsByValue))
	for val, rs := range rowsByValue {
		bmByValue[val] = dataset.FromRowSet(v.Rows(), rs)
	}
	var tm Timings
	return buildPivotRows(ctx, v, pivotValues, bmByValue, compareAttrs, cfg, &tm)
}

// resolvePivotValues returns the pivot rows' display order and each
// value's row subset. Explicit values are validated against the column
// domain; the default order is descending result-set frequency.
func resolvePivotValues(pivotCol *dataview.Column, rows dataset.RowSet, explicit []string) ([]string, map[string]dataset.RowSet, error) {
	byCode := partitionRowsByCode(pivotCol, rows)
	rowsByValue := make(map[string]dataset.RowSet)

	if len(explicit) > 0 {
		seen := make(map[string]bool)
		var values []string
		for _, val := range explicit {
			if seen[val] {
				continue
			}
			seen[val] = true
			code := pivotCol.CodeOf(val)
			if code < 0 {
				return nil, nil, fmt.Errorf("core: pivot attribute %q has no value %q", pivotCol.Attr, val)
			}
			values = append(values, val)
			rowsByValue[val] = byCode[code]
		}
		return values, rowsByValue, nil
	}

	type vc struct {
		val   string
		count int
	}
	var ranked []vc
	for code, rs := range byCode {
		ranked = append(ranked, vc{pivotCol.Label(code), len(rs)})
		rowsByValue[pivotCol.Label(code)] = rs
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].val < ranked[j].val
	})
	values := make([]string, len(ranked))
	for i, r := range ranked {
		values[i] = r.val
	}
	return values, rowsByValue, nil
}

// partitionRowsByCode groups a row set by pivot code in one sequential
// sweep, preserving the input order within each code.
func partitionRowsByCode(pivotCol *dataview.Column, rows dataset.RowSet) map[int]dataset.RowSet {
	byCode := make(map[int]dataset.RowSet)
	segs := pivotCol.CodeSegs()
	for _, r := range rows {
		c := int(segs[r>>dataset.SegmentBits][r&dataset.SegmentMask])
		// NaN pivot cells code -1: they belong to no pivot value, exactly
		// as in the bitmap partition, whose postings never contain NaN
		// rows.
		if c >= 0 {
			byCode[c] = append(byCode[c], r)
		}
	}
	return byCode
}

// selectCompareAttrs applies the paper's Compare Attribute policy:
// explicitly selected attributes first, then automatically ranked ones
// that pass the significance threshold, up to MaxCompare total.
func selectCompareAttrs(ctx context.Context, v *dataview.View, rowsV dataset.RowSet, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	rankRows := rowsV
	if cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < len(rankRows) {
		rankRows = sampleRows(rankRows, cfg.FeatureSampleSize, cfg.Seed)
	}
	scores, err := featsel.ChiSquareContext(ctx, v, rankRows, cfg.Pivot, candidates)
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// sampleRows takes a deterministic systematic sample of exactly
// min(size, len(rows)) rows: evenly spaced positions rotated by a
// seed-derived offset, wrapping around the end of the slice. (A plain
// strided scan from a nonzero offset runs off the end and under-fills
// the sample — the wrap keeps both the size and the uniform spacing.)
func sampleRows(rows dataset.RowSet, size int, seed int64) dataset.RowSet {
	n := len(rows)
	if size >= n {
		return append(dataset.RowSet(nil), rows...)
	}
	offset := int(seed % int64(n))
	if offset < 0 {
		offset += n
	}
	out := make(dataset.RowSet, 0, size)
	for j := 0; j < size; j++ {
		out = append(out, rows[(offset+j*n/size)%n])
	}
	return out
}
