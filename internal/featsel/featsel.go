// Package featsel ranks attributes by how much contrast they induce
// between the values of a class attribute — the paper's Problem 1.1
// (Compare Attribute selection). The primary ranker is the chi-square
// statistic the paper uses (§3.1.1, via Weka's ChiSquare); mutual
// information and ReliefF (cited as [18]) are provided as ablations.
package featsel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/stats"
)

// Score is one attribute's relevance to the class attribute.
type Score struct {
	// Attr is the candidate attribute name.
	Attr string
	// Stat is the ranking statistic (chi-square X², mutual information
	// in nats, or ReliefF weight, depending on the ranker).
	Stat float64
	// PValue is the chi-square significance (1 for rankers without a
	// significance test).
	PValue float64
}

// classCodes extracts the class code of each row, remapped densely so
// only classes present in rows occupy contingency-table columns.
func classCodes(v *dataview.View, rows dataset.RowSet, classAttr string) ([]int, int, error) {
	cc, err := v.Column(classAttr)
	if err != nil {
		return nil, 0, err
	}
	remap := make([]int, cc.Cardinality())
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	codes := make([]int, len(rows))
	for i, r := range rows {
		c := cc.Code(r)
		if c < 0 {
			// NaN class cells belong to no class: the bitmap fill path
			// derives classes from postings, which never contain NaN
			// rows. Mark the row classless; consumers skip it.
			codes[i] = -1
			continue
		}
		if remap[c] < 0 {
			remap[c] = next
			next++
		}
		codes[i] = remap[c]
	}
	return codes, next, nil
}

// resolveCandidates validates the candidate attributes and returns their
// columns, hoisting the per-name lookups out of the ranking loops.
func resolveCandidates(v *dataview.View, classAttr string, candidates []string) ([]*dataview.Column, error) {
	cols := make([]*dataview.Column, len(candidates))
	for i, name := range candidates {
		if name == classAttr {
			return nil, fmt.Errorf("featsel: candidate %q is the class attribute", name)
		}
		col, err := v.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = col
	}
	return cols, nil
}

// fillWork is the row-sweep size below which chunk-parallel table
// construction is not worth the goroutine handoff.
const fillWork = 1 << 15

// minConcurrentCandidates gates per-candidate concurrent statistic
// computation; small candidate sets rank inline.
const minConcurrentCandidates = 8

// ctxCheckRows is how many swept rows pass between cancellation checks in
// a contingency fill chunk.
const ctxCheckRows = 1 << 14

// fillTablesScan builds one contingency table per candidate column in a
// single sweep over the rows (instead of one sweep per candidate), with
// the sweep chunked over the worker pool when it is large. Table cells
// are integer counts, so the chunk merge is order-independent and the
// result is identical to a sequential fill. The sweep checks ctx every
// ctxCheckRows rows — the contingency fill is the Compare-Attribute
// stage's cancellation checkpoint — and returns ctx's error when done.
// This is the reference path; fillTablesBitmap produces identical tables
// from posting bitmaps (asserted cell-for-cell by the equivalence tests).
func fillTablesScan(ctx context.Context, cols []*dataview.Column, rows dataset.RowSet, cls []int, nClasses int) ([]*stats.ContingencyTable, error) {
	tables := make([]*stats.ContingencyTable, len(cols))
	codes := make([]segCodes, len(cols))
	for j, col := range cols {
		tables[j] = stats.NewContingencyTable(col.Cardinality(), nClasses)
		codes[j] = col.CodeSegs()
	}
	if len(rows)*len(cols) < fillWork {
		for i, r := range rows {
			if i%ctxCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			c := cls[i]
			if c < 0 {
				continue // classless (NaN) row
			}
			for j := range codes {
				// Negative candidate codes are NaN cells; the bitmap fill
				// path's postings never contain those rows.
				if v := int(codes[j].at(r)); v >= 0 {
					tables[j].Add(v, c)
				}
			}
		}
		return tables, nil
	}
	// Morsel-sized spans claimed dynamically: skewed segments (a span of
	// rows hitting a high-cardinality table region) don't strand the rest
	// of the sweep behind one static chunk.
	minRows := fillWork / len(cols)
	var mu sync.Mutex
	var canceled atomic.Bool
	parallel.Morsels(len(rows), minRows, func(lo, hi int) {
		local := make([]*stats.ContingencyTable, len(cols))
		for j, col := range cols {
			local[j] = stats.NewContingencyTable(col.Cardinality(), nClasses)
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckRows == 0 && ctx.Err() != nil {
				canceled.Store(true)
				return
			}
			r := rows[i]
			c := cls[i]
			if c < 0 {
				continue // classless (NaN) row
			}
			for j := range codes {
				if v := int(codes[j].at(r)); v >= 0 {
					local[j].Add(v, c)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for j := range tables {
			for x, row := range local[j].Counts {
				dst := tables[j].Counts[x]
				for y, n := range row {
					dst[y] += n
				}
			}
		}
	})
	if canceled.Load() {
		return nil, ctx.Err()
	}
	return tables, nil
}

// segCodes indexes a column's per-segment code slices by global row id.
// The shift/mask pair costs one extra array lookup over the old
// contiguous slice; morsel loops that stay within one segment should
// hoist the inner slice instead.
type segCodes [][]int32

func (s segCodes) at(r int) int32 {
	return s[r>>dataset.SegmentBits][r&dataset.SegmentMask]
}

// classBitmaps derives the contingency columns from posting bitmaps: one
// full-table class posting per class value present in bm, ordered by the
// class's first row within bm. Cells later intersect these with bm in
// the same fused popcount (AndLen3), so the postings are returned as
// aliases instead of materialized class ∩ bm intersections. Rows ascend
// within a bitmap, so first-row order is exactly the first-occurrence
// order classCodes produces over a sorted row set — the remap, and
// therefore every downstream float summation order, matches the scan
// path bit for bit.
func classBitmaps(v *dataview.View, bm *dataset.Bitmap, classAttr string) ([]*dataset.Bitmap, []int, error) {
	cc, err := v.Column(classAttr)
	if err != nil {
		return nil, nil, err
	}
	posts := cc.Postings()
	type cls struct{ code, first int }
	present := make([]cls, 0, len(posts))
	for code, p := range posts {
		if f := p.AndFirst(bm); f >= 0 {
			present = append(present, cls{code, f})
		}
	}
	sort.Slice(present, func(i, j int) bool { return present[i].first < present[j].first })
	bmps := make([]*dataset.Bitmap, len(present))
	codes := make([]int, len(present))
	for y, c := range present {
		bmps[y] = posts[c.code]
		codes[y] = c.code
	}
	return bmps, codes, nil
}

// scanCostRatio calibrates the per-candidate dispatch between the two
// fill strategies: one coded-row lookup costs roughly this many fused
// AND+popcount word operations (cached codes are array loads, posting
// words stream at ~1.5ns on the dev box). A candidate fills by bitmap
// when card·classes·words beats rows·scanCostRatio.
const scanCostRatio = 6

// fillByBitmap is the per-candidate fill dispatch: true when sweeping
// col's postings (card·classes·words fused AND+popcount words) is no
// dearer than scanning nRows coded rows. A candidate whose postings are
// not yet materialized must promise roughly double the win before the
// bitmap branch is worth the one-time posting build it triggers.
func fillByBitmap(col *dataview.Column, nClasses, words, nRows int) bool {
	cost := col.Cardinality() * nClasses * words
	if !col.PostingsReady() {
		cost *= 2
	}
	return cost <= nRows*scanCostRatio
}

// fillTablesBitmap builds the same contingency tables as fillTablesScan
// by bitmap algebra: cell (x, y) of candidate j is the fused
// intersect-popcount |posting_j[x] ∩ classBmp[y]|, no row enumerated.
// Work scales with card·classes·words instead of rows·candidates, so it
// dispatches per candidate on estimated cost (fillByBitmap): candidates
// whose posting sweep would cost more than the row sweep (high
// cardinality, small row sets) fall back to one shared fillTablesScan
// over the materialized rows. Cells are exact counts either way, so the split is
// invisible in the output. Cancellation is checked per candidate.
func fillTablesBitmap(ctx context.Context, v *dataview.View, cols []*dataview.Column, bm *dataset.Bitmap, classAttr string) ([]*stats.ContingencyTable, int, error) {
	clsBmps, clsCodes, err := classBitmaps(v, bm, classAttr)
	if err != nil {
		return nil, 0, err
	}
	nClasses := len(clsBmps)
	nRows := bm.Len()
	words := (bm.Universe() + 63) / 64

	tables := make([]*stats.ContingencyTable, len(cols))
	byBitmap := make([]bool, len(cols))
	var catCols []int
	for j, col := range cols {
		byBitmap[j] = fillByBitmap(col, nClasses, words, nRows)
		if byBitmap[j] && col.Kind == dataset.Categorical {
			catCols = append(catCols, col.Col)
		}
	}
	// Build the chosen categorical postings as one batch under the table
	// index's lock; the per-candidate Postings() calls below then adopt
	// them. Scan-side candidates never build postings at all.
	if len(catCols) > 0 {
		v.Table().Index().PostingsAll(catCols)
	}
	var scanCols []*dataview.Column
	var scanIdx []int
	var bmIdx []int
	for j := range cols {
		if byBitmap[j] {
			bmIdx = append(bmIdx, j)
		} else {
			scanCols = append(scanCols, cols[j])
			scanIdx = append(scanIdx, j)
		}
	}
	// Each bitmap-side candidate is an independent posting sweep writing
	// its own table slot, so the set fans out over the worker pool; cells
	// are exact popcounts, so scheduling never shows in the output.
	var canceled atomic.Bool
	fillOne := func(i int) {
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		j := bmIdx[i]
		col := cols[j]
		t := stats.NewContingencyTable(col.Cardinality(), nClasses)
		posts := col.Postings()
		for x := 0; x < col.Cardinality() && x < len(posts); x++ {
			for y, cb := range clsBmps {
				if n := posts[x].AndLen3(cb, bm); n > 0 {
					t.Counts[x][y] = n
				}
			}
		}
		tables[j] = t
	}
	if len(bmIdx) >= minConcurrentCandidates {
		parallel.Do(len(bmIdx), fillOne)
	} else {
		for i := range bmIdx {
			fillOne(i)
		}
	}
	if canceled.Load() {
		return nil, 0, ctx.Err()
	}
	if len(scanCols) > 0 {
		// Shared row sweep for the candidates where scanning is cheaper.
		// The class remap below reproduces classCodes' first-occurrence
		// numbering (clsBmps are already in that order).
		cc, err := v.Column(classAttr)
		if err != nil {
			return nil, 0, err
		}
		remap := make([]int, cc.Cardinality())
		for y, code := range clsCodes {
			remap[code] = y
		}
		rows := bm.ToRowSet()
		cls := make([]int, len(rows))
		for i, r := range rows {
			if c := cc.Code(r); c >= 0 {
				cls[i] = remap[c]
			} else {
				cls[i] = -1 // classless (NaN) row; the scan fill skips it
			}
		}
		scanTables, err := fillTablesScan(ctx, scanCols, rows, cls, nClasses)
		if err != nil {
			return nil, 0, err
		}
		for i, j := range scanIdx {
			tables[j] = scanTables[i]
		}
	}
	return tables, nClasses, nil
}

// rankEach computes out[j] = score(j) for every candidate, concurrently
// when the candidate set is large. Each slot is written exactly once, so
// the output does not depend on scheduling.
func rankEach(n int, score func(j int) (Score, error)) ([]Score, error) {
	out := make([]Score, n)
	errs := make([]error, n)
	rank := func(j int) { out[j], errs[j] = score(j) }
	if n >= minConcurrentCandidates {
		parallel.Do(n, rank)
	} else {
		for j := 0; j < n; j++ {
			rank(j)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ChiSquare ranks candidates by the chi-square statistic of their
// contingency table against the class attribute, descending —
// ChiSquareContext without cancellation.
func ChiSquare(v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string) ([]Score, error) {
	return ChiSquareContext(context.Background(), v, rows, classAttr, candidates)
}

// ChiSquareContext ranks candidates by the chi-square statistic of their
// contingency table against the class attribute, descending. PValue
// carries each attribute's significance so callers can apply the paper's
// threshold-relevance cut. The contingency sweep honors ctx cancellation.
func ChiSquareContext(ctx context.Context, v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string) ([]Score, error) {
	cols, err := resolveCandidates(v, classAttr, candidates)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("featsel: empty row set")
	}
	cls, nClasses, err := classCodes(v, rows, classAttr)
	if err != nil {
		return nil, err
	}
	tables, err := fillTablesScan(ctx, cols, rows, cls, nClasses)
	if err != nil {
		return nil, err
	}
	return chiScores(tables, candidates)
}

// ChiSquareBitmapContext is ChiSquareContext with the row subset given as
// a bitmap: contingency tables come from posting-bitmap algebra (see
// fillTablesBitmap) and the scores are identical to the scan path's. The
// bitmap must be over the view's row universe. Each candidate's table
// fills by posting sweep or by row scan, whichever its estimated cost
// favors; the cells are exact counts either way.
func ChiSquareBitmapContext(ctx context.Context, v *dataview.View, bm *dataset.Bitmap, classAttr string, candidates []string) ([]Score, error) {
	cols, err := resolveCandidates(v, classAttr, candidates)
	if err != nil {
		return nil, err
	}
	if bm.Len() == 0 {
		return nil, fmt.Errorf("featsel: empty row set")
	}
	tables, _, err := fillTablesBitmap(ctx, v, cols, bm, classAttr)
	if err != nil {
		return nil, err
	}
	return chiScores(tables, candidates)
}

// chiScores turns per-candidate contingency tables into the sorted
// chi-square ranking; shared by the scan and bitmap entry points.
func chiScores(tables []*stats.ContingencyTable, candidates []string) ([]Score, error) {
	out, err := rankEach(len(candidates), func(j int) (Score, error) {
		res, err := stats.ChiSquare(tables[j])
		if err != nil {
			return Score{}, fmt.Errorf("featsel: attribute %q: %w", candidates[j], err)
		}
		return Score{Attr: candidates[j], Stat: res.Stat, PValue: res.PValue}, nil
	})
	if err != nil {
		return nil, err
	}
	sortScores(out)
	return out, nil
}

// MutualInformation ranks candidates by I(X; class) in nats, descending —
// MutualInformationContext without cancellation.
func MutualInformation(v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string) ([]Score, error) {
	return MutualInformationContext(context.Background(), v, rows, classAttr, candidates)
}

// MutualInformationContext ranks candidates by I(X; class) in nats,
// descending. The contingency sweep honors ctx cancellation.
func MutualInformationContext(ctx context.Context, v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string) ([]Score, error) {
	cols, err := resolveCandidates(v, classAttr, candidates)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("featsel: empty row set")
	}
	cls, nClasses, err := classCodes(v, rows, classAttr)
	if err != nil {
		return nil, err
	}
	tables, err := fillTablesScan(ctx, cols, rows, cls, nClasses)
	if err != nil {
		return nil, err
	}
	n := float64(len(rows))
	out, err := rankEach(len(candidates), func(j int) (Score, error) {
		// The joint, x, and y marginals are the integer cells of the
		// candidate's contingency table, so MI reduces to one pass over
		// it. The counts match a per-candidate sweep exactly.
		joint := tables[j].Counts
		px := make([]float64, len(joint))
		py := make([]float64, nClasses)
		for x, row := range joint {
			for y, c := range row {
				px[x] += float64(c)
				py[y] += float64(c)
			}
		}
		var mi float64
		for x := range joint {
			if px[x] == 0 {
				continue
			}
			for y := range joint[x] {
				if joint[x][y] == 0 || py[y] == 0 {
					continue
				}
				pxy := float64(joint[x][y]) / n
				mi += pxy * math.Log(pxy*n*n/(px[x]*py[y]))
			}
		}
		return Score{Attr: candidates[j], Stat: mi, PValue: 1}, nil
	})
	if err != nil {
		return nil, err
	}
	sortScores(out)
	return out, nil
}

// ReliefFOptions configures the ReliefF ranker.
type ReliefFOptions struct {
	// Samples is the number of instances m to sample (default: all rows,
	// capped at 500).
	Samples int
	// Neighbors is k, the nearest hits/misses per class (default 5).
	Neighbors int
	// Seed drives instance sampling.
	Seed int64
}

// ReliefF ranks candidates with the multi-class ReliefF weight
// (Kononenko 1994) using Hamming distance over the coded attributes.
// Positive weights mean the attribute separates classes better than
// chance.
func ReliefF(v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string, opt ReliefFOptions) ([]Score, error) {
	cols, err := resolveCandidates(v, classAttr, candidates)
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("featsel: ReliefF needs at least 2 rows, got %d", len(rows))
	}
	if opt.Neighbors <= 0 {
		opt.Neighbors = 5
	}
	if opt.Samples <= 0 {
		opt.Samples = len(rows)
		if opt.Samples > 500 {
			opt.Samples = 500
		}
	}
	cls, nClasses, err := classCodes(v, rows, classAttr)
	if err != nil {
		return nil, err
	}
	// Classless (NaN) rows carry no supervision signal; drop them so the
	// sampling and neighbor search below see only labeled rows.
	if hasNegative(cls) {
		kept := rows[:0:0]
		keptCls := cls[:0:0]
		for i, c := range cls {
			if c >= 0 {
				kept = append(kept, rows[i])
				keptCls = append(keptCls, c)
			}
		}
		rows, cls = kept, keptCls
		if len(rows) < 2 {
			return nil, fmt.Errorf("featsel: ReliefF needs at least 2 labeled rows, got %d", len(rows))
		}
	}
	// Pre-extract codes: codes[i][a] for row index i, attribute a.
	codes := make([][]int, len(rows))
	for i, r := range rows {
		codes[i] = make([]int, len(cols))
		for a, c := range cols {
			codes[i][a] = c.Code(r)
		}
	}
	// Class priors.
	prior := make([]float64, nClasses)
	for _, c := range cls {
		prior[c]++
	}
	for i := range prior {
		prior[i] /= float64(len(rows))
	}

	dist := func(i, j int) int {
		d := 0
		for a := range cols {
			if codes[i][a] != codes[j][a] {
				d++
			}
		}
		return d
	}

	weights := make([]float64, len(cols))
	rng := rand.New(rand.NewSource(opt.Seed))
	perm := rng.Perm(len(rows))
	m := opt.Samples
	if m > len(rows) {
		m = len(rows)
	}

	type neighbor struct {
		idx int
		d   int
	}
	for s := 0; s < m; s++ {
		i := perm[s]
		// Nearest k neighbors per class.
		byClass := make([][]neighbor, nClasses)
		for j := range rows {
			if j == i {
				continue
			}
			byClass[cls[j]] = append(byClass[cls[j]], neighbor{j, dist(i, j)})
		}
		for c := range byClass {
			ns := byClass[c]
			sort.Slice(ns, func(a, b int) bool { return ns[a].d < ns[b].d })
			if len(ns) > opt.Neighbors {
				byClass[c] = ns[:opt.Neighbors]
			}
		}
		for a := range cols {
			// Hits: same class.
			hits := byClass[cls[i]]
			for _, h := range hits {
				if codes[i][a] != codes[h.idx][a] {
					weights[a] -= 1 / (float64(m) * float64(len(hits)))
				}
			}
			// Misses: each other class weighted by prior.
			for c, ns := range byClass {
				if c == cls[i] || len(ns) == 0 {
					continue
				}
				w := prior[c] / (1 - prior[cls[i]])
				for _, ms := range ns {
					if codes[i][a] != codes[ms.idx][a] {
						weights[a] += w / (float64(m) * float64(len(ns)))
					}
				}
			}
		}
	}
	out := make([]Score, len(cols))
	for a := range cols {
		out[a] = Score{Attr: candidates[a], Stat: weights[a], PValue: 1}
	}
	sortScores(out)
	return out, nil
}

// hasNegative reports whether any class code is negative (a NaN cell).
func hasNegative(cls []int) bool {
	for _, c := range cls {
		if c < 0 {
			return true
		}
	}
	return false
}

func sortScores(s []Score) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Stat != s[j].Stat {
			return s[i].Stat > s[j].Stat
		}
		return s[i].Attr < s[j].Attr
	})
}
