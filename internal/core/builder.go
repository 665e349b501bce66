package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dbexplorer/internal/cluster"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/featsel"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/topk"
)

// Config parameterizes CAD View construction. Zero values take the
// defaults the paper uses in its examples and experiments.
type Config struct {
	// Pivot is the Pivot Attribute (required).
	Pivot string
	// PivotValues optionally restricts and orders the pivot rows (the
	// SQL example's five Makes). Empty means every value present in the
	// result set, by descending frequency.
	PivotValues []string
	// CompareAttrs are Compare Attributes the user selected explicitly
	// (the CREATE CADVIEW SELECT list); the builder fills the remaining
	// MaxCompare-N slots automatically.
	CompareAttrs []string
	// MaxCompare is M, the total Compare Attribute budget imposed by
	// screen width (LIMIT COLUMNS; default 5).
	MaxCompare int
	// K is the number of IUnits kept per pivot value (IUNITS; default 3).
	K int
	// L is the number of candidate IUnits generated before diversified
	// top-k selection (default ceil(1.5·K), the paper's system tuning
	// suggestion).
	L int
	// Alpha sets the IUnit similarity threshold τ = Alpha·|I|
	// (default 0.7).
	Alpha float64
	// Significance is the chi-square p-value cut for automatically
	// selected Compare Attributes (default 0.05).
	Significance float64
	// Preference scores IUnits for top-k ranking (default ByClusterSize).
	Preference Preference
	// Seed makes clustering deterministic.
	Seed int64
	// FeatureSampleSize, when > 0, ranks Compare Attributes on at most
	// that many rows (§6.3 Optimization 1).
	FeatureSampleSize int
	// ClusterSampleSize, when > 0, fits cluster centers on at most that
	// many rows per pivot value (§6.3 Optimization 1).
	ClusterSampleSize int
	// GreedyTopK swaps the exact diversified top-k search for the
	// greedy heuristic the paper warns about — an ablation knob only.
	GreedyTopK bool
	// AutoL, when set, chooses the number of generated IUnits per pivot
	// value by sweeping plausible l values (K .. 2K+2) and keeping the
	// clustering with the best silhouette — the paper's §2.2.2
	// alternative to the fixed l = 1.5K rule. L is then the sweep's
	// upper bound when explicitly set.
	AutoL bool
	// Parallel builds the pivot rows concurrently on a worker pool
	// bounded by GOMAXPROCS, so high-cardinality pivots never spawn one
	// goroutine (and one encoding) per value at a time. The result is
	// identical to the sequential build (all randomness is seeded per
	// pivot value); only wall-clock changes.
	Parallel bool
	// Labeling controls cluster label construction.
	Labeling LabelOptions
}

func (c Config) withDefaults() Config {
	if c.MaxCompare <= 0 {
		c.MaxCompare = 5
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.L <= 0 {
		c.L = int(math.Ceil(1.5 * float64(c.K)))
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.7
	}
	if c.Significance <= 0 {
		c.Significance = 0.05
	}
	if c.Preference == nil {
		c.Preference = ByClusterSize
	}
	return c
}

// Timings decomposes CAD View construction time the way Figure 8 reports
// it: posting-index warm-up, Compare Attribute selection, IUnit
// generation (clustering), and everything else (labeling, ranking,
// top-k, similarity). Index is the one-off cost of building the posting
// bitmaps the bitmap pipeline consumes; it lands on the first build over
// a table and is ~0 afterwards. Keeping it as its own stage stops that
// warm-up from being misattributed to feature selection in EXPLAIN and
// diagnostics.
type Timings struct {
	Index         time.Duration
	CompareSelect time.Duration
	Cluster       time.Duration
	Other         time.Duration

	// ClusterDetail splits the k-means portion of the Cluster stage into
	// Lloyd phases (seed / assign / update / reseed), so the next
	// clustering bottleneck is visible in EXPLAIN and /debug/metrics
	// without a profiler. It is a sub-breakdown of Cluster, not a fifth
	// stage: it does not enter Total(), and the gap between Cluster and
	// its sum is the one-hot encoding cost.
	ClusterDetail cluster.StageTimes
}

// Total returns the end-to-end construction time.
func (t Timings) Total() time.Duration {
	return t.Index + t.CompareSelect + t.Cluster + t.Other
}

// Stages returns the named stage durations in report order, so metrics
// layers can export the Figure-8 decomposition without knowing the
// struct's fields.
func (t Timings) Stages() []struct {
	Name string
	D    time.Duration
} {
	return []struct {
		Name string
		D    time.Duration
	}{
		{"index", t.Index},
		{"compare_select", t.CompareSelect},
		{"cluster", t.Cluster},
		{"other", t.Other},
	}
}

// Build constructs a CAD View over the result set rows of v's table
// (paper Problem 1) — BuildContext without cancellation.
func Build(v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, Timings, error) {
	return BuildContext(context.Background(), v, rows, cfg)
}

// BuildContext constructs a CAD View over the result set rows of v's
// table (paper Problem 1). It returns the view together with its
// construction timing decomposition. Every stage runs on posting bitmaps
// over the view's row snapshot: the pivot partition intersects the pivot
// postings with the result bitmap, and Compare Attribute selection runs
// the contingency sweep as intersect-popcounts with a per-candidate
// fallback to a row scan where that is cheaper. BuildReference is the
// row-at-a-time oracle it is held byte-identical to. The build has
// cancellation checkpoints in every expensive stage — the
// feature-selection contingency sweep, each k-means Lloyd iteration, the
// diversified top-k expansion, and between pivot rows — so when ctx is
// canceled or its deadline passes the build stops promptly and returns
// ctx's error.
func BuildContext(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, Timings, error) {
	var tm Timings
	cfg, pivotCol, err := buildHead(ctx, v, rows, cfg)
	if err != nil {
		return nil, tm, err
	}

	// Enter bitmap algebra once at the top: pack the result set over the
	// view's row snapshot (not the live table, which may have grown since
	// the view was built) and warm the pivot's posting sets, so the
	// one-off posting construction is attributed to the Index stage
	// instead of smeared over feature selection. On a warm table this
	// stage is the cost of packing one bitmap.
	start := time.Now()
	bm := rows.Bitmap(v.Rows())
	warmPivotPostings(v, cfg.Pivot)
	tm.Index = time.Since(start)

	pivotValues, bmByValue, err := resolvePivotValuesBitmap(pivotCol, bm, cfg.PivotValues)
	if err != nil {
		return nil, tm, err
	}

	// Problem 1.1: Compare Attribute selection over the rows that carry
	// the selected pivot values. With default (all-present) pivot values
	// the union of the per-value posting intersections is exactly the
	// result set.
	bmV := bm
	if len(cfg.PivotValues) > 0 {
		bmV = dataset.NewBitmap(bm.Universe())
		for _, val := range pivotValues {
			if b := bmByValue[val]; b != nil {
				bmV.OrWith(b)
			}
		}
	}
	if bmV.Len() == 0 {
		return nil, tm, errNoPivotRows
	}
	start = time.Now()
	compareAttrs, err := selectCompareAttrsBitmap(ctx, v, bmV, cfg)
	tm.CompareSelect = time.Since(start)
	if err != nil {
		return nil, tm, err
	}
	view, err := buildPivotRows(ctx, v, pivotValues, bmByValue, compareAttrs, cfg, &tm)
	if err != nil {
		return nil, tm, err
	}
	return view, tm, nil
}

// errNoPivotRows reports a result set with no row carrying any of the
// selected pivot values.
var errNoPivotRows = errors.New("core: no result rows carry the selected pivot values")

// buildHead is the validation every build entry point starts with: the
// fault point, config defaults, the pivot column, and a non-empty result
// set.
func buildHead(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (Config, *dataview.Column, error) {
	if err := fault.Hit(ctx, fault.PointCoreBuild); err != nil {
		return cfg, nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Pivot == "" {
		return cfg, nil, fmt.Errorf("core: no pivot attribute")
	}
	pivotCol, err := v.Column(cfg.Pivot)
	if err != nil {
		return cfg, nil, err
	}
	if len(rows) == 0 {
		return cfg, nil, fmt.Errorf("core: empty result set")
	}
	return cfg, pivotCol, nil
}

// buildPivotRows is the tail every build entry point ends with: given the
// pivot values in display order, each value's row subset as a bitmap
// over the view's row snapshot, and the chosen Compare Attributes, it
// runs Problems 1.2 and 2 per pivot value — concurrently under
// cfg.Parallel — and assembles the CAD View. Cluster and Other time
// accumulate into tm.
func buildPivotRows(ctx context.Context, v *dataview.View, pivotValues []string, bmByValue map[string]*dataset.Bitmap, compareAttrs []string, cfg Config, tm *Timings) (*CADView, error) {
	if len(compareAttrs) == 0 {
		return nil, fmt.Errorf("core: no Compare Attributes available for pivot %q", cfg.Pivot)
	}
	view := &CADView{
		Pivot:        cfg.Pivot,
		CompareAttrs: compareAttrs,
		K:            cfg.K,
		Tau:          cfg.Alpha * float64(len(compareAttrs)),
	}
	for _, val := range pivotValues {
		row := &PivotRow{Value: val}
		if b := bmByValue[val]; b != nil {
			row.Count = b.Len()
		}
		view.Rows = append(view.Rows, row)
	}
	if !cfg.Parallel {
		for vi, row := range view.Rows {
			if err := buildPivotRow(ctx, v, view, row, bmByValue[row.Value], cfg, int64(vi), tm); err != nil {
				return nil, err
			}
		}
		return view, nil
	}
	errs := make([]error, len(view.Rows))
	times := make([]Timings, len(view.Rows))
	parallel.Do(len(view.Rows), func(vi int) {
		row := view.Rows[vi]
		errs[vi] = buildPivotRow(ctx, v, view, row, bmByValue[row.Value], cfg, int64(vi), &times[vi])
	})
	for vi := range view.Rows {
		if errs[vi] != nil {
			return nil, errs[vi]
		}
		tm.Cluster += times[vi].Cluster
		tm.Other += times[vi].Other
		tm.ClusterDetail.Add(times[vi].ClusterDetail)
	}
	return view, nil
}

// buildPivotRow runs Problems 1.2 and 2 for one pivot value: unpack its
// rows, encode, cluster (with the fixed-l or auto-l policy), label,
// score, and keep the diversified top-k. A nil or empty bitmap leaves
// the row without IUnits. Timing accumulates into tm.
func buildPivotRow(ctx context.Context, v *dataview.View, view *CADView, row *PivotRow, bmVal *dataset.Bitmap, cfg Config, valIndex int64, tm *Timings) error {
	if row.Count == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	startCluster := time.Now()
	rowsVal := bmVal.ToRowSet()
	points, _, err := cluster.EncodeSparse(v, rowsVal, view.CompareAttrs)
	if err != nil {
		return err
	}
	km, st, err := fitClusters(ctx, points, cfg, cfg.Seed+valIndex)
	tm.Cluster += time.Since(startCluster)
	tm.ClusterDetail.Add(st)
	if err != nil {
		return err
	}

	startOther := time.Now()
	candidates, err := makeIUnits(v, row.Value, rowsVal, km, points, view.CompareAttrs, cfg)
	if err != nil {
		return err
	}
	kept, err := diversify(ctx, candidates, view.Tau, cfg.K, cfg.GreedyTopK)
	if err != nil {
		return err
	}
	for rank, iu := range kept {
		iu.Rank = rank + 1
	}
	row.IUnits = kept
	tm.Other += time.Since(startOther)
	return nil
}

// fitClusters produces the candidate-IUnit clustering: either a single
// k-means run at l = cfg.L, or — with AutoL — the best-silhouette run
// over the plausible l range [K, max(L, 2K+2)]. The sparse kernel's
// results are bit-identical to the dense kernel's, so the CAD View is
// unchanged from the dense-path build. The returned StageTimes sums the
// Lloyd-phase wall time of every fit performed (all l values under
// AutoL), feeding the Timings.ClusterDetail breakdown.
func fitClusters(ctx context.Context, points *cluster.SparsePoints, cfg Config, seed int64) (*cluster.Result, cluster.StageTimes, error) {
	var st cluster.StageTimes
	opts := cluster.Options{Seed: seed, SampleSize: cfg.ClusterSampleSize}
	if !cfg.AutoL {
		km, err := cluster.KMeansContext(ctx, points, cfg.L, opts)
		if err != nil {
			return nil, st, err
		}
		st.Add(km.Stages)
		return km, st, nil
	}
	hi := 2*cfg.K + 2
	if cfg.L > hi {
		hi = cfg.L
	}
	var best *cluster.Result
	bestScore := 0.0
	for l := cfg.K; l <= hi; l++ {
		km, err := cluster.KMeansContext(ctx, points, l, opts)
		if err != nil {
			return nil, st, err
		}
		st.Add(km.Stages)
		score, err := cluster.SilhouetteSparse(points, km.Assign, km.K, 256, seed)
		if err != nil {
			return nil, st, err
		}
		if best == nil || score > bestScore {
			best = km
			bestScore = score
		}
	}
	return best, st, nil
}

// explicitCompareAttrs validates the user's explicit Compare Attributes
// and enumerates the remaining automatic candidates. A nil candidate
// slice means selection is already complete (budget filled, or nothing
// left to rank) and chosen is the final answer.
func explicitCompareAttrs(v *dataview.View, cfg Config) (chosen, candidates []string, err error) {
	chosen = make([]string, 0, cfg.MaxCompare)
	seen := map[string]bool{cfg.Pivot: true}
	for _, attr := range cfg.CompareAttrs {
		if attr == cfg.Pivot {
			return nil, nil, fmt.Errorf("core: pivot attribute %q cannot be a Compare Attribute", attr)
		}
		if seen[attr] {
			continue
		}
		if _, err := v.Column(attr); err != nil {
			return nil, nil, err
		}
		seen[attr] = true
		chosen = append(chosen, attr)
	}
	if len(chosen) > cfg.MaxCompare {
		return nil, nil, fmt.Errorf("core: %d explicit Compare Attributes exceed LIMIT COLUMNS %d", len(chosen), cfg.MaxCompare)
	}
	if len(chosen) == cfg.MaxCompare {
		return chosen, nil, nil
	}
	for _, col := range v.Columns() {
		if !seen[col.Attr] {
			candidates = append(candidates, col.Attr)
		}
	}
	return chosen, candidates, nil
}

// applyScores appends ranked attributes to chosen up to the MaxCompare
// budget: scores with a p-value below 1 are cut at the configured
// significance level, and those without one require positive weight.
// When nothing passes the cut — e.g. a single pivot value, where no
// attribute can contrast classes — the view still needs attributes to
// cluster and label on, so it falls back to the top-ranked candidates.
func applyScores(chosen []string, scores []featsel.Score, cfg Config) []string {
	for _, s := range scores {
		if len(chosen) == cfg.MaxCompare {
			break
		}
		if s.PValue < 1 {
			if s.PValue > cfg.Significance {
				continue
			}
		} else if s.Stat <= 0 {
			continue
		}
		chosen = append(chosen, s.Attr)
	}
	if len(chosen) == 0 {
		for _, s := range scores {
			if len(chosen) == cfg.MaxCompare {
				break
			}
			chosen = append(chosen, s.Attr)
		}
	}
	return chosen
}

// selectCompareAttrsBitmap is selectCompareAttrs fed by the result-set
// bitmap. Without sampling, the chi-square contingency sweep runs in its
// bitmap form (intersect-popcount against the class postings) without
// materializing a row set at all; feature sampling draws the systematic
// sample straight off the bitmap and ranks it with the row-set sweep, as
// the reference build does.
func selectCompareAttrsBitmap(ctx context.Context, v *dataview.View, bmV *dataset.Bitmap, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	nV := bmV.Len()
	var scores []featsel.Score
	if cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < nV {
		rankRows := sampleRowsBitmap(bmV, cfg.FeatureSampleSize, cfg.Seed)
		scores, err = featsel.ChiSquareContext(ctx, v, rankRows, cfg.Pivot, candidates)
	} else {
		scores, err = featsel.ChiSquareBitmapContext(ctx, v, bmV, cfg.Pivot, candidates)
	}
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// sampleRowsBitmap draws the same systematic sample as sampleRows —
// position for position, including the wraparound order — directly from
// the bitmap, without materializing the full row set first. The sampled
// positions are ranks into the bitmap's ascending rows; they are sorted
// once and filled in a single bitmap pass, with each pick landing at its
// original sequence slot so the output order matches sampleRows exactly.
func sampleRowsBitmap(bm *dataset.Bitmap, size int, seed int64) dataset.RowSet {
	n := bm.Len()
	if size >= n {
		return bm.ToRowSet()
	}
	offset := int(seed % int64(n))
	if offset < 0 {
		offset += n
	}
	type pick struct{ pos, slot int }
	wanted := make([]pick, size)
	for j := 0; j < size; j++ {
		wanted[j] = pick{(offset + j*n/size) % n, j}
	}
	sort.Slice(wanted, func(a, b int) bool { return wanted[a].pos < wanted[b].pos })
	out := make(dataset.RowSet, size)
	i, rank := 0, 0
	bm.ForEach(func(r int) {
		for i < size && wanted[i].pos == rank {
			out[wanted[i].slot] = r
			i++
		}
		rank++
	})
	return out
}

// resolvePivotValuesBitmap is resolvePivotValues driven by the pivot
// column's posting sets: each pivot code's result-set rows are the
// intersection of its posting bitmap with the result bitmap, counted by
// fused popcount and intersected only for values that actually occur.
// The per-value bitmaps stay packed; each pivot row unpacks its own
// (ascending, exactly the scan path's per-value subsequence). The
// default display order — count descending, label ascending — is a total
// order, so it matches the scan path's sort bit for bit.
func resolvePivotValuesBitmap(pivotCol *dataview.Column, bm *dataset.Bitmap, explicit []string) ([]string, map[string]*dataset.Bitmap, error) {
	posts := pivotCol.Postings()
	bmByValue := make(map[string]*dataset.Bitmap)

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
			if b := posts[code].And(bm); b.Len() > 0 {
				bmByValue[val] = b
			}
		}
		return values, bmByValue, nil
	}

	// Count every code first (cheap fused popcounts), then intersect the
	// surviving values concurrently — each writes its own slot, and the
	// map is assembled after the pool drains.
	type vc struct {
		code  int
		val   string
		count int
	}
	counts := make([]int, len(posts))
	parallel.Do(len(posts), func(code int) { counts[code] = posts[code].AndLen(bm) })
	var ranked []vc
	for code, n := range counts {
		if n > 0 {
			ranked = append(ranked, vc{code, pivotCol.Label(code), n})
		}
	}
	bms := make([]*dataset.Bitmap, len(ranked))
	parallel.Do(len(ranked), func(i int) { bms[i] = posts[ranked[i].code].And(bm) })
	for i, r := range ranked {
		bmByValue[r.val] = bms[i]
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
	return values, bmByValue, nil
}

// warmPivotPostings materializes the pivot column's posting sets before
// the partition so their construction cost lands in the Index timing
// stage; on a warm view every call after the first is a no-op. Only the
// pivot warms eagerly — every other posting set builds lazily behind a
// per-stage cost dispatch (featsel's per-candidate split), so narrow
// results over wide tables never pay for postings no stage ends up
// using.
func warmPivotPostings(v *dataview.View, pivot string) {
	if c, err := v.Column(pivot); err == nil {
		c.Postings()
	}
}

// makeIUnits converts the clustering of one pivot value's rows into
// labeled candidate IUnits. Label frequency tables come from the sparse
// points' duplicate-collapsed groups — weight[g] rows at a time — rather
// than re-reading every member row per Compare Attribute; the counts are
// the same integers either way (groups share codes and, by construction
// of the k-means result, cluster assignment).
func makeIUnits(v *dataview.View, pivotValue string, rowsVal dataset.RowSet, km *cluster.Result, points *cluster.SparsePoints, compareAttrs []string, cfg Config) ([]*IUnit, error) {
	// Partition rows by cluster into one exactly-sized backing array —
	// per-cluster appends would reallocate log-many times per cluster on
	// every pivot value. Full slice expressions keep a later append on one
	// member set from clobbering its neighbor.
	sizes := make([]int, km.K)
	for _, a := range km.Assign {
		sizes[a]++
	}
	buf := make(dataset.RowSet, len(km.Assign))
	members := make([]dataset.RowSet, km.K)
	off := 0
	for c, s := range sizes {
		members[c] = buf[off : off : off+s]
		off += s
	}
	for i, a := range km.Assign {
		members[a] = append(members[a], rowsVal[i])
	}
	countsBy := points.CodeCountsByCluster(km.Assign, km.K)
	var out []*IUnit
	for c, rows := range members {
		if len(rows) == 0 {
			continue
		}
		labels, freqs, err := labelsFromCounts(v, compareAttrs, countsBy[c], len(rows), cfg.Labeling)
		if err != nil {
			return nil, err
		}
		iu := &IUnit{
			PivotValue: pivotValue,
			Size:       len(rows),
			Labels:     labels,
			Rows:       rows,
			freq:       freqs,
		}
		iu.Score = cfg.Preference(v, iu)
		if iu.Score < 0 {
			return nil, fmt.Errorf("core: preference returned negative score %g", iu.Score)
		}
		out = append(out, iu)
	}
	return out, nil
}

// diversify runs Problem 2: diversified top-k over the candidate IUnits
// with Algorithm-1 similarity and threshold tau.
func diversify(ctx context.Context, candidates []*IUnit, tau float64, k int, greedy bool) ([]*IUnit, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	scores := make([]float64, len(candidates))
	for i, iu := range candidates {
		scores[i] = iu.Score
	}
	sims := make([][]float64, len(candidates))
	for i := range sims {
		sims[i] = make([]float64, len(candidates))
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			s, err := IUnitSimilarity(candidates[i], candidates[j])
			if err != nil {
				return nil, err
			}
			sims[i][j] = s
			sims[j][i] = s
		}
	}
	conflicts := topk.NewConflicts(len(candidates), func(i, j int) bool {
		return sims[i][j] >= tau
	})
	selector := topk.Selector(topk.ExactContext)
	if greedy {
		selector = topk.GreedyContext
	}
	sel, err := selector(ctx, scores, conflicts, k)
	if err != nil {
		return nil, err
	}
	out := make([]*IUnit, len(sel))
	for i, idx := range sel {
		out[i] = candidates[idx]
	}
	return out, nil
}
