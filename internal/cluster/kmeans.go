// Package cluster implements the clustering substrate for candidate
// IUnit generation (paper Problem 1.2): Lloyd's k-means with k-means++
// seeding over one-hot encodings of the Compare Attributes (matching the
// paper's use of Weka's SimpleKMeans on discretized data), optional
// center-fitting on a sample (§6.3 optimizations), and a categorical
// k-modes variant as an ablation.
//
// The production kernel is KMeans over EncodeSparse points: a sparse,
// weighted, duplicate-collapsing Lloyd that returns results bit-identical
// to the reference dense kernel (KMeansDense over Encode points) while
// doing O(|attrs|) work per distance instead of O(Dim). The dense kernel
// remains for the equivalence suite and ablations.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// Points is a row-major dense matrix of n points in dim dimensions.
type Points struct {
	Data []float64
	N    int
	Dim  int
}

// Row returns point i as a slice into Data.
func (p *Points) Row(i int) []float64 { return p.Data[i*p.Dim : (i+1)*p.Dim] }

// Encoding maps table rows to one-hot coordinates so cluster centroids
// can be decoded back into per-attribute value frequencies.
type Encoding struct {
	// Attrs are the encoded attribute names, in encoding order.
	Attrs []string
	// Offsets[a] is the first coordinate of attribute a's block; the
	// block width is the attribute's cardinality. A final sentinel entry
	// holds the total dimension.
	Offsets []int
	// Cards[a] is the cardinality of attribute a.
	Cards []int
}

// Block returns the [lo, hi) coordinate range of attribute a.
func (e *Encoding) Block(a int) (lo, hi int) {
	return e.Offsets[a], e.Offsets[a+1]
}

// Encode one-hot encodes the given attributes of the view over rows.
// The i-th encoded point corresponds to rows[i].
func Encode(v *dataview.View, rows dataset.RowSet, attrs []string) (*Points, *Encoding, error) {
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("cluster: no attributes to encode")
	}
	enc := &Encoding{Attrs: append([]string(nil), attrs...)}
	cols := make([]*dataview.Column, len(attrs))
	dim := 0
	for i, name := range attrs {
		c, err := v.Column(name)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		enc.Offsets = append(enc.Offsets, dim)
		enc.Cards = append(enc.Cards, c.Cardinality())
		dim += c.Cardinality()
	}
	enc.Offsets = append(enc.Offsets, dim)
	p := &Points{Data: make([]float64, len(rows)*dim), N: len(rows), Dim: dim}
	for i, r := range rows {
		row := p.Row(i)
		for a, c := range cols {
			code := c.Code(r)
			if code < 0 {
				// NaN cells code -1; clamp to the attribute's first
				// coordinate so the dense and sparse encoders produce
				// identical points.
				code = 0
			}
			row[enc.Offsets[a]+code] = 1
		}
	}
	return p, enc, nil
}

// Options configures KMeans.
type Options struct {
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int
	// Seed drives k-means++ seeding and sampling.
	Seed int64
	// SampleSize, when > 0 and smaller than the point count, fits
	// centers on that many sampled points and then assigns all points
	// to the fitted centers — §6.3 Optimization 1.
	SampleSize int
	// Restarts runs the whole fit this many times with different
	// seedings and keeps the lowest-inertia result (default 1). The
	// sparse kernel fans restarts out over the shared worker pool;
	// winner selection (lowest inertia, earliest restart on ties) is
	// identical to the sequential loop, so results stay reproducible.
	Restarts int
	// exhaustive runs the sparse kernel's unpruned reference Lloyd loop
	// (full k-way scan per group per iteration, full center
	// re-accumulation). The bound-pruned kernel is bit-identical to it;
	// only the package's equivalence tests and kernel benchmark set it.
	exhaustive bool

	// serialInner runs the fit's data-parallel chunk loops inline on the
	// calling goroutine. Set by the restart fan-out, which already owns
	// the worker pool; nesting pool on pool would oversubscribe it.
	serialInner bool
}

// StageTimes splits a k-means fit's wall time across the Lloyd phases:
// k-means++ seeding, assignment passes (including the final full-point
// pass and inertia sum), center updates, and empty-center reseeding.
// With restarts the times aggregate every restart's work, not just the
// winner's.
type StageTimes struct {
	Seed   time.Duration `json:"seed"`
	Assign time.Duration `json:"assign"`
	Update time.Duration `json:"update"`
	Reseed time.Duration `json:"reseed"`
}

// Add accumulates o into s.
func (s *StageTimes) Add(o StageTimes) {
	s.Seed += o.Seed
	s.Assign += o.Assign
	s.Update += o.Update
	s.Reseed += o.Reseed
}

// Stages returns the named phase durations in report order, so EXPLAIN
// and metrics layers can export the breakdown without knowing the
// struct's fields (mirroring core.Timings.Stages).
func (s StageTimes) Stages() []struct {
	Name string
	D    time.Duration
} {
	return []struct {
		Name string
		D    time.Duration
	}{
		{"seed", s.Seed},
		{"assign", s.Assign},
		{"update", s.Update},
		{"reseed", s.Reseed},
	}
}

// Result is a fitted k-means clustering.
type Result struct {
	// K is the number of centers actually used (≤ requested when there
	// are fewer points than centers).
	K int
	// Assign[i] is the center index of point i.
	Assign []int
	// Centers is row-major K×Dim.
	Centers []float64
	// Inertia is the total squared distance of points to their centers.
	Inertia float64
	// Iters is the number of Lloyd iterations executed.
	Iters int
	// Stages breaks the fit's wall time into Lloyd phases. Only the
	// sparse kernel fills it; the dense reference leaves it zero.
	Stages StageTimes
}

// Sizes returns the number of points assigned to each center.
func (r *Result) Sizes() []int {
	sizes := make([]int, r.K)
	for _, a := range r.Assign {
		sizes[a]++
	}
	return sizes
}

// KMeansDense clusters the dense one-hot matrix p into at most k groups.
// It is the reference implementation the sparse KMeans kernel is verified
// against (bit-identical results) and the baseline for the clustering
// ablation benches. With Restarts > 1 the best of several seeded runs
// (by inertia) is returned.
func KMeansDense(p *Points, k int, opt Options) (*Result, error) {
	if opt.Restarts > 1 {
		restarts := opt.Restarts
		opt.Restarts = 1
		var best *Result
		for r := 0; r < restarts; r++ {
			run := opt
			run.Seed = opt.Seed + int64(r)*1_000_003
			res, err := KMeansDense(p, k, run)
			if err != nil {
				return nil, err
			}
			if best == nil || res.Inertia < best.Inertia {
				best = res
			}
		}
		return best, nil
	}
	return kmeansOnce(p, k, opt)
}

func kmeansOnce(p *Points, k int, opt Options) (*Result, error) {
	if p == nil || p.N == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if k > p.N {
		k = p.N
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	fitPoints := p
	if opt.SampleSize > 0 && opt.SampleSize < p.N {
		idx := rng.Perm(p.N)[:opt.SampleSize]
		fp := &Points{Data: make([]float64, opt.SampleSize*p.Dim), N: opt.SampleSize, Dim: p.Dim}
		for i, j := range idx {
			copy(fp.Row(i), p.Row(j))
		}
		fitPoints = fp
		if k > fitPoints.N {
			k = fitPoints.N
		}
	}

	centers := seedPlusPlus(fitPoints, k, rng)
	assign := make([]int, fitPoints.N)
	counts := make([]int, k)
	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		changed := assignPoints(fitPoints, centers, k, assign)
		if !changed && iters > 0 {
			break
		}
		// Recompute centers.
		for i := range centers {
			centers[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < fitPoints.N; i++ {
			c := assign[i]
			counts[c]++
			row := fitPoints.Row(i)
			cr := centers[c*fitPoints.Dim : (c+1)*fitPoints.Dim]
			for d, x := range row {
				cr[d] += x
			}
		}
		var empty []int
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				empty = append(empty, c)
				continue
			}
			inv := 1 / float64(counts[c])
			for d := 0; d < fitPoints.Dim; d++ {
				centers[c*fitPoints.Dim+d] *= inv
			}
		}
		if len(empty) > 0 {
			reseedEmpty(fitPoints, centers, assign, empty)
		}
	}

	// Final assignment of all points (covers the sampled-fit path too).
	finalAssign := make([]int, p.N)
	assignPoints(p, centers, k, finalAssign)
	inertia := 0.0
	for i := 0; i < p.N; i++ {
		inertia += sqDist(p.Row(i), centers[finalAssign[i]*p.Dim:(finalAssign[i]+1)*p.Dim])
	}
	return &Result{K: k, Assign: finalAssign, Centers: centers, Inertia: inertia, Iters: iters}, nil
}

// reseedEmpty re-seeds empty centers at the points farthest from their
// assigned centers, each empty center taking a *distinct* point. With
// fewer distinct points than centers (degenerate one-hot data) the
// duplicate-point centers stay empty and stable rather than thrashing
// the same farthest point between centers every iteration.
func reseedEmpty(p *Points, centers []float64, assign []int, empty []int) {
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, p.N)
	for i := 0; i < p.N; i++ {
		c := assign[i]
		cands[i] = cand{i, sqDist(p.Row(i), centers[c*p.Dim:(c+1)*p.Dim])}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d > cands[b].d })
	used := 0
	for _, c := range empty {
		// Skip duplicates of already-taken seeds so two empty centers
		// never collapse onto the same point.
		for used < len(cands) && used > 0 && sameRow(p, cands[used].idx, cands[used-1].idx) {
			used++
		}
		// Rounding can make a pure cluster's mean differ from its
		// points by ~1e-32; such "distances" must not trigger a
		// re-seed or the seeded copy steals the whole cluster and the
		// loop oscillates until MaxIter.
		const eps = 1e-9
		if used >= len(cands) || cands[used].d <= eps {
			break // no genuinely distant point left; leave center as is
		}
		copy(centers[c*p.Dim:(c+1)*p.Dim], p.Row(cands[used].idx))
		used++
	}
}

func sameRow(p *Points, i, j int) bool {
	a, b := p.Row(i), p.Row(j)
	for d := range a {
		if a[d] != b[d] {
			return false
		}
	}
	return true
}

func assignPoints(p *Points, centers []float64, k int, assign []int) bool {
	changed := false
	for i := 0; i < p.N; i++ {
		row := p.Row(i)
		best, bestD := 0, math.MaxFloat64
		for c := 0; c < k; c++ {
			d := sqDist(row, centers[c*p.Dim:(c+1)*p.Dim])
			if d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// seedPlusPlus implements k-means++ center initialization.
func seedPlusPlus(p *Points, k int, rng *rand.Rand) []float64 {
	centers := make([]float64, k*p.Dim)
	first := rng.Intn(p.N)
	copy(centers[:p.Dim], p.Row(first))
	d2 := make([]float64, p.N)
	for i := range d2 {
		d2[i] = sqDist(p.Row(i), centers[:p.Dim])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(p.N)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = p.N - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		cr := centers[c*p.Dim : (c+1)*p.Dim]
		copy(cr, p.Row(pick))
		for i := range d2 {
			if d := sqDist(p.Row(i), cr); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}
