package dataset

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dbexplorer/internal/fault"
	"dbexplorer/internal/parallel"
)

// Index is a lazily built secondary index over one snapshot of a Table:
// per-code posting bitmaps for categorical columns and a value-sorted row
// order for numeric columns. Compiled predicates (package expr) resolve
// equality and membership tests to precomputed bitmaps and range tests to
// binary searches, so WHERE evaluation costs bitmap words instead of
// rows.
//
// Everything inside is built segment-at-a-time: a categorical posting is
// assembled from one container per 64K-row storage segment (the segment
// and container grids coincide, see SegmentBits), and a numeric sorted
// order is a sequence of per-segment orders of segment-local offsets.
// Builds therefore run as morsel-per-segment work items on the shared
// worker pool — each worker scans one segment and emits that segment's
// containers or sorted offsets, and the per-segment results concatenate
// into the global structure with no cross-segment merge pass.
//
// The index is keyed to the row count and append epoch at creation: an
// Index never observes rows added after it was created, so in-flight
// queries evaluate over a stable snapshot with no locks. After appends,
// Table.Index does not throw the old index away — it derives a new
// snapshot by reusing every structure over sealed (full) segments
// verbatim and rebuilding only the tail: categorical postings re-scatter
// the tail segment's containers, numeric orders re-sort the tail
// segOrder, and frequencies add a delta scan of just the new rows (see
// extend). Individual columns index on first use, so tables whose
// queries only ever touch a few attributes never pay for the rest. All
// methods are safe for concurrent use.
type Index struct {
	t     *Table
	n     int    // row count this index snapshot covers
	epoch uint64 // table append epoch this snapshot was derived at

	mu    sync.Mutex
	cat   [][]*Bitmap  // per column: posting bitmap per dictionary code
	freqs [][]int32    // per categorical column: rows per dictionary code
	ord   [][]segOrder // per numeric column: per-segment value-sorted offsets
	valid []int        // per numeric column: total count of non-NaN rows
}

// segOrder is one segment's slice of a numeric column's sorted order:
// segment-local offsets ascending by value (ties by offset), with the
// offsets of NaN cells trailing after the first valid entries.
type segOrder struct {
	rows  []int32
	valid int
}

// Build counters for instrumentation (httpapi mirrors them into its
// metrics registry): how many per-column posting sets and sorted orders
// have been constructed process-wide.
var (
	catPostingBuilds atomic.Int64
	numOrderBuilds   atomic.Int64
)

// IndexStats reports the process-wide number of categorical posting-set
// builds and numeric sorted-order builds performed so far.
func IndexStats() (catBuilds, orderBuilds int64) {
	return catPostingBuilds.Load(), numOrderBuilds.Load()
}

// Index returns the table's posting index for its current row count,
// creating an empty one on first use. After appends the stale index is
// extended, not discarded: materialized columns carry their sealed
// per-segment containers and sorted orders into the new snapshot and
// rebuild only the tail (see extend); unmaterialized columns stay lazy.
// Handles returned by earlier calls keep working over their own row
// snapshot.
func (t *Table) Index() *Index {
	// Epoch before row count: the writer bumps the epoch after publishing
	// the rows, so this order never labels an index with an epoch newer
	// than the rows it covers.
	epoch := t.epoch.Load()
	n := int(t.n.Load())
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	switch {
	case t.idx == nil:
		t.idx = newIndex(t, n, epoch)
	case t.idx.n < n:
		t.idx = t.idx.extend(n, epoch)
		// t.idx.n > n: a racing caller loaded its row count first but
		// reached the lock second. The newer index is still a valid
		// snapshot for this caller — its rows were fully published before
		// the count it was derived from — so never "extend" downward.
	}
	return t.idx
}

func newIndex(t *Table, n int, epoch uint64) *Index {
	return &Index{
		t:     t,
		n:     n,
		epoch: epoch,
		cat:   make([][]*Bitmap, len(t.schema)),
		freqs: make([][]int32, len(t.schema)),
		ord:   make([][]segOrder, len(t.schema)),
		valid: make([]int, len(t.schema)),
	}
}

// Rows returns the universe size (table rows) this index covers.
func (ix *Index) Rows() int { return ix.n }

// Epoch returns the table append epoch this index snapshot was derived
// at. Caches compare it against Table.Epoch to detect staleness.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// segCodes returns the codes of segment s truncated to the index's row
// snapshot (rows appended after the index was created stay invisible).
func segCodes(segs [][]int32, s, n int) []int32 {
	return segs[s][:SegmentRows(s, n)]
}

// segVals returns the values of segment s truncated to the index's row
// snapshot.
func segVals(segs [][]float64, s, n int) []float64 {
	return segs[s][:SegmentRows(s, n)]
}

// buildSegPostings scatters one segment's codes into one container per
// dictionary code. Offsets arrive ascending, so array containers come
// out sorted with no promotion churn; codes past arrayMaxCard occupancy
// go straight to packed words. Negative codes (dataview's NaN bin) are
// skipped. This direct construction is the reason segmented posting
// builds beat the old per-row Bitmap.Add loop even on one core.
func buildSegPostings(codes []int32, card int) []container {
	counts := make([]int32, card)
	for _, code := range codes {
		if code >= 0 {
			counts[code]++
		}
	}
	// Counting-sort scatter: every code's offset list occupies one
	// sub-range of a shared arena slab laid out by a prefix sum over
	// counts, and the few over-threshold lists convert to packed words in
	// a sequential post-pass. One slab allocation replaces a make per
	// code, and the scatter loop is branch-free on container kind — on a
	// skewed dictionary a head-or-tail branch per row would mispredict
	// constantly.
	pos := make([]int32, card)
	total := int32(0)
	for code, cnt := range counts {
		pos[code] = total
		total += cnt
	}
	arena := make([]uint16, total)
	for off, code := range codes {
		if code < 0 {
			continue
		}
		p := pos[code]
		arena[p] = uint16(off)
		pos[code] = p + 1
	}
	conts := make([]container, card)
	start := int32(0)
	for code, cnt := range counts {
		if cnt != 0 {
			seg := arena[start : start+cnt : start+cnt]
			if cnt > arrayMaxCard {
				w := make([]uint64, bitmapWords)
				for _, off := range seg {
					w[off>>6] |= 1 << (off & 63)
				}
				conts[code] = container{kind: bitmapK, card: cnt, words: w}
			} else {
				conts[code] = container{kind: arrayK, card: cnt, array: seg}
			}
		}
		start += cnt
	}
	return conts
}

// assemblePostings stitches per-segment containers into one frozen
// full-universe Bitmap per code. segConts[s][code] is segment s's
// container for code — exactly chunk s of that code's posting.
func assemblePostings(n, card int, segConts [][]container) []*Bitmap {
	postings := make([]*Bitmap, card)
	nSegs := len(segConts)
	// Two slab allocations back every posting's header and container
	// slice — a make per code costs more than the assembly itself on
	// wide dictionaries.
	slab := make([]container, nSegs*card)
	bms := make([]Bitmap, card)
	for code := 0; code < card; code++ {
		cs := slab[code*nSegs : (code+1)*nSegs : (code+1)*nSegs]
		for s := 0; s < nSegs; s++ {
			cs[s] = segConts[s][code]
		}
		bms[code] = Bitmap{cs: cs, n: n}
		postings[code] = bms[code].Freeze()
	}
	return postings
}

// BuildPostings builds one frozen posting bitmap per code over a
// universe of n rows from per-segment code slices: segCodes(s) must
// return segment s's codes in segment-local row order, len
// SegmentRows(s, n). Codes < 0 mark rows outside every posting (NaN
// bins). Segments build in parallel on the shared pool; dataview uses
// this for numeric bin postings, and the index's own categorical builds
// go through the same per-segment scatter.
func BuildPostings(n, card int, segCodes func(s int) []int32) []*Bitmap {
	nSegs := NumSegments(n)
	segConts := make([][]container, nSegs)
	parallel.Do(nSegs, func(s int) {
		segConts[s] = buildSegPostings(segCodes(s), card)
	})
	return assemblePostings(n, card, segConts)
}

// CatPostings returns one posting bitmap per dictionary code of the
// categorical column at col (nil for numeric columns), building them on
// first use with one morsel-per-segment pass over the column. The
// bitmaps are owned by the index and frozen: callers must treat them as
// read-only (combine with And/Or/Not, never AndWith/OrWith/Add), and
// with the alias guard enabled any in-place mutation panics.
func (ix *Index) CatPostings(col int) []*Bitmap {
	c := ix.t.cats[col]
	if c == nil {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.cat[col] == nil {
		fault.Check(fault.PointIndexCat)
		// Posting sets are shared with every query that touches this
		// column; Freeze (inside assemblePostings) makes in-place mutation
		// by a caller trip the alias guard instead of corrupting the index.
		segs := c.segTable()
		ix.cat[col] = BuildPostings(ix.n, c.Cardinality(), func(s int) []int32 {
			return segCodes(segs, s, ix.n)
		})
		catPostingBuilds.Add(1)
	}
	return ix.cat[col]
}

// CatFreqs returns the per-dictionary-code row frequencies of the
// categorical column at col (nil for numeric columns), computed with
// one pass over the codes on first use. These are the leaf-cardinality
// estimates the cost-based predicate planner orders And children by —
// much cheaper to build than the posting bitmaps themselves, and exact:
// freq[code] is precisely |CatEq(col, code)|. When the postings are
// already materialized their cached cardinalities are reused instead of
// rescanning the column.
func (ix *Index) CatFreqs(col int) []int32 {
	c := ix.t.cats[col]
	if c == nil {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.freqs[col] == nil {
		freqs := make([]int32, c.Cardinality())
		if postings := ix.cat[col]; postings != nil {
			for code, p := range postings {
				freqs[code] = int32(p.Len())
			}
		} else {
			segs := c.segTable()
			for s := 0; s < NumSegments(ix.n); s++ {
				for _, code := range segCodes(segs, s, ix.n) {
					freqs[code]++
				}
			}
		}
		ix.freqs[col] = freqs
	}
	return ix.freqs[col]
}

// MemoryBytes returns the bytes of backing storage held by everything
// the index has materialized so far: posting bitmaps (container-aware,
// via Bitmap.MemoryBytes) and numeric sorted orders. The /debug/metrics
// posting-memory gauge sums this across registered datasets, so the
// compression hybrid containers buy on skewed columns is observable in
// production, not just in benches.
func (ix *Index) MemoryBytes() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	total := 0
	for _, postings := range ix.cat {
		for _, p := range postings {
			total += p.MemoryBytes()
		}
	}
	for _, ords := range ix.ord {
		for _, so := range ords {
			total += len(so.rows) * 4
		}
	}
	return total
}

// HasCatPostings reports whether the categorical column's posting sets
// are already materialized. Cost dispatches probe it to price a cold
// posting build into a scan-vs-bitmap decision without triggering the
// build they are pricing.
func (ix *Index) HasCatPostings(col int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.cat[col] != nil
}

// PostingsAll returns the posting bitmaps of several categorical columns
// at once (nil entries for numeric columns), building the missing ones as
// one batch on the shared worker pool instead of column-by-column under
// the per-call lock. The contingency sweep (featsel) uses it to build the
// postings of every candidate its dispatch sent down the bitmap branch in
// one batch.
func (ix *Index) PostingsAll(cols []int) [][]*Bitmap {
	// Find the columns that still need a build; snapshot under the lock.
	ix.mu.Lock()
	var missing []int
	for _, col := range cols {
		if ix.t.cats[col] != nil && ix.cat[col] == nil {
			missing = append(missing, col)
		}
	}
	ix.mu.Unlock()
	if len(missing) > 0 {
		// CatPostings re-checks under the lock, so concurrent PostingsAll
		// calls at worst build a column once each and keep the first.
		parallel.Do(len(missing), func(i int) {
			ix.CatPostings(missing[i])
		})
	}
	out := make([][]*Bitmap, len(cols))
	for i, col := range cols {
		if ix.t.cats[col] != nil {
			out[i] = ix.CatPostings(col)
		}
	}
	return out
}

// CatEq returns the rows whose categorical column equals the dictionary
// code. Codes outside the dictionary (CodeOf misses report -1) yield the
// empty set. The result may alias an index-owned posting bitmap and is
// read-only for the caller (see CatPostings); clone before mutating.
func (ix *Index) CatEq(col int, code int32) *Bitmap {
	postings := ix.CatPostings(col)
	if code < 0 || int(code) >= len(postings) {
		return NewBitmap(ix.n)
	}
	return postings[code]
}

// numOrder returns the per-segment value-sorted orders of the numeric
// column at col and the total count of non-NaN rows, building them on
// first use — one morsel per segment, each sorting its own 64K offsets
// against the segment's contiguous values. NaN offsets sort after every
// real value within their segment so range probes touch the valid
// prefix only.
func (ix *Index) numOrder(col int) ([]segOrder, int) {
	c := ix.t.nums[col]
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.ord[col] == nil {
		fault.Check(fault.PointIndexNum)
		nSegs := NumSegments(ix.n)
		segs := c.segTable()
		ords := make([]segOrder, nSegs)
		parallel.Do(nSegs, func(s int) {
			ords[s] = buildSegOrder(segVals(segs, s, ix.n))
		})
		total := 0
		for _, so := range ords {
			total += so.valid
		}
		ix.ord[col] = ords
		ix.valid[col] = total
		numOrderBuilds.Add(1)
	}
	return ix.ord[col], ix.valid[col]
}

// buildSegOrder sorts one segment's offsets by value (NaN offsets
// trailing), the unit of work both the cold morsel build and the
// incremental tail rebuild share.
func buildSegOrder(vals []float64) segOrder {
	// Composite keys (value bits over offset bits) go straight
	// from the value scan into the radix sort — no intermediate
	// offset slice, and the NaN split falls out of the same pass.
	keys := make([]uint64, 0, len(vals))
	var nans []int32
	for off, v := range vals {
		if math.IsNaN(v) {
			nans = append(nans, int32(off))
		} else {
			keys = append(keys, orderedFloatBits(v)&^0xFFFF|uint64(uint16(off)))
		}
	}
	valid := len(keys)
	rows := make([]int32, valid+len(nans))
	for i, k := range sortSegKeys(keys, vals) {
		rows[i] = int32(k & 0xFFFF)
	}
	copy(rows[valid:], nans)
	return segOrder{rows: rows, valid: valid}
}

// windowContainer packs one segment's sorted-order window of offsets
// (ascending by value, not by offset) into a canonical container.
func windowContainer(offs []int32) container {
	cnt := len(offs)
	if cnt == 0 {
		return container{}
	}
	if cnt > arrayMaxCard {
		w := make([]uint64, bitmapWords)
		for _, o := range offs {
			w[o>>6] |= 1 << (uint(o) & 63)
		}
		return container{kind: bitmapK, card: int32(cnt), words: w}
	}
	arr := make([]uint16, cnt)
	for i, o := range offs {
		arr[i] = uint16(o)
	}
	sortUint16s(arr)
	return container{kind: arrayK, card: int32(cnt), array: arr}
}

// segRangeBounds returns the [from, to) window of one segment's order
// whose values lie in [lo, hi].
func segRangeBounds(vals []float64, so segOrder, lo, hi float64) (from, to int) {
	rows := so.rows
	from = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] >= lo })
	to = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] > hi })
	return from, to
}

// NumRange returns the rows whose numeric column lies in [lo, hi], both
// ends inclusive (SQL BETWEEN). NaN cells never match. The result is
// assembled one container per segment from the per-segment sorted
// orders.
func (ix *Index) NumRange(col int, lo, hi float64) *Bitmap {
	ords, _ := ix.numOrder(col)
	segs := ix.t.nums[col].segTable()
	cs := make([]container, len(ords))
	for s, so := range ords {
		from, to := segRangeBounds(segs[s], so, lo, hi)
		if from < to {
			cs[s] = windowContainer(so.rows[from:to])
		}
	}
	return &Bitmap{cs: cs, n: ix.n}
}

// NumRangeLen returns |NumRange(col, lo, hi)| from two binary searches
// per segment, without packing a bitmap — the planner's exact
// cardinality probe.
func (ix *Index) NumRangeLen(col int, lo, hi float64) int {
	ords, _ := ix.numOrder(col)
	segs := ix.t.nums[col].segTable()
	total := 0
	for s, so := range ords {
		from, to := segRangeBounds(segs[s], so, lo, hi)
		total += to - from
	}
	return total
}

// segCmpBounds returns the [from, to) window of one segment's order a
// numeric comparison against constant c selects (see NumCmpRange).
func segCmpBounds(vals []float64, so segOrder, c float64, includeEq, below, above bool) (from, to int) {
	rows := so.rows
	switch {
	case below: // v < c, or v <= c with includeEq
		from = 0
		if includeEq {
			to = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] > c })
		} else {
			to = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] >= c })
		}
	case above: // v > c, or v >= c with includeEq
		to = so.valid
		if includeEq {
			from = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] >= c })
		} else {
			from = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] > c })
		}
	default: // v == c
		from = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] >= c })
		to = sort.Search(so.valid, func(i int) bool { return vals[rows[i]] > c })
	}
	return from, to
}

// NumCmpRange translates a numeric comparison against constant c into a
// bitmap. eq selects the rows equal to c; the remaining operators select
// the sorted prefix or suffix bounded by c. The caller composes Ne as the
// complement of the eq set, which — like the scalar evaluator — treats
// NaN cells as unequal to every constant.
func (ix *Index) NumCmpRange(col int, c float64, includeEq, below, above bool) *Bitmap {
	ords, _ := ix.numOrder(col)
	segs := ix.t.nums[col].segTable()
	cs := make([]container, len(ords))
	for s, so := range ords {
		from, to := segCmpBounds(segs[s], so, c, includeEq, below, above)
		if from < to {
			cs[s] = windowContainer(so.rows[from:to])
		}
	}
	return &Bitmap{cs: cs, n: ix.n}
}

// NumCmpRangeLen returns |NumCmpRange(...)| from the same binary
// searches without materializing the bitmap.
func (ix *Index) NumCmpRangeLen(col int, c float64, includeEq, below, above bool) int {
	ords, _ := ix.numOrder(col)
	segs := ix.t.nums[col].segTable()
	total := 0
	for s, so := range ords {
		from, to := segCmpBounds(segs[s], so, c, includeEq, below, above)
		total += to - from
	}
	return total
}

// edgeLadderRowCost calibrates NumEdgeCounts' per-segment dispatch: one
// filter row classified by binary search over the edge ladder costs
// roughly this many sorted-order membership tests (two closure-driven
// searches against ~one container lookup per walked row).
const edgeLadderRowCost = 8

// NumEdgeCounts batches an ascending ladder of threshold probes against
// one filter set: lt[i] counts the filter rows whose value is strictly
// below edges[i], le[i] those at or below it, and valid the filter rows
// holding any non-NaN value. edges must be sorted ascending (histogram
// edges are). One pass per segment replaces materializing a range
// bitmap and intersecting it per edge — the filtered drill-down path
// this was built for probes every bin edge of every numeric column per
// request. Each segment picks the cheaper of two passes by estimated
// cost: a walk of the sorted order up to the last edge's boundary,
// counting filter membership cumulatively (dense filters), or a binary
// search of the edge ladder per filter row (sparse filters). Both
// produce exact counts, so the dispatch never shows in the output.
//
// The filter's universe may be smaller than the index's rows — a set
// over a view snapshot the table has since grown past — and segments
// beyond it are skipped. A filter larger than the index panics.
//
// Every threshold window derives from the two ladders:
//
//	v <  e  → lt       v >  e  → valid − le
//	v <= e  → le       v >= e  → valid − lt
//	v == e  → le − lt
func (ix *Index) NumEdgeCounts(col int, edges []float64, filter *Bitmap) (lt, le []int, valid int) {
	if filter.Universe() > ix.n {
		panic("dataset: NumEdgeCounts filter universe exceeds the index")
	}
	ords, _ := ix.numOrder(col)
	nsegs := ix.t.nums[col].segTable()
	ne := len(edges)
	lt = make([]int, ne)
	le = make([]int, ne)
	posLt := make([]int, ne)
	posLe := make([]int, ne)
	var histLt, histLe []int
	for s, so := range ords {
		if s >= len(filter.cs) {
			break
		}
		fc := &filter.cs[s]
		if fc.card == 0 {
			continue
		}
		// NaN cells sit past the valid prefix; subtracting the filter's
		// members there leaves exactly its rows holding a real value.
		nanIn := 0
		for _, off := range so.rows[so.valid:] {
			if fc.contains(uint16(off)) {
				nanIn++
			}
		}
		valid += int(fc.card) - nanIn
		if so.valid == 0 || ne == 0 {
			continue
		}
		vals := nsegs[s]
		rows := so.rows[:so.valid]
		for i, e := range edges {
			posLt[i] = sort.Search(len(rows), func(j int) bool { return vals[rows[j]] >= e })
			posLe[i] = sort.Search(len(rows), func(j int) bool { return vals[rows[j]] > e })
		}
		maxPos := posLe[ne-1]
		if int(fc.card)*edgeLadderRowCost < maxPos {
			// Sparse filter: classify each member against the ladder.
			if histLt == nil {
				histLt = make([]int, ne+1)
				histLe = make([]int, ne+1)
			} else {
				for i := range histLt {
					histLt[i], histLe[i] = 0, 0
				}
			}
			fc.forEach(0, func(off int) {
				v := vals[off]
				if math.IsNaN(v) {
					return
				}
				pl := sort.Search(ne, func(i int) bool { return edges[i] > v })
				pe := sort.SearchFloat64s(edges, v)
				histLt[pl]++
				histLe[pe]++
			})
			sumLt, sumLe := 0, 0
			for i := 0; i < ne; i++ {
				sumLt += histLt[i]
				sumLe += histLe[i]
				lt[i] += sumLt
				le[i] += sumLe
			}
			continue
		}
		// Dense filter: one walk of the sorted order up to the last
		// boundary, sampling the running membership count at each edge's
		// positions (both ladders are nondecreasing, edges ascending).
		cum, bl, be := 0, 0, 0
		for j := 0; j <= maxPos; j++ {
			for bl < ne && posLt[bl] == j {
				lt[bl] += cum
				bl++
			}
			for be < ne && posLe[be] == j {
				le[be] += cum
				be++
			}
			if j < maxPos && fc.contains(uint16(rows[j])) {
				cum++
			}
		}
	}
	return lt, le, valid
}

// Incremental maintenance: deriving the index for a grown table from a
// stale snapshot. Appends only ever write past the old row count, so
// every structure over sealed segments — full 64K-row segments the old
// snapshot covered entirely — is carried into the new snapshot verbatim
// (shared containers and order slices, no copy of their payloads). Only
// the tail is rebuilt: the old partial tail segment plus whatever new
// segments the appended rows opened. For a 1% append to a large table
// that is one or two segments of work per materialized column instead of
// a full re-scatter and re-sort.

// Extension counters, alongside the build counters above: how many
// per-column posting sets and sorted orders were carried across an
// append incrementally instead of rebuilt cold.
var (
	catPostingExtends atomic.Int64
	numOrderExtends   atomic.Int64
)

// IndexExtendStats reports the process-wide number of categorical
// posting-set and numeric sorted-order incremental extensions.
func IndexExtendStats() (catExtends, orderExtends int64) {
	return catPostingExtends.Load(), numOrderExtends.Load()
}

// extend derives the index snapshot for n rows at the given epoch from a
// stale one, reusing sealed per-segment structures of every column the
// old snapshot had materialized and rebuilding only tail segments.
// Columns the old snapshot never built stay unmaterialized and build
// lazily (cold) on first use. The old index is left untouched, so
// readers holding it keep an intact snapshot of the smaller table.
func (old *Index) extend(n int, epoch uint64) *Index {
	t := old.t
	nx := newIndex(t, n, epoch)
	fault.Check(fault.PointIndexExtend)
	// Sealed segments: full segments entirely below the old row count.
	// The old tail segment (if partial) gained rows and rebuilds.
	sealed := old.n >> SegmentBits
	old.mu.Lock()
	defer old.mu.Unlock()
	for col := range t.schema {
		if c := t.cats[col]; c != nil {
			segs := c.segTable()
			card := c.Cardinality()
			if old.cat[col] != nil {
				nx.cat[col] = extendPostings(old.cat[col], n, card, sealed, func(s int) []int32 {
					return segCodes(segs, s, n)
				})
				catPostingExtends.Add(1)
			}
			if old.freqs[col] != nil {
				nx.freqs[col] = extendFreqs(old.freqs[col], card, segs, old.n, n)
			}
		} else if old.ord[col] != nil {
			segs := t.nums[col].segTable()
			nx.ord[col], nx.valid[col] = extendOrders(old.ord[col], sealed, segs, n)
			numOrderExtends.Add(1)
		}
	}
	return nx
}

// extendPostings assembles posting bitmaps over n rows by sharing the
// old postings' containers for the first sealed segments and
// re-scattering codes from segment sealed upward. Dictionary growth is
// handled by card > len(old): new codes get empty sealed containers.
// Only freshly scattered containers are optimized; sealed ones are
// already canonical and are shared, not copied, so the result is
// bit-identical to a cold build at a fraction of the work.
func extendPostings(old []*Bitmap, n, card, sealed int, codesFn func(s int) []int32) []*Bitmap {
	nSegs := NumSegments(n)
	dirty := make([][]container, nSegs-sealed)
	parallel.Do(len(dirty), func(i int) {
		dirty[i] = buildSegPostings(codesFn(sealed+i), card)
	})
	slab := make([]container, nSegs*card)
	bms := make([]Bitmap, card)
	out := make([]*Bitmap, card)
	for code := 0; code < card; code++ {
		cs := slab[code*nSegs : (code+1)*nSegs : (code+1)*nSegs]
		if code < len(old) {
			copy(cs, old[code].cs[:sealed])
		}
		for s := sealed; s < nSegs; s++ {
			cs[s] = dirty[s-sealed][code]
			cs[s].optimize()
		}
		bms[code] = Bitmap{cs: cs, n: n, frozen: true}
		out[code] = &bms[code]
	}
	return out
}

// ExtendPostings derives frozen posting bitmaps over n rows from
// postings previously built over oldN rows of the same code stream
// (oldN <= n): containers over sealed segments are shared verbatim and
// only segments touched by rows [oldN, n) re-scatter. codesFn follows
// the BuildPostings contract over the new universe. dataview uses this
// to extend numeric bin postings across appends without recoding sealed
// segments.
func ExtendPostings(old []*Bitmap, oldN, n, card int, codesFn func(s int) []int32) []*Bitmap {
	if oldN > n {
		panic("dataset: ExtendPostings row count went backward")
	}
	return extendPostings(old, n, card, oldN>>SegmentBits, codesFn)
}

// extendFreqs extends per-code frequencies by counting only the delta
// rows [oldN, n).
func extendFreqs(old []int32, card int, segs [][]int32, oldN, n int) []int32 {
	freqs := make([]int32, card)
	copy(freqs, old)
	for r := oldN; r < n; {
		s := r >> SegmentBits
		seg := segCodes(segs, s, n)
		off := r & SegmentMask
		for _, code := range seg[off:] {
			freqs[code]++
		}
		r += len(seg) - off
	}
	return freqs
}

// extendOrders carries sealed per-segment sorted orders over verbatim
// and re-sorts only segments touched by the appended rows.
func extendOrders(old []segOrder, sealed int, segs [][]float64, n int) ([]segOrder, int) {
	nSegs := NumSegments(n)
	ords := make([]segOrder, nSegs)
	copy(ords, old[:sealed])
	parallel.Do(nSegs-sealed, func(i int) {
		s := sealed + i
		ords[s] = buildSegOrder(segVals(segs, s, n))
	})
	total := 0
	for _, so := range ords {
		total += so.valid
	}
	return ords, total
}
