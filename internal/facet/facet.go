// Package facet implements faceted navigation (paper §5): the summary
// digest and filter model of a Solr-style baseline interface, and the
// TPFacet two-phased interface that integrates the CAD View. The §6 user
// study compares exactly these two systems.
package facet

import (
	"fmt"
	"sort"
	"sync"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/stats"
)

// ValueCount is one (value label, tuple count) entry of an attribute's
// facet summary.
type ValueCount struct {
	Value string
	Count int
}

// AttrSummary is one attribute's entry in the summary digest: every value
// appearing in the selected items with its tuple count.
type AttrSummary struct {
	Attr   string
	Values []ValueCount
}

// Digest is the faceted interface's query-panel summary: all attribute
// values appearing in the current result set, grouped by attribute, with
// tuple counts — what a Solr facet response shows.
type Digest struct {
	Attrs []AttrSummary

	mu      sync.Mutex     // guards the lazy index below
	byAttr  map[string]int // lazily built name → Attrs index; see Attr
	byAttrN int            // len(Attrs) when byAttr was built
}

// Attr returns the named attribute's summary, or nil. The name→index
// map is built lazily on first lookup (and rebuilt if Attrs grew since),
// so TPFacet rendering — which probes the digest once per attribute and
// value — stops scanning every summary per lookup. Safe for concurrent
// lookups: the lazy build is guarded so two renderers sharing one digest
// cannot race it.
func (d *Digest) Attr(name string) *AttrSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.byAttr == nil || d.byAttrN != len(d.Attrs) {
		d.byAttrN = len(d.Attrs)
		d.byAttr = make(map[string]int, len(d.Attrs))
		for i := range d.Attrs {
			if _, dup := d.byAttr[d.Attrs[i].Attr]; !dup {
				d.byAttr[d.Attrs[i].Attr] = i
			}
		}
	}
	if i, ok := d.byAttr[name]; ok {
		return &d.Attrs[i]
	}
	return nil
}

// Count returns the tuple count of a value under an attribute, or 0.
func (d *Digest) Count(attr, value string) int {
	a := d.Attr(attr)
	if a == nil {
		return 0
	}
	for _, vc := range a.Values {
		if vc.Value == value {
			return vc.Count
		}
	}
	return 0
}

// Summarize builds the digest of rows over the view's attributes. When
// queriableOnly is set, non-queriable attributes are omitted — this is
// the paper's Limitation 2: the query panel hides them even though the
// data contains them.
func Summarize(v *dataview.View, rows dataset.RowSet, queriableOnly bool) *Digest {
	schema := v.Table().Schema()
	var cols []*dataview.Column
	for _, col := range v.Columns() {
		if queriableOnly && !schema[col.Col].Queriable {
			continue
		}
		cols = append(cols, col)
	}
	summaries := make([]AttrSummary, len(cols))
	parallel.Do(len(cols), func(i int) {
		summaries[i] = scanColumn(cols[i], rows)
	})
	return &Digest{Attrs: summaries}
}

// scanColumn tallies one column's value counts over a sorted row set,
// walking it segment by segment with the segment's code slice hoisted
// out of the inner loop. Counts are integers accumulating additively, so
// the segmented sweep matches a per-row Code lookup exactly.
func scanColumn(col *dataview.Column, rows dataset.RowSet) AttrSummary {
	counts := make([]int, col.Cardinality())
	segs := col.CodeSegs()
	for i := 0; i < len(rows); {
		s := rows[i] >> dataset.SegmentBits
		seg := segs[s]
		end := (s + 1) << dataset.SegmentBits
		for i < len(rows) && rows[i] < end {
			// Negative codes are NaN cells, which belong to no value —
			// the posting-bitmap path never has them in any posting.
			if c := seg[rows[i]&dataset.SegmentMask]; c >= 0 {
				counts[c]++
			}
			i++
		}
	}
	summary := AttrSummary{Attr: col.Attr}
	for code, c := range counts {
		if c > 0 {
			summary.Values = append(summary.Values, ValueCount{Value: col.Label(code), Count: c})
		}
	}
	sort.Slice(summary.Values, func(i, j int) bool {
		if summary.Values[i].Count != summary.Values[j].Count {
			return summary.Values[i].Count > summary.Values[j].Count
		}
		return summary.Values[i].Value < summary.Values[j].Value
	})
	return summary
}

// ExtendDigest returns the digest d — built with Summarize over rows
// [0, oldN) of the view — brought forward to cover [0, newN) after an
// append, by coding and counting only the newN-oldN delta rows instead
// of rescanning everything. The view's coding is reused as-is: delta
// cells of numeric attributes fall into the bins frozen at view
// construction (values outside the original domain clamp to the edge
// bins, exactly as Column.Code does), so the result is what Summarize
// would produce if the view's binning were held fixed. Cells that code
// outside the view's label range (the NaN path of a numeric column) are
// skipped. d is not modified; attribute selection (queriable-only or
// not) is inherited from d.
func ExtendDigest(v *dataview.View, d *Digest, oldN, newN int) *Digest {
	cols := make([]*dataview.Column, len(d.Attrs))
	for i := range d.Attrs {
		col, err := v.Column(d.Attrs[i].Attr)
		if err != nil {
			cols[i] = nil
			continue
		}
		cols[i] = col
	}
	summaries := make([]AttrSummary, len(d.Attrs))
	parallel.Do(len(d.Attrs), func(i int) {
		old := &d.Attrs[i]
		col := cols[i]
		if col == nil || oldN >= newN {
			summaries[i] = AttrSummary{Attr: old.Attr, Values: append([]ValueCount(nil), old.Values...)}
			return
		}
		card := col.Cardinality()
		delta := make([]int, card)
		for r := oldN; r < newN; r++ {
			if code := col.Code(r); code >= 0 && code < card {
				delta[code]++
			}
		}
		counts := make([]int, card)
		for _, vc := range old.Values {
			if code := col.CodeOf(vc.Value); code >= 0 {
				counts[code] = vc.Count
			}
		}
		summary := AttrSummary{Attr: old.Attr}
		for code := 0; code < card; code++ {
			if c := counts[code] + delta[code]; c > 0 {
				summary.Values = append(summary.Values, ValueCount{Value: col.Label(code), Count: c})
			}
		}
		sort.Slice(summary.Values, func(a, b int) bool {
			if summary.Values[a].Count != summary.Values[b].Count {
				return summary.Values[a].Count > summary.Values[b].Count
			}
			return summary.Values[a].Value < summary.Values[b].Value
		})
		summaries[i] = summary
	})
	return &Digest{Attrs: summaries}
}

// DigestSimilarity compares two digests: for each attribute present in
// either digest it takes the cosine similarity of the two value-count
// vectors (aligned by value label, missing values as zero) and returns
// the mean over attributes. This is the measure the user study hands to
// baseline subjects for "compare the summary digests" tasks and the
// retrieval-error metric of §6.2.3.
func DigestSimilarity(a, b *Digest) float64 {
	names := map[string]bool{}
	for _, s := range a.Attrs {
		names[s.Attr] = true
	}
	for _, s := range b.Attrs {
		names[s.Attr] = true
	}
	if len(names) == 0 {
		return 1
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	var total float64
	for _, name := range ordered {
		va, vb := valueVector(a.Attr(name)), valueVector(b.Attr(name))
		keys := map[string]bool{}
		for k := range va {
			keys[k] = true
		}
		for k := range vb {
			keys[k] = true
		}
		orderedKeys := make([]string, 0, len(keys))
		for k := range keys {
			orderedKeys = append(orderedKeys, k)
		}
		sort.Strings(orderedKeys)
		x := make([]float64, len(orderedKeys))
		y := make([]float64, len(orderedKeys))
		for i, k := range orderedKeys {
			x[i] = va[k]
			y[i] = vb[k]
		}
		total += stats.CosineSimilarity(x, y)
	}
	return total / float64(len(ordered))
}

func valueVector(s *AttrSummary) map[string]float64 {
	out := map[string]float64{}
	if s == nil {
		return out
	}
	for _, vc := range s.Values {
		out[vc.Value] = float64(vc.Count)
	}
	return out
}

// Session is a faceted-navigation session over a base result set: the
// user selects attribute values (multiple values of one attribute are
// OR-ed; attributes are AND-ed, the standard faceted model) and reads
// the digest of whatever remains. This is the Solr-style baseline of the
// user study.
type Session struct {
	view *dataview.View

	// mu guards every mutable field below. Selection changes and digest
	// refreshes may come from concurrent goroutines (one server session
	// shared across requests); the cached bitmaps and memoized result
	// would otherwise race. Methods snapshot what they need under the
	// lock and do the word-counting outside it.
	mu       sync.Mutex
	selected map[string]map[int]bool // attr -> selected codes
	order    []string                // selection order for rendering

	// Incremental state: the base set packed once as a bitmap (the only
	// copy of it the session keeps), one
	// cached filter bitmap per selected attribute (the OR of that
	// attribute's selected posting bitmaps), and the memoized current
	// result bitmap. Adding or removing one facet selection invalidates
	// only that attribute's bitmap, so refreshing the digest intersects
	// cached words instead of re-evaluating the whole stack per row.
	universe int
	baseBM   *dataset.Bitmap
	attrBM   map[string]*dataset.Bitmap
	rowsBM   *dataset.Bitmap // nil = stale
}

// NewSession starts a session over the given base result set. The
// session's universe is the view's row snapshot — not the live table row
// count, which may already have grown past the view under concurrent
// ingest — so every bitmap the session caches stays compatible with the
// view's posting sets. base must lie within that snapshot; it is taken
// as a set, so every read returns rows in ascending order.
func NewSession(v *dataview.View, base dataset.RowSet) *Session {
	n := v.Rows()
	var bm *dataset.Bitmap
	if base.IsAllRows(n) {
		// Exactly {0..n-1}: skip the per-row packing. Length alone does
		// not establish that (an unsorted or duplicated base of length n
		// would pack wrongly), so the check verifies element by element
		// and exits at the first mismatch.
		bm = dataset.FullBitmap(n)
	} else {
		bm = dataset.FromRowSet(n, base)
	}
	return &Session{
		view:     v,
		selected: make(map[string]map[int]bool),
		universe: n,
		baseBM:   bm,
		attrBM:   make(map[string]*dataset.Bitmap),
	}
}

// invalidate drops the cached bitmaps touched by a selection change on
// attr. Callers hold s.mu.
func (s *Session) invalidate(attr string) {
	delete(s.attrBM, attr)
	s.rowsBM = nil
}

// filterBitmap returns attr's cached filter bitmap (the union of its
// selected values' posting sets), building it on first use after a
// selection change. Callers hold s.mu.
func (s *Session) filterBitmap(attr string) *dataset.Bitmap {
	if bm, ok := s.attrBM[attr]; ok {
		return bm
	}
	col, _ := s.view.Column(attr)
	postings := col.Postings()
	bm := dataset.NewBitmap(s.universe)
	for code := range s.selected[attr] {
		bm.OrWith(postings[code])
	}
	s.attrBM[attr] = bm
	return bm
}

// currentBitmap returns the memoized result bitmap base ∧ every
// attribute filter, rebuilding it word-wise from the cached per-attr
// bitmaps when stale. Callers hold s.mu and must treat the result as
// read-only; the returned snapshot stays valid after the lock is
// released even if a later selection replaces the memo.
func (s *Session) currentBitmap() *dataset.Bitmap {
	if s.rowsBM == nil {
		bm := s.baseBM
		for attr := range s.selected {
			bm = bm.And(s.filterBitmap(attr))
		}
		s.rowsBM = bm
	}
	return s.rowsBM
}

// View returns the session's data view.
func (s *Session) View() *dataview.View { return s.view }

// Select adds a value filter on a queriable attribute. Selecting a
// second value of the same attribute widens that attribute's filter
// (OR), as in every faceted interface.
func (s *Session) Select(attr, value string) error {
	col, err := s.view.Column(attr)
	if err != nil {
		return err
	}
	if !s.view.Table().Schema()[col.Col].Queriable {
		return fmt.Errorf("facet: attribute %q is not queriable through this interface", attr)
	}
	code := col.CodeOf(value)
	if code < 0 {
		return &dataview.UnknownValueError{Attr: attr, Value: value}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selected[attr] == nil {
		s.selected[attr] = make(map[int]bool)
		s.order = append(s.order, attr)
	}
	s.selected[attr][code] = true
	s.invalidate(attr)
	return nil
}

// Deselect removes one value filter; removing the last value of an
// attribute clears that attribute entirely.
func (s *Session) Deselect(attr, value string) error {
	col, err := s.view.Column(attr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	codes, ok := s.selected[attr]
	if !ok {
		return fmt.Errorf("facet: attribute %q has no active filters", attr)
	}
	code := col.CodeOf(value)
	if code < 0 || !codes[code] {
		return fmt.Errorf("facet: value %q of %q is not selected", value, attr)
	}
	delete(codes, code)
	if len(codes) == 0 {
		s.clearAttr(attr)
	} else {
		s.invalidate(attr)
	}
	return nil
}

// ClearAttr removes all filters on one attribute.
func (s *Session) ClearAttr(attr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.selected[attr]; ok {
		s.clearAttr(attr)
	}
}

// clearAttr removes attr's filter state. Callers hold s.mu.
func (s *Session) clearAttr(attr string) {
	delete(s.selected, attr)
	for i, a := range s.order {
		if a == attr {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.invalidate(attr)
}

// Reset removes every filter.
func (s *Session) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selected = make(map[string]map[int]bool)
	s.order = nil
	s.attrBM = make(map[string]*dataset.Bitmap)
	s.rowsBM = nil
}

// Selections returns the active filters as attribute -> selected value
// labels, in selection order.
func (s *Session) Selections() []struct {
	Attr   string
	Values []string
} {
	var out []struct {
		Attr   string
		Values []string
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, attr := range s.order {
		col, _ := s.view.Column(attr)
		var vals []string
		for code := 0; code < col.Cardinality(); code++ {
			if s.selected[attr][code] {
				vals = append(vals, col.Label(code))
			}
		}
		out = append(out, struct {
			Attr   string
			Values []string
		}{attr, vals})
	}
	return out
}

// Rows evaluates the filter stack over the base result set: the cached
// per-attribute bitmaps intersect word-wise and the result unpacks to a
// sorted row set.
func (s *Session) Rows() dataset.RowSet {
	s.mu.Lock()
	bm := s.currentBitmap()
	s.mu.Unlock()
	return bm.ToRowSet()
}

// Page returns the result rows ranked [offset, offset+limit) in row
// order, plus the total result count. Only the page is materialized;
// rows before it are skipped by cached chunk cardinalities
// (Bitmap.Slice). limit < 0 means "to the end".
func (s *Session) Page(offset, limit int) (dataset.RowSet, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bm := s.currentBitmap()
	return bm.Slice(offset, limit), bm.Len()
}

// Count returns the current result-set size (a popcount over the
// memoized result bitmap; no rows are materialized).
func (s *Session) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentBitmap().Len()
}

// Digest returns the queriable-attribute summary of the current result
// set — the baseline interface's whole view of the data. Counting runs
// per column in parallel as posting-bitmap intersections against the
// memoized result bitmap, so refreshing the digest after one facet
// click costs words, not rows.
func (s *Session) Digest() *Digest {
	s.mu.Lock()
	bm := s.currentBitmap()
	s.mu.Unlock()
	return s.digestOf(bm, true)
}

// digestOf builds the digest of the given result bitmap, counting each
// code as |rows ∧ posting(code)|. Output is identical to Summarize over
// the unpacked row set.
func (s *Session) digestOf(rows *dataset.Bitmap, queriableOnly bool) *Digest {
	schema := s.view.Table().Schema()
	var cols []*dataview.Column
	for _, col := range s.view.Columns() {
		if queriableOnly && !schema[col.Col].Queriable {
			continue
		}
		cols = append(cols, col)
	}
	summaries := make([]AttrSummary, len(cols))
	parallel.Do(len(cols), func(i int) {
		summaries[i] = summarizeColumn(cols[i], rows)
	})
	return &Digest{Attrs: summaries}
}

// summarizeColumn counts one column's codes over the result bitmap via
// fused intersect-popcounts with its posting sets and renders the sorted
// value summary.
func summarizeColumn(col *dataview.Column, rows *dataset.Bitmap) AttrSummary {
	postings := col.Postings()
	summary := AttrSummary{Attr: col.Attr}
	for code, p := range postings {
		if c := rows.AndLen(p); c > 0 {
			summary.Values = append(summary.Values, ValueCount{Value: col.Label(code), Count: c})
		}
	}
	sort.Slice(summary.Values, func(i, j int) bool {
		if summary.Values[i].Count != summary.Values[j].Count {
			return summary.Values[i].Count > summary.Values[j].Count
		}
		return summary.Values[i].Value < summary.Values[j].Value
	})
	return summary
}

// PanelDigest returns the multi-select facet panel counts that
// e-commerce interfaces (and Solr's tag/exclude faceting) display: for
// each attribute, value counts are computed with that attribute's *own*
// filters excluded, so a user who selected Make=Ford still sees how many
// Jeeps would match their other filters. Attributes without filters get
// the plain digest counts.
func (s *Session) PanelDigest() *Digest {
	schema := s.view.Table().Schema()
	var cols []*dataview.Column
	for _, col := range s.view.Columns() {
		if !schema[col.Col].Queriable {
			continue
		}
		cols = append(cols, col)
	}
	// Snapshot the base and every attribute's filter bitmap under the
	// lock; the parallel counting below then works on immutable copies and
	// never touches session state.
	type filter struct {
		attr string
		bm   *dataset.Bitmap
	}
	s.mu.Lock()
	base := s.baseBM
	filters := make([]filter, 0, len(s.selected))
	for attr := range s.selected {
		filters = append(filters, filter{attr, s.filterBitmap(attr)})
	}
	s.mu.Unlock()
	summaries := make([]AttrSummary, len(cols))
	parallel.Do(len(cols), func(i int) {
		// base ∧ every attribute filter except this column's own — the
		// tag/exclude counting rule.
		bm := base
		for _, f := range filters {
			if f.attr != cols[i].Attr {
				bm = bm.And(f.bm)
			}
		}
		summaries[i] = summarizeColumn(cols[i], bm)
	})
	return &Digest{Attrs: summaries}
}

// TPFacet is the paper's two-phased faceted interface: the same filter
// model as Session plus the CAD View phase. At any moment the user sees
// either the results panel (digest) or the CAD View; BuildCADView
// renders the latter for the current result set.
type TPFacet struct {
	*Session
}

// NewTPFacet starts a TPFacet session.
func NewTPFacet(v *dataview.View, base dataset.RowSet) *TPFacet {
	return &TPFacet{Session: NewSession(v, base)}
}

// BuildCADView computes the CAD View of the current result set for the
// given pivot. Unlike filters, the pivot may be any attribute — the CAD
// View is how non-queriable attributes become visible (Limitation 2).
func (t *TPFacet) BuildCADView(cfg core.Config) (*core.CADView, error) {
	view, _, err := core.Build(t.view, t.Rows(), cfg)
	return view, err
}

// Phase names the two TPFacet phases of §5.
type Phase int

const (
	// PhaseResults shows the result panel / digest — right when the
	// result set is small enough to browse.
	PhaseResults Phase = iota
	// PhaseQueryRevision shows the CAD View — right when the result set
	// is too large to browse tuple by tuple.
	PhaseQueryRevision
)

// String names the phase.
func (p Phase) String() string {
	if p == PhaseResults {
		return "results"
	}
	return "query-revision"
}

// DefaultBrowseLimit is the result size above which SuggestPhase steers
// the user to the CAD View.
const DefaultBrowseLimit = 50

// SuggestPhase implements §5's "a system that intelligently chooses a
// default view, based on the size of query results": small results go to
// the result panel, large ones to the CAD View. limit 0 uses
// DefaultBrowseLimit.
func (t *TPFacet) SuggestPhase(limit int) Phase {
	if limit <= 0 {
		limit = DefaultBrowseLimit
	}
	if t.Count() <= limit {
		return PhaseResults
	}
	return PhaseQueryRevision
}
