package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/suggest"
	"dbexplorer/internal/viewcache"
)

// replica replays a workload's op sequence in process, calling each
// layer's public functions in the order the httpapi handlers call them,
// so a tracer around those calls attributes an op's time to layers. It
// keeps the state a registered dataset keeps (a view snapshot, the
// incrementally extended digest, the suggester keyed to its view, a real
// viewcache.Cache of builds) and refreshes the view in the background
// after an append, as the server does.
type replica struct {
	w    *workload
	seed int64
	tr   *tracer
	plan *planner

	viewMu sync.RWMutex
	view   *dataview.View
	base   dataset.RowSet

	ingestMu   sync.Mutex
	refreshing atomic.Bool
	bg         sync.WaitGroup

	digMu   sync.Mutex
	baseDig *facet.Digest
	digView *dataview.View
	digRows int

	sugMu   sync.Mutex
	sug     *suggest.Suggester
	sugView *dataview.View

	cache *viewcache.Cache[*built]
	cads  *viewcache.Cache[*core.CADView] // served views by id, for /highlight

	mu        sync.Mutex
	nextID    int
	rebuildng map[viewcache.Key]bool
	idxRows   int
	tally     tally

	viewBuild, indexWarm time.Duration
}

// built is one cached CAD View build.
type built struct {
	view  *core.CADView
	tm    core.Timings
	text  string
	epoch uint64
	rows  int
}

// tally counts what the replica did, warm-up included.
type tally struct {
	builds      []core.Timings
	buildMs     []float64
	pivotRows   []float64
	compareAttr []float64
	modelMs     []float64
}

// newReplica sets up the workload in process: the same data, view,
// posting index, suggestion model and warm-up session as newEnv.
func newReplica(w *workload, seed int64, tr *tracer) (*replica, error) {
	t, v, viewBuild, indexWarm, err := buildData(w, seed)
	if err != nil {
		return nil, err
	}
	r := &replica{w: w, seed: seed, view: v, base: dataset.AllRows(v.Rows()),
		cache: viewcache.New[*built](CacheSize), cads: viewcache.New[*core.CADView](max(4*CacheSize, 256)),
		rebuildng: map[viewcache.Key]bool{}, idxRows: t.Index().Rows(),
		viewBuild: viewBuild, indexWarm: indexWarm}
	ctx := context.Background()
	sug, err := r.suggesterFor(ctx, untraced)
	if err != nil {
		return nil, err
	}
	if err := sug.Warm(ctx); err != nil {
		return nil, err
	}
	var pivotVals []string
	if w.name == "wide-pivot" {
		pivotVals = digestValuesByCount(facet.NewSession(v, r.base).Digest(), "c0")
	}
	r.plan = newPlanner(w, schemaCatalog(v), pivotVals, seed)
	rec := replayRec{opMs: map[int]float64{}}
	r.runSession(r.plan.warm, -1, time.Time{}, &rec)
	if rec.failed > 0 {
		return nil, fmt.Errorf("replica warm-up failed: %v", rec.errs)
	}
	r.tr = tr
	return r, nil
}

// schemaCatalog is the catalog /schema derives from a view: queriable
// attributes with at most 64 values.
func schemaCatalog(v *dataview.View) catalog {
	cat := catalog{table: v.Table().Name(), values: map[string][]string{}, numeric: map[string]bool{}}
	schema := v.Table().Schema()
	for _, col := range v.Columns() {
		if schema[col.Col].Queriable && col.Cardinality() > 0 && col.Cardinality() <= 64 {
			cat.attrs = append(cat.attrs, col.Attr)
			cat.values[col.Attr] = col.Labels()
			cat.numeric[col.Attr] = col.Kind == dataset.Numeric
		}
	}
	return cat
}

func digestValuesByCount(d *facet.Digest, attr string) []string {
	a := d.Attr(attr)
	if a == nil {
		return nil
	}
	vs := make([]valueCount, len(a.Values))
	for i, v := range a.Values {
		vs[i] = valueCount{Value: v.Value, Count: v.Count}
	}
	return byCount(vs)
}

func (r *replica) snapshot() (*dataview.View, dataset.RowSet) {
	r.viewMu.RLock()
	defer r.viewMu.RUnlock()
	return r.view, r.base
}

// replayRec is one replay's per-op times and failures.
type replayRec struct {
	opMs     map[int]float64 // by opKey, successful ops
	attempts int
	failed   int
	errs     []string
}

// replay runs sessions 0..n-1 with one client until the deadline, then
// waits for background refreshes.
func (r *replica) replay(n int, deadline time.Time) *replayRec {
	rec := &replayRec{opMs: map[int]float64{}}
	for j := 0; j < n; j++ {
		if !r.runSession(r.plan.session(j), j, deadline, rec) {
			break
		}
	}
	r.bg.Wait()
	return rec
}

// runSession mirrors client.runSession: the same skips, the same request
// bodies, each op timed from before its request is decoded until its
// response is encoded.
func (r *replica) runSession(s session, j int, deadline time.Time, rec *replayRec) bool {
	st := sessionState{count: -1}
	for i, o := range s.ops {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		_, req, ok := st.request(o, r.seed)
		if !ok {
			continue
		}
		if o.kind == opQuery {
			st.count = -1
		}
		rec.attempts++
		root := r.tr.start(o.kind.String(), noParent, false)
		r.tr.key(root, opKey(j, i))
		start := time.Now()
		n, id, err := r.exec(o.kind, root, req)
		d := time.Since(start)
		r.tr.end(root)
		if err == nil && o.kind == opIngest {
			err = r.awaitRefresh()
		}
		if err != nil {
			rec.failed++
			if len(rec.errs) < maxErrs {
				rec.errs = append(rec.errs, fmt.Sprintf("%s: %v", o.kind, err))
			}
			continue
		}
		rec.opMs[opKey(j, i)] = float64(d.Nanoseconds()) / 1e6
		switch o.kind {
		case opQuery:
			st.count = n
		case opCAD:
			st.id, st.first = id, r.firstValue(id)
		}
	}
	return true
}

// awaitRefresh waits, outside any op, until the serving view covers the
// table's rows, as the closed loop's client does after an /ingest
// (client.awaitRefresh).
func (r *replica) awaitRefresh() error {
	deadline := time.Now().Add(refreshWait)
	for {
		v, _ := r.snapshot()
		if v.Rows() == v.Table().NumRows() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("view refresh covers %d of %d rows after %v", v.Rows(), v.Table().NumRows(), refreshWait)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *replica) firstValue(id string) string {
	if v, ok := r.cads.Get(viewcache.Key(id)); ok && len(v.Rows) > 0 {
		return v.Rows[0].Value
	}
	return ""
}

// exec runs one op, turning a panic into an error as the server's
// recovery middleware turns it into a 500.
func (r *replica) exec(k opKind, root int, req []byte) (n int, s string, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	ctx := context.Background()
	switch k {
	case opQuery:
		n, err = r.query(root, req)
	case opCAD:
		s, err = r.cad(ctx, root, req)
	case opHighlight:
		err = r.highlight(root, req)
	case opDrill, opComplete:
		err = r.suggest(ctx, root, req)
	case opIngest:
		err = r.ingest(root, req)
	}
	return n, s, err
}

func (r *replica) decode(root int, req []byte, into any) error {
	sp := r.tr.start("httpapi.decode", root, false)
	defer r.tr.end(sp)
	return json.Unmarshal(req, into)
}

// encode is the response rendering every handler ends with.
func (r *replica) encode(root int, resp any) error {
	sp := r.tr.start("render.json", root, false)
	b, err := json.Marshal(resp)
	r.tr.count(sp, int64(len(b)))
	r.tr.end(sp)
	return err
}

// observe is the handler's selectivity bookkeeping, which reads the
// table's posting index and so extends it after an append.
func (r *replica) observe(root int, v *dataview.View) {
	sp := r.tr.start("dataset.index", root, false)
	ix := v.Table().Index()
	ix.MemoryBytes()
	r.mu.Lock()
	if ix.Rows() != r.idxRows {
		r.idxRows = ix.Rows()
		r.tr.count(sp, 1)
	}
	r.mu.Unlock()
	r.tr.end(sp)
}

// session builds a facet session over one snapshot with the filters
// selected, as the handlers' buildSession does.
func (r *replica) session(v *dataview.View, base dataset.RowSet, fs []Filter) (*facet.Session, error) {
	sess := facet.NewSession(v, base)
	for _, f := range fs {
		for _, val := range f.Values {
			if err := sess.Select(f.Attr, val); err != nil {
				return nil, err
			}
		}
	}
	return sess, nil
}

func (r *replica) query(root int, req []byte) (int, error) {
	var q struct {
		Filters []Filter `json:"filters"`
		Limit   int      `json:"limit"`
	}
	if err := r.decode(root, req, &q); err != nil {
		return 0, err
	}
	v, base := r.snapshot()
	sel := r.tr.start("facet.select", root, false)
	sess, err := r.session(v, base, q.Filters)
	r.tr.end(sel)
	if err != nil {
		return 0, err
	}
	sp := r.tr.start("facet.page", root, false)
	page, total := sess.Page(0, q.Limit)
	r.tr.end(sp)
	r.tr.count(sel, int64(total))
	r.observe(root, v)
	sp = r.tr.start("facet.digest", root, false)
	dig, panel := sess.Digest(), sess.PanelDigest()
	r.tr.end(sp)
	sp = r.tr.start("facet.phase", root, false)
	phase := (&facet.TPFacet{Session: sess}).SuggestPhase(0).String()
	r.tr.end(sp)
	sp = r.tr.start("render.rows", root, false)
	rows := renderRows(v.Table(), page)
	r.tr.end(sp)
	return total, r.encode(root, map[string]any{
		"count": total, "total": total, "offset": 0, "limit": q.Limit,
		"rows": rows, "digest": dig, "panel": panel, "phase": phase,
	})
}

// renderRows is the query route's page rendering: one JSON object per
// row, NaN as null.
func renderRows(t *dataset.Table, rows dataset.RowSet) []map[string]any {
	schema := t.Schema()
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		obj := make(map[string]any, len(schema)+1)
		obj["_row"] = row
		for col, attr := range schema {
			if cat := t.Cat(col); cat != nil {
				obj[attr.Name] = cat.Value(row)
			} else if x := t.Num(col).Value(row); !math.IsNaN(x) {
				obj[attr.Name] = x
			} else {
				obj[attr.Name] = nil
			}
		}
		out = append(out, obj)
	}
	return out
}

func (r *replica) fingerprint(root int, cs *cadSpec) (viewcache.Key, error) {
	sp := r.tr.start("httpapi.fingerprint", root, false)
	defer r.tr.end(sp)
	var compare []string
	fp, err := viewcache.Fingerprint(canonicalFilters(cs.Filters), cs.Pivot, cs.PivotValues, compare, cs.K, cs.MaxCompare, false, r.seed)
	return viewcache.NewKey(r.w.dataset, fp), err
}

func (r *replica) cad(ctx context.Context, root int, req []byte) (string, error) {
	var cs cadSpec
	if err := r.decode(root, req, &cs); err != nil {
		return "", err
	}
	key, err := r.fingerprint(root, &cs)
	if err != nil {
		return "", err
	}
	sp := r.tr.start("viewcache.get", root, false)
	bv, cached := r.cache.Get(key)
	r.tr.end(sp)
	if !cached {
		if bv, err = r.coldBuild(ctx, root, &cs); err != nil {
			return "", err
		}
		sp = r.tr.start("viewcache.put", root, false)
		r.cache.Put(key, bv)
		r.tr.end(sp)
	}
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("cad-%d", r.nextID)
	r.mu.Unlock()
	r.cads.Put(viewcache.Key(id), bv.view)
	out := *bv.view
	out.Name = id
	resp := map[string]any{"id": id, "view": &out, "text": bv.text, "cached": cached,
		"buildMs": float64(bv.tm.Total().Microseconds()) / 1e3, "timings": timingsJSON(bv.tm)}
	if cached {
		if v, _ := r.snapshot(); v.Table().Epoch() != bv.epoch {
			resp["stale"] = max(v.Table().NumRows()-bv.rows, 0)
			r.refreshCAD(key, &cs)
		}
	}
	return id, r.encode(root, resp)
}

func timingsJSON(tm core.Timings) map[string]float64 {
	out := make(map[string]float64, 8)
	for _, st := range tm.Stages() {
		out[st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	for _, st := range tm.ClusterDetail.Stages() {
		out["cluster_"+st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	return out
}

// coldBuild is one full CAD View construction over the current snapshot.
// Foreground builds (warm-up included) enter the tally.
func (r *replica) coldBuild(ctx context.Context, root int, cs *cadSpec) (*built, error) {
	v, base := r.snapshot()
	sp := r.tr.start("facet.select", root, false)
	sess, err := r.session(v, base, cs.Filters)
	var rows dataset.RowSet
	if err == nil {
		rows = sess.Rows()
	}
	r.tr.count(sp, int64(len(rows)))
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.observe(root, v)
	sp = r.tr.start("core.build", root, false)
	start := time.Now()
	view, tm, err := core.BuildContext(ctx, v, rows, core.Config{
		Pivot: cs.Pivot, PivotValues: cs.PivotValues, K: cs.K, MaxCompare: cs.MaxCompare, Seed: r.seed, Parallel: true,
	})
	d := time.Since(start)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if root != untraced {
		r.mu.Lock()
		r.tally.builds = append(r.tally.builds, tm)
		r.tally.buildMs = append(r.tally.buildMs, float64(d.Nanoseconds())/1e6)
		r.tally.pivotRows = append(r.tally.pivotRows, float64(len(view.Rows)))
		r.tally.compareAttr = append(r.tally.compareAttr, float64(len(view.CompareAttrs)))
		r.mu.Unlock()
	}
	sp = r.tr.start("render.text", root, false)
	text := core.Render(view, nil)
	r.tr.end(sp)
	return &built{view: view, tm: tm, text: text, epoch: v.Epoch(), rows: v.Rows()}, nil
}

// refreshCAD rebuilds a stale cached view in the background once the
// view snapshot has caught up with the table, one rebuild per key.
func (r *replica) refreshCAD(key viewcache.Key, cs *cadSpec) {
	if v, _ := r.snapshot(); v.Rows() != v.Table().NumRows() {
		r.refreshEntry()
		return
	}
	r.mu.Lock()
	if r.rebuildng[key] {
		r.mu.Unlock()
		return
	}
	r.rebuildng[key] = true
	r.mu.Unlock()
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		sp := r.tr.start("core.rebuild", noParent, true)
		defer func() {
			recover() // a failed rebuild leaves the stale entry, as in the server
			r.tr.end(sp)
			r.mu.Lock()
			delete(r.rebuildng, key)
			r.mu.Unlock()
		}()
		if bv, err := r.coldBuild(context.Background(), untraced, cs); err == nil {
			r.cache.Put(key, bv)
		}
	}()
}

func (r *replica) highlight(root int, req []byte) error {
	var h struct {
		ID         string `json:"id"`
		PivotValue string `json:"pivotValue"`
		Rank       int    `json:"rank"`
	}
	if err := r.decode(root, req, &h); err != nil {
		return err
	}
	view, ok := r.cads.Get(viewcache.Key(h.ID))
	if !ok {
		return fmt.Errorf("unknown CAD view %q", h.ID)
	}
	sp := r.tr.start("core.highlight", root, false)
	hl, err := core.HighlightSimilar(view, h.PivotValue, h.Rank, view.Tau)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.start("render.text", root, false)
	text := core.Render(view, hl)
	r.tr.end(sp)
	return r.encode(root, map[string]any{"highlight": hl, "text": text})
}

// suggesterFor returns the suggester mined from the current view,
// mining it again when a refresh swapped the view.
func (r *replica) suggesterFor(ctx context.Context, root int) (*suggest.Suggester, error) {
	v, _ := r.snapshot()
	r.sugMu.Lock()
	defer r.sugMu.Unlock()
	if r.sug != nil && r.sugView == v {
		return r.sug, nil
	}
	sp := r.tr.start("suggest.model", root, false)
	start := time.Now()
	m, err := suggest.BuildModel(ctx, v)
	d := time.Since(start)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.tally.modelMs = append(r.tally.modelMs, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
	r.sug, r.sugView = suggest.New(v, m), v
	return r.sug, nil
}

func (r *replica) suggest(ctx context.Context, root int, req []byte) error {
	var q struct {
		Statement string   `json:"statement"`
		Filters   []Filter `json:"filters"`
	}
	if err := r.decode(root, req, &q); err != nil {
		return err
	}
	sug, err := r.suggesterFor(ctx, root)
	if err != nil {
		return err
	}
	if q.Statement != "" {
		sp := r.tr.start("suggest.complete", root, false)
		c, err := sug.Complete(ctx, q.Statement, suggest.Options{})
		r.tr.end(sp)
		if err != nil {
			return err
		}
		return r.encode(root, map[string]any{"dataset": r.w.dataset, "mode": "complete", "completion": c, "degraded": c.Degraded})
	}
	sels := make([]suggest.Selection, 0, len(q.Filters))
	for _, f := range q.Filters {
		sels = append(sels, suggest.Selection{Attr: f.Attr, Values: f.Values})
	}
	sp := r.tr.start("suggest.drill", root, false)
	d, err := sug.Drill(ctx, sels, suggest.Options{})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	return r.encode(root, map[string]any{"dataset": r.w.dataset, "mode": "drilldown", "drilldown": d, "degraded": d.Degraded})
}

func (r *replica) ingest(root int, req []byte) error {
	var q struct {
		Rows [][]any `json:"rows"`
	}
	if err := r.decode(root, req, &q); err != nil {
		return err
	}
	v, _ := r.snapshot()
	schema := v.Table().Schema()
	for _, row := range q.Rows {
		for c := range row {
			if row[c] == nil && schema[c].Kind == dataset.Numeric {
				row[c] = math.NaN()
			}
		}
	}
	r.ingestMu.Lock()
	v, _ = r.snapshot()
	t := v.Table()
	sp := r.tr.start("dataset.append", root, false)
	err := t.AppendBatch(q.Rows)
	r.tr.end(sp)
	if err != nil {
		r.ingestMu.Unlock()
		return err
	}
	newRows, epoch := t.NumRows(), t.Epoch()
	sp = r.tr.start("facet.extend_digest", root, false)
	dig := r.extendBaseDigest(v, newRows)
	r.tr.end(sp)
	r.ingestMu.Unlock()
	r.refreshEntry()
	return r.encode(root, map[string]any{"dataset": r.w.dataset, "appended": len(q.Rows),
		"rows": newRows, "epoch": epoch, "stale": newRows - v.Rows(), "digest": dig})
}

func (r *replica) extendBaseDigest(v *dataview.View, newRows int) *facet.Digest {
	r.digMu.Lock()
	defer r.digMu.Unlock()
	if r.digView != v {
		r.baseDig = facet.NewSession(v, dataset.AllRows(v.Rows())).Digest()
		r.digView, r.digRows = v, v.Rows()
	}
	r.baseDig = facet.ExtendDigest(v, r.baseDig, r.digRows, newRows)
	r.digRows = newRows
	return r.baseDig
}

// refreshEntry rebuilds the view over the grown table in the background,
// one rebuild at a time, and swaps it in; it runs again when rows landed
// after its snapshot. The rebuild is a background span, outside any op.
func (r *replica) refreshEntry() {
	if !r.refreshing.CompareAndSwap(false, true) {
		return
	}
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		sp := r.tr.start("dataview.refresh", noParent, true)
		ok := false
		defer func() {
			recover() // a failed refresh keeps the old snapshot, as in the server
			r.tr.end(sp)
			r.refreshing.Store(false)
			if cur, _ := r.snapshot(); ok && cur.Rows() != cur.Table().NumRows() {
				r.refreshEntry()
			}
		}()
		old, _ := r.snapshot()
		t := old.Table()
		if old.Rows() == t.NumRows() {
			ok = true
			return
		}
		nv, err := dataview.New(t, old.Opts())
		if err != nil {
			return
		}
		r.viewMu.Lock()
		r.view, r.base = nv, dataset.AllRows(nv.Rows())
		r.viewMu.Unlock()
		r.digMu.Lock()
		r.baseDig, r.digView, r.digRows = nil, nil, 0
		r.digMu.Unlock()
		ok = true
	}()
}
