package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/viewcache"
)

// Filter is one facet selection as the API takes it: values of one
// attribute OR, attributes AND.
type Filter struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

// cadSpec is the body of a /cad request.
type cadSpec struct {
	Filters     []Filter `json:"filters,omitempty"`
	Pivot       string   `json:"pivot"`
	PivotValues []string `json:"pivotValues,omitempty"`
	K           int      `json:"k,omitempty"`
	MaxCompare  int      `json:"maxCompare,omitempty"`
}

type opKind int

const (
	opQuery opKind = iota
	opCAD
	opHighlight
	opDrill
	opComplete
	opIngest
	numKinds
)

var kindNames = [numKinds]string{"query", "cad", "highlight", "drill", "complete", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a session. A highlight targets the view the
// session's preceding /cad returned; a /cad with ifRows is sent only when
// the session's preceding /query found rows, and its highlight goes with
// it.
type op struct {
	kind      opKind
	filters   []Filter // query, drill
	cad       *cadSpec // cad
	ifRows    bool     // cad: only on a non-empty preceding query
	statement string   // complete
	batch     int      // ingest: index of the appended batch
}

type session struct{ ops []op }

// catalog is what /schema lists: the queriable attributes whose values
// it enumerates, in schema order, plus their kinds.
type catalog struct {
	table   string
	attrs   []string
	values  map[string][]string
	numeric map[string]bool
}

// workload is one traffic mix over one generated table.
type workload struct {
	name    string
	dataset string
	// data builds the table for a seed.
	data func(seed int64) *dataset.Table
	// ingest reports whether the mix appends rows.
	ingest bool
}

// UsedCarsRows is the paper's 40K scraped listings; ZipfRows spans two
// 64K storage segments.
const (
	UsedCarsRows = 40000
	ZipfRows     = 100000
	ZipfPivot    = 200
	ZipfOther    = 100
	ZipfS        = 1.3
	IngestBatch  = 100
	PageLimit    = 100
)

var workloads = []*workload{
	{name: "explore", dataset: "cars", data: usedCars},
	{name: "browse", dataset: "cars", data: usedCars},
	{name: "ingest", dataset: "cars", data: usedCars, ingest: true},
	{name: "wide-pivot", dataset: "zipf", data: zipfTable},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func usedCars(seed int64) *dataset.Table { return datagen.UsedCars(UsedCarsRows, seed) }

func zipfColumns() []datagen.ZipfColumn {
	cols := []datagen.ZipfColumn{{Name: "c0", Card: ZipfPivot, S: ZipfS}}
	for i := 1; i <= 4; i++ {
		cols = append(cols, datagen.ZipfColumn{Name: fmt.Sprintf("c%d", i), Card: ZipfOther, S: ZipfS})
	}
	return cols
}

func zipfTable(seed int64) *dataset.Table {
	return datagen.ZipfTable("Zipf", ZipfRows, zipfColumns(), seed)
}

// ingestRows returns batch b of the rows the ingest mix appends: 100
// listings from datagen.UsedCars under a seed derived from the run seed
// and the batch index, so every run appends the same rows in the same
// order. Cells are in schema order; a missing number is nil (JSON null).
func ingestRows(seed int64, b int) [][]any {
	t := datagen.UsedCars(IngestBatch, seed*1_000_003+7_919+int64(b))
	schema := t.Schema()
	rows := make([][]any, t.NumRows())
	for r := range rows {
		row := make([]any, len(schema))
		for c := range schema {
			if cat := t.Cat(c); cat != nil {
				row[c] = cat.Value(r)
			} else if x := t.Num(c).Value(r); !math.IsNaN(x) {
				row[c] = x
			}
		}
		rows[r] = row
	}
	return rows
}

// planner generates a workload's session sequence from the seed. Session
// j is the same for a given seed however far the sequence is consumed:
// the closed loop and the traced replays all send sessions 0, 1, 2, ....
type planner struct {
	w   *workload
	cat catalog
	// hot is the /cad hot set built during warm-up (browse, ingest).
	hot []*cadSpec
	// head and tail are the wide pivot's values by descending frequency,
	// split where every session keeps the head.
	head, tail []string
	// facets are the attributes sessions filter on.
	facets []string
	warm   session

	mu       sync.Mutex
	rng      *rand.Rand
	sessions []session
	used     map[string]bool
}

const (
	wideHead = 150
	// wideCompare pins the wide pivot's views to one Compare Attribute.
	// The Zipf columns are independent, so which attributes pass the
	// significance cut is chance; with a wider budget a build clusters
	// on one attribute or, when none passes, on the fallback's five,
	// and its cost jumps tenfold between requests.
	wideCompare = 1
)

// cadPivots are the used-car pivot attributes: low-cardinality ones the
// paper pivots on, and Make with its 53 values.
var cadPivots = []string{"Make", "BodyType", "Drivetrain", "Transmission"}

func newPlanner(w *workload, cat catalog, pivotVals []string, seed int64) *planner {
	p := &planner{w: w, cat: cat, rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}, facets: cat.attrs}
	if w.name == "browse" || w.ingest {
		// A view refresh after an append re-bins numeric attributes, so
		// numeric bin labels from /schema stop naming values; the
		// browse and ingest read mixes filter on categorical facets.
		p.facets = nil
		for _, a := range cat.attrs {
			if !cat.numeric[a] {
				p.facets = append(p.facets, a)
			}
		}
	}
	switch w.name {
	case "wide-pivot":
		n := min(wideHead, len(pivotVals))
		p.head, p.tail = pivotVals[:n], pivotVals[n:]
		p.warm = p.wideSession()
	case "explore":
		// One unfiltered /cad per pivot attribute builds its posting sets,
		// so no timed request pays a lazy index build.
		fs := []Filter{p.filter(p.facets[0])}
		ops := []op{{kind: opQuery, filters: fs}, {kind: opDrill, filters: fs}}
		for _, piv := range cadPivots {
			cs := &cadSpec{Pivot: piv, K: 3}
			p.used[cadKey(cs)] = true
			ops = append(ops, op{kind: opCAD, cad: cs}, op{kind: opHighlight})
		}
		p.warm = session{ops: ops}
	default: // browse, ingest
		// The hot set is every pivot at k 3 and 4 over the whole table:
		// the same mix of view sizes under every seed.
		for _, piv := range cadPivots {
			for k := 3; k <= 4; k++ {
				cs := &cadSpec{Pivot: piv, K: k}
				p.used[cadKey(cs)] = true
				p.hot = append(p.hot, cs)
			}
		}
		fs := []Filter{p.filter(p.facets[0])}
		ops := []op{{kind: opQuery, filters: fs}, {kind: opDrill, filters: fs},
			{kind: opComplete, statement: p.statement(nil)}}
		for _, cs := range p.hot {
			ops = append(ops, op{kind: opCAD, cad: cs})
		}
		p.warm = session{ops: ops}
	}
	return p
}

// session returns session j, generating the sequence up to it.
func (p *planner) session(j int) session {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.sessions) <= j {
		p.sessions = append(p.sessions, p.next(len(p.sessions)))
	}
	return p.sessions[j]
}

func (p *planner) next(j int) session {
	switch p.w.name {
	case "explore":
		return p.explore()
	case "wide-pivot":
		return p.wideSession()
	}
	s := p.browse()
	// One batch every other session.
	if p.w.ingest && j%2 == 0 {
		s.ops = append([]op{{kind: opIngest, batch: j / 2}}, s.ops...)
	}
	return s
}

// explore: /query on 1-3 filters, /cad over the result with a pivot the
// filters leave free and k in {3,4}, /highlight on the returned view,
// /suggest drill on the filters. Every (filters, pivot, k) is new, so
// every /cad misses the cache.
func (p *planner) explore() session {
	for {
		fs := p.filters(1 + p.rng.Intn(3))
		var pivots []string
		for _, piv := range cadPivots {
			if !hasAttr(fs, piv) {
				pivots = append(pivots, piv)
			}
		}
		cs := &cadSpec{Filters: fs, Pivot: p.pick(pivots), K: 3 + p.rng.Intn(2)}
		k := cadKey(cs)
		if p.used[k] {
			continue
		}
		p.used[k] = true
		return session{ops: []op{
			{kind: opQuery, filters: fs},
			{kind: opCAD, cad: cs, ifRows: true},
			{kind: opHighlight},
			{kind: opDrill, filters: fs},
		}}
	}
}

// browse: stack 1-4 facet filters one at a time with /query and
// /suggest drill at each step, one /suggest completion after the first
// step, and one /cad from the hot set.
func (p *planner) browse() session {
	fs := p.filters(1 + p.rng.Intn(4))
	var ops []op
	for i := 1; i <= len(fs); i++ {
		ops = append(ops, op{kind: opQuery, filters: fs[:i]}, op{kind: opDrill, filters: fs[:i]})
		if i == 1 {
			ops = append(ops, op{kind: opComplete, statement: p.statement(fs[:1])})
		}
	}
	ops = append(ops, op{kind: opCAD, cad: p.hot[p.rng.Intn(len(p.hot))]})
	return session{ops: ops}
}

// wideSession: /query and /suggest drill on one score band (a fifth of
// the rows), then on another band, then /cad over the first band with
// pivot c0 and /highlight on the view. Every read filters one band, so
// all do the same work and the median does not sit between two sizes
// of work. The pivot values
// are the 150 most frequent of c0's 200 plus each of the other 50 with
// probability 1/2, so a subset never repeats, and as the tail values are
// rare, every build does nearly the same work.
func (p *planner) wideSession() session {
	bands := p.cat.values["score"]
	i := p.rng.Intn(len(bands))
	one := []Filter{{Attr: "score", Values: []string{bands[i]}}}
	other := []Filter{{Attr: "score", Values: []string{bands[(i+1+p.rng.Intn(len(bands)-1))%len(bands)]}}}
	for {
		vals := append([]string(nil), p.head...)
		for _, v := range p.tail {
			if p.rng.Intn(2) == 0 {
				vals = append(vals, v)
			}
		}
		cs := &cadSpec{Filters: one, Pivot: "c0", PivotValues: vals, K: 3, MaxCompare: wideCompare}
		if k := cadKey(cs); !p.used[k] {
			p.used[k] = true
			return session{ops: []op{
				{kind: opQuery, filters: one},
				{kind: opDrill, filters: one},
				{kind: opQuery, filters: other},
				{kind: opDrill, filters: other},
				{kind: opCAD, cad: cs},
				{kind: opHighlight},
			}}
		}
	}
}

// filters draws n distinct facets with one listed value each.
func (p *planner) filters(n int) []Filter {
	order := p.rng.Perm(len(p.facets))
	fs := make([]Filter, 0, n)
	for _, i := range order[:n] {
		fs = append(fs, p.filter(p.facets[i]))
	}
	return fs
}

func (p *planner) filter(attr string) Filter {
	return Filter{Attr: attr, Values: []string{p.pick(p.cat.values[attr])}}
}

func (p *planner) pick(xs []string) string { return xs[p.rng.Intn(len(xs))] }

// statement is a partial CADQL statement at the typing frontier: the
// categorical filters typed as conjuncts, then a fresh categorical
// attribute awaiting its value.
func (p *planner) statement(fs []Filter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s WHERE ", p.cat.table)
	for _, f := range fs {
		if !p.cat.numeric[f.Attr] {
			fmt.Fprintf(&b, "%s = '%s' AND ", f.Attr, strings.ReplaceAll(f.Values[0], "'", "''"))
		}
	}
	var free []string
	for _, a := range p.cat.attrs {
		if !p.cat.numeric[a] && !hasAttr(fs, a) {
			free = append(free, a)
		}
	}
	fmt.Fprintf(&b, "%s = ", p.pick(free))
	return b.String()
}

func hasAttr(fs []Filter, attr string) bool {
	for _, f := range fs {
		if f.Attr == attr {
			return true
		}
	}
	return false
}

// canonicalFilters sorts attributes and values, as the server does
// before fingerprinting.
func canonicalFilters(fs []Filter) []Filter {
	out := make([]Filter, len(fs))
	for i, f := range fs {
		vals := append([]string(nil), f.Values...)
		sort.Strings(vals)
		out[i] = Filter{Attr: f.Attr, Values: vals}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// cadKey identifies a /cad request by what determines its build.
func cadKey(cs *cadSpec) string {
	fp, err := viewcache.Fingerprint(canonicalFilters(cs.Filters), cs.Pivot, cs.PivotValues, cs.K, cs.MaxCompare)
	if err != nil {
		panic(err) // strings and ints always encode
	}
	return fp
}
