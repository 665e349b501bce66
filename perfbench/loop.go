package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Response shapes: every answer is decoded in full, into the fields the
// checks read.
type valueCount struct {
	Value string
	Count int
}

// byCount returns the values most frequent first.
func byCount(vs []valueCount) []string {
	vs = append([]valueCount(nil), vs...)
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Count > vs[j].Count })
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Value
	}
	return out
}

type queryResp struct {
	Count  int               `json:"count"`
	Total  int               `json:"total"`
	Rows   []json.RawMessage `json:"rows"`
	Digest struct {
		Attrs []struct {
			Attr   string
			Values []valueCount
		}
	} `json:"digest"`
}

type cadResp struct {
	ID   string          `json:"id"`
	View json.RawMessage `json:"view"`
	Text string          `json:"text"`
}

type viewRows struct {
	Rows []struct {
		Value  string            `json:"value"`
		IUnits []json.RawMessage `json:"iunits"`
	} `json:"rows"`
}

type highlightResp struct {
	Highlight json.RawMessage `json:"highlight"`
	Text      string          `json:"text"`
}

type suggestResp struct {
	Mode      string `json:"mode"`
	Drilldown *struct {
		Total int `json:"total"`
	} `json:"drilldown"`
	Completion *struct {
		Candidates []json.RawMessage `json:"candidates"`
	} `json:"completion"`
}

type ingestResp struct {
	Appended int `json:"appended"`
	Rows     int `json:"rows"`
}

// countRec is one /query answer kept for the row-scan check.
type countRec struct {
	filters []Filter
	count   int
}

// cadRec is one /cad answer kept for the rebuild check: hashes of the
// view JSON and the text rendering as served.
type cadRec struct {
	spec       *cadSpec
	id         string
	view, text [32]byte
}

// Check sampling: every distinct /query filter set up to maxCounts, and
// the /cad answers of the first sessions and every cadEvery-th one up to
// maxCADs.
const (
	maxCounts = 300
	maxCADs   = 12
	cadEvery  = 50
	maxErrs   = 8
)

// recorder collects one client's measurements and check samples.
type recorder struct {
	lat       [numKinds][]float64 // ms, successful requests
	attempted [numKinds]int
	failed    [numKinds]int
	sessions  int
	respBytes int64
	errs      []string // first few failures, for the log
	bad       []string // correctness violations

	// check enables the sampled output checks (off under ingest, where
	// answers depend on how many batches landed before them).
	check    bool
	counts   []countRec
	seen     map[string]bool
	cads     []cadRec
	appended int
	lastRows int

	// opLat, when set, keeps each op's latency by (session, op index)
	// so a single-client replay can be paired with the traced one.
	opLat map[int]float64
}

func opKey(j, i int) int { return j*64 + i }

func (r *recorder) failedTotal() int {
	n := 0
	for _, f := range r.failed {
		n += f
	}
	return n
}

func (r *recorder) attemptedTotal() int {
	n := 0
	for _, a := range r.attempted {
		n += a
	}
	return n
}

func (r *recorder) fail(k opKind, format string, args ...any) {
	r.failed[k]++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, k.String()+": "+fmt.Sprintf(format, args...))
	}
}

func (r *recorder) wrong(format string, args ...any) {
	if len(r.bad) < maxErrs {
		r.bad = append(r.bad, fmt.Sprintf(format, args...))
	} else if len(r.bad) == maxErrs {
		r.bad = append(r.bad, "...")
	}
}

// sessionState is what a session's later requests depend on.
type sessionState struct {
	count int    // rows of the last /query, -1 when none answered
	id    string // the last /cad view, "" when none answered
	first string // that view's first pivot value
}

// request returns op o's path and body, or false when the session skips
// it: a /cad with ifRows after an empty /query, or a /highlight without
// a view.
func (st *sessionState) request(o op, seed int64) (string, []byte, bool) {
	var path string
	var body any
	switch o.kind {
	case opQuery:
		path, body = "/query", map[string]any{"filters": o.filters, "limit": PageLimit}
	case opCAD:
		st.id = ""
		if o.ifRows && st.count == 0 {
			return "", nil, false
		}
		path, body = "/cad", o.cad
	case opHighlight:
		if st.id == "" {
			return "", nil, false
		}
		path, body = "/highlight", map[string]any{"id": st.id, "pivotValue": st.first, "rank": 1}
	case opDrill:
		path, body = "/suggest", map[string]any{"filters": o.filters}
	case opComplete:
		path, body = "/suggest", map[string]any{"statement": o.statement}
	case opIngest:
		path, body = "/ingest", map[string]any{"rows": ingestRows(seed, o.batch)}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // request bodies are plain data
	}
	return path, b, true
}

// runSession sends session j's requests in order, each after the
// previous answer arrived. It returns false when the deadline passed
// before the session finished; the rest of the session is not sent.
func (c *client) runSession(s session, j int, deadline time.Time, rec *recorder) bool {
	st := sessionState{count: -1}
	for i, o := range s.ops {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		path, req, ok := st.request(o, c.seed)
		if !ok {
			continue
		}
		if o.kind == opQuery {
			st.count = -1
		}
		rec.attempted[o.kind]++
		status, resp, d, err := c.do(http.MethodPost, path, req)
		if err != nil {
			rec.fail(o.kind, "%v", err)
			continue
		}
		if status != http.StatusOK {
			rec.fail(o.kind, "status %d: %.200s", status, resp)
			continue
		}
		ms := float64(d.Nanoseconds()) / 1e6
		rec.lat[o.kind] = append(rec.lat[o.kind], ms)
		rec.respBytes += int64(len(resp))
		if rec.opLat != nil {
			rec.opLat[opKey(j, i)] = ms
		}
		switch o.kind {
		case opQuery:
			st.count = c.checkQuery(o, resp, rec)
		case opCAD:
			st.id, st.first = c.checkCAD(o, j, resp, rec)
		case opHighlight:
			var hr highlightResp
			if err := json.Unmarshal(resp, &hr); err != nil || len(hr.Highlight) == 0 || hr.Text == "" {
				rec.wrong("highlight %s: undecodable answer (%v)", st.id, err)
			}
		case opDrill:
			var sr suggestResp
			switch err := json.Unmarshal(resp, &sr); {
			case err != nil || sr.Mode != "drilldown" || sr.Drilldown == nil:
				rec.wrong("drill: undecodable answer (%v)", err)
			case rec.check && st.count >= 0 && sr.Drilldown.Total != st.count:
				rec.wrong("drill %v: total %d, query counted %d", o.filters, sr.Drilldown.Total, st.count)
			}
		case opComplete:
			var sr suggestResp
			if err := json.Unmarshal(resp, &sr); err != nil || sr.Mode != "complete" || sr.Completion == nil || len(sr.Completion.Candidates) == 0 {
				rec.wrong("complete %q: undecodable or empty answer (%v)", o.statement, err)
			}
		case opIngest:
			var ir ingestResp
			if err := json.Unmarshal(resp, &ir); err != nil || ir.Appended != IngestBatch {
				rec.wrong("ingest batch %d: bad answer (%v)", o.batch, err)
			}
			rec.appended += ir.Appended
			rec.lastRows = max(rec.lastRows, ir.Rows)
			if err := c.awaitRefresh(ir.Rows); err != nil {
				rec.wrong("ingest batch %d: %v", o.batch, err)
			}
		}
	}
	return true
}

// refreshWait bounds how long the client waits after an /ingest for the
// serving view to cover the appended rows.
const refreshWait = 30 * time.Second

// awaitRefresh polls an unfiltered /query until the serving view counts
// rows rows. The client sends nothing else meanwhile: a read that runs
// between an append and the background view refresh's swap filters over
// the old snapshot's rows while the table's index already covers the
// new ones, and /suggest then fails with a recovered "NumEdgeCounts
// filter universe mismatch" panic. How many reads land in that window
// depends on the scheduler, so the failure count would change from run
// to run. The wait is not part of the /ingest latency.
func (c *client) awaitRefresh(rows int) error {
	body := []byte(`{"filters":[],"limit":1}`)
	deadline := time.Now().Add(refreshWait)
	for {
		status, resp, _, err := c.do(http.MethodPost, "/query", body)
		if err != nil {
			return err
		}
		var qr queryResp
		if status != http.StatusOK || json.Unmarshal(resp, &qr) != nil {
			return fmt.Errorf("refresh poll: status %d: %.200s", status, resp)
		}
		if qr.Count >= rows {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("view refresh covers %d of %d rows after %v", qr.Count, rows, refreshWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkQuery decodes a /query answer, checks it is self-consistent and
// keeps it for the row-scan check. It returns the row count.
func (c *client) checkQuery(o op, resp []byte, rec *recorder) int {
	var qr queryResp
	if err := json.Unmarshal(resp, &qr); err != nil {
		rec.wrong("query %v: undecodable answer: %v", o.filters, err)
		return -1
	}
	if qr.Count != qr.Total || len(qr.Rows) != min(qr.Count, PageLimit) || len(qr.Digest.Attrs) == 0 {
		rec.wrong("query %v: count %d total %d with %d rows", o.filters, qr.Count, qr.Total, len(qr.Rows))
	}
	if rec.check && len(rec.counts) < maxCounts {
		k := cadKey(&cadSpec{Filters: o.filters})
		if rec.seen == nil {
			rec.seen = map[string]bool{}
		}
		if !rec.seen[k] {
			rec.seen[k] = true
			rec.counts = append(rec.counts, countRec{filters: o.filters, count: qr.Count})
		}
	}
	return qr.Count
}

// checkCAD decodes a /cad answer and returns its id and first pivot
// value; sampled answers are kept for the rebuild check.
func (c *client) checkCAD(o op, j int, resp []byte, rec *recorder) (string, string) {
	var cr cadResp
	var vr viewRows
	if err := json.Unmarshal(resp, &cr); err != nil {
		rec.wrong("cad %s: undecodable answer: %v", o.cad.Pivot, err)
		return "", ""
	}
	if err := json.Unmarshal(cr.View, &vr); err != nil || cr.ID == "" || len(vr.Rows) == 0 || len(vr.Rows[0].IUnits) == 0 {
		rec.wrong("cad %s: answer without a view (%v)", o.cad.Pivot, err)
		return "", ""
	}
	if rec.check && len(rec.cads) < maxCADs && (j < 4 || j%cadEvery == 0) {
		rec.cads = append(rec.cads, cadRec{spec: o.cad, id: cr.ID,
			view: sha256.Sum256(cr.View), text: sha256.Sum256([]byte(cr.Text))})
	}
	return cr.ID, vr.Rows[0].Value
}

// closedLoop runs one client without think time until d has passed. It
// sends sessions 0, 1, 2, ... in order; a session cut by the deadline
// does not count as completed.
func closedLoop(e *env, d time.Duration, check bool, pair bool) (*recorder, time.Duration) {
	rec := &recorder{check: check}
	if pair {
		rec.opLat = map[int]float64{}
	}
	c := newClient(e.url)
	c.seed = e.seed
	defer c.close()
	start := time.Now()
	deadline := start.Add(d)
	for j := 0; c.runSession(e.plan.session(j), j, deadline, rec); j++ {
		rec.sessions++
	}
	return rec, time.Since(start)
}
