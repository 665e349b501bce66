package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/httpapi"
)

// CacheSize is the server's CAD View build cache. Every workload's hot
// set fits in it, so it decides no hit; it bounds memory, as the server
// keeps the last max(4*CacheSize, 256) served views for /highlight and
// a wide view holds about a megabyte.
const CacheSize = 32

// env is one set-up of a workload: the generated table, its view, and
// the real httpapi.Server behind a loopback listener.
type env struct {
	w     *workload
	seed  int64
	view  *dataview.View
	srv   *httpapi.Server
	hs    *http.Server
	done  chan struct{}
	api   string // http://<addr>/api/v1
	url   string // api + "/<dataset>"
	plan  *planner
	rows0 int

	setup     time.Duration // generation through warm-up
	viewBuild time.Duration // dataview.New
	indexWarm time.Duration // first Table.Index plus every posting set
}

// buildData generates the table, codes its view and materializes its
// posting index: the part of set-up that the traced replica shares with
// the server.
func buildData(w *workload, seed int64) (*dataset.Table, *dataview.View, time.Duration, time.Duration, error) {
	t := w.data(seed)
	start := time.Now()
	v, err := dataview.New(t, dataview.Options{})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dataview: %w", err)
	}
	viewBuild := time.Since(start)
	start = time.Now()
	warmIndex(t)
	return t, v, viewBuild, time.Since(start), nil
}

// warmIndex builds every posting set and numeric order of t's index.
func warmIndex(t *dataset.Table) {
	ix := t.Index()
	for col, attr := range t.Schema() {
		if attr.Kind == dataset.Numeric {
			ix.NumCmpRangeLen(col, 0, true, true, false)
		} else {
			ix.CatPostings(col)
		}
	}
}

// newEnv sets up a workload: data generation, dataview.New, the posting
// index, Register, the suggestion model, and a warm-up session over HTTP
// that fills the remaining lazy structures and the /cad hot set.
func newEnv(w *workload, seed int64) (*env, error) {
	start := time.Now()
	t, v, viewBuild, indexWarm, err := buildData(w, seed)
	if err != nil {
		return nil, err
	}
	srv := httpapi.NewServer(httpapi.WithSeed(seed), httpapi.WithCacheSize(CacheSize))
	if err := srv.Register(w.dataset, v); err != nil {
		return nil, err
	}
	if err := srv.WarmSuggest(context.Background()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{w: w, seed: seed, view: v, srv: srv, rows0: t.NumRows(),
		hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		api:       "http://" + ln.Addr().String() + "/api/v1",
		viewBuild: viewBuild, indexWarm: indexWarm}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	e.url = e.api + "/" + w.dataset
	c := newClient(e.url)
	c.seed = seed
	defer c.close()
	cat, err := c.catalog()
	if err != nil {
		e.close()
		return nil, err
	}
	var pivotVals []string
	if w.name == "wide-pivot" {
		if pivotVals, err = c.valuesByCount("c0"); err != nil {
			e.close()
			return nil, err
		}
	}
	e.plan = newPlanner(w, cat, pivotVals, seed)
	var rec recorder
	if !c.runSession(e.plan.warm, -1, time.Time{}, &rec) || rec.failedTotal() > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up session failed: %v", rec.errs)
	}
	e.setup = time.Since(start)
	return e, nil
}

// close stops the listener and waits for its serve loop to return.
func (e *env) close() {
	_ = e.hs.Close() // closing a listener can only report it already closed
	<-e.done
}

// client is one closed-loop user: one keep-alive connection, no think
// time.
type client struct {
	base string
	seed int64 // for ingest batches
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body. The duration runs from
// just before the request is written until its body is fully read.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, out, d, err
}

func (c *client) getJSON(path string, into any) error {
	status, body, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, into)
}

// catalog reads /schema: the queriable attributes whose values it lists.
func (c *client) catalog() (catalog, error) {
	var s struct {
		Table string `json:"table"`
		Attrs []struct {
			Name      string   `json:"name"`
			Kind      string   `json:"kind"`
			Queriable bool     `json:"queriable"`
			Values    []string `json:"values"`
		} `json:"attrs"`
	}
	if err := c.getJSON("/schema", &s); err != nil {
		return catalog{}, err
	}
	cat := catalog{table: s.Table, values: map[string][]string{}, numeric: map[string]bool{}}
	for _, a := range s.Attrs {
		if a.Queriable && len(a.Values) > 0 {
			cat.attrs = append(cat.attrs, a.Name)
			cat.values[a.Name] = a.Values
			cat.numeric[a.Name] = a.Kind == dataset.Numeric.String()
		}
	}
	if len(cat.attrs) == 0 {
		return cat, errors.New("schema lists no attribute values")
	}
	return cat, nil
}

// valuesByCount reads an attribute's values from the unfiltered /query
// digest, most frequent first.
func (c *client) valuesByCount(attr string) ([]string, error) {
	status, body, _, err := c.do(http.MethodPost, "/query", []byte(`{"limit":1}`))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("query: status %d", status)
	}
	var qr queryResp
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	for _, a := range qr.Digest.Attrs {
		if a.Attr != attr {
			continue
		}
		return byCount(a.Values), nil
	}
	return nil, fmt.Errorf("digest has no attribute %q", attr)
}
