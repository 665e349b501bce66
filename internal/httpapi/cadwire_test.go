package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"dbexplorer/internal/core"
)

// encodeCADOracle is the /cad answer as the handlers wrote it with
// encoding/json: the response map through json.NewEncoder, the view
// copied under the per-response id, the text rendered afresh and extra
// holding the stale and shed flags.
func encodeCADOracle(t *testing.T, bv *builtView, id string, cached bool, extra map[string]any) []byte {
	t.Helper()
	timings := map[string]float64{}
	for _, st := range bv.tm.Stages() {
		timings[st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	for _, st := range bv.tm.ClusterDetail.Stages() {
		timings["cluster_"+st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	out := *bv.view
	out.Name = id
	resp := map[string]any{
		"id":      id,
		"view":    &out,
		"text":    core.Render(bv.view, nil),
		"cached":  cached,
		"buildMs": float64(bv.tm.Total().Microseconds()) / 1e3,
		"timings": timings,
	}
	for k, v := range extra {
		resp[k] = v
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postCAD sends one /cad request and returns the raw answer and its id.
func postCAD(t *testing.T, srv *httptest.Server, path string, body []byte) ([]byte, string) {
	t.Helper()
	res, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, res.StatusCode, raw)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", path, ct)
	}
	var out struct{ ID string }
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		t.Fatalf("%s: answer without an id (%v): %.200s", path, err, raw)
	}
	return raw, out.ID
}

// cachedBuild returns the cache entry for a /cad request body, stale or
// not.
func cachedBuild(t *testing.T, s *Server, dataset string, body []byte) *builtView {
	t.Helper()
	ds, apiErr := s.dataset(dataset)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	var req cadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	key, err := s.fingerprint(ds, &req)
	if err != nil {
		t.Fatal(err)
	}
	bv, _, ok := s.cache.GetStale(key)
	if !ok {
		t.Fatal("request has no cache entry")
	}
	return bv
}

func checkCADBytes(t *testing.T, tag string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: /cad answer differs from the map encoding\n got %.300s\nwant %.300s", tag, got, want)
	}
}

// TestCADResponseMatchesMapEncoding holds the /cad wire bytes to the map
// encoding in all four answer shapes: a cold build, a cache hit, a stale
// hit after an ingest, and a shed answer from the cache under a full
// admission gate.
func TestCADResponseMatchesMapEncoding(t *testing.T) {
	t.Run("cold and cached", func(t *testing.T) {
		s, srv := newTestServer(t)
		body := []byte(`{"pivot":"Make","k":2,"filters":[{"attr":"BodyType","values":["SUV"]}]}`)
		raw, id := postCAD(t, srv, "/api/v1/UsedCars/cad", body)
		bv := cachedBuild(t, s, "UsedCars", body)
		checkCADBytes(t, "cold", raw, encodeCADOracle(t, bv, id, false, nil))
		raw, id = postCAD(t, srv, "/api/v1/UsedCars/cad", body)
		checkCADBytes(t, "cached", raw, encodeCADOracle(t, bv, id, true, nil))
	})
	t.Run("stale", func(t *testing.T) {
		s, _, srv := newIngestServer(t, 120)
		body := []byte(`{"pivot":"kind"}`)
		postCAD(t, srv, "/api/v1/pets/cad", body)
		bv := cachedBuild(t, s, "pets", body)
		if res, out := post(t, srv, "/api/v1/pets/ingest", map[string]any{
			"rows": []any{[]any{"cat", "SF", 2}, []any{"dog", "NY", 9}},
		}); res.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %v", res.StatusCode, out)
		}
		raw, id := postCAD(t, srv, "/api/v1/pets/cad", body)
		checkCADBytes(t, "stale", raw, encodeCADOracle(t, bv, id, true, map[string]any{"stale": 2}))
	})
	t.Run("shed", func(t *testing.T) {
		s, srv := newTestServer(t, WithMaxConcurrent(1), WithQueueDepth(1))
		body := []byte(`{"pivot":"Make","k":2}`)
		postCAD(t, srv, "/api/v1/UsedCars/cad", body)
		if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
			t.Fatal(err)
		}
		bv := cachedBuild(t, s, "UsedCars", body)
		release := saturateGate(t, s)
		defer release()
		raw, id := postCAD(t, srv, "/api/v1/UsedCars/cad", body)
		checkCADBytes(t, "shed", raw, encodeCADOracle(t, bv, id, true, map[string]any{"stale": true, "shed": true}))
	})
}

// TestWriteJSONUnencodable: a value with no JSON form must not go out as
// a 200 whose body is an error text.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.NaN()})
	checkInternalError(t, rec.Result())
}

// TestCADUnencodableView: a cached view with a non-finite float answers
// 500 with the internal envelope on both the handler and the shed path.
func TestCADUnencodableView(t *testing.T) {
	s, srv := newTestServer(t, WithMaxConcurrent(1), WithQueueDepth(1))
	body := []byte(`{"pivot":"Make","k":2}`)
	postCAD(t, srv, "/api/v1/UsedCars/cad", body)
	bv := cachedBuild(t, s, "UsedCars", body)
	broken := *bv
	view := *bv.view
	view.Tau = math.Inf(1)
	broken.view = &view
	var req cadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.dataset("UsedCars")
	key, err := s.fingerprint(ds, &req)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, &broken)
	if _, err := appendCADResponse(nil, &broken, "cad-1", true, false, nil); err == nil {
		t.Fatal("appendCADResponse encoded an infinite tau")
	}

	send := func() *http.Response {
		res, err := http.Post(srv.URL+"/api/v1/UsedCars/cad", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}
	checkInternalError(t, send())
	release := saturateGate(t, s)
	defer release()
	checkInternalError(t, send())
}

func checkInternalError(t *testing.T, res *http.Response) {
	t.Helper()
	if res.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("undecodable error body: %v", err)
	}
	if e := envelope(t, out); e.Code != CodeInternal {
		t.Errorf("error code = %q, want %q", e.Code, CodeInternal)
	}
}
