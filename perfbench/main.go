// Command perfbench is DBExplorer's end-to-end and per-layer benchmark.
//
// It drives the real httpapi.Server handler behind a loopback net/http
// listener, in one process, with one closed-loop client that sends its
// next request when the previous answer has arrived (IDEBench's session
// shape). Four seeded workloads exercise different layers:
//
//	explore     cold CAD View builds on the 40K used-car table
//	browse      the TPFacet path: stacked facet filters, /suggest, cached /cad
//	ingest      browse's reads with one 100-row /ingest every other session
//	wide-pivot  a 200-value pivot on a 100K-row Zipf table
//
// With --trace 0 it runs the client for --seconds and prints the
// end-to-end metrics; with --trace 1 it replays the same op sequence,
// over HTTP and then in process with a span around every call into a
// layer, and prints per-layer metrics.
//
// There is one client, not one per CPU. On a 2-vCPU shared host, two
// clients beside the server's parallel CAD View builds kept more threads
// runnable than there were CPUs, and the latency of short requests then
// followed the host's CPU steal: over five to ten seeds, the quartile
// spread of wide-pivot's drill_ms.p50 was 0.18-0.35 of its median with
// two clients and 0.06-0.07 with one.
//
// BENCHMARK.json at the root of the checkout names the metrics and
// units, and layers.json records which end-to-end metric each layer
// metric should move.
//
// Run it from the root of the checkout:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. The line before it
// records the host and the run's parameters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets up its workload; setup_s is their
// median.
const setups = 5

// settle is the pause after the timed run before the heap is read.
const settle = 250 * time.Millisecond

func main() {
	var (
		name    = flag.String("workload", "", "workload: explore, browse, ingest or wide-pivot")
		seed    = flag.Int64("seed", 1, "seed for the data and the requests")
		seconds = flag.Int("seconds", 20, "length of the measured run")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the closed loop")
		spans   = flag.String("spans", ".bench_build", "directory the traced run writes its spans to")
	)
	flag.Parse()
	// The server reports recovered panics on standard output; keep the
	// result the last line there.
	stdout := os.Stdout
	os.Stdout = os.Stderr

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	w := workloadByName(*name)
	if w == nil || !spec.hasWorkload(*name) {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, spans: *spans}
	var res *result
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runLoad(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if err := spec.validate(res.metrics, *traced == 1); err != nil {
		fatal(err)
	}
	for _, b := range res.bad {
		fmt.Fprintln(os.Stderr, "check failed:", b)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "request failed:", e)
	}
	enc := json.NewEncoder(stdout)
	must(enc.Encode(map[string]any{"host": hostInfo(cfg, *traced, res)}))
	must(enc.Encode(map[string]any{
		"correct":   len(res.bad) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

type runConfig struct {
	w     *workload
	seed  int64
	dur   time.Duration
	spans string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	bad       []string // correctness violations
	errs      []string // sample of failed requests
	samples   map[string]int
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// runLoad is the untraced closed-loop run that gives the end-to-end
// metrics.
func runLoad(cfg runConfig) (*result, error) {
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = newEnv(cfg.w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, e.setup.Seconds())
	}
	defer e.close()
	runtime.GC()
	rec, elapsed := closedLoop(e, cfg.dur, !cfg.w.ingest, false)
	// Let background work the run started (view refreshes, stale
	// rebuilds) finish before taking the live heap.
	time.Sleep(settle)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := &result{attempted: rec.attemptedTotal(), failed: rec.failedTotal(), errs: rec.errs,
		bad: rec.bad, samples: map[string]int{}}
	res.set("setup_s", median(setupS), "s")
	res.set("sessions_per_s", float64(rec.sessions)/elapsed.Seconds(), "1/s")
	for _, k := range []opKind{opCAD, opQuery, opDrill} {
		lat := rec.lat[k]
		res.samples[k.String()] = len(lat)
		if len(lat) < 200 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d %s samples; p95 has fewer than 10 above it\n", len(lat), k)
		}
		res.set(k.String()+"_ms.p50", quantile(lat, 0.50), "ms")
		res.set(k.String()+"_ms.p95", quantile(lat, 0.95), "ms")
	}
	res.samples["ingest"] = len(rec.lat[opIngest])
	for k, f := range rec.failed {
		if f > 0 {
			res.samples["failed_"+opKind(k).String()] = f
		}
	}
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")

	if cfg.w.ingest {
		res.bad = append(res.bad, checkIngest(e, rec)...)
	} else {
		s := newScanner(e.view)
		res.bad = append(res.bad, checkCounts(s, rec.counts)...)
		res.bad = append(res.bad, checkCADs(s, cfg.seed, rec.cads)...)
		res.samples["checked_counts"] = len(rec.counts)
		res.samples["checked_cads"] = len(rec.cads)
	}
	return res, nil
}

// runTraced gives the per-layer metrics. Each phase gets its own set-up,
// so all three start from the same state, and none keeps an earlier
// phase's server or replica reachable:
//
//	B  one client over HTTP, untraced, for 40% of the run: per-op HTTP
//	   latency, the server's counters, runtime deltas;
//	C  the same sessions in process, untraced: the baseline for overhead;
//	D  the same sessions in process with spans.
func runTraced(cfg runConfig) (*result, error) {
	res := &result{samples: map[string]int{}}
	e, err := newEnv(cfg.w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recB, _ := closedLoop(e, cfg.dur*4/10, false, true)
	runtime.ReadMemStats(&m1)
	counters := e.srv.Metrics().Snapshot()
	postingMB := float64(e.view.Table().Index().MemoryBytes()) / (1 << 20)
	n := recB.sessions + 1 // the session the deadline cut is paired too
	e.close()
	setupTimes := []*replicaTimes{{e.viewBuild, e.indexWarm}}
	plan := e.plan

	rC, err := newReplica(cfg.w, cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("replica set-up: %w", err)
	}
	res.bad = append(res.bad, checkSamePlan(plan, rC.plan, n)...)
	recC := rC.replay(n, time.Now().Add(cfg.dur*3/10))
	setupTimes = append(setupTimes, &replicaTimes{rC.viewBuild, rC.indexWarm})
	tr := newTracer()
	rD, err := newReplica(cfg.w, cfg.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("replica set-up: %w", err)
	}
	recD := rD.replay(n, time.Now().Add(cfg.dur*4/10))
	st := tr.reduce()
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-%d.jsonl", cfg.w.name, cfg.seed))); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	res.attempted = recB.attemptedTotal() + recD.attempts
	res.failed = recB.failedTotal() + recD.failed
	res.errs = append(recB.errs, recD.errs...)
	res.bad = append(res.bad, recB.bad...)
	res.samples["http_ops"] = len(recB.opLat)
	res.samples["traced_ops"] = len(st.rootMs)
	layerMetrics(res, layerInputs{recB: recB, recC: recC, st: st, d: rD,
		setups:   append(setupTimes, &replicaTimes{rD.viewBuild, rD.indexWarm}),
		counters: counters, postingMB: postingMB, m0: m0, m1: m1})
	return res, nil
}

type replicaTimes struct{ viewBuild, indexWarm time.Duration }

type layerInputs struct {
	recB      *recorder
	recC      *replayRec
	st        *spanStats
	d         *replica
	setups    []*replicaTimes
	counters  map[string]any
	postingMB float64
	m0, m1    runtime.MemStats
}

// layerMetrics derives every per_layer metric. Times are means per call
// (self time for spans), so a layer's mean times its calls per op is its
// share of the mean op time. A layer the workload does not reach reads 0.
func layerMetrics(res *result, in layerInputs) {
	st, b := in.st, in.recB
	// httpapi: what HTTP adds to an op beyond its traced in-process time.
	var self []float64
	for k, ms := range b.opLat {
		if root, ok := st.rootMs[k]; ok {
			self = append(self, ms-root)
		}
	}
	res.set("httpapi.self_ms", mean(self), "ms")
	okResp := 0
	for _, l := range b.lat {
		okResp += len(l)
	}
	res.set("httpapi.resp_kb", ratio(float64(b.respBytes)/1024, float64(okResp)), "KB")
	res.set("httpapi.error_ratio", ratio(float64(b.failedTotal()), float64(b.attemptedTotal())), "ratio")
	res.set("httpapi.ingest_ms", mean(b.lat[opIngest]), "ms")
	c := func(name string) float64 {
		v, _ := in.counters[name].(int64)
		return float64(v)
	}
	res.set("httpapi.stale_ratio", ratio(c("stale_served_total"), float64(len(b.lat[opCAD]))), "ratio")
	res.set("httpapi.panics", c("panics_recovered"), "count")
	res.set("parallel.shed_ratio", ratio(c("rejected_total"), float64(b.attemptedTotal())), "ratio")
	res.set("viewcache.hit_ratio", ratio(c("cad_cache_hits"), c("cad_cache_hits")+c("cad_cache_misses")), "ratio")
	res.set("viewcache.coalesced", c("cad_build_coalesced"), "count")
	res.set("suggest.model_builds", c("suggest_model_builds_total"), "count")
	res.set("dataset.posting_mb", in.postingMB, "MB")
	ops := float64(b.attemptedTotal())
	res.set("runtime.alloc_kb_per_op", ratio(float64(in.m1.TotalAlloc-in.m0.TotalAlloc)/1024, ops), "KB")
	res.set("runtime.gc_cycles", float64(in.m1.NumGC-in.m0.NumGC), "count")

	// Spans: mean self time per call.
	for _, m := range []struct{ metric, span string }{
		{"render.text_ms", "render.text"},
		{"render.json_ms", "render.json"},
		{"render.rows_ms", "render.rows"},
		{"facet.select_ms", "facet.select"},
		{"facet.page_ms", "facet.page"},
		{"facet.digest_ms", "facet.digest"},
		{"facet.extend_digest_ms", "facet.extend_digest"},
		{"core.highlight_ms", "core.highlight"},
		{"suggest.drill_ms", "suggest.drill"},
		{"suggest.complete_ms", "suggest.complete"},
		{"dataset.append_ms", "dataset.append"},
		{"httpapi.decode_ms", "httpapi.decode"},
		{"viewcache.lookup_ms", "viewcache.get"},
	} {
		res.set(m.metric, mean(st.self[m.span]), "ms")
	}
	res.set("facet.rows_out", mean(st.count["facet.select"]), "rows")
	res.set("dataset.index_extend_ms", mean(st.extended), "ms")
	res.set("dataview.refresh_ms", mean(st.bg["dataview.refresh"]), "ms")
	res.set("dataview.refreshes", float64(len(st.bg["dataview.refresh"])), "count")
	for _, k := range []opKind{opQuery, opCAD, opHighlight, opDrill, opComplete, opIngest} {
		res.set("trace.coverage."+k.String(), mean(st.coverage[k.String()]), "ratio")
	}
	// Overhead: traced over untraced in-process time of the same ops.
	var traced, plain float64
	for k, ms := range in.recC.opMs {
		if root, ok := st.rootMs[k]; ok {
			traced += root
			plain += ms
		}
	}
	res.set("trace.overhead_ratio", ratio(traced, plain), "ratio")

	// core and cluster: the Timings of every foreground build, warm-up
	// included. Cluster and other are summed over pivot rows built in
	// parallel, so they can exceed the build's wall time.
	t := in.d.tally
	var idx, cmp, clu, oth, seed, asg, upd, rsd, encode []float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, tm := range t.builds {
		idx = append(idx, ms(tm.Index))
		cmp = append(cmp, ms(tm.CompareSelect))
		clu = append(clu, ms(tm.Cluster))
		oth = append(oth, ms(tm.Other))
		cd := tm.ClusterDetail
		seed, asg, upd, rsd = append(seed, ms(cd.Seed)), append(asg, ms(cd.Assign)), append(upd, ms(cd.Update)), append(rsd, ms(cd.Reseed))
		encode = append(encode, ms(tm.Cluster-cd.Seed-cd.Assign-cd.Update-cd.Reseed))
	}
	res.set("core.build_ms", mean(t.buildMs), "ms")
	res.set("core.index_ms", mean(idx), "ms")
	res.set("core.compare_select_ms", mean(cmp), "ms")
	res.set("core.cluster_ms", mean(clu), "ms")
	res.set("core.other_ms", mean(oth), "ms")
	res.set("core.pivot_rows", mean(t.pivotRows), "rows")
	res.set("core.compare_attrs", mean(t.compareAttr), "attrs")
	res.set("cluster.seed_ms", mean(seed), "ms")
	res.set("cluster.assign_ms", mean(asg), "ms")
	res.set("cluster.update_ms", mean(upd), "ms")
	res.set("cluster.reseed_ms", mean(rsd), "ms")
	res.set("cluster.encode_ms", mean(encode), "ms")
	res.set("suggest.model_ms", mean(t.modelMs), "ms")

	var vb, ib []float64
	for _, s := range in.setups {
		vb = append(vb, ms(s.viewBuild))
		ib = append(ib, ms(s.indexWarm))
	}
	res.set("dataview.build_ms", mean(vb), "ms")
	res.set("dataset.index_build_ms", mean(ib), "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks; it is 0 on
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is 0 on no samples.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
