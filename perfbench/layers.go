package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/router"
	"fomodel/internal/server"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// Probe sizes. A probe measures what a workload's timed requests do not
// reach, so every workload reports every metric: sweeps, the router hop,
// and (on the workload's own inputs) the layers off its path, which the
// printout lists on its "probe" line.
const (
	sweepProbeLen   = 2500 * time.Millisecond // per phase: sequential sweeps against a fresh daemon
	sweepProbeGroup = 2*minTail + 1           // consecutive probe sweeps per window: a median with minTail beyond
	sweepChecked    = 8                       // probe sweeps replayed and compared
	layerProbes     = 6                       // full predict pipelines replayed in-process
	routerProbes    = 256
	handlerDrives   = 2000
)

// newReplayer builds the replay's private state. Its writes go to a
// private store bounded and pre-filled like compute_cold's, so every
// Put pays the same eviction scan; predict_store's replay reads the
// daemon's warm directory through a second handle, so the daemon's
// counters see only its own traffic.
func newReplayer(s *spec, fx *fixture, dir string) (*replayer, error) {
	rp := &replayer{}
	if s.name == "fleet_mixed" {
		rp.suite = newSuite(s)
	}
	st, err := artifact.Open(filepath.Join(dir, "replay"), coldStoreBytes)
	if err != nil {
		return nil, err
	}
	filler := make([]byte, 1<<20)
	for k := 0; k <= coldStoreBytes>>20; k++ {
		if err := st.Put("filler", fmt.Sprint(k), filler); err != nil {
			return nil, err
		}
	}
	rp.store = st
	rp.preps = uarch.NewPrepCache()
	rp.preps.SetStore(st)
	if s.name == "predict_store" {
		if rp.read, err = artifact.Open(fx.store.Dir(), 0); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// probeResult is the sweep probe's outcome.
type probeResult struct {
	lat            [][]uint32 // ns, one slice per phase
	sent           int        // probe sweeps sent so far
	spans          *spanSet   // the checked probe sweeps, replayed
	reuses, passes float64    // the probe daemons' prep-cache counts
	mismatched     int        // sweeps that differ from their replayed reference
}

func newProbe() *probeResult { return &probeResult{spans: newSpanSet()} }

// reuse is the probe daemons' prep-cache reuse ratio.
func (pr *probeResult) reuse() float64 { return ratio(pr.reuses, pr.reuses+pr.passes) }

// windows cuts each phase into groups of sweepProbeGroup consecutive
// sweeps, the probe's counterpart of the timed phase's windows.
func (pr *probeResult) windows() [][]float64 {
	var out [][]float64
	for _, phase := range pr.lat {
		for _, g := range groups(phase, sweepProbeGroup) {
			out = append(out, millis(g))
		}
	}
	return out
}

// sweepProbe runs one phase of the sweep probe, for the workloads whose
// timed phase has no sweeps. An untraced run has two phases, one before
// set-up and one after the timed phase, so the probe samples the
// machine at both ends of the run. A phase starts a fresh default
// daemon, warms it, and sends it uncached sweeps of every benchmark,
// one at a time, for sweepProbeLen. The first sweepChecked sweeps of the
// probe are then replayed and compared with their responses.
func sweepProbe(ctx context.Context, s *spec, pr *probeResult) error {
	var fx fixture
	defer fx.close()
	url, err := fx.addDaemon(server.Config{N: traceLen, Seed: daemonSeed}, nil)
	if err != nil {
		return err
	}
	if err := fx.daemons[0].Warm(ctx); err != nil {
		return err
	}
	before, _, err := fx.scrape(ctx)
	if err != nil {
		return err
	}
	cl := newClient(url)
	first := pr.sent
	var lat []uint32
	var checked [][]byte
	end := time.Now().Add(sweepProbeLen)
	for ; time.Now().Before(end); pr.sent++ {
		req := s.probeSweep(pr.sent)
		start := time.Now()
		status, body, _, err := call(ctx, cl, req, reqID(req.idx))
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("sweep probe: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("sweep probe: HTTP %d: %s", status, body)
		}
		lat = append(lat, nanos(d))
		if pr.sent < sweepChecked {
			checked = append(checked, body)
		}
	}
	pr.lat = append(pr.lat, lat)
	after, _, err := fx.scrape(ctx)
	if err != nil {
		return err
	}
	pr.reuses += sumDelta(before, after, "fomodeld_prep_cache_reuses_total")
	pr.passes += sumDelta(before, after, "fomodeld_prep_cache_passes_total")
	if len(checked) == 0 {
		return nil
	}
	rp := &replayer{suite: newSuite(s)}
	for j, body := range checked {
		want, err := rp.sweep(ctx, &recorder{set: pr.spans}, s.probeSweep(first+j).body)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			pr.mismatched++
		}
	}
	return nil
}

// layerProbe replays the full predict pipeline for layerProbes of the
// workload's inputs against a private store: the cold path (with the
// simulator), then the store path over what the cold path wrote.
func layerProbe(s *spec, dir string) (cold, stored *spanSet, err error) {
	st, err := artifact.Open(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	preps := uarch.NewPrepCache()
	preps.SetStore(st)
	rp := &replayer{store: st, read: st, preps: preps}
	var bodies [][]byte
	seen := map[string]bool{}
	for i := 0; len(bodies) < layerProbes; i++ {
		req := s.request(probeIndex + i)
		if req.sweep {
			continue
		}
		id := workload.ContentID(req.pred.Bench, req.pred.N, req.pred.Seed)
		if !seen[id] {
			seen[id] = true
			bodies = append(bodies, req.body)
		}
	}
	cold, stored = newSpanSet(), newSpanSet()
	for _, b := range bodies {
		if _, err := rp.predict(&recorder{set: cold}, b, pathCold, true); err != nil {
			return nil, nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	for _, b := range bodies {
		if _, err := rp.predict(&recorder{set: stored}, b, pathStore, false); err != nil {
			return nil, nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	return cold, stored, nil
}

// routerProbe puts a one-replica router in front of the workload's
// daemon and sends it requests from the workload's own stream: the
// router hop measured on inputs that never pass a proxy in the timed
// phase. It returns the mean proxy − replica span and the router's
// counter deltas.
func routerProbe(ctx context.Context, s *spec, fx *fixture, tr *tracer) (time.Duration, counters, error) {
	rt, err := router.New(router.Config{Replicas: []string{fx.hosts[0].url}, Defaults: keyDefaults}, nil)
	if err != nil {
		return 0, nil, err
	}
	ph, err := serve(tr.wrap("proxy", rt.Handler()))
	if err != nil {
		return 0, nil, err
	}
	defer ph.close()
	before, err := scrapeURL(ctx, ph.url)
	if err != nil {
		return 0, nil, err
	}
	n := routerProbes
	if s.name == "compute_cold" {
		n = layerProbes
	}
	cl := newClient(ph.url)
	tr.take()
	tr.on.Store(true)
	for k := 0; k < n; k++ {
		req := s.request(probeIndex + 100 + k)
		status, body, _, err := call(ctx, cl, req, reqID(req.idx))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, body)
		}
		if err != nil {
			tr.on.Store(false)
			return 0, nil, fmt.Errorf("router probe: %w", err)
		}
	}
	tr.on.Store(false)
	var hop agg
	for _, sv := range joinBoundaries(tr.take()) {
		if sv.proxy > 0 && sv.replicas > 0 {
			hop.add(sv.proxy - sv.replica)
		}
	}
	after, err := scrapeURL(ctx, ph.url)
	if err != nil {
		return 0, nil, err
	}
	return hop.mean(), after.sub(before), nil
}

// handlerDrive serves requests from the workload's own stream through
// the first daemon's handler with httptest, one at a time: the server
// layer alone, without sockets. It returns the mean time and heap
// allocations per request.
func handlerDrive(ctx context.Context, s *spec, fx *fixture) (time.Duration, float64, error) {
	h := fx.daemons[0].Handler()
	n := handlerDrives
	switch s.name {
	case "predict_store":
		n = len(s.keys)
	case "compute_cold":
		n = layerProbes
	}
	var reqs []request
	for i := 0; len(reqs) < n; i++ {
		if req := s.request(probeIndex + 1000 + i); !req.sweep {
			reqs = append(reqs, req)
		}
	}
	if s.name == "fleet_mixed" {
		// Each replica holds only its own shard; warm the whole keyset
		// on the driven one first.
		for k := range s.keys {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(s.bodies[k])).WithContext(ctx))
		}
	}
	hreqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i, req := range reqs {
		hreqs[i] = httptest.NewRequest(http.MethodPost, req.path(), bytes.NewReader(req.body)).WithContext(ctx)
		recs[i] = httptest.NewRecorder()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := range hreqs {
		h.ServeHTTP(recs[i], hreqs[i])
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	for i, rr := range recs {
		if rr.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler drive: request %d: HTTP %d: %s", i, rr.Code, rr.Body.Bytes())
		}
	}
	return d / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// layerSpans maps per-layer metrics to the replayed span they average.
var layerSpans = []struct{ metric, span string }{
	{"server.decode_us", "server.decode"},
	{"server.encode_us", "server.encode"},
	{"reqkey.key_us", "reqkey.key"},
	{"workload.byname_us", "workload.byname"},
	{"experiments.lookup_analysis_us", "experiments.lookup_analysis"},
	{"artifact.get_us", "artifact.get"},
	{"artifact.decode_gob_us", "artifact.decode_gob"},
	{"core.estimate_us", "core.estimate"},
	{"artifact.put_ms", "artifact.put"},
	{"workload.generate_ms", "workload.generate"},
	{"trace.producers_ms", "trace.producers"},
	{"trace.encode_ms", "trace.encode"},
	{"iw.characteristic_ms", "iw.characteristic"},
	{"stats.analyze_ms", "stats.analyze"},
	{"experiments.compute_analysis_ms", "experiments.compute_analysis"},
	{"uarch.simulate_ms", "uarch.simulate"},
	{"experiments.sweep_ms", "experiments.sweep"},
}

// inUnit converts d to the unit a metric name ends with.
func inUnit(d time.Duration, metric string) float64 {
	if strings.HasSuffix(metric, "_ms") {
		return float64(d) / 1e6
	}
	return float64(d) / 1e3
}

// stackRow sums one request class's traced spans.
type stackRow struct {
	client, proxy, handler, layers agg
	hedged                         int
}

// perLayer fills the per-layer metrics from the traced run and prints
// the latency stack.
func perLayer(ctx context.Context, out io.Writer, dir string, rep *report, s *spec, fx *fixture, tr *tracer,
	res *loopResult, probe *probeResult, before, after []counters, proxyBefore, proxyAfter counters) error {
	if res.replayErr != nil {
		return res.replayErr
	}
	if res.diverged > 0 {
		rep.fail("%d replays produced a body different from the response", res.diverged)
	}
	served := joinBoundaries(tr.take())
	fleet := s.name == "fleet_mixed"
	var rows [2]stackRow
	var roundTrip, hop agg // predicts: client − outer span, proxy − replica span
	for _, r := range res.recs {
		sv := served[r.id]
		if sv == nil || sv.replicas == 0 || (fleet && sv.proxy == 0) {
			continue
		}
		row := &rows[0]
		if r.sweep {
			row = &rows[1]
		}
		outer := sv.replica
		if fleet {
			outer = sv.proxy
			row.proxy.add(sv.proxy)
		}
		row.client.add(r.client)
		row.handler.add(sv.replica)
		row.layers.add(r.layers)
		if sv.replicas > 1 {
			row.hedged++
		}
		if !r.sweep {
			roundTrip.add(r.client - outer)
			if fleet {
				hop.add(sv.proxy - sv.replica)
			}
		}
	}
	if rows[0].client.n == 0 {
		return fmt.Errorf("no traced predict carried its boundary spans")
	}

	// Probes: sweeps (run before set-up) and the router hop where the
	// timed phase has none, the whole pipeline for off-path layers, and
	// the handler without sockets.
	routerHop, routerDelta := hop.mean(), proxyAfter.sub(proxyBefore)
	sweepSpans := newSpanSet()
	reuses := sumDelta(before, after, "fomodeld_prep_cache_reuses_total")
	passes := sumDelta(before, after, "fomodeld_prep_cache_passes_total")
	prepReuse := ratio(reuses, reuses+passes)
	if probe != nil {
		sweepSpans = probe.spans
		if reuses+passes == 0 {
			prepReuse = probe.reuse()
		}
		var err error
		if routerHop, routerDelta, err = routerProbe(ctx, s, fx, tr); err != nil {
			return err
		}
	}
	probeCold, probeStored, err := layerProbe(s, filepath.Join(dir, "probe"))
	if err != nil {
		return err
	}
	handler, allocs, err := handlerDrive(ctx, s, fx)
	if err != nil {
		return err
	}

	// Layer spans: the timed phase's replay where the workload's
	// requests reach the layer, else the probes, where the store path
	// stands for the layers it shares with the cold path.
	sources := []*spanSet{res.layers[0], res.layers[1], probeStored, probeCold, sweepSpans}
	spanMean := func(name string) (time.Duration, bool) {
		for i, set := range sources {
			if a := set.aggs[name]; a != nil && a.n > 0 {
				return a.mean(), i < 2
			}
		}
		return 0, false
	}
	var probed []string
	for _, ls := range layerSpans {
		d, onPath := spanMean(ls.span)
		if d == 0 {
			return fmt.Errorf("%s: no samples", ls.metric)
		}
		if !onPath {
			probed = append(probed, ls.metric)
		}
		rep.set(ls.metric, inUnit(d, ls.metric))
	}
	sim, _ := spanMean("uarch.simulate")
	rep.set("uarch.minstr_per_s", traceLen/sim.Seconds()/1e6)
	rep.set("server.handler_us", float64(handler)/1e3)
	rep.set("server.allocs_per_req", allocs)
	rep.set("client.roundtrip_overhead_us", float64(roundTrip.mean())/1e3)
	rep.set("router.overhead_us", float64(routerHop)/1e3)

	d := func(name string) float64 { return sumDelta(before, after, name) }
	rep.set("server.resp_cache_hit_ratio", ratio(d("fomodeld_response_cache_hits_total"),
		d("fomodeld_response_cache_hits_total")+d("fomodeld_response_cache_misses_total")))
	rep.set("server.analysis_cache_hit_ratio", ratio(d("fomodeld_analysis_cache_hits_total"),
		d("fomodeld_analysis_cache_hits_total")+d("fomodeld_analysis_cache_misses_total")))
	rep.set("artifact.hit_ratio", ratio(d("fomodeld_artifact_store_hits_total"),
		d("fomodeld_artifact_store_hits_total")+d("fomodeld_artifact_store_misses_total")))
	rep.set("artifact.evictions_per_put", ratio(d("fomodeld_artifact_store_evictions_total"),
		d("fomodeld_artifact_store_writes_total")))
	rep.set("uarch.prep_reuse_ratio", prepReuse)

	proxied := routerDelta.sum(`fomodelproxy_requests_total{path="/v1/predict",code="200"}`) +
		routerDelta.sum(`fomodelproxy_requests_total{path="/v1/sweep",code="200"}`)
	rep.set("router.hedge_frac", ratio(routerDelta.sum("fomodelproxy_replica_hedges_total"), proxied))
	rep.set("router.upstream_per_req", ratio(routerDelta.sum("fomodelproxy_replica_requests_total"), proxied))
	rep.set("router.owner_hit_ratio", ratio(routerDelta.sum("fomodelproxy_replica_cache_hits_total"),
		routerDelta.sum(`fomodelproxy_requests_total{path="/v1/predict",code="200"}`)))

	handlerSum := rows[0].handler.sum + rows[1].handler.sum
	layerSum := rows[0].layers.sum + rows[1].layers.sum
	rep.set("stack.residual_frac", float64(handlerSum-layerSum)/float64(handlerSum))
	rep.set("bench.tracing_overhead_frac",
		float64(res.slices[1].mean())/float64(res.slices[0].mean())-1)

	printStack(out, s.name, "predicts", rows[0], res.layers[0], fleet)
	if fleet {
		printStack(out, s.name, "sweeps", rows[1], res.layers[1], fleet)
	}
	if len(probed) > 0 {
		fmt.Fprintf(out, "probe (off the timed path on %s): %v\n", s.name, probed)
	}
	return nil
}

// printStack prints one class's latency stack: the on-path layers, their
// sum against the handler span, and the hops out to the client.
func printStack(out io.Writer, name, class string, row stackRow, set *spanSet, fleet bool) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	n := row.client.n
	fmt.Fprintf(out, "latency stack %s, %d traced %s (mean µs per request)\n", name, n, class)
	var children []string
	for _, layer := range set.names {
		a := set.aggs[layer]
		if !set.onPath[layer] {
			children = append(children, fmt.Sprintf("%s %.2f", layer, us(a.mean())))
			continue
		}
		fmt.Fprintf(out, "  %-30s %12.2f\n", layer, us(a.mean()))
	}
	h, l := row.handler.mean(), row.layers.mean()
	fmt.Fprintf(out, "  %-30s %12.2f\n", "Σ layers", us(l))
	fmt.Fprintf(out, "  %-30s %12.2f   residual %.2f (%.1f%%)\n", "handler span", us(h), us(h-l), 100*float64(h-l)/float64(h))
	outer := h
	if fleet {
		p := row.proxy.mean()
		fmt.Fprintf(out, "  %-30s %12.2f   router hop %.2f, %d of %d hedged\n", "proxy span", us(p), us(p-h), row.hedged, n)
		outer = p
	}
	c := row.client.mean()
	fmt.Fprintf(out, "  %-30s %12.2f   client round trip %.2f\n", "client span", us(c), us(c-outer))
	if len(children) > 0 {
		fmt.Fprintf(out, "  inside the layers above, not summed: %v\n", children)
	}
}
