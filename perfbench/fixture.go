package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/client"
	"fomodel/internal/reqkey"
	"fomodel/internal/router"
	"fomodel/internal/server"
)

// Serving-tier settings that differ from the daemon defaults; each is
// what puts its workload on the path it measures. predict_store's caches
// sit far below its 384-key set; compute_cold's store bound sits below
// what one run writes (about 0.7 MB per request).
const (
	storeCacheEntries = 16
	coldStoreBytes    = 32 << 20
)

// sweepWorkers is the daemons' sweep pool size (fomodeld -parallel):
// fleet_mixed's two replicas share the machine's CPUs, so each runs its
// sweep cells on one worker; 0 is the default, GOMAXPROCS.
func sweepWorkers(workload string) int {
	if workload == "fleet_mixed" {
		return 1
	}
	return 0
}

// keyDefaults are the normalization defaults every daemon here serves
// under; the router and the replay key requests with the same ones.
var keyDefaults = reqkey.Defaults{N: traceLen, Seed: daemonSeed}

// host serves one handler on a loopback port.
type host struct {
	srv    *http.Server
	url    string
	done   chan struct{}
	active atomic.Int64 // handlers running
}

func serve(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &host{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	hs.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.active.Add(1)
		defer hs.active.Add(-1)
		h.ServeHTTP(w, r)
	})}
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return hs, nil
}

// close stops the server and waits until Serve has returned and every
// handler has finished. It closes connections rather than draining them
// (Shutdown waits up to 5 s on a connection that never sent a request,
// which a proxy's canceled hedge can leave behind); by then every client
// request has completed, and a hedge loser still computing is waited for.
func (h *host) close() {
	_ = h.srv.Close() // the only error is from closing an already-closed listener
	<-h.done
	for h.active.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// fixture is one workload's serving tier: its daemons, the proxy when
// the workload has one, and the URL the clients call.
type fixture struct {
	daemons    []*server.Server
	hosts      []*host
	proxy      *host
	stopRouter func()
	store      *artifact.Store
	entry      string
}

func (f *fixture) close() {
	if f.proxy != nil {
		f.proxy.close()
		f.stopRouter()
	}
	for _, h := range f.hosts {
		h.close()
	}
}

// addDaemon builds a daemon, serves it, and returns its URL.
func (f *fixture) addDaemon(cfg server.Config, tr *tracer) (string, error) {
	d := server.New(cfg, nil)
	h, err := serve(tr.wrap("replica", d.Handler()))
	if err != nil {
		return "", err
	}
	f.daemons = append(f.daemons, d)
	f.hosts = append(f.hosts, h)
	return h.url, nil
}

// newClient is a load-generating client: no retries, so a shed or
// failed request counts as a failure instead of a stall.
func newClient(url string) *client.Client {
	cl := client.NewPooled(url, 4*clients)
	cl.MaxRetries = -1
	cl.RequestTimeout = 2 * time.Minute
	return cl
}

// call sends one request and reads the whole response.
func call(ctx context.Context, cl *client.Client, req request, id string) (int, []byte, http.Header, error) {
	var hdr http.Header
	if id != "" {
		hdr = http.Header{"X-Request-Id": {id}}
	}
	resp, err := cl.DoRaw(ctx, http.MethodPost, req.path(), req.body, hdr, false)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// fill sends reqs with the workload's client count and fails on the
// first non-200.
func fill(ctx context.Context, cl *client.Client, reqs []request) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				status, body, _, err := call(ctx, cl, reqs[i], "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: HTTP %d: %s", reqs[i].path(), status, strings.TrimSpace(string(body)))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup builds the workload's serving tier in dir and brings it to the
// state its timed phase starts from. Everything it does is program
// set-up and counts in setup_s.
func setup(ctx context.Context, s *spec, dir string, tr *tracer) (*fixture, error) {
	f := &fixture{}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	base := server.Config{N: traceLen, Seed: daemonSeed}
	keyReqs := make([]request, len(s.keys))
	for k := range s.keys {
		keyReqs[k] = request{pred: s.keys[k], body: s.bodies[k]}
	}
	switch s.name {
	case "predict_hot":
		url, err := f.addDaemon(base, tr)
		if err != nil {
			return nil, err
		}
		f.entry = url
		if err := fill(ctx, newClient(url), keyReqs); err != nil {
			return nil, fmt.Errorf("warm response cache: %w", err)
		}

	case "predict_store":
		st, err := artifact.Open(filepath.Join(dir, "store"), 0)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Store = st
		var filler fixture
		url, err := filler.addDaemon(cfg, nil)
		if err != nil {
			return nil, err
		}
		err = fill(ctx, newClient(url), keyReqs)
		filler.close()
		if err != nil {
			return nil, fmt.Errorf("fill store: %w", err)
		}
		// The timed phase reads analyses only. Dropping the traces the
		// fill wrote keeps the store small, and any trace load the
		// restarted daemon attempts then shows as a store miss.
		traces, err := filepath.Glob(filepath.Join(st.Dir(), "trace-*"))
		if err != nil {
			return nil, err
		}
		for _, p := range traces {
			if err := os.Remove(p); err != nil {
				return nil, err
			}
		}
		// Restart: a fresh daemon and a fresh store handle on the warm
		// directory, with caches far smaller than the keyset.
		if f.store, err = artifact.Open(st.Dir(), 0); err != nil {
			return nil, err
		}
		cfg.Store = f.store
		cfg.CacheEntries = storeCacheEntries
		cfg.AnalysisCacheEntries = storeCacheEntries
		if f.entry, err = f.addDaemon(cfg, tr); err != nil {
			return nil, err
		}

	case "compute_cold":
		st, err := artifact.Open(filepath.Join(dir, "store"), coldStoreBytes)
		if err != nil {
			return nil, err
		}
		f.store = st
		cfg := base
		cfg.Store = st
		if f.entry, err = f.addDaemon(cfg, tr); err != nil {
			return nil, err
		}
		cl := newClient(f.entry)
		for k := 0; ; k += clients {
			if _, _, _, _, ev := st.Stats(); ev > 0 {
				break
			}
			if k >= 4*coldStoreBytes>>20 {
				return nil, fmt.Errorf("fill store: no eviction after %d requests", k)
			}
			batch := make([]request, clients)
			for c := range batch {
				batch[c] = s.request(fillIndex + k + c)
			}
			if err := fill(ctx, cl, batch); err != nil {
				return nil, fmt.Errorf("fill store: %w", err)
			}
		}

	case "fleet_mixed":
		cfg := base
		cfg.Workers = sweepWorkers(s.name)
		var urls []string
		for r := 0; r < 2; r++ {
			url, err := f.addDaemon(cfg, tr)
			if err != nil {
				return nil, err
			}
			if err := f.daemons[r].Warm(ctx); err != nil {
				return nil, err
			}
			urls = append(urls, url)
		}
		rt, err := router.New(router.Config{Replicas: urls, Defaults: keyDefaults}, nil)
		if err != nil {
			return nil, err
		}
		rctx, cancel := context.WithCancel(context.Background())
		rt.Start(rctx)
		f.stopRouter = func() { cancel(); rt.Wait() }
		if f.proxy, err = serve(tr.wrap("proxy", rt.Handler())); err != nil {
			f.stopRouter()
			return nil, err
		}
		f.entry = f.proxy.url
		// Three passes over the keyset: the first warms each key on its
		// owner, the rest take the proxy past its 50-sample hedge minimum.
		cl := newClient(f.entry)
		for pass := 0; pass < 3; pass++ {
			if err := fill(ctx, cl, keyReqs); err != nil {
				return nil, fmt.Errorf("warm fleet: %w", err)
			}
		}
	}
	ok = true
	return f, nil
}

// scrape reads /metrics from every daemon and, when present, the proxy.
func (f *fixture) scrape(ctx context.Context) (daemons []counters, proxy counters, err error) {
	for _, h := range f.hosts {
		c, err := scrapeURL(ctx, h.url)
		if err != nil {
			return nil, nil, err
		}
		daemons = append(daemons, c)
	}
	if f.proxy != nil {
		if proxy, err = scrapeURL(ctx, f.proxy.url); err != nil {
			return nil, nil, err
		}
	}
	return daemons, proxy, nil
}

func scrapeURL(ctx context.Context, url string) (counters, error) {
	resp, err := newClient(url).DoRaw(ctx, http.MethodGet, "/metrics", nil, nil, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: HTTP %d", url, resp.StatusCode)
	}
	return parseCounters(string(body))
}

// Daemon series the benchmark reads.
const (
	predictOK = `fomodeld_requests_total{path="/v1/predict",code="200"}`
	sweepOK   = `fomodeld_requests_total{path="/v1/sweep",code="200"}`
)

// shapeOf sums the daemons' counter deltas over a phase.
func shapeOf(before, after []counters, sweepHits int) shape {
	var sh shape
	for i := range after {
		d := after[i].sub(before[i])
		sh.predicts += d[predictOK]
		sh.respHits += d.sum("fomodeld_response_cache_hits_total")
		sh.respMisses += d.sum("fomodeld_response_cache_misses_total")
		sh.analysisHits += d.sum("fomodeld_analysis_cache_hits_total")
		sh.storeHits += d.sum("fomodeld_artifact_store_hits_total")
		sh.storeMisses += d.sum("fomodeld_artifact_store_misses_total")
		sh.storeEvictions += d.sum("fomodeld_artifact_store_evictions_total")
		sh.traceEntries += after[i].sum("fomodeld_trace_cache_entries")
		sh.replicaRequests = append(sh.replicaRequests, d[predictOK]+d[sweepOK])
	}
	sh.sweepCacheHits = sweepHits
	return sh
}

// sumDelta adds one metric's delta over every daemon.
func sumDelta(before, after []counters, name string) float64 {
	var total float64
	for i := range after {
		total += after[i].sum(name) - before[i].sum(name)
	}
	return total
}
