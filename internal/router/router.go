// Package router implements fomodelproxy's routing core: a cache-aware
// HTTP proxy that spreads load across N fomodeld replicas while keeping
// each replica's caches hot. Requests are mapped onto replicas by the
// same canonical key the daemon's response cache uses (internal/reqkey +
// internal/server's typed key functions — one code path, so proxy and
// daemon can never shard by different keys), via a bounded-load
// consistent-hash ring. On top of the per-replica clients' 429/503
// retry schedule the router adds what a single client cannot: replica
// health (active /readyz probes plus passive failure counting, with
// ejection and re-admission), instant failover to the key's ring
// successor on transport errors, and latency hedging — a second attempt
// at the next ring replica once the first has outlived the observed P99,
// first response wins, loser canceled.
package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/client"
	"fomodel/internal/metrics"
	"fomodel/internal/reqkey"
)

// Config parameterizes the router. The zero value of every field (other
// than Replicas) selects a production-shaped default.
type Config struct {
	// Replicas are the fomodeld base URLs, e.g. "http://127.0.0.1:8751".
	// At least one is required.
	Replicas []string
	// Defaults are the trace defaults (n, seed) shared with the replicas;
	// the proxy normalizes predict requests with them before keying, so
	// an explicit {"n":500000} and an implicit default land on the same
	// shard. Zero fields fall back to reqkey.StandardDefaults.
	Defaults reqkey.Defaults
	// VNodes is the number of ring points per replica (0 = 64).
	VNodes int
	// RoundRobin selects the cache-oblivious baseline policy instead of
	// consistent hashing — kept for benchmarking the difference, which is
	// the point of this proxy.
	RoundRobin bool
	// LoadFactor is the bounded-load factor c: a replica already carrying
	// more than c×(mean in-flight) is skipped in favor of its ring
	// successor, trading one request's cache locality for tail latency.
	// 0 = 1.25; negative disables the bound.
	LoadFactor float64
	// DisableHedge turns latency hedging off (it is on by default when
	// there are ≥2 replicas).
	DisableHedge bool
	// HedgeQuantile is the upstream-latency quantile that arms the hedge
	// timer (0 = 0.99).
	HedgeQuantile float64
	// HedgeMin and HedgeMax clamp the derived hedge delay
	// (0 = 1ms and 1s). Until HedgeMinSamples (0 = 50) upstream latencies
	// have been observed, the delay conservatively sits at HedgeMax.
	HedgeMin        time.Duration
	HedgeMax        time.Duration
	HedgeMinSamples int
	// EjectAfter is the consecutive-transport-failure count that passively
	// ejects a replica from rotation (0 = 3); an ejected replica rejoins
	// only when a /readyz probe succeeds.
	EjectAfter int
	// ProbeInterval is the /readyz probe period (0 = 2s) and ProbeTimeout
	// each probe's deadline (0 = 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// UpstreamTimeout bounds each buffered upstream attempt; streaming
	// attempts are bounded by the client's context only. The default
	// (0 = 150s) sits above the daemon's 2-minute computation deadline so
	// the daemon's own 503 arrives before the proxy gives up.
	UpstreamTimeout time.Duration
	// UpstreamRetries is each replica client's 429/503 retry budget
	// (0 = 2, negative disables): deliberately smaller than the consumer
	// default, because the router's hedging and failover already provide
	// the second chances.
	UpstreamRetries int
	// MaxIdleConns bounds each replica's keep-alive connection pool
	// (0 = 32).
	MaxIdleConns int
}

func (c Config) withDefaults() Config {
	c.Defaults = c.Defaults.WithFallback()
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.99
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.HedgeMinSamples <= 0 {
		c.HedgeMinSamples = 50
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.UpstreamTimeout == 0 {
		c.UpstreamTimeout = 150 * time.Second
	}
	if c.UpstreamRetries == 0 {
		c.UpstreamRetries = 2
	}
	if c.MaxIdleConns <= 0 {
		c.MaxIdleConns = 32
	}
	return c
}

// replica is one fomodeld upstream: its pooled client plus the health
// state and counters the router keeps about it.
type replica struct {
	url string
	cl  *client.Client
	// probeCl shares cl's connection pool but never retries and has no
	// per-attempt timeout of its own: a warming replica's /readyz 503
	// must come back as a clean "not ready" within ProbeTimeout, not
	// burn the probe window on cl's 429/503 backoff schedule and
	// surface as a misleading context-deadline error.
	probeCl *client.Client

	// healthy is flipped false by EjectAfter consecutive transport
	// failures or a failed /readyz probe, and true only by a successful
	// probe — a replica that is answering requests but still reports
	// "warming" stays out of rotation until its caches are actually hot.
	healthy     atomic.Bool
	consecFails atomic.Int32

	inflight metrics.Gauge
	requests metrics.Counter
	hits     metrics.Counter
	hedges   metrics.Counter
	failures metrics.Counter
	ejects   metrics.Counter
	readmits metrics.Counter
}

// Router routes requests across the replica set. Construct with New;
// all methods are safe for concurrent use.
type Router struct {
	cfg   Config
	log   *slog.Logger
	ring  *ring
	reps  []*replica
	start time.Time

	// upstream feeds the hedge delay: per-attempt upstream latency on
	// sub-millisecond buckets, so the P99 of a cache-hot fleet is a few
	// hundred microseconds, not "somewhere under 1ms".
	upstream *metrics.Histogram
	// latency is the proxy-side end-to-end request histogram for /metrics.
	latency *metrics.Histogram

	hedgeWins  metrics.Counter
	noCands    metrics.Counter
	rrCursor   atomic.Uint64
	reqIDSeq   atomic.Uint64
	reqMu      sync.Mutex
	requests   map[requestKey]*metrics.Counter
	probeGroup sync.WaitGroup

	// mirror tracks name → content hash for workload registrations the
	// proxy has replicated, so registered names canonicalize to the same
	// content-carrying keys on the proxy as on the daemons.
	mirror *workloadMirror
}

type requestKey struct {
	path string
	code int
}

// New builds a router over cfg.Replicas. A nil logger discards logs.
func New(cfg Config, log *slog.Logger) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: at least one replica URL is required")
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mirror := newWorkloadMirror()
	if cfg.Defaults.Resolver == nil {
		// The mirror doubles as the proxy's name resolver: once a
		// registration has fanned out, the name keys like a daemon's.
		cfg.Defaults.Resolver = mirror
	}
	rt := &Router{
		cfg:      cfg,
		log:      log,
		ring:     newRing(cfg.Replicas, cfg.VNodes),
		reps:     make([]*replica, len(cfg.Replicas)),
		start:    time.Now(),
		upstream: metrics.NewHistogram(metrics.HedgeLatencyBounds()...),
		latency:  metrics.NewHistogram(metrics.DefaultLatencyBounds()...),
		requests: make(map[requestKey]*metrics.Counter),
		mirror:   mirror,
	}
	for i, url := range cfg.Replicas {
		cl := client.NewPooled(url, cfg.MaxIdleConns)
		cl.RequestTimeout = cfg.UpstreamTimeout
		cl.MaxRetries = cfg.UpstreamRetries
		// Per-attempt upstream latency feeds the hedge delay. The hook
		// fires inside the client's retry loop, before any backoff sleep,
		// so Retry-After waits from a shedding replica can never ratchet
		// the observed "service time" toward HedgeMax and suppress
		// hedging long after the episode. Shedding responses themselves
		// (429/503) are excluded too: they describe the replica's refusal
		// latency, not how long a served request takes.
		cl.AttemptObserver = func(d time.Duration, status int, err error) {
			if err == nil && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
				rt.upstream.Observe(d.Seconds())
			}
		}
		probeCl := client.New(url)
		probeCl.HTTPClient = cl.HTTPClient
		probeCl.MaxRetries = -1
		probeCl.RequestTimeout = -1 // the probe context carries the deadline
		rep := &replica{url: url, cl: cl, probeCl: probeCl}
		// Replicas start in rotation; the first probe pass corrects this
		// within one ProbeInterval, and passive ejection corrects it after
		// EjectAfter failed requests even with probes disabled.
		rep.healthy.Store(true)
		rt.reps[i] = rep
	}
	return rt, nil
}

// Start launches the /readyz probe loop (one immediate pass, then every
// ProbeInterval) and returns. The loop stops when ctx is done; Wait
// blocks until it has.
func (rt *Router) Start(ctx context.Context) {
	rt.probeGroup.Add(1)
	go func() {
		defer rt.probeGroup.Done()
		rt.ProbeOnce(ctx)
		tick := time.NewTicker(rt.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				rt.ProbeOnce(ctx)
			}
		}
	}()
}

// Wait blocks until the probe loop started by Start has exited.
func (rt *Router) Wait() { rt.probeGroup.Wait() }

// ProbeOnce probes every replica's /readyz once, concurrently, updating
// rotation membership. Exported so tests (and Start) drive probe passes
// deterministically.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe asks one replica's /readyz and folds the answer into its health:
// ready re-admits (and resets the failure streak), anything else —
// refusal, timeout, or a 503 "warming" — ejects.
func (rt *Router) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	resp, err := rep.probeCl.DoRaw(pctx, http.MethodGet, "/readyz", nil, nil, false)
	ready := false
	if err == nil {
		//folint:allow(errdrop) best-effort probe-body drain for connection reuse; only the status code matters
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close() //folint:allow(errdrop) read-side close after a drain; there is nothing to act on
		ready = resp.StatusCode == http.StatusOK
	}
	if ready {
		rep.consecFails.Store(0)
		if rep.healthy.CompareAndSwap(false, true) {
			rep.readmits.Inc()
			rt.log.Info("replica readmitted", "replica", rep.url)
		}
		return
	}
	if rep.healthy.CompareAndSwap(true, false) {
		rep.ejects.Inc()
		reason := "not ready"
		if err != nil {
			reason = err.Error()
		}
		rt.log.Info("replica ejected", "replica", rep.url, "reason", reason)
	}
}

// noteFailure records a transport-level failure against rep, ejecting it
// after EjectAfter consecutive ones. Status-level responses (even 500s)
// never land here: the daemon answered, so the daemon is reachable.
func (rt *Router) noteFailure(rep *replica, err error) {
	rep.failures.Inc()
	if int(rep.consecFails.Add(1)) >= rt.cfg.EjectAfter {
		if rep.healthy.CompareAndSwap(true, false) {
			rep.ejects.Inc()
			rt.log.Info("replica ejected", "replica", rep.url, "reason", err.Error())
		}
	}
}

// noteSuccess resets rep's failure streak. It deliberately does not
// re-admit: only a /readyz probe does, so a replica that was ejected
// while warming rejoins when its caches are ready, not merely reachable.
func (rt *Router) noteSuccess(rep *replica) {
	rep.consecFails.Store(0)
}

// candidates returns the replicas to try for key, in preference order:
// the key's ring sequence (or the rotating round-robin order), healthy
// replicas first. With every replica ejected it falls back to the full
// sequence — attempting a probably-dead upstream beats refusing outright
// when there is nothing better. In hash mode the bounded-load check may
// rotate an overloaded owner behind its first un-crowded successor.
func (rt *Router) candidates(key string) []*replica {
	var order []int
	if rt.cfg.RoundRobin {
		n := len(rt.reps)
		start := int(rt.rrCursor.Add(1)-1) % n
		order = make([]int, 0, n)
		for i := 0; i < n; i++ {
			order = append(order, (start+i)%n)
		}
	} else {
		order = rt.ring.sequence(key)
	}
	cands := make([]*replica, 0, len(order))
	for _, i := range order {
		if rt.reps[i].healthy.Load() {
			cands = append(cands, rt.reps[i])
		}
	}
	if len(cands) == 0 {
		for _, i := range order {
			cands = append(cands, rt.reps[i])
		}
		return cands
	}
	if !rt.cfg.RoundRobin && rt.cfg.LoadFactor > 0 && len(cands) > 1 {
		var total int64
		for _, rep := range rt.reps {
			total += rep.inflight.Load()
		}
		// Bounded load: capacity = ceil(c × (total+1) / healthy), counting
		// the request being placed.
		capacity := int64(math.Ceil(rt.cfg.LoadFactor * float64(total+1) / float64(len(cands))))
		for j, rep := range cands {
			if rep.inflight.Load() < capacity {
				if j > 0 {
					picked := cands[j]
					copy(cands[1:j+1], cands[:j])
					cands[0] = picked
				}
				break
			}
		}
	}
	return cands
}

// hedgeDelay derives the current hedge timer from observed upstream
// latency: the configured quantile of the per-attempt histogram, clamped
// to [HedgeMin, HedgeMax]. Zero means "do not hedge" (hedging disabled
// or a single replica); before HedgeMinSamples observations it sits at
// HedgeMax, hedging only clearly-stuck requests until the latency
// profile is learned.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.DisableHedge || len(rt.reps) < 2 {
		return 0
	}
	snap := rt.upstream.Snapshot()
	if snap.Count < int64(rt.cfg.HedgeMinSamples) {
		return rt.cfg.HedgeMax
	}
	q := rt.upstream.Quantile(rt.cfg.HedgeQuantile)
	if math.IsInf(q, 1) {
		return rt.cfg.HedgeMax
	}
	d := time.Duration(q * float64(time.Second))
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if d > rt.cfg.HedgeMax {
		d = rt.cfg.HedgeMax
	}
	return d
}

// errNoReplicas means the replica set is empty after filtering — only
// possible when the router was built with zero replicas, which New
// rejects; kept as a guard.
var errNoReplicas = errors.New("no replicas available")

// upstreamResult is one attempt's outcome.
type upstreamResult struct {
	idx    int
	rep    *replica
	resp   *http.Response
	err    error
	hedged bool
}

// forward routes one request to the replica set and returns the winning
// terminal response (any status, body intact — the caller relays it
// verbatim) and the replica that produced it.
//
// The attempt machinery: the key's first candidate is tried immediately;
// a hedge timer armed at the observed-P99 delay launches a concurrent
// attempt at the next candidate (first response wins, loser canceled);
// a transport error with no other attempt in flight fails over to the
// next candidate at once. The hedge timer runs in this goroutine,
// concurrent with any Retry-After backoff inside an attempt's client —
// a shedding replica can stall its own attempt, never the hedge.
func (rt *Router) forward(ctx context.Context, method, path string, body []byte, hdr http.Header, stream bool, key string) (*http.Response, *replica, error) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		rt.noCands.Inc()
		return nil, nil, errNoReplicas
	}
	results := make(chan upstreamResult, len(cands))
	cancels := make([]context.CancelFunc, len(cands))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		idx := next
		rep := cands[idx]
		next++
		inflight++
		actx, cancel := context.WithCancel(ctx)
		cancels[idx] = cancel
		rep.requests.Inc()
		if hedged {
			rep.hedges.Inc()
		}
		rep.inflight.Add(1)
		go func() {
			// Upstream latency is observed per HTTP attempt by the
			// client's AttemptObserver (wired in New), not here: timing
			// the whole DoRaw would fold retry backoff sleeps into the
			// hedge histogram.
			resp, err := rep.cl.DoRaw(actx, method, path, body, hdr, stream)
			rep.inflight.Add(-1)
			results <- upstreamResult{idx: idx, rep: rep, resp: resp, err: err, hedged: hedged}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if d := rt.hedgeDelay(); d > 0 && next < len(cands) {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for inflight > 0 {
		select {
		case res := <-results:
			inflight--
			if res.err != nil {
				cancels[res.idx]()
				// A canceled attempt (client gone, or a losing hedge
				// being reaped elsewhere) says nothing about the replica.
				if ctx.Err() == nil && !errors.Is(res.err, context.Canceled) {
					rt.noteFailure(res.rep, res.err)
					if firstErr == nil {
						firstErr = res.err
					}
				}
				if inflight > 0 {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				if next < len(cands) {
					launch(false)
					continue
				}
				return nil, nil, firstErr
			}

			// Winner. Cancel the other in-flight attempts and drain their
			// results in the background, closing any bodies; tie the
			// winner's per-attempt context to its body so resources are
			// released when the caller finishes relaying.
			rt.noteSuccess(res.rep)
			if res.hedged {
				rt.hedgeWins.Inc()
			}
			for i, c := range cancels {
				if c != nil && i != res.idx {
					c()
				}
			}
			if inflight > 0 {
				go func(n int) {
					for i := 0; i < n; i++ {
						r := <-results
						if r.resp != nil {
							//folint:allow(errdrop) closing a hedge loser's body; its response is already discarded
							r.resp.Body.Close()
						}
					}
				}(inflight)
			}
			res.resp.Body = &cancelOnClose{ReadCloser: res.resp.Body, cancel: cancels[res.idx]}
			return res.resp, res.rep, nil

		case <-hedgeC:
			hedgeC = nil
			// The timer was armed when a spare candidate existed, but a
			// fast transport failure may have consumed it as a failover
			// before the timer fired — with nothing left to hedge at,
			// the firing is a no-op.
			if next < len(cands) {
				launch(true)
			}
		}
	}
	if firstErr == nil {
		firstErr = errNoReplicas
	}
	return nil, nil, firstErr
}

// cancelOnClose releases an attempt's context when the relayed body is
// done, mirroring the client's cancelingBody.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// nextRequestID mints a proxy-scoped request ID: a monotonically
// increasing sequence number under a per-process prefix derived from the
// router's start time, so IDs from proxy restarts do not collide while
// staying cheap and allocation-free to generate.
func (rt *Router) nextRequestID() string {
	return fmt.Sprintf("%x-%x", rt.start.UnixNano(), rt.reqIDSeq.Add(1))
}

// requestCounter returns the live counter for one (path, status) pair.
func (rt *Router) requestCounter(path string, code int) *metrics.Counter {
	rt.reqMu.Lock()
	defer rt.reqMu.Unlock()
	k := requestKey{path: path, code: code}
	c := rt.requests[k]
	if c == nil {
		c = &metrics.Counter{}
		rt.requests[k] = c
	}
	return c
}
