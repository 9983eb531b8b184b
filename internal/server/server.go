package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/experiments"
	"fomodel/internal/flight"
	"fomodel/internal/metrics"
	"fomodel/internal/registry"
	"fomodel/internal/reqkey"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// Config parameterizes the daemon. The zero value of every field selects
// a production-shaped default.
type Config struct {
	// N is the default dynamic instruction count per workload and Seed
	// the default generation seed; requests may override both. Defaults:
	// 500000 and 1, matching the CLI tools.
	N    int
	Seed uint64
	// Workers bounds the sweep fan-out pool (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently executing /v1 requests; further
	// requests are shed with 429 rather than queued (0 = 2×GOMAXPROCS).
	MaxInflight int
	// CacheEntries bounds the response cache (0 = 1024).
	CacheEntries int
	// TraceCacheEntries bounds the non-default (n, seed) trace cache;
	// evicted traces release their prep-cache entries (0 = 64).
	TraceCacheEntries int
	// AnalysisCacheEntries bounds the in-memory analysis-bundle cache
	// (0 = 128).
	AnalysisCacheEntries int
	// RequestTimeout is the per-request computation deadline
	// (0 = 2 minutes).
	RequestTimeout time.Duration
	// Store, when non-nil, is the persistent workload-artifact store;
	// traces, analyses, classification preps, and producer links are
	// served from and written to it, surviving restarts.
	Store *artifact.Store
	// Registry holds named custom workloads (POST /v1/workloads/{name});
	// nil selects a fresh registry with default quotas, persisted
	// through Store. Registered names are accepted anywhere a built-in
	// benchmark name is.
	Registry *registry.Registry
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 500000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.TraceCacheEntries <= 0 {
		c.TraceCacheEntries = 64
	}
	if c.AnalysisCacheEntries <= 0 {
		c.AnalysisCacheEntries = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	return c
}

// statusCodeClientGone is the nginx-convention code logged when the
// client disconnected before a response could be written.
const statusCodeClientGone = 499

// Server is the fomodeld daemon: HTTP handlers plus the shared state
// they serve from (the experiment suite with its workload and prep
// caches, the response cache, and the metrics counters).
type Server struct {
	cfg Config
	// keys are the normalization defaults every request is prepared and
	// keyed under: cfg.KeyDefaults(), computed once.
	keys  reqkey.Defaults
	log   *slog.Logger
	suite *experiments.Suite
	cache respCache
	start time.Time
	mux   *http.ServeMux

	inflight metrics.Gauge
	shed     metrics.Counter
	latency  *metrics.Histogram
	slots    chan struct{}

	// notReady is set while the daemon should be kept out of routing
	// rotation (boot warm-up in flight); /readyz answers 503 until it
	// clears. Inverted so the zero value — ready — matches servers that
	// never warm.
	notReady atomic.Bool

	// requests counts served requests by route pattern and status code.
	requests metrics.Family[metrics.RequestKey]

	// traces is the bounded LRU of non-default traces, keyed by content
	// ID (recipe for built-ins, profile content hash + recipe for
	// registered workloads). analysis holds the in-memory analysis
	// bundles keyed by content — the trace's generation recipe plus the
	// machine configuration projection — so any two requests that need
	// the same analysis share one computation. Both forget failures.
	traces         *flight.Cache[string, *trace.Trace]
	traceEvictions *metrics.Counter
	analysis       *flight.Cache[string, *experiments.AnalysisArtifact]

	// Per-registered-workload request/hit accounting; a name is added
	// only while registered and dropped when deleted, so both families
	// are bounded by the registered population.
	regRequests metrics.Family[workloadLabel]
	regHits     metrics.Family[workloadLabel]

	// Optimize-search instrumentation: candidate evaluations run (and
	// the share served by the response cache), refinement rounds, and
	// the most recent completed search's frontier size.
	optEvals    metrics.Counter
	optEvalHits metrics.Counter
	optRounds   metrics.Counter
	optFrontier metrics.Gauge

	// gate, when non-nil, blocks every admitted /v1 request until the
	// channel yields; tests use it to hold requests in flight
	// deterministically.
	gate chan struct{}
	// panicHook, when non-nil, runs inside sweep and batch computations
	// with the request's bench or parameter name; tests use it to inject
	// worker panics and pin the recovery path.
	panicHook func(name string)
}

// New builds a server. A nil logger discards logs.
func New(cfg Config, log *slog.Logger) *Server {
	cfg = cfg.withDefaults()
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	suite := experiments.NewSuite(cfg.N, cfg.Seed)
	suite.Workers = cfg.Workers
	suite.SetStore(cfg.Store)
	if cfg.Registry == nil {
		cfg.Registry = registry.New(registry.Config{Store: cfg.Store})
	}
	suite.Lookup = cfg.Registry.Snapshot
	s := &Server{
		cfg:      cfg,
		log:      log,
		suite:    suite,
		cache:    newRespCache(cfg.CacheEntries),
		start:    time.Now(),
		latency:  metrics.NewHistogram(metrics.DefaultLatencyBounds()...),
		slots:    make(chan struct{}, cfg.MaxInflight),
		traces:   flight.New[string, *trace.Trace](cfg.TraceCacheEntries, flight.ForgetErrors),
		analysis: flight.New[string, *experiments.AnalysisArtifact](cfg.AnalysisCacheEntries, flight.ForgetErrors),
	}
	s.keys = cfg.KeyDefaults()
	s.traceEvictions = &s.traces.Stats().Evictions
	// An evicted trace is about to become unreachable, so the prep-cache
	// entries keyed to it could never be hit again: release them.
	s.traces.OnEvict = func(_ string, t *trace.Trace) { suite.Preps().Forget(t) }
	s.mux = s.routes()
	return s
}

// Warm precomputes every default workload bundle, filling the suite's
// caches and — when a store is configured — persisting the trace,
// analysis, producer, and prep artifacts so the next process boots warm.
// It stops early when ctx is done.
func (s *Server) Warm(ctx context.Context) error {
	for _, name := range s.suite.Names {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.suite.Workload(name); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return nil
}

// Handler returns the daemon's routing table, built once by New. /v1
// endpoints pass through admission control (in-flight bound with 429
// shedding) and carry a per-request deadline; /healthz and /metrics
// always answer.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", true, s.handlePredict))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", true, s.handleBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", true, s.handleSweep))
	mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", true, s.handleOptimize))
	mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", true, s.handleWorkloads))
	mux.HandleFunc("POST /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadRegister))
	mux.HandleFunc("GET /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadGet))
	mux.HandleFunc("DELETE /v1/workloads/{name}", s.instrument("/v1/workloads/{name}", true, s.handleWorkloadDelete))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", false, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", false, s.handleMetrics))
	return mux
}

// statusWriter records the status code a handler wrote (or 499 when the
// client vanished first).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	// reqID is the request's X-Request-ID header, when the client (the
	// fomodelproxy router, typically) sent one; it is echoed into the
	// response headers, the structured request log, and error bodies so
	// one hedged or retried request can be traced across replicas.
	reqID string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so streamed NDJSON rows reach
// the client per grid cell rather than buffering until the sweep ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with admission control (when limited),
// per-request deadline, the latency histogram, per-path/per-code request
// counters, and one structured log line per request.
func (s *Server) instrument(path string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		startReq := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if id := r.Header.Get("X-Request-ID"); id != "" {
			sw.reqID = id
			w.Header().Set("X-Request-ID", id)
		}
		if limited {
			select {
			case s.slots <- struct{}{}:
				s.inflight.Add(1)
				defer func() {
					<-s.slots
					s.inflight.Add(-1)
				}()
			default:
				s.shed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
				s.writeError(sw, http.StatusTooManyRequests,
					"server saturated: %d requests already in flight", s.cfg.MaxInflight)
				s.finish(path, sw, startReq, "")
				return
			}
			if s.gate != nil {
				<-s.gate
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
		s.finish(path, sw, startReq, w.Header().Get("X-Cache"))
	}
}

// retryAfterSeconds derives the 429 Retry-After value from observed
// service time: the mean request latency from the histogram, rounded up
// to whole seconds with a 1-second floor, so shed clients back off
// proportionally to how long requests are actually taking instead of
// hammering a saturated server once per second.
func (s *Server) retryAfterSeconds() int {
	snap := s.latency.Snapshot()
	if snap.Count == 0 {
		return 1
	}
	secs := int(math.Ceil(snap.Sum / float64(snap.Count)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// finish records the request in the metrics and the structured log.
func (s *Server) finish(path string, sw *statusWriter, start time.Time, cacheState string) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	elapsed := time.Since(start)
	s.latency.Observe(elapsed.Seconds())
	s.requests.Get(metrics.RequestKey{Path: path, Code: sw.code}).Inc()
	attrs := []any{
		"path", path,
		"status", sw.code,
		"dur_ms", elapsed.Milliseconds(),
		"bytes", sw.bytes,
	}
	if cacheState != "" {
		attrs = append(attrs, "cache", cacheState)
	}
	if sw.reqID != "" {
		attrs = append(attrs, "request_id", sw.reqID)
	}
	s.log.Info("request", attrs...)
}

// errorResponse is the structured error body of every non-200 response.
// RequestID is present only when the request carried an X-Request-ID
// header, so direct (headerless) requests keep their historical bodies.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	resp := errorResponse{Error: fmt.Sprintf(format, args...)}
	if sw, ok := w.(*statusWriter); ok {
		resp.RequestID = sw.reqID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//folint:allow(errdrop) errorResponse is two plain strings; Marshal cannot fail on it
	body, _ := json.Marshal(resp)
	//folint:allow(errdrop) error-response write: the client may already be gone, and there is no fallback channel
	w.Write(append(body, '\n'))
}

// finishCompute maps a computation outcome onto the response: 200 bodies
// are written as-is, context errors become 499 (client gone, nothing
// written) or 503 (deadline), and other failures pass through with their
// computed status.
func (s *Server) finishCompute(w *statusWriter, status int, body []byte, hit bool, err error) {
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	s.finishComputeState(w, status, body, cacheState, err)
}

// finishComputeState is finishCompute with an explicit cache state; an
// empty state omits the X-Cache header (batch responses report cache
// participation per item instead).
func (s *Server) finishComputeState(w *statusWriter, status int, body []byte, cacheState string, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is no one to write to. Record
		// the conventional 499 for the log and metrics.
		w.code = statusCodeClientGone
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusServiceUnavailable,
			"request exceeded the %s computation deadline", s.cfg.RequestTimeout)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%s", err)
	default:
		if cacheState != "" {
			w.Header().Set("X-Cache", cacheState)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		//folint:allow(errdrop) response-body write: the client may already be gone, and there is no fallback channel
		w.Write(body)
	}
}

// resolvedWorkload is one request's workload identity after name
// resolution: the content ID that keys every cache and artifact, plus
// — for registered custom workloads — the profile snapshot to generate
// from. prof is nil for built-in benchmarks.
type resolvedWorkload struct {
	bench     string
	n         int
	seed      uint64
	contentID string
	prof      *workload.Profile
}

// resolveWorkload maps a normalized predict request onto its workload
// identity: built-in names key by the classic recipe ContentID,
// registered names by the profile's name-free CustomContentID — so two
// names registered with identical content share traces, analyses, and
// artifacts, while re-registered content changes every downstream key.
func (s *Server) resolveWorkload(req PredictRequest) (resolvedWorkload, error) {
	rw := resolvedWorkload{bench: req.Bench, n: req.N, seed: req.Seed}
	_, nameErr := workload.ByName(req.Bench)
	if nameErr == nil {
		rw.contentID = workload.ContentID(req.Bench, req.N, req.Seed)
		return rw, nil
	}
	if prof, hash, ok := s.cfg.Registry.Snapshot(req.Bench); ok {
		rw.prof = &prof
		rw.contentID = workload.CustomContentID(hash, req.N, req.Seed)
		return rw, nil
	}
	return rw, nameErr
}

// traceFor returns the resolved workload's trace, sharing the suite's
// workload bundle when the request uses the server defaults (so predict,
// sweep, and workload-listing traffic all hit one prep-cache keyspace)
// and a dedicated single-flight trace cache otherwise. The dedicated
// cache is a bounded LRU keyed by content ID: evicting a trace also
// releases the prep-cache entries it pinned, so sweeping many (n, seed)
// pairs cannot grow the server's footprint without bound. Traces load
// through the artifact store when one is configured.
func (s *Server) traceFor(rw resolvedWorkload) (*trace.Trace, error) {
	if rw.n == s.cfg.N && rw.seed == s.cfg.Seed {
		// The suite resolves registered names through its own Lookup, so
		// this path serves built-ins and registered workloads alike.
		w, err := s.suite.Workload(rw.bench)
		if err != nil {
			return nil, err
		}
		return w.Trace, nil
	}
	t, _, err := s.traces.Do(rw.contentID, func() (*trace.Trace, error) {
		if rw.prof != nil {
			return experiments.LoadOrGenerateProfileTrace(s.cfg.Store, *rw.prof, rw.n, rw.seed)
		}
		return experiments.LoadOrGenerateTrace(s.cfg.Store, rw.bench, rw.n, rw.seed)
	})
	return t, err
}

// traceCacheLen reports the dedicated trace cache's current size.
func (s *Server) traceCacheLen() int { return s.traces.Len() }

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workloads     int     `json:"workloads"`
	N             int     `json:"n"`
	Seed          uint64  `json:"seed"`
}

// SetReady flips the /readyz answer. The daemon boots ready unless its
// CLI starts a warm-up, in which case it is marked not-ready first and
// ready again when the warm-up completes — so a routing proxy keeps a
// cold replica (252µs–11ms per miss) out of the ring until its caches
// can actually serve the shard hot.
func (s *Server) SetReady(ready bool) {
	s.notReady.Store(!ready)
}

// Ready reports whether /readyz would answer 200.
func (s *Server) Ready() bool {
	return !s.notReady.Load()
}

// readyzResponse is the /readyz body.
type readyzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleReadyz is the routing-readiness probe, distinct from /healthz:
// a live daemon that is still running its boot warm-up answers 503 here
// (and 200 on /healthz), telling the router "alive, but route my shard
// elsewhere for now".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Status: "ready", UptimeSeconds: time.Since(s.start).Seconds()}
	w.Header().Set("Content-Type", "application/json")
	if !s.Ready() {
		resp.Status = "warming"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	//folint:allow(errdrop) readyz encode: the client may already be gone, and there is no fallback channel
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(healthzResponse{ //folint:allow(errdrop) healthz encode: the client may already be gone, and there is no fallback channel
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workloads:     len(workload.Names()),
		N:             s.cfg.N,
		Seed:          s.cfg.Seed,
	})
}

// handleMetrics renders every counter in the Prometheus text exposition
// format. The prep-cache and suite counters are the very same
// metrics.Counter values the CLI's -timing flag prints — one counter
// type, one source, two surfaces.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	mw := metrics.NewWriter(w)
	mw.GaugeFloat("fomodeld_uptime_seconds", "Time since the server started.", time.Since(s.start).Seconds(), 3)
	mw.CounterVec("fomodeld_requests_total", "Requests served, by path and status code.", s.requests.Samples())
	mw.Gauge("fomodeld_requests_in_flight", "API requests currently executing.", s.inflight.Load())
	mw.Counter("fomodeld_requests_shed_total", "Requests rejected with 429 by the in-flight limiter.", s.shed.Load())

	cacheHits, cacheMisses := s.cache.Stats()
	mw.Counter("fomodeld_response_cache_hits_total", "Responses served from the canonical-request cache.", cacheHits)
	mw.Counter("fomodeld_response_cache_misses_total", "Responses computed because the cache had no entry.", cacheMisses)
	mw.Gauge("fomodeld_response_cache_entries", "Entries currently cached.", int64(s.cache.Len()))

	preps := s.suite.Preps()
	prepHits, prepMisses := preps.Stats()
	mw.Counter("fomodeld_prep_cache_reuses_total", "Simulator runs that reused a cached classification pass.", prepHits)
	mw.Counter("fomodeld_prep_cache_passes_total", "Classification passes computed.", prepMisses)
	mw.Counter("fomodeld_prep_cache_evictions_total", "Prep-cache entries (classification passes and producer-link sets) evicted by the LRU bounds.", preps.Evictions().Load())
	prepEntries, prodEntries := preps.Len()
	mw.Gauge("fomodeld_prep_cache_entries", "Classification passes plus per-trace producer-link sets currently cached.", int64(prepEntries+prodEntries))

	mw.Gauge("fomodeld_trace_cache_entries", "Non-default traces currently cached.", int64(s.traceCacheLen()))
	mw.Counter("fomodeld_trace_cache_evictions_total", "Traces evicted from the bounded trace cache.", s.traceEvictions.Load())
	anStats := s.analysis.Stats()
	mw.Counter("fomodeld_analysis_cache_hits_total", "Predict analyses served from the in-memory content-keyed cache.", anStats.Hits.Load())
	mw.Counter("fomodeld_analysis_cache_misses_total", "Predict analyses computed or loaded from the store.", anStats.Misses.Load())

	mw.Counter("fomodeld_optimize_evaluations_total", "Model evaluations (candidate x workload) run by design-space searches.", s.optEvals.Load())
	mw.Counter("fomodeld_optimize_evaluation_cache_hits_total", "Optimize evaluations answered by the response cache.", s.optEvalHits.Load())
	mw.Counter("fomodeld_optimize_refinement_rounds_total", "Refinement rounds run by design-space searches.", s.optRounds.Load())
	mw.Gauge("fomodeld_optimize_frontier_size", "Frontier size of the most recent completed search.", s.optFrontier.Load())

	reg := s.cfg.Registry
	registers, deletes, rejects, persistErrors := reg.Stats()
	mw.Counter("fomodeld_registry_registrations_total", "Custom workloads registered (including replacements).", registers)
	mw.Counter("fomodeld_registry_deletions_total", "Custom workloads deleted.", deletes)
	mw.Counter("fomodeld_registry_rejections_total", "Registrations rejected by validation, collision, or quota.", rejects)
	mw.Counter("fomodeld_registry_persist_errors_total", "Failed writes of the registry index to the artifact store.", persistErrors)
	usage := reg.TenantUsage()
	tenants := make([]string, 0, len(usage))
	for t := range usage {
		tenants = append(tenants, t)
	}
	slices.Sort(tenants)
	counts := make([]metrics.Sample, len(tenants))
	bytes := make([]metrics.Sample, len(tenants))
	for i, t := range tenants {
		counts[i] = metrics.Sample{Labels: metrics.Label("tenant", t), Value: int64(usage[t].Count)}
		bytes[i] = metrics.Sample{Labels: counts[i].Labels, Value: usage[t].Bytes}
	}
	mw.GaugeVec("fomodeld_registry_workloads", "Registered workloads currently held, by tenant.", counts)
	mw.GaugeVec("fomodeld_registry_bytes", "Encoded profile bytes currently held, by tenant.", bytes)
	mw.CounterVec("fomodeld_registered_workload_requests_total", "Predict evaluations referencing a registered workload, by name.", s.regRequests.Samples())
	mw.CounterVec("fomodeld_registered_workload_cache_hits_total", "Registered-workload evaluations served from the response cache, by name.", s.regHits.Samples())

	if st := s.cfg.Store; st != nil {
		hits, misses, corrupt, writes, evictions := st.Stats()
		mw.Counter("fomodeld_artifact_store_hits_total", "Artifacts served from the persistent store.", hits)
		mw.Counter("fomodeld_artifact_store_misses_total", "Store lookups that found no artifact.", misses)
		mw.Counter("fomodeld_artifact_store_corrupt_total", "Artifacts rejected by checksum or framing validation.", corrupt)
		mw.Counter("fomodeld_artifact_store_writes_total", "Artifacts written to the store.", writes)
		mw.Counter("fomodeld_artifact_store_evictions_total", "Artifacts evicted by the store size bound.", evictions)
		mw.Gauge("fomodeld_artifact_store_bytes", "Bytes currently stored on disk.", st.SizeBytes())
	}

	workloads, sims := s.suite.Counters()
	mw.Counter("fomodeld_workload_analyses_total", "Workload analysis bundles computed.", workloads)
	mw.Counter("fomodeld_sim_runs_total", "Detailed simulator runs.", sims)
	mw.Histogram("fomodeld_request_duration_seconds", "Request latency.", s.latency)
}
