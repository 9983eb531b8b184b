package router

import (
	"encoding/json"
	"net/http"
	"time"

	"fomodel/internal/metrics"
)

// healthzReplica is one replica's state in the proxy's /healthz body.
type healthzReplica struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	Requests int64  `json:"requests"`
	Hits     int64  `json:"hits"`
	Hedges   int64  `json:"hedges"`
	Failures int64  `json:"failures"`
	Ejects   int64  `json:"ejects"`
	Readmits int64  `json:"readmits"`
}

// healthzResponse is the proxy's /healthz body: the routing mode, the
// live hedge delay, and the per-replica view the router is acting on.
type healthzResponse struct {
	Status        string           `json:"status"`
	Mode          string           `json:"mode"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	HedgeDelayMS  float64          `json:"hedge_delay_ms"`
	Replicas      []healthzReplica `json:"replicas"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Mode:          rt.Mode(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
		HedgeDelayMS:  float64(rt.hedgeDelay()) / float64(time.Millisecond),
	}
	for _, rep := range rt.reps {
		resp.Replicas = append(resp.Replicas, healthzReplica{
			URL:      rep.url,
			Healthy:  rep.healthy.Load(),
			InFlight: rep.inflight.Load(),
			Requests: rep.requests.Load(),
			Hits:     rep.hits.Load(),
			Hedges:   rep.hedges.Load(),
			Failures: rep.failures.Load(),
			Ejects:   rep.ejects.Load(),
			Readmits: rep.readmits.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //folint:allow(errdrop) status-response encode: the client may already be gone, and there is no fallback channel
}

// readyzResponse is the proxy's /readyz body.
type readyzResponse struct {
	Status          string `json:"status"`
	HealthyReplicas int    `json:"healthy_replicas"`
	Replicas        int    `json:"replicas"`
}

// handleReadyz answers whether the proxy can do useful work: ready as
// long as at least one replica is in rotation, 503 otherwise — the same
// contract the proxy itself applies to its replicas, so proxies stack.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, rep := range rt.reps {
		if rep.healthy.Load() {
			healthy++
		}
	}
	resp := readyzResponse{Status: "ready", HealthyReplicas: healthy, Replicas: len(rt.reps)}
	w.Header().Set("Content-Type", "application/json")
	if healthy == 0 {
		resp.Status = "no healthy replicas"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp) //folint:allow(errdrop) readyz encode: the client may already be gone, and there is no fallback channel
}

// handleMetrics renders the proxy's counters in the Prometheus text
// exposition format, replica-labeled where per-replica.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	mw := metrics.NewWriter(w)
	mw.GaugeFloat("fomodelproxy_uptime_seconds", "Time since the proxy started.", time.Since(rt.start).Seconds(), 3)
	mw.CounterVec("fomodelproxy_requests_total", "Requests served, by path and status code.", rt.requests.Samples())
	mw.CounterVec("fomodelproxy_replica_requests_total", "Upstream attempts sent to the replica.",
		rt.perReplica(func(r *replica) int64 { return r.requests.Load() }))
	mw.CounterVec("fomodelproxy_replica_cache_hits_total", "Relayed responses the replica served from its cache.",
		rt.perReplica(func(r *replica) int64 { return r.hits.Load() }))
	mw.CounterVec("fomodelproxy_replica_hedges_total", "Hedged (second) attempts sent to the replica.",
		rt.perReplica(func(r *replica) int64 { return r.hedges.Load() }))
	mw.CounterVec("fomodelproxy_replica_failures_total", "Transport-level failures talking to the replica.",
		rt.perReplica(func(r *replica) int64 { return r.failures.Load() }))
	mw.CounterVec("fomodelproxy_replica_ejections_total", "Times the replica was removed from rotation.",
		rt.perReplica(func(r *replica) int64 { return r.ejects.Load() }))
	mw.CounterVec("fomodelproxy_replica_readmissions_total", "Times a /readyz probe re-admitted the replica.",
		rt.perReplica(func(r *replica) int64 { return r.readmits.Load() }))
	mw.GaugeVec("fomodelproxy_replica_healthy", "Whether the replica is in rotation (1) or ejected (0).",
		rt.perReplica(func(r *replica) int64 {
			if r.healthy.Load() {
				return 1
			}
			return 0
		}))
	mw.GaugeVec("fomodelproxy_replica_in_flight", "Upstream attempts currently executing at the replica.",
		rt.perReplica(func(r *replica) int64 { return r.inflight.Load() }))
	mw.Gauge("fomodelproxy_workload_mirror_size", "Registered-workload names the proxy currently resolves.", int64(rt.mirror.size()))
	mw.Counter("fomodelproxy_hedge_wins_total", "Requests won by the hedged (second) attempt.", rt.hedgeWins.Load())
	mw.GaugeFloat("fomodelproxy_hedge_delay_seconds", "Current hedge timer, derived from upstream latency.", rt.hedgeDelay().Seconds(), 6)
	mw.Histogram("fomodelproxy_upstream_duration_seconds", "Per-attempt upstream latency (hedge-delay source).", rt.upstream)
	mw.Histogram("fomodelproxy_request_duration_seconds", "End-to-end proxy request latency.", rt.latency)
}

// perReplica samples one replica-labelled value for every replica, in
// configuration order.
func (rt *Router) perReplica(value func(*replica) int64) []metrics.Sample {
	out := make([]metrics.Sample, len(rt.reps))
	for i, rep := range rt.reps {
		out[i] = metrics.Sample{Labels: metrics.Label("replica", rep.url), Value: value(rep)}
	}
	return out
}
