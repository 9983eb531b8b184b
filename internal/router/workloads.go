package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"fomodel/internal/reqkey"
	"fomodel/internal/server"
)

// This file is the proxy's half of the named-workload surface. Unlike
// every other /v1 route, a registration is *state*, and the daemon's
// registries are per-replica — so POST and DELETE /v1/workloads/{name}
// are not routed to one replica but replicated to all of them, and the
// proxy keeps a name → content-hash mirror so registered names
// canonicalize (and therefore shard) exactly as they do on the daemons.

// workloadMirror is the proxy's view of the fleet's registrations. It
// implements reqkey.Resolver; Router.New installs it as the key
// defaults' resolver, so predict/sweep/optimize keys naming registered
// workloads carry the same content hashes on the proxy as on every
// replica. A proxy restart empties the mirror: affected names fall back
// to raw-byte routing keys until re-registered, which costs locality,
// never correctness — the daemons resolve names themselves.
type workloadMirror struct {
	mu      sync.RWMutex
	entries map[string]string // name → profile content hash
}

func newWorkloadMirror() *workloadMirror {
	return &workloadMirror{entries: make(map[string]string)}
}

// WorkloadContent implements reqkey.Resolver.
func (m *workloadMirror) WorkloadContent(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hash, ok := m.entries[name]
	return hash, ok
}

func (m *workloadMirror) set(name, hash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[name] = hash
}

func (m *workloadMirror) remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries, name)
}

func (m *workloadMirror) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// maxWorkloadRelayBytes bounds one replica's buffered registration
// response; registration bodies echo the profile, which is tiny.
const maxWorkloadRelayBytes = 1 << 20

// fanoutResult is one replica's buffered answer to a replicated write.
type fanoutResult struct {
	status      int
	contentType string
	body        []byte
	err         error
}

// fanout ships one write to every replica concurrently — healthy or
// not: a registration missing from an ejected replica would surface as
// unknown-workload errors after re-admission — and buffers each answer.
func (rt *Router) fanout(r *http.Request, method, path string, body []byte) []fanoutResult {
	hdr := forwardHeader(r)
	out := make([]fanoutResult, len(rt.reps))
	var wg sync.WaitGroup
	for i, rep := range rt.reps {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			rep.requests.Inc()
			rep.inflight.Add(1)
			defer rep.inflight.Add(-1)
			resp, err := rep.cl.DoRaw(r.Context(), method, path, body, hdr, false)
			if err != nil {
				rt.noteFailure(rep, err)
				out[i] = fanoutResult{err: fmt.Errorf("replica %s: %w", rep.url, err)}
				return
			}
			rt.noteSuccess(rep)
			b, err := io.ReadAll(io.LimitReader(resp.Body, maxWorkloadRelayBytes))
			resp.Body.Close() //folint:allow(errdrop) read-side close after a full read; there is nothing to act on
			if err != nil {
				out[i] = fanoutResult{err: fmt.Errorf("replica %s: %w", rep.url, err)}
				return
			}
			out[i] = fanoutResult{
				status:      resp.StatusCode,
				contentType: resp.Header.Get("Content-Type"),
				body:        b,
			}
		}(i, rep)
	}
	wg.Wait()
	return out
}

// relayBuffered writes one buffered fanout answer to the client.
func relayBuffered(w http.ResponseWriter, res fanoutResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	//folint:allow(errdrop) response write: the client may already be gone, and there is no fallback channel
	w.Write(res.body)
}

// pickFanoutAnswer chooses which replica's answer speaks for the fleet:
// the lowest-index non-200 if any replica refused (the fleet is only
// registered when every replica is), else the lowest-index success.
// A transport error with no refusal anywhere is the proxy's own 502 —
// the registration is now partial, and the client must retry (POST is
// idempotent for identical content) or delete.
func pickFanoutAnswer(results []fanoutResult) (fanoutResult, error) {
	var firstOK *fanoutResult
	for i := range results {
		res := &results[i]
		if res.err != nil {
			continue
		}
		if res.status != http.StatusOK {
			return *res, nil
		}
		if firstOK == nil {
			firstOK = res
		}
	}
	if firstOK != nil {
		for _, res := range results {
			if res.err != nil {
				return fanoutResult{}, res.err
			}
		}
		return *firstOK, nil
	}
	for _, res := range results {
		if res.err != nil {
			return fanoutResult{}, res.err
		}
	}
	return fanoutResult{}, errNoReplicas
}

// workloadPath rebuilds the upstream path for one workload name.
func workloadPath(name string) string {
	return "/v1/workloads/" + url.PathEscape(name)
}

func (rt *Router) handleWorkloadRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := rt.readBody(w, r, server.MaxBodyBytes)
	if !ok {
		return
	}
	results := rt.fanout(r, http.MethodPost, workloadPath(name), body)
	answer, err := pickFanoutAnswer(results)
	if err != nil {
		rt.writeForwardError(w, r, err)
		return
	}
	if answer.status == http.StatusOK {
		var reg server.WorkloadRegistration
		if json.Unmarshal(answer.body, &reg) == nil && reg.ContentHash != "" {
			rt.mirror.set(name, reg.ContentHash)
		}
	}
	relayBuffered(w, answer)
}

func (rt *Router) handleWorkloadDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	results := rt.fanout(r, http.MethodDelete, workloadPath(name), nil)
	// Whatever the replicas said, the proxy must stop resolving the name:
	// a surviving mirror entry after a partial delete would keep stamping
	// keys with a hash some replicas no longer serve.
	rt.mirror.remove(name)
	answer, err := pickFanoutAnswer(results)
	if err != nil {
		rt.writeForwardError(w, r, err)
		return
	}
	relayBuffered(w, answer)
}

func (rt *Router) handleWorkloadGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	key, err := server.WorkloadItemKey(name)
	if err != nil {
		key = reqkey.Raw("workload", []byte(name))
	}
	rt.proxyOne(w, r, http.MethodGet, workloadPath(name), nil, false, key)
}
