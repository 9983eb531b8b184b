package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
)

// handlerAllocs is the mean heap allocations of one request through a
// reused handler, the way perfbench's handler drive counts them:
// requests and recorders are built before counting starts, so only the
// handler's own allocations are measured. The collector is off while
// counting: a cycle empties the sync.Pools and the refills would count.
// bodies[i%len(bodies)] is the i-th request's body; every request must
// answer 200.
func handlerAllocs(t *testing.T, h http.Handler, bodies []string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 48
	reqs := make([]*http.Request, runs+1) // AllocsPerRun warms up once
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte(bodies[i%len(bodies)])))
		recs[i] = httptest.NewRecorder()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	return allocs
}

// TestPredictHotAllocs gates the response-cache hit path on its
// allocation count, which, unlike its wall time, does not drift with
// the host: every request repeats one already-answered predict.
func TestPredictHotAllocs(t *testing.T) {
	s := testServer(Config{N: 20000})
	const body = `{"bench":"gzip","n":20000,"seed":7,"machine":{"rob":128}}`
	if rec := post(s, "/v1/predict", body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.String())
	}
	const gate = 35 // the count when the gate was set
	if got := handlerAllocs(t, s.Handler(), []string{body}); got > gate {
		t.Errorf("hot predict: %.0f allocs per request, want ≤ %d", got, gate)
	}
}

// TestPredictStoreAllocs gates the warm-store path on its allocation
// count: a restarted daemon whose response and analysis caches are
// smaller than the keyset, so every request reads and decodes a stored
// analysis and composes the model, never loading a trace.
func TestPredictStoreAllocs(t *testing.T) {
	dir := t.TempDir()
	var bodies []string
	for _, b := range []string{"gzip", "mcf", "vortex", "twolf"} {
		for seed := 2; seed < 4; seed++ {
			bodies = append(bodies, fmt.Sprintf(`{"bench":%q,"n":20000,"seed":%d}`, b, seed))
		}
	}
	filler := testServer(Config{N: 20000, Store: openTestStore(t, dir)})
	for _, body := range bodies {
		if rec := post(filler, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("fill: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	st := openTestStore(t, dir)
	s := testServer(Config{N: 20000, Store: st, CacheEntries: 2, AnalysisCacheEntries: 2})
	for _, body := range bodies { // first uses of each key's code paths
		if rec := post(s, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	got := handlerAllocs(t, s.Handler(), bodies)
	if hits, misses, _, _, _ := st.Stats(); misses != 0 || hits == 0 {
		t.Fatalf("store hits %d, misses %d: the drive left the warm-store path", hits, misses)
	}
	// The count when the gate was set. perfbench's store drive reads 106
	// over its 384-key set; these 8 keys decode slightly smaller analyses.
	const gate = 102
	if got > gate {
		t.Errorf("store predict: %.0f allocs per request, want ≤ %d", got, gate)
	}
}
