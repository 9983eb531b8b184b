package router

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// wallTimeSamples are the only /metrics samples whose values depend on
// wall time; the golden comparison masks their values (never their
// names, labels or order). Every other sample is exact. The replica
// labels carry the test listeners' ephemeral ports, so they are
// rewritten to stable placeholders as well.
var wallTimeSamples = []string{
	"fomodelproxy_uptime_seconds",
	"fomodelproxy_hedge_delay_seconds",
	"fomodelproxy_upstream_duration_seconds_bucket",
	"fomodelproxy_upstream_duration_seconds_sum",
	"fomodelproxy_request_duration_seconds_bucket",
	"fomodelproxy_request_duration_seconds_sum",
}

// maskWallTime replaces the value of every wall-time sample with "#".
func maskWallTime(body string, names []string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, name := range names {
			if rest, ok := strings.CutPrefix(line, name); ok && (rest == "" || rest[0] == ' ' || rest[0] == '{') {
				lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "#"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden pins the proxy's whole /metrics body — every name,
// HELP and TYPE line, label, sample order and value format — after a
// fixed request sequence over two real daemons. Round-robin placement
// makes the per-replica split independent of the listeners' ports.
// Regenerate deliberately with:
//
//	go test ./internal/router -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	_, repA := newDaemon(t)
	_, repB := newDaemon(t)
	_, proxy := newProxy(t, Config{
		Replicas:     []string{repA.URL, repB.URL},
		RoundRobin:   true,
		DisableHedge: true,
	})
	steps := []struct {
		method, path, body string
		code               int
	}{
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/readyz", "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"nope"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/workloads/wl", profileBody(t, "gzip", "wl"), http.StatusOK},
		{http.MethodPost, "/v1/workloads/tmp", profileBody(t, "gcc", "tmp"), http.StatusOK},
		{http.MethodDelete, "/v1/workloads/tmp", "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"wl"}`, http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"wl"}`, http.StatusOK},
		{http.MethodPost, "/v1/batch", `{"items":[{"bench":"gzip"},{"bench":"wl"}]}`, http.StatusOK},
		{http.MethodPost, "/v1/sweep", `{"param":"width","benches":["gzip"],"values":[2,4]}`, http.StatusOK},
		{http.MethodGet, "/v1/workloads", "", http.StatusOK},
		{http.MethodGet, "/v1/workloads/wl", "", http.StatusOK},
		{http.MethodGet, "/metrics", "", http.StatusOK},
	}
	for _, st := range steps {
		req, err := http.NewRequest(st.method, proxy.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != st.code {
			t.Fatalf("%s %s %s: status %d, want %d\nbody: %s", st.method, st.path, st.body, resp.StatusCode, st.code, body)
		}
	}
	resp := get(t, proxy.URL, "/metrics")
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q", got)
	}
	body := strings.NewReplacer(repA.URL, "http://replica-a", repB.URL, "http://replica-b").Replace(string(readAll(t, resp)))
	compareGolden(t, "metrics", maskWallTime(body, wallTimeSamples))
}

// compareGolden checks got against testdata/<name>.golden, rewriting it
// under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed; rerun with -update if intentional.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
