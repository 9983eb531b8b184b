package server

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
// names, labels or order). Every other sample is exact.
var wallTimeSamples = []string{
	"fomodeld_uptime_seconds",
	"fomodeld_request_duration_seconds_bucket",
	"fomodeld_request_duration_seconds_sum",
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

// TestMetricsGolden pins the daemon's whole /metrics body — every name,
// HELP and TYPE line, label, sample order and value format — after a
// fixed request sequence over a store-backed server with registered
// workloads. Regenerate deliberately with:
//
//	go test ./internal/server -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	s := testServer(Config{N: 8000, Workers: 2, Store: openTestStore(t, t.TempDir())})
	steps := []struct {
		method, path, body, tenant string
		code                       int
	}{
		{http.MethodGet, "/healthz", "", "", http.StatusOK},
		{http.MethodGet, "/readyz", "", "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip"}`, "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"gzip","seed":3,"sim":true}`, "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"nope"}`, "", http.StatusBadRequest},
		{http.MethodPost, "/v1/workloads/wl", profileJSON(t, "gzip", "wl"), "alice", http.StatusOK},
		{http.MethodPost, "/v1/workloads/mcfish", profileJSON(t, "mcf", "mcfish"), "bob", http.StatusOK},
		{http.MethodPost, "/v1/workloads/gzip", profileJSON(t, "gzip", "gzip"), "", http.StatusBadRequest},
		{http.MethodPost, "/v1/workloads/tmp", profileJSON(t, "gcc", "tmp"), "", http.StatusOK},
		{http.MethodDelete, "/v1/workloads/tmp", "", "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"wl"}`, "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"wl"}`, "", http.StatusOK},
		{http.MethodPost, "/v1/predict", `{"bench":"mcfish","machine":{"rob":64}}`, "", http.StatusOK},
		{http.MethodPost, "/v1/batch", `{"items":[{"bench":"gzip"},{"bench":"wl","seed":5}]}`, "", http.StatusOK},
		{http.MethodPost, "/v1/sweep", sweepBody, "", http.StatusOK},
		{http.MethodPost, "/v1/optimize", optimizeBody, "", http.StatusOK},
		{http.MethodGet, "/v1/workloads", "", "", http.StatusOK},
		{http.MethodGet, "/metrics", "", "", http.StatusOK},
	}
	for _, st := range steps {
		if rec := doReq(s, st.method, st.path, st.body, st.tenant); rec.Code != st.code {
			t.Fatalf("%s %s %s: status %d, want %d\nbody: %s", st.method, st.path, st.body, rec.Code, st.code, rec.Body)
		}
	}
	rec := get(s, "/metrics")
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q", got)
	}
	compareGolden(t, "metrics", maskWallTime(rec.Body.String(), wallTimeSamples))
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
