package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRequestsRepeatPerSeed pins the seeded generators: two specs built
// from one seed send byte-identical requests at every index, and another
// seed sends different ones.
func TestRequestsRepeatPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newSpec(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSpec(name, 7)
		c, _ := newSpec(name, 8)
		differ := false
		for _, i := range []int{0, 1, 49, 99, 383, 1000, fillIndex, probeIndex + 5} {
			ra, rb, rc := a.request(i), b.request(i), c.request(i)
			if !bytes.Equal(ra.body, rb.body) || ra.ref != rb.ref || ra.sweep != rb.sweep {
				t.Errorf("%s: request %d differs between two specs of seed 7", name, i)
			}
			differ = differ || !bytes.Equal(ra.body, rc.body)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 send the same requests", name)
		}
	}
}

func TestRequestShapes(t *testing.T) {
	hot, _ := newSpec("predict_hot", 1)
	if len(hot.keys) != 36 {
		t.Errorf("predict_hot keyset has %d keys, want 36", len(hot.keys))
	}
	seen := map[string]bool{}
	for i := 0; i < len(hot.keys); i++ {
		seen[string(hot.request(i).body)] = true
	}
	if len(seen) != 36 {
		t.Errorf("one cycle of predict_hot visits %d keys, want all 36", len(seen))
	}

	store, _ := newSpec("predict_store", 1)
	if len(store.keys) != 384 {
		t.Errorf("predict_store keyset has %d keys, want 384", len(store.keys))
	}

	cold, _ := newSpec("compute_cold", 1)
	bodies := map[string]bool{}
	for i := 0; i < 500; i++ {
		r := cold.request(i)
		if !r.pred.Sim || bodies[string(r.body)] {
			t.Fatalf("compute_cold request %d is not a fresh simulated predict", i)
		}
		bodies[string(r.body)] = true
	}

	fleet, _ := newSpec("fleet_mixed", 1)
	titles := map[string]bool{}
	for i := 0; i < 50*sweepEvery; i++ {
		r := fleet.request(i)
		if r.sweep != (i%sweepEvery == sweepEvery-1) {
			t.Fatalf("fleet_mixed request %d: sweep = %t", i, r.sweep)
		}
		if !r.sweep {
			continue
		}
		if titles[r.spec.Title] || len(r.spec.Values) != 1 || r.spec.Values[0] < 64 || len(r.spec.Benches) != 1 {
			t.Fatalf("fleet_mixed sweep %d is not fresh over one benchmark at one valid ROB size: %+v", i, r.spec)
		}
		titles[r.spec.Title] = true
	}
}

func TestCheckShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    shape
		want string // substring of the first complaint; "" = passes
	}{
		{"predict_hot", shape{predicts: 100, respHits: 100}, ""},
		{"predict_hot", shape{predicts: 100, respHits: 99, respMisses: 1}, "hit ratio"},
		{"predict_hot", shape{}, "hit ratio"},
		{"predict_store", shape{predicts: 50, respMisses: 50, storeHits: 50}, ""},
		{"predict_store", shape{predicts: 50, storeHits: 49, storeMisses: 1}, "store misses"},
		{"predict_store", shape{predicts: 50, respHits: 1, storeHits: 50}, "miss memory"},
		{"predict_store", shape{predicts: 50, analysisHits: 2, storeHits: 50}, "miss memory"},
		{"predict_store", shape{predicts: 50, storeHits: 100}, "trace loads"},
		{"predict_store", shape{predicts: 50, storeHits: 50, traceEntries: 1}, "trace loads"},
		{"compute_cold", shape{predicts: 9, storeEvictions: 3}, ""},
		{"compute_cold", shape{predicts: 9, respHits: 1, storeEvictions: 3}, "hits"},
		{"compute_cold", shape{predicts: 9, analysisHits: 1, storeEvictions: 3}, "hits"},
		{"compute_cold", shape{predicts: 9}, "eviction"},
		{"fleet_mixed", shape{replicaRequests: []float64{10, 12}}, ""},
		{"fleet_mixed", shape{replicaRequests: []float64{22, 0}}, "served nothing"},
		{"fleet_mixed", shape{replicaRequests: []float64{22}}, "replicas"},
		{"fleet_mixed", shape{replicaRequests: []float64{10, 12}, sweepCacheHits: 1}, "from a cache"},
	} {
		bad := checkShape(tc.name, tc.d)
		switch {
		case tc.want == "" && len(bad) > 0:
			t.Errorf("%s %+v: unexpected complaint %q", tc.name, tc.d, bad)
		case tc.want != "" && (len(bad) == 0 || !strings.Contains(bad[0], tc.want)):
			t.Errorf("%s %+v: complaints %q, want one about %q", tc.name, tc.d, bad, tc.want)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metricDef) {
		want := map[string]string{}
		for _, m := range printed {
			want[m.name] = m.unit
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json: program prints unit %q", kind, m.Name, m.Unit, u)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is printed but not in BENCHMARK.json", kind, name)
		}
	}
	check("end-to-end", b.EndToEnd, endToEndMetrics)
	check("per-layer", b.PerLayer, perLayerMetrics)
}
