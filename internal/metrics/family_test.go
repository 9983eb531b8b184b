package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// nameKey is a single-label test key.
type nameKey string

func (k nameKey) Labels() string        { return Label("name", string(k)) }
func (k nameKey) Compare(o nameKey) int { return strings.Compare(string(k), string(o)) }

// render returns what write emits through a Writer.
func render(write func(w *Writer)) string {
	var b strings.Builder
	write(NewWriter(&b))
	return b.String()
}

// expose renders f as the counter "r".
func expose(f *Family[RequestKey]) string {
	return render(func(w *Writer) { w.CounterVec("r", "h", f.Samples()) })
}

func TestFamilyGetDelete(t *testing.T) {
	var f Family[nameKey]
	a := f.Get("a")
	a.Inc()
	if f.Get("a") != a {
		t.Fatal("Get returned a different counter for the same key")
	}
	f.Get("b").Add(2)
	if got := f.Samples(); len(got) != 2 || got[0] != (Sample{`name="a"`, 1}) || got[1] != (Sample{`name="b"`, 2}) {
		t.Fatalf("samples = %v", got)
	}
	f.Delete("a")
	f.Delete("absent")
	if got := f.Samples(); len(got) != 1 || got[0].Labels != `name="b"` {
		t.Fatalf("samples after Delete = %v", got)
	}
	if f.Get("a").Load() != 0 {
		t.Fatal("a deleted key came back with its old count")
	}
}

// TestFamilyExpositionOrder pins the scrape order: by path, then by
// numeric status code (so 503 sorts after 99), independent of insertion
// order, with labels quoted.
func TestFamilyExpositionOrder(t *testing.T) {
	var f Family[RequestKey]
	for _, k := range []RequestKey{{"/v1/sweep", 200}, {"/v1/predict", 503}, {"/healthz", 200}, {"/v1/predict", 99}, {`/q"x`, 200}} {
		f.Get(k).Inc()
	}
	want := `# HELP r h
# TYPE r counter
r{path="/healthz",code="200"} 1
r{path="/q\"x",code="200"} 1
r{path="/v1/predict",code="99"} 1
r{path="/v1/predict",code="503"} 1
r{path="/v1/sweep",code="200"} 1
`
	if got := expose(&f); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestFamilyNilReceiver(t *testing.T) {
	var f *Family[RequestKey]
	f.Get(RequestKey{"/x", 200}).Inc()
	f.Delete(RequestKey{"/x", 200})
	if got := f.Samples(); got != nil {
		t.Fatalf("nil family samples = %v", got)
	}
	if got := expose(f); got != "# HELP r h\n# TYPE r counter\n" {
		t.Fatalf("nil family exposition = %q", got)
	}
}

// TestFamilyConcurrent mixes Get, Delete and scrapes (run it under
// -race): every scrape is sorted, and a key counted but never deleted
// ends with every increment.
func TestFamilyConcurrent(t *testing.T) {
	var f Family[nameKey]
	const workers, iters = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := nameKey(fmt.Sprintf("w%d", w))
			for i := 0; i < iters; i++ {
				f.Get(mine).Inc()
				churn := nameKey(fmt.Sprintf("churn%d", i%7))
				f.Get(churn).Inc()
				if i%3 == 0 {
					f.Delete(churn)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			samples := f.Samples()
			for j := 1; j < len(samples); j++ {
				if samples[j-1].Labels >= samples[j].Labels {
					t.Errorf("scrape out of order: %v", samples)
					return
				}
			}
		}
	}()
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := f.Get(nameKey(fmt.Sprintf("w%d", w))).Load(); got != iters {
			t.Errorf("w%d = %d, want %d", w, got, iters)
		}
	}
}

// TestWriterHistogramMatchesLegacyLoop checks the writer's histogram
// against the hand-written loop the daemon and proxy each carried.
func TestWriterHistogramMatchesLegacyLoop(t *testing.T) {
	h := NewHistogram(HedgeLatencyBounds()...)
	for _, v := range []float64{0.0001, 0.0003, 0.0003, 0.004, 0.02, 0.7, 3, 42} {
		h.Observe(v)
	}
	var want strings.Builder
	snap := h.Snapshot()
	fmt.Fprintf(&want, "# HELP x_seconds Latency.\n")
	fmt.Fprintf(&want, "# TYPE x_seconds histogram\n")
	for i, bound := range snap.Bounds {
		fmt.Fprintf(&want, "x_seconds_bucket{le=\"%g\"} %d\n", bound, snap.Cumulative[i])
	}
	fmt.Fprintf(&want, "x_seconds_bucket{le=\"+Inf\"} %d\n", snap.Count)
	fmt.Fprintf(&want, "x_seconds_sum %.6f\n", snap.Sum)
	fmt.Fprintf(&want, "x_seconds_count %d\n", snap.Count)

	got := render(func(w *Writer) { w.Histogram("x_seconds", "Latency.", h) })
	if got != want.String() {
		t.Fatalf("histogram:\n%s\nwant:\n%s", got, want.String())
	}
	if !strings.Contains(got, `x_seconds_bucket{le="0.0002"} 1`) || !strings.Contains(got, "x_seconds_sum 45.724700\n") {
		t.Fatalf("histogram values wrong:\n%s", got)
	}
}

func TestWriterScalars(t *testing.T) {
	got := render(func(w *Writer) {
		w.Counter("c_total", "A counter.", 7)
		w.Gauge("g", "A gauge.", -2)
		w.GaugeFloat("up_seconds", "Uptime.", 1.23456, 3)
		w.GaugeVec("t", "By tenant.", []Sample{{Label("tenant", "a"), 1}})
	})
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 7
# HELP g A gauge.
# TYPE g gauge
g -2
# HELP up_seconds Uptime.
# TYPE up_seconds gauge
up_seconds 1.235
# HELP t By tenant.
# TYPE t gauge
t{tenant="a"} 1
`
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
