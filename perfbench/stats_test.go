package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: unsupported
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0}, // rank 990 leaves 9 beyond
		{2000, 0.99, 1980},
		{20, 0.5, 10},
		{19, 0.5, 0}, // rank 10 leaves 9 beyond
		{100, 0.9, 90},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("percentile(%d samples, %g) = %g, want an error", tc.n, tc.p, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g", tc.n, tc.p, got, err, tc.want)
		}
	}
}

func TestTailPercentileFallsBackToHighestSupported(t *testing.T) {
	v, q, err := tailPercentile(seq(1000), 0.99)
	if err != nil || v != 990 || q != 0.99 {
		t.Errorf("1000 samples: %g at q=%g, %v; want 990 at 0.99", v, q, err)
	}
	v, q, err = tailPercentile(seq(500), 0.99)
	if err != nil || v != 490 || math.Abs(q-0.98) > 1e-12 {
		t.Errorf("500 samples: %g at q=%g, %v; want 490 at 0.98", v, q, err)
	}
	if _, _, err := tailPercentile(seq(10), 0.99); err == nil {
		t.Error("10 samples: want an error")
	}
}

func TestWindowMedian(t *testing.T) {
	wins := make([][]float64, 10)
	for w := range wins {
		wins[w] = seq(21)
		for i := range wins[w] {
			wins[w][i] += float64(w) // window medians 11..20
		}
	}
	if got, err := windowMedian(wins); err != nil || got != 15.5 {
		t.Errorf("median of window medians = %g, %v; want 15.5", got, err)
	}
	// A window too small for a median is skipped.
	wins[0] = []float64{1}
	if got, err := windowMedian(wins); err != nil || got != 16 {
		t.Errorf("median of supported window medians = %g, %v; want 16", got, err)
	}
	// With more than half too small, every sample is pooled instead.
	for w := 1; w < 6; w++ {
		wins[w] = []float64{float64(100 + w)}
	}
	got, err := windowMedian(wins)
	if err != nil || got != 19 {
		t.Errorf("pooled median = %g, %v; want 19", got, err)
	}
}

func TestGroups(t *testing.T) {
	var sizes []int
	for _, g := range groups(seq(50), 21) {
		sizes = append(sizes, len(g))
	}
	if len(sizes) != 2 || sizes[0] != 21 || sizes[1] != 29 {
		t.Errorf("groups of 50 by 21 = %v, want [21 29]", sizes)
	}
	if g := groups(seq(5), 21); len(g) != 1 || len(g[0]) != 5 {
		t.Errorf("groups of 5 by 21 = %v, want one group of 5", g)
	}
	if g := groups([]float64{}, 21); len(g) != 0 {
		t.Errorf("groups of nothing = %v, want none", g)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestParseCounters(t *testing.T) {
	body := `# HELP x y
# TYPE fomodeld_requests_total counter
fomodeld_requests_total{path="/v1/predict",code="200"} 7
fomodeld_requests_total{path="/v1/sweep",code="200"} 2
fomodeld_prep_cache_evictions_total &{{{} {} 0}}
fomodeld_response_cache_hits_total 5
`
	c, err := parseCounters(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.sum("fomodeld_requests_total"); got != 9 {
		t.Errorf("sum of request series = %g, want 9", got)
	}
	if got := c[`fomodeld_requests_total{path="/v1/predict",code="200"}`]; got != 7 {
		t.Errorf("predict series = %g, want 7", got)
	}
	if got := c.sum("fomodeld_response_cache_hits"); got != 0 {
		t.Errorf("a name prefix matched another metric: %g", got)
	}
	d := counters{"fomodeld_response_cache_hits_total": 8}.sub(c)
	if got := d["fomodeld_response_cache_hits_total"]; got != 3 {
		t.Errorf("delta = %g, want 3", got)
	}
}
