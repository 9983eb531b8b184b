package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// timing is reported as its median and the highest percentile the sample
// supports, so p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// or an error when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", 100*p, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// tailPercentile is percentile at p when the sample supports it, and
// otherwise at the highest quantile that keeps minTail samples beyond
// it; q is the quantile actually reported.
func tailPercentile(sorted []float64, p float64) (v, q float64, err error) {
	if v, err := percentile(sorted, p); err == nil {
		return v, p, nil
	}
	n := len(sorted)
	if n <= minTail {
		return 0, 0, fmt.Errorf("%d samples support no tail percentile", n)
	}
	return sorted[n-minTail-1], float64(n-minTail) / float64(n), nil
}

// windowMedians is the median of each window that supports one
// (minTail samples beyond it); smaller windows are skipped.
func windowMedians(wins [][]float64) []float64 {
	var meds []float64
	for _, w := range wins {
		if v, err := percentile(w, 0.5); err == nil {
			meds = append(meds, v)
		}
	}
	return meds
}

// windowMedian is the median of the window medians. When fewer than
// half the windows support a median, it is the median of all samples
// pooled instead.
func windowMedian(wins [][]float64) (float64, error) {
	if meds := windowMedians(wins); len(meds) > 0 && 2*len(meds) >= len(wins) {
		return median(meds), nil
	}
	var all []float64
	for _, w := range wins {
		all = append(all, w...)
	}
	sort.Float64s(all)
	return percentile(all, 0.5)
}

// groups cuts samples into consecutive groups of size; a remainder
// shorter than size joins the last group.
func groups[T any](samples []T, size int) [][]T {
	var out [][]T
	for len(samples) >= size {
		n := size
		if len(samples) < 2*size {
			n = len(samples)
		}
		out = append(out, samples[:n])
		samples = samples[n:]
	}
	if len(samples) > 0 {
		out = append(out, samples)
	}
	return out
}

// millis converts nanosecond samples to sorted milliseconds.
func millis(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values; the input is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// agg accumulates a mean.
type agg struct {
	sum time.Duration
	n   int
}

func (a *agg) add(d time.Duration) { a.sum += d; a.n++ }

func (a *agg) merge(o agg) { a.sum += o.sum; a.n += o.n }

func (a agg) mean() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.sum / time.Duration(a.n)
}

// counters is one scrape of a Prometheus text exposition, keyed by the
// full series ("name{labels}").
type counters map[string]float64

// parseCounters reads the sample lines of a /metrics body. A line
// whose value is not a number is skipped: the daemon prints its
// prep-cache eviction counter as a Go pointer, and the benchmark reads
// no such series.
func parseCounters(body string) (counters, error) {
	c := counters{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] = v
		}
	}
	return c, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (c counters) sum(name string) float64 {
	var total float64
	for series, v := range c {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// sub returns c − before, series by series.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}
