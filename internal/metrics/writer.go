package metrics

import (
	"fmt"
	"io"
)

// ContentType is the media type of the text exposition Writer emits.
const ContentType = "text/plain; version=0.0.4"

// Writer emits the Prometheus text exposition format: each method writes
// one metric — its HELP and TYPE lines, then its samples. Write errors
// are dropped, as a scrape has no channel to report them on; the client
// sees a truncated body.
type Writer struct {
	w io.Writer
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) header(name, help, typ string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabelled counter.
func (w *Writer) Counter(name, help string, v int64) {
	w.header(name, help, "counter")
	fmt.Fprintf(w.w, "%s %d\n", name, v)
}

// Gauge writes an unlabelled integer gauge.
func (w *Writer) Gauge(name, help string, v int64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(w.w, "%s %d\n", name, v)
}

// GaugeFloat writes an unlabelled gauge with a fixed number of decimals.
func (w *Writer) GaugeFloat(name, help string, v float64, decimals int) {
	w.header(name, help, "gauge")
	fmt.Fprintf(w.w, "%s %.*f\n", name, decimals, v)
}

// CounterVec writes a labelled counter, one line per sample in order.
func (w *Writer) CounterVec(name, help string, samples []Sample) {
	w.vec(name, help, "counter", samples)
}

// GaugeVec writes a labelled gauge, one line per sample in order.
func (w *Writer) GaugeVec(name, help string, samples []Sample) {
	w.vec(name, help, "gauge", samples)
}

func (w *Writer) vec(name, help, typ string, samples []Sample) {
	w.header(name, help, typ)
	for _, s := range samples {
		fmt.Fprintf(w.w, "%s{%s} %d\n", name, s.Labels, s.Value)
	}
}

// Histogram writes h's cumulative buckets, the +Inf bucket, the sum and
// the count.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	snap := h.Snapshot()
	w.header(name, help, "histogram")
	for i, bound := range snap.Bounds {
		fmt.Fprintf(w.w, "%s_bucket{le=\"%g\"} %d\n", name, bound, snap.Cumulative[i])
	}
	fmt.Fprintf(w.w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w.w, "%s_sum %.6f\n", name, snap.Sum)
	fmt.Fprintf(w.w, "%s_count %d\n", name, snap.Count)
}
