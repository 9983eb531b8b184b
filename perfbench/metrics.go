package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one printed metric and its unit. BENCHMARK.json lists
// the same names and units (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by an untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"sweep_latency_p50_ms", "ms"},
	{"ok_frac", "frac"},
	{"cpu_ms_per_req", "ms"},
	{"heap_mb", "MB"},
	{"model_cpi_err", "frac"},
}

// perLayerMetrics are printed by a traced run.
var perLayerMetrics = []metricDef{
	{"server.handler_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.allocs_per_req", "count"},
	{"reqkey.key_us", "us"},
	{"workload.byname_us", "us"},
	{"client.roundtrip_overhead_us", "us"},
	{"server.resp_cache_hit_ratio", "ratio"},
	{"server.analysis_cache_hit_ratio", "ratio"},
	{"experiments.lookup_analysis_us", "us"},
	{"artifact.get_us", "us"},
	{"artifact.decode_gob_us", "us"},
	{"core.estimate_us", "us"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.put_ms", "ms"},
	{"artifact.evictions_per_put", "ratio"},
	{"workload.generate_ms", "ms"},
	{"trace.producers_ms", "ms"},
	{"trace.encode_ms", "ms"},
	{"iw.characteristic_ms", "ms"},
	{"stats.analyze_ms", "ms"},
	{"experiments.compute_analysis_ms", "ms"},
	{"uarch.simulate_ms", "ms"},
	{"uarch.minstr_per_s", "Minstr/s"},
	{"uarch.prep_reuse_ratio", "ratio"},
	{"experiments.sweep_ms", "ms"},
	{"router.overhead_us", "us"},
	{"router.hedge_frac", "ratio"},
	{"router.upstream_per_req", "ratio"},
	{"router.owner_hit_ratio", "ratio"},
	{"stack.residual_frac", "frac"},
	{"bench.tracing_overhead_frac", "frac"},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, and why the run is not correct.
type report struct {
	defs    []metricDef
	metrics map[string]metric
	bad     []string
}

func newReport(traced bool) *report {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	return &report{defs: defs, metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *report) fail(format string, args ...any) {
	r.bad = append(r.bad, fmt.Sprintf(format, args...))
}

// emit prints every metric with its unit, then the result line.
func (r *report) emit(out io.Writer, attempted, failed int) error {
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s is %v", d.name, m.Value)
		}
		fmt.Fprintf(out, "%-34s %16.6f %s\n", d.name, m.Value, m.Unit)
	}
	for _, why := range r.bad {
		fmt.Fprintln(out, "NOT CORRECT:", why)
	}
	line, err := json.Marshal(result{
		Correct:   len(r.bad) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
