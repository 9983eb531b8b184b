package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fomodel/internal/core"
	"fomodel/internal/stats"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// SweepPoint is one (parameter value, benchmark) sample of a machine
// sweep.
type SweepPoint struct {
	Bench    string  `json:"bench"`
	Value    int     `json:"value"`
	SimCPI   float64 `json:"sim_cpi"`
	ModelCPI float64 `json:"model_cpi"`
	Err      float64 `json:"err"`
}

// SweepResult is a machine-parameter sweep validating the model across a
// dimension the paper varies analytically.
type SweepResult struct {
	Title      string       `json:"title"`
	Param      string       `json:"param"`
	Points     []SweepPoint `json:"points"`
	MeanAbsErr float64      `json:"mean_abs_err"`
}

// tab builds the result table.
func (r *SweepResult) tab() *table {
	t := &table{
		title:  r.Title,
		header: []string{"bench", r.Param, "model CPI", "sim CPI", "err"},
	}
	for _, p := range r.Points {
		t.addRow(p.Bench, fmt.Sprintf("%d", p.Value), f3(p.ModelCPI), f3(p.SimCPI), pct(p.Err))
	}
	t.addNote("mean |err| %s", pct(r.MeanAbsErr))
	return t
}

// Render prints the table as aligned text.
func (r *SweepResult) Render() string { return r.tab().String() }

// CSV renders the table as comma-separated values.
func (r *SweepResult) CSV() string { return r.tab().CSV() }

func (r *SweepResult) finish() {
	for _, p := range r.Points {
		r.MeanAbsErr += abs(p.Err)
	}
	if len(r.Points) > 0 {
		r.MeanAbsErr /= float64(len(r.Points))
	}
}

// SweepSpec describes a design-space sweep over one machine parameter:
// every benchmark in Benches is run (simulator and model) at every value
// in Values, with the suite's baseline machine supplying the remaining
// parameters. It is the request shape shared by the built-in sweep
// experiments and the serving daemon's /v1/sweep endpoint.
type SweepSpec struct {
	// Title heads the rendered table; empty derives one from Param and
	// Benches.
	Title string `json:"title,omitempty"`
	// Param names the swept dimension; see SweepParams.
	Param string `json:"param"`
	// Benches lists the workloads, in report order.
	Benches []string `json:"benches"`
	// Values lists the parameter values, in report order.
	Values []int `json:"values"`
}

// sweepParam is one supported sweep dimension.
type sweepParam struct {
	// apply sets the swept value on the model machine and the simulator
	// configuration alike; grid cells and ValidateFor both derive the
	// swept machine through it.
	apply func(m *core.Machine, c *uarch.Config, v int)
	// inputs re-derives the model inputs that depend on the swept value;
	// nil reuses the workload's cached inputs.
	inputs func(w *Workload, m core.Machine, c uarch.Config) (core.Inputs, error)
}

// sweepParams maps each supported parameter to its definition. The
// window and ROB sweeps re-derive the model inputs that depend on the
// swept size (the measured IW point and the equation-(8) miss grouping
// respectively); width and depth only move timing-side machine
// parameters, so the cached workload inputs are reused as-is.
var sweepParams = map[string]sweepParam{
	// The ROB is bumped when it would fall below the window.
	"window": {
		apply: func(m *core.Machine, c *uarch.Config, v int) {
			m.WindowSize, c.WindowSize = v, v
			m.ROBSize = max(m.ROBSize, v)
			c.ROBSize = max(c.ROBSize, v)
		},
		inputs: func(w *Workload, m core.Machine, _ uarch.Config) (core.Inputs, error) {
			return core.InputsFromCurve(w.Law, w.Points, m.WindowSize, w.Summary)
		},
	},
	// The trace is re-analyzed so the long-miss grouping uses the new
	// horizon.
	"rob": {
		apply: func(m *core.Machine, c *uarch.Config, v int) { m.ROBSize, c.ROBSize = v, v },
		inputs: func(w *Workload, m core.Machine, c uarch.Config) (core.Inputs, error) {
			sum, err := stats.Analyze(w.Trace, statsConfig(c, m.ROBSize))
			if err != nil {
				return core.Inputs{}, err
			}
			return core.InputsFromCurve(w.Law, w.Points, m.WindowSize, sum)
		},
	},
	"width": {apply: func(m *core.Machine, c *uarch.Config, v int) { m.Width, c.Width = v, v }},
	// Depth only moves the branch misprediction penalty.
	"depth": {apply: func(m *core.Machine, c *uarch.Config, v int) { m.FrontEndDepth, c.FrontEndDepth = v, v }},
}

// SweepParams returns the supported sweep parameter names, sorted.
func SweepParams() []string {
	params := make([]string, 0, len(sweepParams))
	for p := range sweepParams {
		params = append(params, p)
	}
	sort.Strings(params)
	return params
}

// Validate reports the first structural problem with the spec,
// accepting only built-in benchmark names. Servers with a workload
// registry use ValidateFor so registered names pass too.
func (sp SweepSpec) Validate() error { return sp.ValidateFor(nil) }

// ValidateFor is Validate against a suite's workload universe: a bench
// name is acceptable when it is built-in or when s resolves it through
// its registered-workload lookup. Every grid value's machine — s's
// baseline, or the defaults when s is nil, with the value applied — must
// pass the same model and simulator validation a predict request's
// machine does, so a value no simulator can run is a request error, not
// a failed cell. A nil s accepts built-ins only.
func (sp SweepSpec) ValidateFor(s *Suite) error {
	p, ok := sweepParams[sp.Param]
	if !ok {
		return fmt.Errorf("experiments: unknown sweep parameter %q (known: %s)",
			sp.Param, strings.Join(SweepParams(), ", "))
	}
	if len(sp.Benches) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one benchmark")
	}
	for _, b := range sp.Benches {
		if s.KnowsWorkload(b) {
			continue
		}
		if _, err := workload.ByName(b); err != nil {
			return err
		}
	}
	if len(sp.Values) == 0 {
		return fmt.Errorf("experiments: sweep needs at least one %s value", sp.Param)
	}
	base, sim := core.DefaultMachine(), uarch.DefaultConfig()
	if s != nil {
		base, sim = s.Machine, s.Sim
	}
	for _, v := range sp.Values {
		if v < 1 {
			return fmt.Errorf("experiments: sweep value %d < 1", v)
		}
		m, c := base, sim
		p.apply(&m, &c, v)
		if err := m.Validate(); err != nil {
			return err
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs the spec's bench × value grid concurrently (bounded by
// s.Workers) and collects the points in grid order, so any worker count
// produces an identical result. Cancelling ctx stops the sweep at the
// next grid cell; started cells run to completion but their results are
// discarded.
func Sweep(ctx context.Context, s *Suite, spec SweepSpec) (*SweepResult, error) {
	return SweepStream(ctx, s, spec, nil)
}

// SweepStream is Sweep with per-cell delivery: emit (when non-nil) is
// called on the calling goroutine, strictly in grid order, as each cell's
// point becomes available — the streaming surface the daemon's NDJSON
// sweep mode is built on. An emit error stops the sweep (no new cells are
// handed out) and is returned; cancelling ctx stops it at the next grid
// cell. The returned result is identical to Sweep's for the same spec.
func SweepStream(ctx context.Context, s *Suite, spec SweepSpec, emit func(SweepPoint) error) (*SweepResult, error) {
	if err := spec.ValidateFor(s); err != nil {
		return nil, err
	}
	title := spec.Title
	if title == "" {
		title = fmt.Sprintf("Design-space sweep: %s across %s",
			spec.Param, strings.Join(spec.Benches, ", "))
	}
	res := &SweepResult{Title: title, Param: spec.Param}
	p := sweepParams[spec.Param]
	jobs := sweepGrid(spec.Benches, spec.Values)
	err := RunOrdered(s.workers(), len(jobs), func(i int) (SweepPoint, error) {
		if err := ctx.Err(); err != nil {
			return SweepPoint{}, err
		}
		w, err := s.Workload(jobs[i].bench)
		if err != nil {
			return SweepPoint{}, err
		}
		return sweepCell(s, w, p, jobs[i].value)
	}, func(_ int, pt SweepPoint) error {
		res.Points = append(res.Points, pt)
		if emit != nil {
			return emit(pt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// sweepJob is one (benchmark, parameter value) cell of a sweep grid.
type sweepJob struct {
	bench string
	value int
}

// sweepGrid flattens a bench × value grid into the job list fed to
// RunOrdered, keeping report order (benchmarks outer, values inner).
func sweepGrid(benches []string, values []int) []sweepJob {
	jobs := make([]sweepJob, 0, len(benches)*len(values))
	for _, b := range benches {
		for _, v := range values {
			jobs = append(jobs, sweepJob{bench: b, value: v})
		}
	}
	return jobs
}

// sweepCell computes one (benchmark, value) grid cell: the simulator and
// the model on the baseline machine with the value applied.
func sweepCell(s *Suite, w *Workload, p sweepParam, v int) (SweepPoint, error) {
	m, c := s.Machine, s.Sim
	p.apply(&m, &c, v)
	sim, err := s.Simulate(w, func(sc *uarch.Config) { *sc = c })
	if err != nil {
		return SweepPoint{}, err
	}
	in := w.Inputs
	if p.inputs != nil {
		if in, err = p.inputs(w, m, c); err != nil {
			return SweepPoint{}, err
		}
	}
	est, err := m.Estimate(in, modelOptions())
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{
		Bench:    w.Name,
		Value:    v,
		SimCPI:   sim.CPI(),
		ModelCPI: est.CPI,
		Err:      relErr(est.CPI, sim.CPI()),
	}, nil
}

// WindowSweep validates the steady-state model through the knee of the IW
// curve: as the window shrinks below saturation, the power law (not the
// width clip) sets the background IPC. Three benchmarks spanning the beta
// range, windows 8–96.
func WindowSweep(ctx context.Context, s *Suite) (*SweepResult, error) {
	return Sweep(ctx, s, SweepSpec{
		Title:   "Window sweep: steady state through the IW-curve knee",
		Param:   "window",
		Benches: []string{"gzip", "vortex", "vpr"},
		Values:  []int{8, 16, 32, 48, 96},
	})
}

// ROBSweep validates the data-miss overlap model across reorder-buffer
// sizes: a larger ROB overlaps more long misses, so f_LDM — and with it
// the d-miss CPI — must be re-derived per size. The d-miss-heavy
// benchmarks are the sensitive ones.
func ROBSweep(ctx context.Context, s *Suite) (*SweepResult, error) {
	return Sweep(ctx, s, SweepSpec{
		Title:   "ROB sweep: equation (8) overlap across reorder-buffer sizes",
		Param:   "rob",
		Benches: []string{"mcf", "twolf", "gap"},
		Values:  []int{48, 96, 128, 256},
	})
}
