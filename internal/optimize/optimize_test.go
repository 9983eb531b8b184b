package optimize

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// convexEval is a synthetic separable convex objective with its optimum
// at width 11, window 88: the kind of bowl the paper's CPI surfaces form
// around a balanced configuration.
func convexEval(_ context.Context, cfg Config, _ string) (float64, error) {
	dw := float64(cfg.Width - 11)
	dn := float64(cfg.Window - 88)
	return 1 + 0.01*dw*dw + 0.0004*dn*dn, nil
}

// convexSpec bounds a 16×16 grid (rob pinned) around convexEval's bowl.
func convexSpec() Spec {
	return Spec{
		Workloads: []WorkloadWeight{{Bench: "gzip"}},
		Bounds: map[string]Bound{
			"width":  {Min: 1, Max: 16},
			"window": {Min: 8, Max: 128, Step: 8},
			"rob":    {Min: 256, Max: 256},
		},
		Budget: 256,
	}
}

// TestConvexFindsOptimumUnderBudget pins the acceptance criterion: the
// search finds the known optimum of a convex synthetic objective while
// evaluating well under 40% of the full grid.
func TestConvexFindsOptimumUnderBudget(t *testing.T) {
	res, err := Run(context.Background(), convexSpec(), convexEval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GridSize != 256 {
		t.Fatalf("GridSize = %d, want 256", res.GridSize)
	}
	if len(res.Frontier) != 1 {
		t.Fatalf("frontier has %d points, want 1", len(res.Frontier))
	}
	best := res.Frontier[0].Config
	if best.Width != 11 || best.Window != 88 {
		t.Errorf("best config = width %d window %d, want 11/88", best.Width, best.Window)
	}
	if limit := res.GridSize * 40 / 100; res.Evaluations >= limit {
		t.Errorf("evaluations = %d, want < %d (40%% of grid)", res.Evaluations, limit)
	}
	if !res.Converged {
		t.Errorf("search did not converge within budget %d (evals %d)", 256, res.Evaluations)
	}
	t.Logf("optimum found in %d/%d evaluations (%.1f%%), %d rounds",
		res.Evaluations, res.GridSize, 100*float64(res.Evaluations)/float64(res.GridSize), res.Rounds)
}

// TestDeterministicAcrossWorkersAndRuns pins the determinism contract:
// same spec + seed ⇒ byte-identical result JSON at any worker count,
// including when the seeded coarse-grid subsample is active.
func TestDeterministicAcrossWorkersAndRuns(t *testing.T) {
	spec := Spec{
		Workloads: []WorkloadWeight{{Bench: "gzip", Weight: 2}, {Bench: "mcf", Weight: 1}},
		Bounds: map[string]Bound{
			"width":  {Min: 1, Max: 8},
			"window": {Min: 8, Max: 64, Step: 8},
			"rob":    {Min: 16, Max: 256, Step: 16},
		},
		Budget: 30, // forces the seeded subsample: 3×3×3 coarse > 20
		Seed:   7,
	}
	eval := func(_ context.Context, cfg Config, bench string) (float64, error) {
		v := 1 + 0.02*float64(cfg.Width) + 0.001*float64(cfg.Window) + 0.0005*float64(cfg.ROB)
		if bench == "mcf" {
			v *= 1.5
		}
		return v, nil
	}
	var want []byte
	for _, workers := range []int{1, 2, 7} {
		for run := 0; run < 3; run++ {
			res, err := Run(context.Background(), spec, eval, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("workers=%d run=%d produced a different result\n got: %s\nwant: %s",
					workers, run, got, want)
			}
		}
	}
}

// TestBudgetNeverExceeded pins the budget contract across budgets,
// including budgets smaller than the coarse grid.
func TestBudgetNeverExceeded(t *testing.T) {
	for _, budget := range []int{1, 2, 5, 9, 17} {
		spec := convexSpec()
		spec.Budget = budget
		var calls atomic.Int64
		eval := func(ctx context.Context, cfg Config, bench string) (float64, error) {
			calls.Add(1)
			return convexEval(ctx, cfg, bench)
		}
		res, err := Run(context.Background(), spec, eval, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations > budget {
			t.Errorf("budget %d: %d evaluations", budget, res.Evaluations)
		}
		if got := calls.Load(); got != int64(res.Evaluations) {
			t.Errorf("budget %d: %d eval calls for %d evaluations (1 bench per mix)", budget, got, res.Evaluations)
		}
		if len(res.Frontier) == 0 || len(res.Points) == 0 {
			t.Errorf("budget %d: empty frontier or history", budget)
		}
	}
}

// TestContextCancelStopsSearch pins mid-search cancellation: once ctx is
// canceled, Run aborts with the context error instead of running the
// budget out.
func TestContextCancelStopsSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	eval := func(ctx context.Context, cfg Config, bench string) (float64, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return convexEval(ctx, cfg, bench)
	}
	res, err := Run(ctx, convexSpec(), eval, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %+v), want context.Canceled", err, res)
	}
	if calls.Load() > 50 {
		t.Errorf("search kept evaluating after cancel: %d calls", calls.Load())
	}
}

// TestEmitMatchesPoints pins the streaming contract: emitted points are
// exactly the result's history, in order.
func TestEmitMatchesPoints(t *testing.T) {
	var emitted []Point
	res, err := Run(context.Background(), convexSpec(), convexEval, Options{
		Workers: 3,
		Emit:    func(pt Point) error { emitted = append(emitted, pt); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(res.Points) {
		t.Fatalf("emitted %d points, history has %d", len(emitted), len(res.Points))
	}
	for i := range emitted {
		a, _ := json.Marshal(emitted[i])
		b, _ := json.Marshal(res.Points[i])
		if string(a) != string(b) {
			t.Fatalf("point %d: emitted %s, history %s", i, a, b)
		}
	}
}

// TestEmitErrorAborts pins that an emit failure stops the search.
func TestEmitErrorAborts(t *testing.T) {
	boom := errors.New("sink full")
	_, err := Run(context.Background(), convexSpec(), convexEval, Options{
		Emit: func(Point) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// TestParetoFrontier pins the 2-D mode: a monotone trade-off (CPI falls
// as width grows, area rises) yields the whole lattice as its frontier,
// sorted by the first objective and mutually non-dominated.
func TestParetoFrontier(t *testing.T) {
	spec := Spec{
		Workloads: []WorkloadWeight{{Bench: "gzip"}},
		Bounds:    map[string]Bound{"width": {Min: 1, Max: 8}},
		Objective: ObjectivePareto,
		Budget:    20,
	}
	eval := func(_ context.Context, cfg Config, _ string) (float64, error) {
		return 2 - 0.1*float64(cfg.Width), nil
	}
	res, err := Run(context.Background(), spec, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Spec.Pareto; len(got) != 2 || got[0] != ObjectiveCPI || got[1] != ObjectiveArea {
		t.Fatalf("default pareto pair = %v", got)
	}
	if len(res.Frontier) != 8 {
		t.Fatalf("frontier has %d points, want all 8 lattice points\n%+v", len(res.Frontier), res.Frontier)
	}
	for i, pt := range res.Frontier {
		if i == 0 {
			continue
		}
		prev := res.Frontier[i-1]
		if pt.Objectives[0] < prev.Objectives[0] {
			t.Errorf("frontier not sorted by first objective at %d", i)
		}
		if pt.Objectives[0] >= prev.Objectives[0] && pt.Objectives[1] >= prev.Objectives[1] {
			t.Errorf("frontier points %d and %d not mutually non-dominated", i-1, i)
		}
	}
	if !res.Converged {
		t.Errorf("pareto search should converge after exhausting the 8-point lattice (evals %d)", res.Evaluations)
	}
}

// TestValidateMessagesDeterministic pins the sorted-enumeration
// discipline: repeated validations of the same bad spec produce the same
// message, with parameter names in sorted order.
func TestValidateMessagesDeterministic(t *testing.T) {
	spec := Spec{
		Workloads: []WorkloadWeight{{Bench: "gzip"}},
		Bounds:    map[string]Bound{"l2_size": {Min: 1, Max: 2}},
		Budget:    4,
	}
	want := `optimize: unknown parameter "l2_size" (known: clusters, depth, fetch_buffer, rob, width, window)`
	for i := 0; i < 20; i++ {
		err := spec.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("iteration %d: err = %v, want %q", i, err, want)
		}
	}
}

// TestValidateRejects spot-checks the 400-shaped errors.
func TestValidateRejects(t *testing.T) {
	base := func() Spec {
		return Spec{
			Workloads: []WorkloadWeight{{Bench: "gzip"}},
			Bounds:    map[string]Bound{"width": {Min: 1, Max: 8}},
			Budget:    16,
		}
	}
	cases := []struct {
		name string
		mod  func(*Spec)
		frag string
	}{
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "at least one workload"},
		{"dup workload", func(s *Spec) { s.Workloads = append(s.Workloads, WorkloadWeight{Bench: "gzip"}) }, "listed twice"},
		{"bad bench", func(s *Spec) { s.Workloads[0].Bench = "nope" }, "unknown profile"},
		{"no bounds", func(s *Spec) { s.Bounds = nil }, "at least one parameter bound"},
		{"bad step", func(s *Spec) { s.Bounds["width"] = Bound{Min: 1, Max: 8, Step: 3} }, "not reachable"},
		{"below floor", func(s *Spec) { s.Bounds["width"] = Bound{Min: 0, Max: 8} }, "below the parameter minimum"},
		{"no budget", func(s *Spec) { s.Budget = 0 }, "budget 0 < 1"},
		{"huge budget", func(s *Spec) { s.Budget = 1 << 20 }, "exceeds the 4096-evaluation limit"},
		{"bad objective", func(s *Spec) { s.Objective = "ipc" }, "unknown objective"},
		{"pareto without mode", func(s *Spec) { s.Pareto = []string{"cpi", "area"} }, "objective is"},
		{"pareto dup", func(s *Spec) {
			s.Objective = ObjectivePareto
			s.Pareto = []string{"cpi", "cpi"}
		}, "must differ"},
		{"no valid configs", func(s *Spec) {
			s.Bounds = map[string]Bound{"window": {Min: 200, Max: 200}, "rob": {Min: 100, Max: 100}}
		}, "no valid configuration"},
		{"indivisible clusters", func(s *Spec) {
			s.Bounds = map[string]Bound{"clusters": {Min: 3, Max: 3}}
		}, "no valid configuration"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mod(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.frag)
		}
	}
}

// TestInvalidLatticePointsSkipped pins that rob < window lattice points
// are excluded without consuming budget: the grid size counts only valid
// points, and every evaluated candidate satisfies the constraint.
func TestInvalidLatticePointsSkipped(t *testing.T) {
	spec := Spec{
		Workloads: []WorkloadWeight{{Bench: "gzip"}},
		Bounds: map[string]Bound{
			"window": {Min: 32, Max: 64, Step: 32},
			"rob":    {Min: 32, Max: 64, Step: 32},
		},
		Budget: 16,
	}
	var bad atomic.Int64
	eval := func(_ context.Context, cfg Config, _ string) (float64, error) {
		if cfg.ROB < cfg.Window {
			bad.Add(1)
		}
		return 1, nil
	}
	res, err := Run(context.Background(), spec, eval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GridSize != 3 {
		t.Errorf("GridSize = %d, want 3 (2×2 lattice minus rob<window)", res.GridSize)
	}
	if bad.Load() != 0 {
		t.Errorf("%d invalid candidates were evaluated", bad.Load())
	}
}

// TestGridCountsMatchesEnumeration pins the analytic valid-point count
// against a walk of the whole lattice with Config.valid, on bounds where
// both the rob < window and the cluster-divisibility rules bite.
func TestGridCountsMatchesEnumeration(t *testing.T) {
	spec := Spec{Bounds: map[string]Bound{
		"width":    {Min: 2, Max: 8, Step: 2},
		"depth":    {Min: 3, Max: 5},
		"window":   {Min: 12, Max: 48, Step: 12},
		"rob":      {Min: 16, Max: 48, Step: 16},
		"clusters": {Min: 1, Max: 4},
	}}
	var total, valid int64
	var walk func(c Config, axis int)
	walk = func(c Config, axis int) {
		if axis == len(axisNames) {
			total++
			if c.valid() {
				valid++
			}
			return
		}
		b := spec.normalizedBound(axisNames[axis])
		for i := 0; i < b.count(); i++ {
			c.setAxis(axisNames[axis], b.value(i))
			walk(c, axis+1)
		}
	}
	walk(Baseline(), 0)
	gotTotal, gotValid := spec.gridCounts()
	if gotTotal != total || gotValid != valid {
		t.Errorf("gridCounts = (%d, %d), enumeration (%d, %d)", gotTotal, gotValid, total, valid)
	}
	if valid == 0 || valid == total {
		t.Fatalf("degenerate bounds: %d of %d valid", valid, total)
	}
}

// TestRenderAndCSV sanity-checks the rendered surfaces.
func TestRenderAndCSV(t *testing.T) {
	res, err := Run(context.Background(), convexSpec(), convexEval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	render := res.Render()
	if !strings.Contains(render, "minimize cpi over gzip") ||
		!strings.Contains(render, "refinement rounds") {
		t.Errorf("render missing expected lines:\n%s", render)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "eval,width,depth,window,rob,clusters,fetch_buffer,cpi\n") {
		t.Errorf("csv header unexpected:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 1+len(res.Frontier) {
		t.Errorf("csv has %d lines, want %d", lines, 1+len(res.Frontier))
	}
}
