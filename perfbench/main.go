// Command perfbench is the repository's benchmark: one Go process that
// hosts in-process fomodeld daemons (and, for fleet_mixed, a
// fomodelproxy router) on loopback HTTP, drives them with a closed loop
// of two clients, checks every response against an in-process
// reference, and prints end-to-end metrics (untraced run) or per-layer
// metrics and the latency stack (traced run). See README.md.
//
//	bash perfbench/run.sh --workload predict_hot --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"fomodel/internal/experiments"
	"fomodel/internal/server"
	"fomodel/internal/workload"
)

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "timed phase length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for artifact stores")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, out io.Writer) error {
	s, err := newSpec(o.workload, o.seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.workdir, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%t seconds=%d n=%d clients=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		s.name, o.seed, o.trace, o.seconds, traceLen, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit())

	var probe *probeResult
	if s.name != "fleet_mixed" {
		probe = newProbe()
		if err = sweepProbe(ctx, s, probe); err != nil {
			return err
		}
	}

	var tr *tracer
	reps := setupReps
	if o.trace {
		tr = &tracer{}
		reps = 1
	}
	var fx *fixture
	var setups []float64
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		if fx, err = setup(ctx, s, filepath.Join(dir, fmt.Sprint("setup", i)), tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()

	// The benchmark's own reference computations: outside setup_s and
	// outside the timed phase.
	refStart := time.Now()
	refs, err := references(ctx, s)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	refTime := time.Since(refStart)
	var rp *replayer
	if o.trace {
		if rp, err = newReplayer(s, fx, dir); err != nil {
			return err
		}
	}

	before, proxyBefore, err := fx.scrape(ctx)
	if err != nil {
		return err
	}
	res := runLoop(ctx, newClient(fx.entry), s, refs, time.Duration(o.seconds)*time.Second, tr, rp)
	postStart := time.Now()
	after, proxyAfter, err := fx.scrape(ctx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if probe != nil && !o.trace {
		if err := sweepProbe(ctx, s, probe); err != nil {
			return err
		}
	}

	rep := newReport(o.trace)
	sh := shapeOf(before, after, res.sweepHits)
	for _, why := range checkShape(s.name, sh) {
		rep.fail("workload shape: %s", why)
	}
	if res.mismatched > 0 {
		rep.fail("%d responses differ from their reference", res.mismatched)
	}
	if res.failed > res.mismatched {
		rep.fail("%d requests failed", res.failed-res.mismatched)
	}
	if probe != nil && probe.mismatched > 0 {
		rep.fail("%d probe sweeps differ from their reference", probe.mismatched)
	}
	var preds, sweeps int
	for _, w := range res.win {
		preds += len(w.pred)
		sweeps += len(w.sweep)
	}
	fmt.Fprintf(out, "timed phase: %d attempted, %d ok (%d predicts, %d sweeps), %d failed (fail_frac %.6g) in %.3fs\n",
		res.attempted, res.attempted-res.failed, preds, sweeps, res.failed,
		ratio(float64(res.failed), float64(res.attempted)), res.elapsed.Seconds())
	if fx.proxy != nil {
		d := proxyAfter.sub(proxyBefore)
		fmt.Fprintf(out, "proxy: %d hedges for %d sweeps and %d predicts\n",
			int64(d.sum("fomodelproxy_replica_hedges_total")), sweeps, preds)
	}

	if !o.trace {
		err = endToEnd(out, rep, s, res, probe, refs, setups)
	} else {
		err = perLayer(ctx, out, dir, rep, s, fx, tr, res, probe, before, after, proxyBefore, proxyAfter)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wall time: set-up %.1fs (%d×), references %.1fs, timed %.1fs, after %.1fs\n",
		sum(setups), len(setups), refTime.Seconds(), res.elapsed.Seconds(), time.Since(postStart).Seconds())
	return rep.emit(out, res.attempted, res.failed)
}

// endToEnd fills the metrics a user of the serving stack sees. Rates,
// CPU per request and median latencies are medians over the phase's
// windows (see winLen), so a burst of outside interference moves a few
// windows, not the result.
func endToEnd(out io.Writer, rep *report, s *spec, res *loopResult, probe *probeResult,
	refs map[int]ref, setups []float64) error {
	var rates, cpus, all []float64
	var pred, sweep [][]float64
	for w, win := range res.win {
		span := winLen
		if w == len(res.win)-1 { // it also holds the requests in flight at the end
			span = res.elapsed - time.Duration(w)*winLen
		}
		rates = append(rates, float64(win.ok)/span.Seconds())
		if win.ok > 0 {
			cpus = append(cpus, float64(win.cpu)/1e6/float64(win.ok))
		}
		pred = append(pred, millis(win.pred))
		sweep = append(sweep, millis(win.sweep))
		all = append(all, pred[w]...)
	}
	if probe != nil {
		sweep = probe.windows()
	}
	p50, err := windowMedian(pred)
	if err != nil {
		return fmt.Errorf("latency_p50_ms: %w", err)
	}
	sp50, err := windowMedian(sweep)
	if err != nil {
		return fmt.Errorf("sweep_latency_p50_ms: %w", err)
	}
	// The tail is printed but not in the result line: any other load on
	// the machine time-slices the two saturated CPUs, and p99 moves with
	// it far more than the bound a result metric may have (see README).
	sort.Float64s(all)
	p99, q, err := tailPercentile(all, 0.99)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w", err)
	}
	fmt.Fprintf(out, "%-34s %16.6f ms (printed only; p%g of %d predicts)\n", "latency_p99_ms", p99, 100*q, len(all))
	cpiErr, err := modelCPIErr(s, refs)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	rep.set("req_per_s", median(rates))
	rep.set("latency_p50_ms", p50)
	rep.set("sweep_latency_p50_ms", sp50)
	rep.set("ok_frac", 1-ratio(float64(res.failed), float64(res.attempted)))
	rep.set("cpu_ms_per_req", median(cpus))
	rep.set("heap_mb", float64(res.heap)/(1<<20))
	rep.set("model_cpi_err", cpiErr)
	return nil
}

// modelCPIErr is the mean |model CPI − sim CPI| / sim CPI over the
// references of the first refPredicts predict requests.
func modelCPIErr(s *spec, refs map[int]ref) (float64, error) {
	var sum float64
	n := 0
	for i := 0; n < refPredicts; i++ {
		req := s.request(i)
		if req.sweep {
			continue
		}
		r, ok := refs[req.ref]
		if !ok || r.sim == 0 {
			return 0, fmt.Errorf("model_cpi_err: request %d has no simulator reference", i)
		}
		sum += math.Abs(r.model-r.sim) / r.sim
		n++
	}
	return sum / float64(n), nil
}

// references computes, in-process through the public library path, the
// expected body of every checked request: server.Predict +
// server.EncodeIndented for predicts (with a simulator run for the first
// refPredicts, which model_cpi_err averages over), experiments.Sweep on
// an equal suite for sweeps.
func references(ctx context.Context, s *spec) (map[int]ref, error) {
	type job struct {
		req     request
		withSim bool
	}
	var jobs []job
	seen := map[int]int{} // ref → job index
	for i, n := 0, 0; n < refPredicts || (s.name == "fleet_mixed" && i/sweepEvery < refSweeps); i++ {
		req := s.request(i)
		if req.sweep {
			if req.ref >= 0 {
				jobs = append(jobs, job{req: req})
			}
			continue
		}
		if n < refPredicts {
			if k, ok := seen[req.ref]; ok {
				jobs[k].withSim = true
			} else {
				seen[req.ref] = len(jobs)
				jobs = append(jobs, job{req: req, withSim: true})
			}
			n++
		}
	}
	for k := range s.keys {
		if _, ok := seen[k]; !ok {
			jobs = append(jobs, job{req: request{pred: s.keys[k], ref: k}})
		}
	}
	var suite *experiments.Suite
	if s.name == "fleet_mixed" {
		suite = newSuite(s)
	}
	refs := make(map[int]ref, len(jobs))
	err := experiments.RunOrdered(clients, len(jobs), func(i int) (ref, error) {
		if jobs[i].req.sweep {
			return sweepRef(ctx, suite, jobs[i].req.spec)
		}
		return predictRef(jobs[i].req.pred, jobs[i].withSim)
	}, func(i int, r ref) error {
		refs[jobs[i].req.ref] = r
		return nil
	})
	return refs, err
}

func predictRef(req server.PredictRequest, withSim bool) (ref, error) {
	t, err := workload.Generate(req.Bench, req.N, req.Seed)
	if err != nil {
		return ref{}, err
	}
	mode, err := server.ParseBranchMode(req.BranchMode)
	if err != nil {
		return ref{}, err
	}
	machine, err := req.Machine.Machine()
	if err != nil {
		return ref{}, err
	}
	ucfg, err := req.Machine.SimConfig()
	if err != nil {
		return ref{}, err
	}
	rec, err := server.Predict(t, machine, ucfg, mode, withSim || req.Sim, nil)
	if err != nil {
		return ref{}, err
	}
	r := ref{model: rec.Estimate.CPI}
	if rec.SimCPI != nil {
		r.sim = *rec.SimCPI
	}
	if !req.Sim {
		rec.SimCPI = nil
	}
	r.body, err = server.EncodeIndented(rec)
	return r, err
}

// newSuite is a suite equal to the workload's daemons' own, warmed.
func newSuite(s *spec) *experiments.Suite {
	suite := experiments.NewSuite(traceLen, daemonSeed)
	suite.Warm() // before Workers is set: Warm fans out only over several workers
	suite.Workers = sweepWorkers(s.name)
	return suite
}

func sweepRef(ctx context.Context, suite *experiments.Suite, sp experiments.SweepSpec) (ref, error) {
	res, err := experiments.Sweep(ctx, suite, sp)
	if err != nil {
		return ref{}, err
	}
	body, err := server.EncodeIndented(server.SweepResponse{SweepResult: res, Render: res.Render(), CSV: res.CSV()})
	return ref{body: body}, err
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
