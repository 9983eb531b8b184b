package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fomodel/internal/workload"
)

func TestRunOrderedEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var got []int
		err := RunOrdered(workers, 20, func(i int) (int, error) {
			return i * i, nil
		}, func(i, v int) error {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d carries %d", workers, i, v)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emit order %v", workers, got)
			}
		}
		if len(got) != 20 {
			t.Fatalf("workers=%d: emitted %d of 20", workers, len(got))
		}
	}
}

func TestRunOrderedBoundsConcurrency(t *testing.T) {
	const workers = 3
	var running, peak atomic.Int32
	err := RunOrdered(workers, 24, func(i int) (struct{}, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return struct{}{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs with a %d-worker pool", p, workers)
	}
}

func TestRunOrderedFirstErrorByIndex(t *testing.T) {
	// Index 3 fails fast, index 7 fails slow: the returned error must be
	// index 3's regardless of which worker finishes first, and emit must
	// stop before slot 3.
	errFast := errors.New("fast")
	errSlow := errors.New("slow")
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := RunOrdered(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errFast
			case 7:
				time.Sleep(5 * time.Millisecond)
				return 0, errSlow
			}
			return i, nil
		}, func(i, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		if !errors.Is(err, errFast) {
			t.Fatalf("workers=%d: got %v, want the index-3 error", workers, err)
		}
		for _, i := range emitted {
			if i >= 3 {
				t.Fatalf("workers=%d: emitted slot %d past the failure", workers, i)
			}
		}
	}
}

func TestRunOrderedEmitErrorStops(t *testing.T) {
	errStop := errors.New("stop")
	count := 0
	err := RunOrdered(4, 50, func(i int) (int, error) { return i, nil },
		func(i, _ int) error {
			count++
			if i == 5 {
				return errStop
			}
			return nil
		})
	if !errors.Is(err, errStop) {
		t.Fatalf("got %v", err)
	}
	if count != 6 {
		t.Fatalf("emit ran %d times, want 6", count)
	}
}

// TestRunOrderedRecoversPanics pins the pooled panic contract: a panic
// in a compute callback — sequential or pooled — surfaces as a
// *PanicError carrying the panic value and a stack, instead of killing
// the worker goroutine (which would deadlock the emit loop) or the
// process.
func TestRunOrderedRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := RunOrdered(workers, 10, func(i int) (int, error) {
			if i == 3 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			return i, nil
		}, func(i, _ int) error {
			emitted = append(emitted, i)
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if got := fmt.Sprint(pe.Value); got != "boom at 3" {
			t.Errorf("workers=%d: panic value = %q", workers, got)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError carries no stack", workers)
		}
		if !strings.Contains(pe.Error(), "worker panic") || !strings.Contains(pe.Error(), "boom at 3") {
			t.Errorf("workers=%d: error text %q should name the panic", workers, pe.Error())
		}
		for _, i := range emitted {
			if i >= 3 {
				t.Errorf("workers=%d: emitted slot %d past the panic", workers, i)
			}
		}
	}
}

// TestEngineDoRecoversPanics pins the same contract for the job-list
// engine: a panicking job surfaces as the *PanicError result while the
// sibling jobs still run to completion.
func TestEngineDoRecoversPanics(t *testing.T) {
	var ran atomic.Int32
	eng := NewEngine(4)
	err := eng.Do(
		Job{Name: "ok-1", Run: func() error { ran.Add(1); return nil }},
		Job{Name: "bad", Run: func() error { panic("job boom") }},
		Job{Name: "ok-2", Run: func() error { ran.Add(1); return nil }},
	)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v (%T), want *PanicError", err, err)
	}
	if got := fmt.Sprint(pe.Value); got != "job boom" {
		t.Errorf("panic value = %q", got)
	}
	if ran.Load() != 2 {
		t.Errorf("sibling jobs ran %d times, want 2", ran.Load())
	}
}

func TestRunOrderedZeroJobs(t *testing.T) {
	if err := RunOrdered(4, 0, func(int) (int, error) {
		t.Fatal("compute called with no jobs")
		return 0, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadSingleFlight is the regression test for the duplicate-compute
// race: many goroutines released together against the same names must share
// one computation per name and see identical pointers.
func TestWorkloadSingleFlight(t *testing.T) {
	s := smallSuite()
	const goroutinesPerName = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		seen  = map[string]map[*Workload]bool{}
	)
	gate := make(chan struct{})
	for _, name := range s.Names {
		seen[name] = map[*Workload]bool{}
		for g := 0; g < goroutinesPerName; g++ {
			start.Add(1)
			done.Add(1)
			go func(name string) {
				defer done.Done()
				start.Done()
				<-gate // all goroutines hit the cache at once
				w, err := s.Workload(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				seen[name][w] = true
				mu.Unlock()
			}(name)
		}
	}
	start.Wait()
	close(gate)
	done.Wait()
	for name, ptrs := range seen {
		if len(ptrs) != 1 {
			t.Errorf("%s: %d distinct workload pointers, want 1", name, len(ptrs))
		}
	}
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Errorf("%d workload computations for %d names", computes, len(s.Names))
	}
}

func TestWorkloadCachesErrors(t *testing.T) {
	s := smallSuite()
	_, err1 := s.Workload("nope")
	_, err2 := s.Workload("nope")
	if err1 == nil || err2 == nil {
		t.Fatal("unknown workload accepted")
	}
	if computes, _ := s.Counters(); computes != 1 {
		t.Fatalf("failed computation ran %d times, want 1 (errors are cached)", computes)
	}
}

// TestSuiteWorkloadCacheBounded resolves more registered workloads, at
// the suite's own n and seed, than the workload cache may hold, and
// checks the cache never grows past its bound.
func TestSuiteWorkloadCacheBounded(t *testing.T) {
	base, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(2000, 1)
	s.Lookup = func(name string) (workload.Profile, string, bool) {
		prof := base
		prof.Name = name
		return prof, name, true
	}
	for i := 0; i < maxCachedWorkloads+8; i++ {
		if _, err := s.Workload(fmt.Sprintf("custom-%d", i)); err != nil {
			t.Fatal(err)
		}
		if n := s.cache.Len(); n > maxCachedWorkloads {
			t.Fatalf("after %d registered workloads the suite caches %d, bound %d", i+1, n, maxCachedWorkloads)
		}
	}
	if computes, _ := s.Counters(); computes != maxCachedWorkloads+8 {
		t.Errorf("%d workload computations, want one per name (%d)", computes, maxCachedWorkloads+8)
	}
}

func TestEachWorkloadWrapsBothErrorPaths(t *testing.T) {
	// Workload-computation errors carry the benchmark name…
	s := smallSuite()
	s.Names = []string{"gzip", "nope"}
	err := s.EachWorkload(func(*Workload) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "experiments: nope:") {
		t.Fatalf("compute error not wrapped with the name: %v", err)
	}
	// …and so do errors returned by fn itself.
	s = smallSuite()
	errFn := errors.New("fn failed")
	err = s.EachWorkload(func(w *Workload) error {
		if w.Name == "mcf" {
			return errFn
		}
		return nil
	})
	if !errors.Is(err, errFn) || !strings.Contains(err.Error(), "experiments: mcf:") {
		t.Fatalf("fn error not wrapped with the name: %v", err)
	}
}

func TestMapWorkloadsKeepsReportOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := smallSuite()
		s.Workers = workers
		names, err := MapWorkloads(s, func(w *Workload) (string, error) {
			return w.Name, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != fmt.Sprint(s.Names) {
			t.Fatalf("workers=%d: order %v, want %v", workers, names, s.Names)
		}
	}
}

// TestParallelMatchesSequential is the engine's determinism contract:
// rendering an experiment with one worker and with many must produce
// byte-identical output on fresh suites.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(workers int) (string, string) {
		s := smallSuite()
		s.Workers = workers
		f15, err := Figure15(s)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Table1(s)
		if err != nil {
			t.Fatal(err)
		}
		return f15.Render(), t1.Render()
	}
	seqF15, seqT1 := render(1)
	parF15, parT1 := render(8)
	if seqF15 != parF15 {
		t.Errorf("Figure15 differs between 1 and 8 workers:\n--- sequential ---\n%s--- parallel ---\n%s", seqF15, parF15)
	}
	if seqT1 != parT1 {
		t.Errorf("Table1 differs between 1 and 8 workers:\n--- sequential ---\n%s--- parallel ---\n%s", seqT1, parT1)
	}
}

func TestEngineDoEarliestErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	eng := NewEngine(4)
	err := eng.Do(
		Job{Name: "ok", Run: func() error { return nil }},
		Job{Name: "slow-fail", Run: func() error { time.Sleep(5 * time.Millisecond); return errA }},
		Job{Name: "fast-fail", Run: func() error { return errB }},
	)
	// errA comes first in argument order even though errB fails first in
	// wall time.
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want the earliest job's error", err)
	}
}

func TestEngineDoRunsEverything(t *testing.T) {
	var ran atomic.Int32
	eng := NewEngine(2)
	jobs := make([]Job, 9)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("job%d", i), Run: func() error {
			ran.Add(1)
			return nil
		}}
	}
	if err := eng.Do(jobs...); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 9 {
		t.Fatalf("ran %d of 9 jobs", ran.Load())
	}
}

func TestTimingsNilSafe(t *testing.T) {
	var tm *Timings
	tm.Record("workload", "gzip", time.Second) // must not panic
	if tm.Samples() != nil {
		t.Fatal("nil Timings produced samples")
	}
	if tm.Render() != "" {
		t.Fatal("nil Timings rendered output")
	}
}

func TestTimingsSortAndRender(t *testing.T) {
	tm := &Timings{}
	tm.Record("workload", "gzip", 2*time.Second)
	tm.Record("experiment", "fig15", 3*time.Second)
	tm.Record("workload", "mcf", 5*time.Second)
	samples := tm.Samples()
	want := []string{"fig15", "mcf", "gzip"} // phase asc, elapsed desc
	for i, s := range samples {
		if s.Name != want[i] {
			t.Fatalf("sample order %v", samples)
		}
	}
	out := tm.Render()
	for _, needle := range []string{"gzip", "mcf", "fig15", "totals:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("render missing %q:\n%s", needle, out)
		}
	}
}

func TestSuiteWarmPrefetches(t *testing.T) {
	s := smallSuite()
	s.Workers = 4
	s.Warm()
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Fatalf("Warm computed %d workloads, want %d", computes, len(s.Names))
	}
	s.Warm() // second warm is a no-op against a full cache
	if computes, _ := s.Counters(); computes != int64(len(s.Names)) {
		t.Fatalf("second Warm recomputed: %d", computes)
	}
}
