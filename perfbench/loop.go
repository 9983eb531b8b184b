package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/client"
)

// ref is the in-process answer to one checked request.
type ref struct {
	body       []byte
	model, sim float64 // CPIs of a predict reference; zero for sweeps
}

// traced is one request of the replay phase.
type traced struct {
	id     int
	sweep  bool
	client time.Duration
	layers time.Duration // Σ on-path replayed layer spans
}

// loopResult is what the clients saw during a timed phase.
type loopResult struct {
	attempted  int
	failed     int
	mismatched int
	sweepHits  int
	elapsed    time.Duration
	heap       uint64 // live heap after a forced GC at the end of the phase
	win        []window

	// Traced runs only.
	recs      []traced
	layers    [2]*spanSet // replayed layer spans of predicts [0] and sweeps [1]
	slices    [2]agg      // client latency in untraced [0] and traced [1] slices
	diverged  int         // replays whose body differs from the response
	replayErr error
}

// winLen splits the timed phase into windows; the end-to-end figures
// are medians over them (see endToEnd).
const winLen = 500 * time.Millisecond

// window is one winLen of the timed phase.
type window struct {
	ok    int           // successful requests completed in the window
	cpu   time.Duration // process CPU time spent in the window
	pred  []uint32      // ns, successful predicts
	sweep []uint32      // ns, successful sweeps
}

// latPerClientSecond sizes each client's latency buffers: three times
// the fastest workload's rate as sized (predict_hot, about 21k req/s
// from two clients). Fixed-size buffers keep the benchmark's
// own live heap the same whatever the throughput, so heap_mb tracks the
// daemons.
const latPerClientSecond = 32768

// nanos stores a latency in a uint32, saturating at about 4.3 s.
func nanos(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// sliceLen is the clock tick: the period of the alternating untraced
// and traced slices that measure the boundary spans' own cost. A window
// is a whole number of ticks.
const sliceLen = 100 * time.Millisecond

// runLoop drives the closed loop: clients goroutines, each sending its
// next request only when the previous one completed, until d has
// passed. Request indices are drawn from one shared counter, so the
// requests sent are the same in every run whatever their interleaving.
//
// With a tracer, the first half alternates untraced and traced slices,
// and the second half traces every request and replays its layers.
func runLoop(ctx context.Context, cl *client.Client, s *spec, refs map[int]ref, d time.Duration,
	tr *tracer, rp *replayer) *loopResult {
	var next atomic.Int64
	var epoch atomic.Int64 // odd while a traced slice runs
	windows := max(int(d/winLen), 1)
	start := time.Now()
	end := start.Add(d)

	// The clock marks CPU time at window boundaries and flips tracing.
	cpuMarks := make([]time.Duration, windows+1)
	cpuMarks[0] = cpuTime()
	stopClock := make(chan struct{})
	var clock sync.WaitGroup
	clock.Add(1)
	go func() {
		defer clock.Done()
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		perWindow := int(winLen / sliceLen)
		for k := 1; ; k++ {
			select {
			case <-stopClock:
				return
			case <-tick.C:
			}
			if w := k / perWindow; k%perWindow == 0 && w < windows {
				cpuMarks[w] = cpuTime()
			}
			if tr != nil && epoch.Load() >= 0 {
				if k*int(sliceLen) >= int(d/2) {
					tr.on.Store(true)
					epoch.Store(-1) // ends the last slice
				} else {
					tr.on.Store(epoch.Add(1)%2 == 1)
				}
			}
		}
	}()

	perClient := make([]*loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		r := &loopResult{win: make([]window, windows), layers: [2]*spanSet{newSpanSet(), newSpanSet()}}
		for w := range r.win {
			r.win[w].pred = make([]uint32, 0, int(winLen.Seconds()*latPerClientSecond)+1024)
		}
		perClient[c] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !time.Now().Before(end) {
					return
				}
				req := s.request(int(next.Add(1) - 1))
				e0 := epoch.Load()
				replay := tr != nil && e0 < 0
				t0 := time.Now()
				status, body, hdr, err := call(ctx, cl, req, reqID(req.idx))
				lat := time.Since(t0)
				r.attempted++
				if err != nil || status != http.StatusOK {
					r.failed++
					continue
				}
				if want, ok := refs[req.ref]; ok && !bytes.Equal(body, want.body) {
					r.failed++
					r.mismatched++
					continue
				}
				w := &r.win[min(int(time.Since(start)/winLen), windows-1)]
				w.ok++
				if req.sweep {
					w.sweep = append(w.sweep, nanos(lat))
					if hdr.Get("X-Cache") == "hit" {
						r.sweepHits++
					}
				} else {
					w.pred = append(w.pred, nanos(lat))
				}
				if tr == nil {
					continue
				}
				if !replay {
					if e0 >= 0 && epoch.Load() == e0 {
						r.slices[e0%2].add(lat)
					}
					continue
				}
				var out []byte
				rc := &recorder{set: r.layers[0]}
				if req.sweep {
					rc.set = r.layers[1]
					out, err = rp.sweep(ctx, rc, req.body)
				} else {
					out, err = rp.predict(rc, req.body, replayPath(s.name), false)
				}
				if err != nil {
					r.replayErr = err
					return
				}
				if out != nil && !bytes.Equal(out, body) {
					r.diverged++
				}
				r.recs = append(r.recs, traced{id: req.idx, sweep: req.sweep, client: lat, layers: rc.sum})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopClock)
	clock.Wait()
	cpuMarks[windows] = cpuTime()
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	out := &loopResult{elapsed: elapsed, heap: ms.HeapAlloc, win: make([]window, windows),
		layers: [2]*spanSet{newSpanSet(), newSpanSet()}}
	for w := range out.win {
		out.win[w].cpu = cpuMarks[w+1] - cpuMarks[w]
	}
	for _, r := range perClient {
		out.attempted += r.attempted
		out.failed += r.failed
		out.mismatched += r.mismatched
		out.sweepHits += r.sweepHits
		for w := range out.win {
			out.win[w].ok += r.win[w].ok
			out.win[w].pred = append(out.win[w].pred, r.win[w].pred...)
			out.win[w].sweep = append(out.win[w].sweep, r.win[w].sweep...)
		}
		out.recs = append(out.recs, r.recs...)
		out.layers[0].merge(r.layers[0])
		out.layers[1].merge(r.layers[1])
		out.slices[0].merge(r.slices[0])
		out.slices[1].merge(r.slices[1])
		out.diverged += r.diverged
		if out.replayErr == nil {
			out.replayErr = r.replayErr
		}
	}
	return out
}

// replayPath is the predict path a workload's requests take.
func replayPath(name string) string {
	switch name {
	case "predict_store":
		return pathStore
	case "compute_cold":
		return pathCold
	}
	return pathHit
}
