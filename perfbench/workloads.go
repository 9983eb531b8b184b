package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"fomodel/internal/experiments"
	"fomodel/internal/server"
	"fomodel/internal/workload"
)

// Workload-wide constants. traceLen is the instruction count of every
// request (the size the server package's own benchmarks use); the
// daemons run with N = traceLen and Seed = daemonSeed, the suite their
// sweeps read.
const (
	traceLen   = 20000
	daemonSeed = 1
	clients    = 2

	storeSeeds = 32 // seeds in the warm-store keyset (× 12 benches = 384 keys)
	sweepEvery = 50 // fleet_mixed: every 50th request is a sweep

	// refPredicts is how many leading predict requests carry a simulator
	// reference; model_cpi_err averages over them. refSweeps is how many
	// leading sweeps are checked against a reference sweep.
	refPredicts = 256
	refSweeps   = 16

	// Request-index ranges outside the timed phase: compute_cold set-up
	// fills and post-phase probes draw fresh keys from here.
	fillIndex  = 1 << 22
	probeIndex = 1 << 23
)

var workloadNames = []string{"predict_hot", "predict_store", "compute_cold", "fleet_mixed"}

// hotROBs are the ROB sizes of the hot keyset (× 12 benches = 36 keys).
// They are fixed rather than seeded: model_cpi_err depends on them, and
// a seed should change the inputs, not how hard they are to predict.
var hotROBs = []int{128, 160, 192}

// benches is the built-in benchmark list, in report order.
var benches = workload.Names()

// request is one generated client call.
type request struct {
	idx   int
	sweep bool
	pred  server.PredictRequest
	spec  experiments.SweepSpec
	body  []byte
	// ref indexes the reference table; -1 when the response is not checked.
	ref int
}

func (r request) path() string {
	if r.sweep {
		return "/v1/sweep"
	}
	return "/v1/predict"
}

// spec generates a workload's inputs from its seed. The same seed gives
// the same requests at every index, whatever the timing.
type spec struct {
	name     string
	seed     uint64
	keys     []server.PredictRequest // cycled keyset (hot, store, fleet)
	bodies   [][]byte
	order    []int // seeded cycle order over keys
	coldBase uint64
	benchOff int
}

func newSpec(name string, seed uint64) (*spec, error) {
	r := rand.New(rand.NewPCG(seed, 0x70657266))
	s := &spec{name: name, seed: seed, benchOff: r.IntN(len(benches))}
	switch name {
	case "predict_hot", "fleet_mixed":
		// Every key has its own trace, so model_cpi_err averages 36
		// independent traces and moves little from seed to seed.
		base := 2 + r.Uint64N(1<<20)*64
		for _, rob := range hotROBs {
			for _, b := range benches {
				s.keys = append(s.keys, server.PredictRequest{
					Bench: b, N: traceLen, Seed: base + uint64(len(s.keys)),
					Machine: server.MachineSpec{ROB: rob},
				})
			}
		}
	case "predict_store":
		base := 2 + r.Uint64N(1<<20)*storeSeeds
		for k := 0; k < storeSeeds; k++ {
			for _, b := range benches {
				s.keys = append(s.keys, server.PredictRequest{Bench: b, N: traceLen, Seed: base + uint64(k)})
			}
		}
	case "compute_cold":
		s.coldBase = 1<<40 + r.Uint64N(1<<20)<<24
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.order = r.Perm(len(s.keys))
	for _, k := range s.keys {
		b, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	return s, nil
}

// request returns the i-th request of the workload.
func (s *spec) request(i int) request {
	pos := i // position in the keyset cycle
	switch s.name {
	case "compute_cold":
		p := server.PredictRequest{
			Bench: benches[(i+s.benchOff)%len(benches)], N: traceLen,
			Seed: s.coldBase + uint64(i), Sim: true,
		}
		b, err := json.Marshal(p)
		if err != nil {
			panic(err) // a PredictRequest always marshals
		}
		ref := -1
		if i < refPredicts {
			ref = i
		}
		return request{idx: i, pred: p, body: b, ref: ref}
	case "fleet_mixed":
		if i%sweepEvery == sweepEvery-1 {
			return s.sweepRequest(i, i/sweepEvery)
		}
		pos -= i / sweepEvery
	}
	k := s.order[pos%len(s.order)]
	return request{idx: i, pred: s.keys[k], body: s.bodies[k], ref: k}
}

// sweepRequest is fleet_mixed's j-th sweep: one benchmark (cycling
// through all twelve, so every run sees the same mix) at one ROB size
// drawn fresh per sweep. The title carries the sweep index, so no two
// sweeps share a cache key. A single size keeps sweeps the cheapest
// requests that still miss every cache, so the share of them the proxy
// hedges moves CPU per request least (see README, Noise).
func (s *spec) sweepRequest(i, j int) request {
	r := rand.New(rand.NewPCG(s.seed, 0x73776565700000+uint64(j)))
	ref := -1
	if j < refSweeps {
		ref = len(s.keys) + j
	}
	return sweep(i, ref, experiments.SweepSpec{
		Title:   fmt.Sprintf("perfbench sweep %d/%d", s.seed, j),
		Param:   "rob",
		Benches: []string{benches[(j+s.benchOff)%len(benches)]},
		Values:  []int{64 + r.IntN(256)},
	})
}

// probeSweep is the j-th sweep of the sweep probe: every benchmark at
// one ROB size. Each probe sweep then costs about the same, so their
// median is not the edge of one benchmark's cluster of latencies. The
// sizes cycle in steps of 10 over [64, 304) from a seeded offset, so
// every seed sends the same spread of sizes; the title keeps each sweep
// uncached.
func (s *spec) probeSweep(j int) request {
	return sweep(probeIndex+j, -1, experiments.SweepSpec{
		Title:   fmt.Sprintf("perfbench probe sweep %d/%d", s.seed, j),
		Param:   "rob",
		Benches: benches,
		Values:  []int{64 + 10*(j%24) + int(s.seed%10)},
	})
}

func sweep(i, ref int, sp experiments.SweepSpec) request {
	body, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a SweepSpec always marshals
	}
	return request{idx: i, sweep: true, spec: sp, body: body, ref: ref}
}

// shape is what one timed phase did, from /metrics deltas of the
// serving tier and from what the clients saw.
type shape struct {
	predicts        float64 // predict 200s at the daemons
	respHits        float64
	respMisses      float64
	analysisHits    float64
	storeHits       float64
	storeMisses     float64
	storeEvictions  float64
	traceEntries    float64   // non-default traces held after the phase
	replicaRequests []float64 // fleet: /v1 requests each replica served
	sweepCacheHits  int       // sweeps answered with X-Cache: hit
}

// checkShape returns why a phase did not exercise what its workload was
// chosen for; an empty result means the numbers describe that workload.
func checkShape(name string, d shape) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	switch name {
	case "predict_hot":
		if d.predicts == 0 || d.respHits != d.predicts || d.respMisses != 0 {
			fail("response-cache hit ratio %d/%d, want 1", int64(d.respHits), int64(d.predicts))
		}
	case "predict_store":
		if d.storeMisses != 0 {
			fail("%d store misses, want 0", int64(d.storeMisses))
		}
		if d.respHits != 0 || d.analysisHits != 0 {
			fail("%d response-cache and %d analysis-cache hits, want every request to miss memory",
				int64(d.respHits), int64(d.analysisHits))
		}
		if d.storeHits != d.predicts || d.traceEntries != 0 {
			fail("trace loads: %d store reads and %d cached traces for %d predicts, want one read each and none",
				int64(d.storeHits), int64(d.traceEntries), int64(d.predicts))
		}
	case "compute_cold":
		if d.respHits != 0 || d.analysisHits != 0 {
			fail("%d response-cache and %d analysis-cache hits, want 0", int64(d.respHits), int64(d.analysisHits))
		}
		if d.storeEvictions == 0 {
			fail("no store evictions, want steady eviction")
		}
	case "fleet_mixed":
		for i, n := range d.replicaRequests {
			if n == 0 {
				fail("replica %d served nothing", i)
			}
		}
		if len(d.replicaRequests) < 2 {
			fail("%d replicas, want 2", len(d.replicaRequests))
		}
		if d.sweepCacheHits != 0 {
			fail("%d sweeps came from a cache, want 0", d.sweepCacheHits)
		}
	}
	return bad
}
