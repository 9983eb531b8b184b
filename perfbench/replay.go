package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fomodel/internal/artifact"
	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/server"
	"fomodel/internal/stats"
	"fomodel/internal/trace"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// Spans are recorded only here, in the benchmark's own code: boundary
// spans around the daemon and proxy http.Handlers, and a replay that
// calls each layer's public function in handler order.

// boundary is one serving tier's wall time for one request.
type boundary struct {
	id   int
	tier string // "proxy" or "replica"
	d    time.Duration
	end  time.Time
}

// tracer records boundary spans while on. A nil tracer wraps nothing.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []boundary
}

const reqIDPrefix = "pb-"

func reqID(i int) string { return reqIDPrefix + strconv.Itoa(i) }

// wrap times h for every request that carries a benchmark request ID.
func (t *tracer) wrap(tier string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s, ok := strings.CutPrefix(r.Header.Get("X-Request-ID"), reqIDPrefix)
		if !ok {
			return
		}
		id, err := strconv.Atoi(s)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.spans = append(t.spans, boundary{id: id, tier: tier, d: end.Sub(start), end: end})
		t.mu.Unlock()
	})
}

// take returns the spans recorded so far and starts a new batch.
func (t *tracer) take() []boundary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// served is one request's boundary spans: the proxy's, and the replica
// span that ended first (the winner when the proxy hedged).
type served struct {
	proxy, replica time.Duration
	replicaEnd     time.Time
	replicas       int
}

func joinBoundaries(spans []boundary) map[int]*served {
	m := make(map[int]*served)
	for _, b := range spans {
		s := m[b.id]
		if s == nil {
			s = &served{}
			m[b.id] = s
		}
		if b.tier == "proxy" {
			s.proxy = b.d
			continue
		}
		if s.replicas == 0 || b.end.Before(s.replicaEnd) {
			s.replica, s.replicaEnd = b.d, b.end
		}
		s.replicas++
	}
	return m
}

// spanSet accumulates layer spans by name, remembering which were on
// the request's blocking path (summed into the latency stack) and which
// are children measured by an extra call (reported, not summed).
type spanSet struct {
	aggs   map[string]*agg
	names  []string // first-recorded order
	onPath map[string]bool
}

func newSpanSet() *spanSet {
	return &spanSet{aggs: map[string]*agg{}, onPath: map[string]bool{}}
}

func (s *spanSet) add(name string, on bool, d time.Duration) {
	a := s.aggs[name]
	if a == nil {
		a = &agg{}
		s.aggs[name] = a
		s.names = append(s.names, name)
		s.onPath[name] = on
	}
	a.add(d)
}

func (s *spanSet) merge(o *spanSet) {
	for _, name := range o.names {
		if s.aggs[name] == nil {
			s.aggs[name] = &agg{}
			s.names = append(s.names, name)
			s.onPath[name] = o.onPath[name]
		}
		s.aggs[name].merge(*o.aggs[name])
	}
}

// recorder times one replayed request's layers into a spanSet and sums
// its on-path spans. After a layer fails, later layers are skipped and
// err reports the first failure.
type recorder struct {
	set *spanSet
	sum time.Duration
	err error
}

func (rc *recorder) time(name string, onPath bool, fn func() error) {
	if rc.err != nil {
		return
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if err != nil {
		rc.err = fmt.Errorf("replay %s: %w", name, err)
		return
	}
	rc.set.add(name, onPath, d)
	if onPath {
		rc.sum += d
	}
}

// Replay paths: which way a predict request goes through the daemon.
const (
	pathHit   = "hit"   // response-cache hit
	pathStore = "store" // analysis read from the store, model composed
	pathCold  = "cold"  // trace generated, analysis computed, stored
)

// replayer calls the layers' public functions the way the daemon's
// handlers do. store takes the cold path's writes; read is the store
// the store path reads from; preps and suite mirror the daemon's own.
type replayer struct {
	store *artifact.Store
	read  *artifact.Store
	preps *uarch.PrepCache
	suite *experiments.Suite
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// predict replays one /v1/predict along path and returns the body the
// daemon would write (nil on the hit path, which writes cached bytes).
// withSim forces the simulator stage, for probes of requests without it.
func (rp *replayer) predict(rc *recorder, body []byte, path string, withSim bool) ([]byte, error) {
	var (
		req     server.PredictRequest
		mode    core.BranchPenaltyMode
		machine core.Machine
		ucfg    uarch.Config
	)
	rc.time("server.decode", true, func() (err error) {
		if err = strictDecode(body, &req); err != nil {
			return err
		}
		if err = req.Normalize(keyDefaults); err != nil {
			return err
		}
		if mode, err = server.ParseBranchMode(req.BranchMode); err != nil {
			return err
		}
		if machine, err = req.Machine.Machine(); err != nil {
			return err
		}
		if ucfg, err = req.Machine.SimConfig(); err != nil {
			return err
		}
		if err = machine.Validate(); err != nil {
			return err
		}
		return ucfg.Validate()
	})
	rc.time("workload.byname", false, func() error {
		_, err := workload.ByName(req.Bench)
		return err
	})
	rc.time("reqkey.key", true, func() error {
		_, err := server.PredictCacheKey(req, keyDefaults)
		return err
	})
	if path == pathHit || rc.err != nil {
		return nil, rc.err
	}

	// The daemon's predict pipeline, stage by stage.
	scfg := stats.DefaultConfig()
	scfg.Warmup = true
	scfg.ROBSize = machine.ROBSize
	scfg.TLB = ucfg.TLB
	windows := iw.DefaultWindows()
	id := workload.ContentID(req.Bench, req.N, req.Seed)
	var (
		an  *experiments.AnalysisArtifact
		t   *trace.Trace
		raw []byte
		buf bytes.Buffer
	)
	switch path {
	case pathStore:
		rc.time("experiments.lookup_analysis", true, func() error {
			var ok bool
			if an, ok = experiments.LookupAnalysis(rp.read, id, req.N, windows, scfg); !ok {
				return errors.New("analysis not in the store")
			}
			return nil
		})
		rc.time("artifact.get", false, func() error {
			var ok bool
			if raw, ok = rp.read.Get("analysis", experiments.AnalysisKey(id, windows, scfg)); !ok {
				return errors.New("analysis not in the store")
			}
			return nil
		})
		rc.time("artifact.decode_gob", false, func() error {
			var a experiments.AnalysisArtifact
			return artifact.DecodeGob(raw, &a)
		})
	case pathCold:
		rc.time("experiments.lookup_analysis", true, func() error {
			if _, ok := experiments.LookupAnalysis(rp.store, id, req.N, windows, scfg); ok {
				return errors.New("fresh analysis already stored")
			}
			return nil
		})
		// experiments.LoadOrGenerateTrace, stage by stage.
		rc.time("artifact.get", true, func() error {
			if _, ok := rp.store.Get("trace", id); ok {
				return errors.New("fresh trace already stored")
			}
			return nil
		})
		rc.time("workload.generate", true, func() (err error) {
			t, err = workload.Generate(req.Bench, req.N, req.Seed)
			return err
		})
		rc.time("trace.encode", true, func() error { return trace.Write(&buf, t) })
		rc.time("artifact.put", true, func() error { return rp.store.Put("trace", id, buf.Bytes()) })
		rc.time("experiments.compute_analysis", true, func() (err error) {
			an, err = experiments.ComputeAnalysis(rp.store, t, windows, scfg)
			return err
		})
		rc.time("iw.characteristic", false, func() error {
			_, err := iw.Characteristic(t, windows, iw.Options{})
			return err
		})
		rc.time("stats.analyze", false, func() error {
			_, err := stats.Analyze(t, scfg)
			return err
		})
	default:
		return nil, fmt.Errorf("unknown replay path %q", path)
	}

	var rec server.PredictRecord
	rc.time("core.estimate", true, func() error {
		inputs, err := core.InputsFromCurve(an.Law, an.Points, machine.WindowSize, an.Summary)
		if err != nil {
			return err
		}
		est, err := machine.Estimate(inputs, core.Options{BranchMode: mode})
		rec = server.PredictRecord{Bench: req.Bench, Inputs: inputs, Estimate: est}
		return err
	})
	if (req.Sim || withSim) && t != nil {
		rc.time("uarch.simulate", true, func() error {
			r, err := rp.preps.Simulate(t, ucfg)
			if err == nil && req.Sim {
				cpi := r.CPI()
				rec.SimCPI = &cpi
			}
			return err
		})
		rc.time("trace.producers", false, func() error {
			trace.ComputeProducers(t)
			return nil
		})
	}
	var out []byte
	rc.time("server.encode", true, func() (err error) {
		out, err = server.EncodeIndented(rec)
		return err
	})
	return out, rc.err
}

// sweep replays one buffered /v1/sweep and returns its body.
func (rp *replayer) sweep(ctx context.Context, rc *recorder, body []byte) ([]byte, error) {
	var (
		sp  experiments.SweepSpec
		res *experiments.SweepResult
		out []byte
	)
	rc.time("server.decode", true, func() error {
		if err := strictDecode(body, &sp); err != nil {
			return err
		}
		return sp.ValidateFor(rp.suite)
	})
	rc.time("reqkey.key", true, func() error {
		_, err := server.SweepCacheKey(sp, keyDefaults)
		return err
	})
	rc.time("experiments.sweep", true, func() (err error) {
		res, err = experiments.Sweep(ctx, rp.suite, sp)
		return err
	})
	rc.time("server.encode", true, func() (err error) {
		out, err = server.EncodeIndented(server.SweepResponse{SweepResult: res, Render: res.Render(), CSV: res.CSV()})
		return err
	})
	return out, rc.err
}
