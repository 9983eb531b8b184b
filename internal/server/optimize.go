package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fomodel/internal/optimize"
)

// This file is the daemon's half of the /v1/optimize surface: the
// design-space search lives in internal/optimize; the daemon supplies
// the evaluator — the exact /v1/predict compute path, response cache
// included — plus request validation, cache keying, NDJSON streaming,
// and the optimize metrics.

// OptimizeResponse is the buffered /v1/optimize body: the structured
// search result plus the rendered table and CSV, byte-identical to what
// `fomodel -optimize -json` prints for the same spec.
type OptimizeResponse struct {
	*optimize.Result
	Render string `json:"render"`
	CSV    string `json:"csv"`
}

// OptimizeTrailer is the final row of a streamed (NDJSON) optimize:
// everything the buffered OptimizeResponse carries except the points,
// which were already streamed one row per accepted candidate.
// Reassembling the rows into an OptimizeResponse reproduces the buffered
// body byte for byte (pinned by tests).
type OptimizeTrailer struct {
	Spec        optimize.Spec    `json:"spec"`
	Frontier    []optimize.Point `json:"frontier"`
	Evaluations int              `json:"evaluations"`
	Rounds      int              `json:"rounds"`
	GridSize    int              `json:"grid_size"`
	Converged   bool             `json:"converged"`
	Render      string           `json:"render"`
	CSV         string           `json:"csv"`
}

// optimizeMachineSpec projects one candidate onto the predict wire
// shape. Every searched axis is explicit, so all optimize evaluations
// live in one fully-specified predict keyspace — two searches (or a
// search and a later identically-spelled predict) share cache entries.
// Clusters 1 maps to the unset baseline so unclustered candidates key
// identically to default-machine predicts with the same overrides.
func optimizeMachineSpec(cfg optimize.Config, tlb bool) MachineSpec {
	m := MachineSpec{
		Width:       cfg.Width,
		Depth:       cfg.Depth,
		Window:      cfg.Window,
		ROB:         cfg.ROB,
		FetchBuffer: cfg.FetchBuffer,
		TLB:         tlb,
	}
	if cfg.Clusters > 1 {
		m.Clusters = cfg.Clusters
	}
	return m
}

// optimizeEval builds the search's evaluator: one candidate × benchmark
// prepared and scored through the daemon's own predict path — response
// cache, analysis cache, artifact store, prep cache and all. The model
// CPI is read back from the cached response bytes, so a cache hit and a
// fresh computation yield the identical float (Go's JSON float
// round-trip is exact).
func (s *Server) optimizeEval(spec optimize.Spec) optimize.EvalFunc {
	return func(ctx context.Context, cfg optimize.Config, bench string) (float64, error) {
		p, err := s.planPredict(PredictRequest{
			Bench:   bench,
			N:       spec.N,
			Seed:    spec.TraceSeed,
			Machine: optimizeMachineSpec(cfg, spec.TLB),
		})
		if err != nil {
			return 0, err
		}
		_, body, hit, err := s.predictBody(ctx, p)
		if err != nil {
			return 0, err
		}
		s.optEvals.Inc()
		if hit {
			s.optEvalHits.Inc()
		}
		var rec PredictRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return 0, fmt.Errorf("malformed cached predict body: %w", err)
		}
		return rec.Estimate.CPI, nil
	}
}

// planOptimize is the one optimize preparation step: the spec normalized
// once — defaults filled, registered names accepted — with its trace
// length bounded like a predict request's.
func (s *Server) planOptimize(spec optimize.Spec) (optimize.Spec, error) {
	if err := spec.NormalizeWith(s.cfg.N, s.cfg.Seed, s.knownWorkload); err != nil {
		return spec, err
	}
	return spec, checkTraceLen(spec.N)
}

// Optimize runs one design-space search through the daemon's predict
// compute path. It is exported so the CLI's local -optimize mode runs
// the very same code an in-process daemon would, which is what makes
// local and remote outputs byte-identical. emit, when non-nil, receives
// accepted points in discovery order.
func (s *Server) Optimize(ctx context.Context, spec optimize.Spec, emit func(optimize.Point) error) (*optimize.Result, error) {
	spec, err := s.planOptimize(spec)
	if err != nil {
		return nil, err
	}
	return s.runOptimize(ctx, spec, emit)
}

// runOptimize is Optimize on a spec planOptimize already prepared.
func (s *Server) runOptimize(ctx context.Context, spec optimize.Spec, emit func(optimize.Point) error) (*optimize.Result, error) {
	res, err := optimize.Run(ctx, spec, s.optimizeEval(spec), optimize.Options{
		Workers:       s.cfg.Workers,
		Emit:          emit,
		KnownWorkload: s.knownWorkload,
	})
	if err != nil {
		return nil, err
	}
	s.optRounds.Add(int64(res.Rounds))
	s.optFrontier.Set(int64(len(res.Frontier)))
	return res, nil
}

// optimizeDeadline applies the spec's own deadline on top of the
// request's; the returned cancel must run even when the deadline is
// unset.
func optimizeDeadline(ctx context.Context, spec optimize.Spec) (context.Context, context.CancelFunc) {
	if spec.DeadlineMS <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(spec.DeadlineMS)*time.Millisecond)
}

// handleOptimize answers buffered searches through the response cache
// and streamed ones (NDJSON: one compact Point row per accepted
// candidate, then an OptimizeTrailer) outside it; either way every
// evaluation underneath lands in the predict response cache.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	sw := w.(*statusWriter)
	var spec optimize.Spec
	if err := decodeRequest(r, &spec, MaxBodyBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	spec, err := s.planOptimize(spec)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	ctx, cancel := optimizeDeadline(r.Context(), spec)
	defer cancel()
	if WantsNDJSON(r) {
		err := s.streamNDJSON(sw, r, spec.Title, func(row func(any) error) (any, error) {
			res, err := s.runOptimize(ctx, spec, func(pt optimize.Point) error { return row(pt) })
			if err != nil {
				return nil, err
			}
			return OptimizeTrailer{
				Spec:        res.Spec,
				Frontier:    res.Frontier,
				Evaluations: res.Evaluations,
				Rounds:      res.Rounds,
				GridSize:    res.GridSize,
				Converged:   res.Converged,
				Render:      res.Render(),
				CSV:         res.CSV(),
			}, nil
		})
		if err != nil {
			s.finishOptimize(sw, r, spec, 0, nil, false, err)
		}
		return
	}
	key, err := optimizeKey(spec, s.keys)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	status, body, hit, err := s.cache.Do(key, func() (int, []byte, error) {
		if s.panicHook != nil {
			s.panicHook(spec.Title)
		}
		res, err := s.runOptimize(ctx, spec, nil)
		if err != nil {
			return 0, nil, err
		}
		body, err := EncodeIndented(OptimizeResponse{Result: res, Render: res.Render(), CSV: res.CSV()})
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, body, nil
	})
	s.finishOptimize(sw, r, spec, status, body, hit, err)
}

// finishOptimize is finishCompute plus one mapping: the spec's own
// deadline expiring is the client's doing, not the server's computation
// limit, so it is reported precisely.
func (s *Server) finishOptimize(sw *statusWriter, r *http.Request, spec optimize.Spec,
	status int, body []byte, hit bool, err error) {
	if errors.Is(err, context.DeadlineExceeded) && spec.DeadlineMS > 0 && r.Context().Err() == nil {
		s.writeError(sw, http.StatusServiceUnavailable,
			"search exceeded the spec's %dms deadline", spec.DeadlineMS)
		return
	}
	s.finishCompute(sw, status, body, hit, err)
}
