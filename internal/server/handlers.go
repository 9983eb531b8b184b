package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/reqkey"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// MaxBodyBytes bounds every single-object request body: each valid one
// is a small JSON object, so anything bigger is rejected before
// decoding. The fomodelproxy router enforces the same bound up front.
const MaxBodyBytes = 1 << 16

// Instruction-count bounds per request, keeping a single request's
// memory and CPU within reason.
const (
	minTraceLen = 1000
	maxTraceLen = 5_000_000
)

// checkTraceLen enforces the per-request instruction-count bounds.
func checkTraceLen(n int) error {
	if n < minTraceLen || n > maxTraceLen {
		return fmt.Errorf("n %d outside [%d, %d]", n, minTraceLen, maxTraceLen)
	}
	return nil
}

// statusError is a request-preparation failure that dictates its own
// HTTP status (e.g. 413 for an oversized body); plain errors map to 400.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// ErrorStatus is the HTTP status of a request-preparation error: the
// code a statusError carries, 400 for every other error. The
// fomodelproxy router maps its own body-read failures through it.
func ErrorStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return http.StatusBadRequest
}

// writeRequestError writes a request-preparation failure with its
// ErrorStatus.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	s.writeError(w, ErrorStatus(err), "%s", err)
}

// ReadBody reads a request body bounded by limit. A body over the bound
// is an explicit 413 naming the limit — never a silent truncation
// misreported as malformed JSON; other read failures are 400s. The
// whole body is read before any decoding, so an over-limit body always
// surfaces as a 413, even when its prefix happens to parse. The
// fomodelproxy router reads with it too, so a client sees the same
// limit and message with or without a proxy in front.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("request body exceeds the %d-byte limit", limit),
			}
		}
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	return raw, nil
}

// DecodeStrict parses a request body strictly: unknown fields are
// errors, as is trailing data after the JSON value. It is the one
// request decoder of the daemon and the fomodelproxy router alike.
func DecodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	return nil
}

// decodeRequest reads and strictly decodes a request body bounded by
// limit; /v1/batch allows a larger body than the single-object
// endpoints.
func decodeRequest(r *http.Request, v any, limit int64) error {
	raw, err := ReadBody(r, limit)
	if err != nil {
		return err
	}
	return DecodeStrict(raw, v)
}

// EncodeIndented marshals v exactly the way the CLI's -json mode does
// (two-space indent, trailing newline), preserving byte equivalence
// between a server response and the corresponding CLI output. The
// fomodelproxy router uses the same encoder to reassemble split batch
// responses, which is what keeps them byte-equal to a single daemon's.
func EncodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PredictRequest asks for one workload's CPI stack on one machine.
type PredictRequest struct {
	// Bench names the workload profile.
	Bench string `json:"bench"`
	// N and Seed override the server's trace defaults when positive.
	N    int    `json:"n,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Machine overrides baseline machine parameters.
	Machine MachineSpec `json:"machine,omitempty"`
	// BranchMode selects the branch penalty derivation
	// (midpoint|isolated|measured; default midpoint).
	BranchMode string `json:"branch_mode,omitempty"`
	// Sim additionally runs the detailed simulator and reports its CPI.
	Sim bool `json:"sim,omitempty"`
	// Content is the registered workload's profile content hash, filled
	// during normalization when Bench names a registered custom
	// workload (empty for built-ins, which keeps their canonical keys
	// byte-identical to pre-registry servers). Client-supplied values
	// are overwritten, so a forged hash can never pin a request to a
	// stale cache entry.
	Content string `json:"content,omitempty"`
}

// Normalize fills defaults and validates, returning an error fit for a
// 400 response. It is idempotent, and it is the shared canonicalization
// step: the daemon normalizes before keying its response cache, and the
// fomodelproxy router normalizes (via PredictCacheKey) before hashing
// onto the ring. Names that are not built-in profiles resolve through
// d.Resolver (the daemon's workload registry, or the router's mirror of
// it); the resolved content hash lands in req.Content, making the
// registered profile's content part of the canonical key.
func (req *PredictRequest) Normalize(d reqkey.Defaults) error {
	if req.N == 0 {
		req.N = d.N
	}
	if req.Seed == 0 {
		req.Seed = d.Seed
	}
	if req.BranchMode == "" {
		req.BranchMode = "midpoint"
	}
	req.Content = ""
	if _, err := workload.ByName(req.Bench); err != nil {
		hash := ""
		ok := false
		if d.Resolver != nil {
			hash, ok = d.Resolver.WorkloadContent(req.Bench)
		}
		if !ok {
			return err
		}
		req.Content = hash
	}
	return checkTraceLen(req.N)
}

// predictPlan is one predict request prepared for the response cache:
// normalized, its branch mode parsed, its model machine and simulator
// configuration built and validated, and its canonical key derived.
type predictPlan struct {
	req     PredictRequest
	mode    core.BranchPenaltyMode
	machine core.Machine
	ucfg    uarch.Config
	key     string
}

// planPredict is the one predict preparation step. The /v1/predict
// handler, every /v1/batch item and every optimize evaluation prepare
// through it, so one request yields one status and one error message on
// every endpoint. Its errors are request errors (see ErrorStatus).
func (s *Server) planPredict(req PredictRequest) (predictPlan, error) {
	if err := req.Normalize(s.keys); err != nil {
		return predictPlan{}, err
	}
	p := predictPlan{req: req}
	var err error
	if p.mode, err = ParseBranchMode(req.BranchMode); err != nil {
		return predictPlan{}, err
	}
	if p.machine, err = req.Machine.Machine(); err != nil {
		return predictPlan{}, err
	}
	if p.ucfg, err = req.Machine.SimConfig(); err != nil {
		return predictPlan{}, err
	}
	// Reject structurally invalid machines up front, so configuration
	// mistakes are 400s and only genuine computation failures become 500s.
	if err := p.machine.Validate(); err != nil {
		return predictPlan{}, err
	}
	if err := p.ucfg.Validate(); err != nil {
		return predictPlan{}, err
	}
	if p.key, err = reqkey.Canonical("predict", req); err != nil {
		return predictPlan{}, &statusError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	return p, nil
}

// predictBody answers one prepared predict through the response cache:
// retained bytes on a hit, otherwise the model pipeline's record encoded
// exactly as the CLI's -json mode prints it.
func (s *Server) predictBody(ctx context.Context, p predictPlan) (status int, body []byte, hit bool, err error) {
	status, body, hit, err = s.cache.Do(p.key, func() (int, []byte, error) {
		if s.panicHook != nil {
			s.panicHook(p.req.Bench)
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		rec, err := s.predictRecord(p.req, p.machine, p.ucfg, p.mode)
		if err != nil {
			return 0, nil, err
		}
		body, err := EncodeIndented(rec)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, body, nil
	})
	s.noteRegisteredUse(p.req.Bench, hit)
	return status, body, hit, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := decodeRequest(r, &req, MaxBodyBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	p, err := s.planPredict(req)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	status, body, hit, err := s.predictBody(r.Context(), p)
	s.finishCompute(w.(*statusWriter), status, body, hit, err)
}

// SweepResponse is the /v1/sweep body: the structured sweep points plus
// the rendered table and CSV, byte-identical to what cmd/experiments
// prints for the same sweep.
type SweepResponse struct {
	*experiments.SweepResult
	Render string `json:"render"`
	CSV    string `json:"csv"`
}

// SweepTrailer is the final row of a streamed (NDJSON) sweep: everything
// the buffered SweepResponse carries except the points, which were
// already streamed one row per grid cell. Reassembling the rows into a
// SweepResponse reproduces the buffered body byte for byte (pinned by
// tests).
type SweepTrailer struct {
	Title      string  `json:"title"`
	Param      string  `json:"param"`
	MeanAbsErr float64 `json:"mean_abs_err"`
	Render     string  `json:"render"`
	CSV        string  `json:"csv"`
}

// ndjsonContentType is the streamed responses' media type; requests opt
// in by listing it in the Accept header.
const ndjsonContentType = "application/x-ndjson"

// WantsNDJSON reports whether the request asked for a streamed response.
func WantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw := w.(*statusWriter)
	var spec experiments.SweepSpec
	if err := decodeRequest(r, &spec, MaxBodyBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	if err := spec.ValidateFor(s.suite); err != nil {
		s.writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	if cells := len(spec.Benches) * len(spec.Values); cells > 256 {
		s.writeError(w, http.StatusBadRequest, "sweep grid of %d cells exceeds the 256-cell limit", cells)
		return
	}
	ctx := r.Context()
	if WantsNDJSON(r) {
		// One compact SweepPoint row per grid cell, then the trailer; a
		// client disconnect cancels the remaining cells through ctx.
		err := s.streamNDJSON(sw, r, spec.Param, func(row func(any) error) (any, error) {
			res, err := experiments.SweepStream(ctx, s.suite, spec, func(pt experiments.SweepPoint) error {
				return row(pt)
			})
			if err != nil {
				return nil, err
			}
			return SweepTrailer{
				Title:      res.Title,
				Param:      res.Param,
				MeanAbsErr: res.MeanAbsErr,
				Render:     res.Render(),
				CSV:        res.CSV(),
			}, nil
		})
		if err != nil {
			s.finishCompute(sw, 0, nil, false, err)
		}
		return
	}
	key, err := SweepCacheKey(spec, s.keys)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	status, body, hit, err := s.cache.Do(key, func() (int, []byte, error) {
		if s.panicHook != nil {
			s.panicHook(spec.Param)
		}
		res, err := experiments.Sweep(ctx, s.suite, spec)
		if err != nil {
			return 0, nil, err
		}
		body, err := EncodeIndented(SweepResponse{
			SweepResult: res,
			Render:      res.Render(),
			CSV:         res.CSV(),
		})
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, body, nil
	})
	s.finishCompute(sw, status, body, hit, err)
}

// streamNDJSON is the one NDJSON mode, shared by streamed sweeps and
// streamed searches: run writes one compact row per result through row,
// each flushed as it completes, and returns the trailer row ending the
// stream. Streamed responses bypass the response cache (rows leave
// before the result exists). A failure before the first row is returned
// for the caller to answer with its real status; after it the 200
// header is on the wire, so a live client gets a final {"error": ...}
// row instead. Panics — the handler goroutine's own, and worker panics
// arriving as PanicError through the engine's guard — become such
// errors rather than a severed connection.
func (s *Server) streamNDJSON(sw *statusWriter, r *http.Request, hookName string,
	run func(row func(any) error) (trailer any, err error)) error {
	wroteRow := false
	row := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !wroteRow {
			sw.Header().Set("Content-Type", ndjsonContentType)
			sw.WriteHeader(http.StatusOK)
			wroteRow = true
		}
		if _, err := sw.Write(append(b, '\n')); err != nil {
			return err
		}
		sw.Flush()
		return nil
	}
	trailer, err := func() (trailer any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("internal panic: %v", p)
			}
		}()
		if s.panicHook != nil {
			s.panicHook(hookName)
		}
		return run(row)
	}()
	switch {
	case err != nil && !wroteRow:
		return err
	case err != nil:
		if r.Context().Err() == nil {
			//folint:allow(errdrop) final error row on a dying stream; a failed write means the client is gone too
			row(errorResponse{Error: err.Error()})
		}
	default:
		//folint:allow(errdrop) trailer ends the stream; a failed write means the client is gone and there is nothing left to send
		row(trailer)
	}
	return nil
}

// WorkloadInfo is one benchmark's model-facing trace statistics, as
// reported by /v1/workloads.
type WorkloadInfo struct {
	Name         string  `json:"name"`
	Instructions int     `json:"instructions"`
	Alpha        float64 `json:"alpha"`
	Beta         float64 `json:"beta"`
	R2           float64 `json:"r2"`
	AvgLatency   float64 `json:"avg_latency"`
	// BranchesPerInstr and MispredictRate describe the branch behaviour;
	// the *PerKI rates are miss events per thousand instructions.
	BranchesPerInstr float64 `json:"branches_per_instr"`
	MispredictRate   float64 `json:"mispredict_rate"`
	ICacheShortPerKI float64 `json:"icache_short_per_ki"`
	ICacheLongPerKI  float64 `json:"icache_long_per_ki"`
	DCacheShortPerKI float64 `json:"dcache_short_per_ki"`
	DCacheLongPerKI  float64 `json:"dcache_long_per_ki"`
	OverlapFactor    float64 `json:"overlap_factor"`
}

// WorkloadsResponse is the /v1/workloads body.
type WorkloadsResponse struct {
	N         int            `json:"n"`
	Seed      uint64         `json:"seed"`
	Workloads []WorkloadInfo `json:"workloads"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	sw := w.(*statusWriter)
	status, body, hit, err := s.cache.Do(WorkloadsCacheKey, func() (int, []byte, error) {
		infos, err := experiments.MapWorkloads(s.suite, func(wl *experiments.Workload) (WorkloadInfo, error) {
			sum := wl.Summary
			ki := float64(sum.Instructions) / 1000
			return WorkloadInfo{
				Name:             wl.Name,
				Instructions:     sum.Instructions,
				Alpha:            wl.Law.Alpha,
				Beta:             wl.Law.Beta,
				R2:               wl.Law.R2,
				AvgLatency:       sum.AvgLatency,
				BranchesPerInstr: float64(sum.Branches) / float64(sum.Instructions),
				MispredictRate:   sum.MispredictRate(),
				ICacheShortPerKI: float64(sum.ICacheShort) / ki,
				ICacheLongPerKI:  float64(sum.ICacheLong) / ki,
				DCacheShortPerKI: float64(sum.DCacheShort) / ki,
				DCacheLongPerKI:  float64(sum.DCacheLong) / ki,
				OverlapFactor:    sum.OverlapFactor(),
			}, nil
		})
		if err != nil {
			return 0, nil, err
		}
		body, err := EncodeIndented(WorkloadsResponse{N: s.cfg.N, Seed: s.cfg.Seed, Workloads: infos})
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, body, nil
	})
	s.finishCompute(sw, status, body, hit, err)
}
