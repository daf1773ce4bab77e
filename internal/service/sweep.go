package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/dispatch"
	"gpuvar/internal/workload"
)

// The sweep endpoint runs a bounded batch of experiment variants as ONE
// engine job graph: each variant is a shard of a core.VariantSweepCtx
// job, the variants' own per-GPU jobs nest inside, and variants that
// leave the fleet untouched share one cached instantiation. The request
// names the knob being varied — its "variant axis" — and the values to
// run it at:
//
//	axis: powercap   administrative power caps in W (the paper's §VI-B
//	                 study, Fig. 22; 0 = TDP)
//	axis: seed       fleet instantiation seeds (uncertainty bands)
//	axis: ambient    inlet-temperature offsets in °C (facility what-ifs)
//	axis: fraction   coverage fractions in (0, 1] (cost ladders)
//
// A sweep is deadline-bounded, cancelable mid-variant, coalesced like
// every other response — and, since the sweep body is also a job
// payload (POST /v1/jobs), the same computation can run asynchronously
// with polling instead of a held connection.
//
// With "adaptive": true plus a "threshold" tolerance, the sweep is
// pre-screened by the analytical estimator (see estimate.go): values
// whose error bound and local gradient sit inside the tolerance are
// answered in microseconds, the rest run full simulation — and stay
// byte-identical to the plain sweep's points, because both paths share
// one shard body (core.runVariant).

// maxSweepVariants bounds one request's batch; a sweep is a study, not
// a denial of service.
const maxSweepVariants = 32

// maxEstimateVariants bounds /v1/estimate and adaptive sweeps instead:
// estimator points cost microseconds, and an adaptive sweep's
// full-simulation fallbacks are separately clamped to maxSweepVariants
// (core.DefaultMaxFullSim), so a much wider axis is safe.
const maxEstimateVariants = 1024

// maxSweepBody bounds the request body (a value list plus a few knobs).
const maxSweepBody = 1 << 16

// sweepRequest is the POST /v1/sweep body (and the "sweep" payload of
// POST /v1/jobs). The normalized struct (defaults filled, names
// resolved) is the cache fingerprint.
type sweepRequest struct {
	Workload   string  `json:"workload"`
	Cluster    string  `json:"cluster"`
	Seed       uint64  `json:"seed"`
	Fraction   float64 `json:"fraction"`
	Runs       int     `json:"runs"`
	Iterations int     `json:"iterations"`
	// Axis names the knob the sweep varies; Values are the settings to
	// run it at, in response order.
	Axis   string    `json:"axis,omitempty"`
	Values []float64 `json:"values,omitempty"`
	// Adaptive pre-screens the axis with the analytical estimator and
	// spends full simulation only where the estimator's error bound or
	// the curve's local gradient exceeds Threshold (a relative
	// tolerance in (0, 1]). adaptive with threshold 0 — zero tolerance
	// — IS the plain sweep, and normalizes onto it so both spellings
	// share one cache entry and byte-identical bodies. Ignored (and
	// rejected) on /v1/estimate, where every point is estimated.
	Adaptive  bool    `json:"adaptive,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// sweepVariant is one axis value's outcome. CapW duplicates Value on
// powercap sweeps only: it is the response field's pre-generalization
// name, kept so clients written against the power-cap-only schema keep
// parsing.
type sweepVariant struct {
	Value    float64  `json:"value"`
	CapW     *float64 `json:"cap_w,omitempty"`
	GPUs     int      `json:"gpus"`
	MedianMs float64  `json:"median_ms"`
	PerfVar  float64  `json:"perf_variation"`
	Outliers int      `json:"outliers"`
	// Source appears on estimate/adaptive responses only:
	// "estimated" (closed-form point, Bound = the estimator's relative
	// error bound on median_ms) or "simulated" (full simulation,
	// byte-identical to the plain sweep's variant). Plain sweeps omit
	// both fields, keeping their bodies unchanged.
	Source string   `json:"source,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// sweepResponse is one completed sweep.
type sweepResponse struct {
	Request  sweepRequest   `json:"request"`
	Variants []sweepVariant `json:"variants"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	directive, err := parseRouteDirective(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	var req sweepRequest
	if !decodeBody(w, r.Body, maxSweepBody, &req) {
		return
	}
	key, compute, status, err := sweepComputation(&req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	if s.redirectAffinityMiss(w, directive, key) {
		return
	}
	s.serveCached(w, r, key, compute)
}

// sweepCacheKey fingerprints a NORMALIZED sweep request. The
// synchronous handler, the async job path, and the streaming handler
// all key the response cache with it, so any of them primes the others.
func sweepCacheKey(r sweepRequest) string { return fmt.Sprintf("sweep|%+v", r) }

// sweepVariantView projects one variant point into the wire schema —
// shared by the synchronous renderer and the streaming handler's
// per-shard chunks, which is one half of the stream's byte-identity
// guarantee.
// marked selects the estimate/adaptive envelope: every variant carries
// source, and estimated ones their bound. Plain sweeps pass false and
// keep their pre-estimator bytes.
func sweepVariantView(axis core.VariantAxis, marked bool, p core.VariantPoint) sweepVariant {
	v := sweepVariant{
		Value:    p.Value,
		GPUs:     p.GPUs,
		MedianMs: p.MedianMs,
		PerfVar:  p.PerfVar,
		Outliers: p.NOutliers,
	}
	if axis == core.AxisPowerCap {
		val := p.Value
		v.CapW = &val
	}
	if marked {
		if p.Estimated {
			v.Source = "estimated"
			b := p.Bound
			v.Bound = &b
		} else {
			v.Source = "simulated"
		}
	}
	return v
}

// renderSweep marshals a completed sweep into the synchronous response
// body.
func renderSweep(req sweepRequest, axis core.VariantAxis, marked bool, points []core.VariantPoint) (*cachedResponse, error) {
	out := sweepResponse{Request: req, Variants: make([]sweepVariant, len(points))}
	for i, p := range points {
		out.Variants[i] = sweepVariantView(axis, marked, p)
	}
	return jsonResponse(out)
}

// sweepComputation normalizes the request and returns the cache key
// plus the computation that renders the response — shared verbatim by
// the synchronous handler and the async job path, which is what makes
// a job's result byte-identical to the held-connection response.
func sweepComputation(req *sweepRequest) (key string, compute func(ctx context.Context) (*cachedResponse, error), status int, err error) {
	exp, axis, status, err := normalizeSweep(req, tierSimulate)
	if err != nil {
		return "", nil, status, err
	}
	r := *req
	key = sweepCacheKey(r)
	// The run goes through the streamSweepRun / adaptiveSweepRun seams
	// (core.VariantSweepCtx / core.AdaptiveSweepCtx in production) so
	// the gated-shard tests can control shard timing on the job path
	// exactly as they do on the streaming path.
	compute = func(ctx context.Context) (*cachedResponse, error) {
		var points []core.VariantPoint
		var err error
		if r.Adaptive {
			points, err = adaptiveSweepRun(ctx, exp, axis, r.Values, r.Threshold)
		} else {
			points, err = dispatchedSweepRun(ctx, exp, axis, &r)
		}
		if err != nil {
			if errors.Is(err, dispatch.ErrNoReplicas) {
				return nil, &statusError{status: http.StatusBadGateway, err: withCode("replica_unavailable", err)}
			}
			return nil, err
		}
		return renderSweep(r, axis, r.Adaptive, points)
	}
	return key, compute, 0, nil
}

// dispatchedSweepRun routes a plain sweep through the replica
// dispatcher when the compute context carries one, and otherwise runs
// the process-local engine path. Adaptive sweeps always run locally:
// their estimator pre-screen is already near-free, and the calibrator
// is process-wide state. The context arrives through the singleflight's
// detached flight context (which preserves values), so coalesced
// requests dispatch exactly like direct ones.
func dispatchedSweepRun(ctx context.Context, exp core.Experiment, axis core.VariantAxis, r *sweepRequest) ([]core.VariantPoint, error) {
	d := dispatch.FromContext(ctx)
	if d == nil {
		return streamSweepRun(ctx, exp, axis, r.Values)
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return d.Sweep(ctx, dispatch.Job{Payload: payload, Exp: exp, Axis: axis, Values: r.Values})
}

// sweepRequestFromQuery builds a sweep request from URL query
// parameters — the GET /v1/stream/sweep spelling of the POST body.
// Validation and defaulting happen in normalizeSweep, exactly as for
// the synchronous endpoint, so both spellings share one fingerprint —
// and unknown parameters are rejected with the same strictness the
// POST body gets from DisallowUnknownFields (a typoed knob must fail,
// not silently compute with the default).
func sweepRequestFromQuery(q url.Values) (sweepRequest, error) {
	var req sweepRequest
	for k := range q {
		switch k {
		case "workload", "cluster", "axis", "seed", "fraction", "runs", "iterations", "values", "adaptive", "threshold":
		default:
			return req, fmt.Errorf("unknown parameter %q", k)
		}
	}
	req.Workload = q.Get("workload")
	req.Cluster = q.Get("cluster")
	req.Axis = q.Get("axis")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed %q: %v", v, err)
		}
		req.Seed = n
	}
	if v := q.Get("fraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		// Unlike JSON bodies, query strings can spell NaN/Inf — reject
		// them here as the client error they are.
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return req, fmt.Errorf("bad fraction %q: want a finite number", v)
		}
		req.Fraction = f
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"runs", &req.Runs}, {"iterations", &req.Iterations}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad %s %q: %v", p.name, v, err)
			}
			*p.dst = n
		}
	}
	if v := q.Get("adaptive"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("bad adaptive %q: %v", v, err)
		}
		req.Adaptive = b
	}
	if v := q.Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return req, fmt.Errorf("bad threshold %q: want a finite number", v)
		}
		req.Threshold = f
	}
	var err error
	if req.Values, err = parseFloatList(q.Get("values")); err != nil {
		return req, fmt.Errorf("bad values: %v", err)
	}
	return req, nil
}

// parseFloatList parses a comma-separated float list ("" = nil).
func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("element %d %q is not a number", i, p)
		}
		out[i] = f
	}
	return out, nil
}

// sweepTier is the surface a sweep-shaped request arrives on. It
// decides the variant cap and whether the adaptive knobs apply.
type sweepTier int

const (
	// tierSimulate is POST /v1/sweep and its stream, job, and internal
	// shard spellings: every value simulated, or pre-screened when
	// adaptive.
	tierSimulate sweepTier = iota
	// tierEstimate is /v1/estimate: every value estimated, under the
	// wider estimator cap.
	tierEstimate
)

// normalizeSweep validates the request for its tier, resolves names,
// folds adaptive+threshold-0 onto the plain sweep, and fills every
// defaulted field so the struct is a canonical fingerprint.
func normalizeSweep(req *sweepRequest, tier sweepTier) (core.Experiment, core.VariantAxis, int, error) {
	limit, tierName := maxSweepVariants, "full-simulation"
	if tier == tierEstimate {
		// Every point of an estimate is estimated, so there is nothing
		// to adapt.
		if req.Adaptive || req.Threshold != 0 {
			return core.Experiment{}, "", http.StatusBadRequest,
				fmt.Errorf("adaptive/threshold do not apply to /v1/estimate (every point is estimated); use POST /v1/sweep for adaptive sweeps")
		}
		limit, tierName = maxEstimateVariants, "estimator"
	} else {
		if err := normalizeAdaptive(req); err != nil {
			return core.Experiment{}, "", http.StatusBadRequest, err
		}
		if req.Adaptive {
			limit, tierName = maxEstimateVariants, "adaptive"
		}
	}
	if req.Axis == "" {
		req.Axis = string(core.AxisPowerCap)
	}
	axis, err := core.ParseVariantAxis(req.Axis)
	if err != nil {
		return core.Experiment{}, "", http.StatusBadRequest, withCode("bad_axis", err)
	}
	if len(req.Values) == 0 {
		return core.Experiment{}, "", http.StatusBadRequest,
			fmt.Errorf("values is required: the list of %s settings to sweep", axis)
	}
	if len(req.Values) > limit {
		return core.Experiment{}, "", http.StatusBadRequest, withCode("bad_values",
			fmt.Errorf("values has %d variants, over the %s limit of %d (plain sweeps simulate every value, max %d; /v1/estimate and adaptive sweeps accept up to %d)",
				len(req.Values), tierName, limit, maxSweepVariants, maxEstimateVariants))
	}
	for _, v := range req.Values {
		if err := axis.Validate(v); err != nil {
			return core.Experiment{}, "", http.StatusBadRequest, withCode("bad_axis", err)
		}
	}
	if req.Cluster == "" {
		req.Cluster = "CloudLab" // the paper had root (and power-cap rights) here
	}
	spec, ok := cluster.ByName(req.Cluster)
	if !ok {
		return core.Experiment{}, "", http.StatusNotFound,
			fmt.Errorf("unknown cluster %q (known: %v)", req.Cluster, cluster.Names())
	}
	if req.Workload == "" {
		req.Workload = "sgemm"
	}
	wl, err := workload.ByName(req.Workload, spec.SKU())
	if err != nil {
		return core.Experiment{}, "", http.StatusNotFound, err
	}
	req.Workload = wl.Name
	if req.Seed == 0 {
		req.Seed = 2022
	}
	if !(req.Fraction > 0 && req.Fraction <= 1) { // written so NaN folds to the default too
		req.Fraction = 1
	}
	if req.Runs < 1 {
		req.Runs = 1
	}
	if req.Iterations < 0 {
		return core.Experiment{}, "", http.StatusBadRequest,
			fmt.Errorf("bad iterations %d: want >= 0 (0 = workload default)", req.Iterations)
	}
	if req.Iterations > 0 {
		wl.Iterations = req.Iterations
	}
	req.Iterations = wl.Iterations
	return core.Experiment{
		Cluster:  spec,
		Workload: wl,
		Seed:     req.Seed,
		Fraction: req.Fraction,
		Runs:     req.Runs,
	}, axis, 0, nil
}

// normalizeAdaptive canonicalizes the adaptive knobs. Zero threshold
// means zero tolerance — every point must be exact, which IS the plain
// sweep — so adaptive+threshold-0 folds onto the non-adaptive spelling
// (one cache entry, byte-identical bodies). A threshold without
// adaptive is a contradiction worth a 400, not a silent ignore.
func normalizeAdaptive(req *sweepRequest) error {
	t := req.Threshold
	if math.IsNaN(t) || t < 0 || t > 1 {
		return fmt.Errorf("bad threshold %v: want a relative tolerance in [0, 1]", t)
	}
	if !req.Adaptive && t != 0 {
		return fmt.Errorf("threshold requires adaptive: true")
	}
	if req.Adaptive && t == 0 {
		req.Adaptive = false
	}
	return nil
}
