package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gpuvar/internal/core"
)

// GET/POST /v1/estimate answers a variant sweep analytically: the same
// request schema as /v1/sweep (minus the adaptive knobs), the same
// response schema with every variant marked source: "estimated" and
// carrying the estimator's relative error bound. A cold calibration
// spends a handful of full-simulation anchor runs; after that the
// endpoint is the suite's first microsecond-latency product surface —
// a warm request is a bare response-cache hit, and even a cache miss
// only evaluates the closed form once per value.

// estimateSweepRun is the seam tests use to intercept the estimator
// run, mirroring streamSweepRun.
var estimateSweepRun = core.EstimateSweepCtx

// estimateCacheKey fingerprints a NORMALIZED estimate request. Distinct
// from the sweep key: an estimate's body differs from the same sweep's
// (source/bound fields), so they must never share a cache entry.
func estimateCacheKey(r sweepRequest) string { return fmt.Sprintf("estimate|%+v", r) }

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSweepBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	var req sweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding body: %v", err)
		return
	}
	s.serveEstimate(w, r, &req)
}

// handleEstimateGet accepts the sweep query-parameter spelling, so an
// estimate is one curl away: GET /v1/estimate?axis=powercap&values=...
func (s *Server) handleEstimateGet(w http.ResponseWriter, r *http.Request) {
	req, err := sweepRequestFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.serveEstimate(w, r, &req)
}

func (s *Server) serveEstimate(w http.ResponseWriter, r *http.Request, req *sweepRequest) {
	key, compute, status, err := estimateComputation(req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	s.serveCached(w, r, key, compute)
}

// estimateComputation normalizes the request and returns the cache key
// plus the computation — shared by both HTTP spellings and the async
// job path ("kind": "estimate"), so all three serve byte-identical
// bodies from one cache entry.
func estimateComputation(req *sweepRequest) (key string, compute func(ctx context.Context) (*cachedResponse, error), status int, err error) {
	exp, axis, status, err := normalizeEstimate(req)
	if err != nil {
		return "", nil, status, err
	}
	r := *req
	key = estimateCacheKey(r)
	compute = func(ctx context.Context) (*cachedResponse, error) {
		points, err := estimateSweepRun(ctx, exp, axis, r.Values)
		if err != nil {
			return nil, err
		}
		return renderSweep(r, axis, true, points)
	}
	return key, compute, 0, nil
}
