package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"gpuvar/internal/dispatch"
	"gpuvar/internal/engine"
)

// The replica-facing half of distributed dispatch (see internal/dispatch
// for the routing side):
//
//	POST /v1/internal/shards  execute a batch of sweep shards for a peer
//	GET  /v1/replicas         membership, health, and dispatch counters
//
// plus the routing-directive header clients use to steer placement:
//
//	X-GPUVar-Route: remote           every shard must execute on a peer
//	                                 (502 replica_unavailable when none
//	                                 is healthy — never silently local)
//	X-GPUVar-Route: affinity-strict  refuse with 421 wrong_replica when
//	                                 this replica is not the rendezvous
//	                                 owner of the request's fingerprint
//	                                 (the owner rides X-GPUVar-Owner)

const (
	// routeDirectiveHeader is the client-facing routing directive.
	routeDirectiveHeader = "X-GPUVar-Route"
	routeRemote          = "remote"
	routeStrictAffinity  = "affinity-strict"
	// ownerHeader carries the owning replica's URL on 421 responses.
	ownerHeader = "X-GPUVar-Owner"
)

// parseRouteDirective validates the optional routing directive; an
// unknown value is a client error, not a silent default.
func parseRouteDirective(r *http.Request) (string, error) {
	v := r.Header.Get(routeDirectiveHeader)
	switch v {
	case "", routeRemote, routeStrictAffinity:
		return v, nil
	}
	return "", fmt.Errorf("bad %s %q: want %q or %q", routeDirectiveHeader, v, routeRemote, routeStrictAffinity)
}

// redirectAffinityMiss answers 421 wrong_replica when the request
// demands strict affinity placement and this replica is not the
// rendezvous owner of the request's cache fingerprint. The owner's URL
// rides the X-GPUVar-Owner header and the message, so a cache-topology-
// aware client can re-aim. Reports whether the request was answered.
func (s *Server) redirectAffinityMiss(w http.ResponseWriter, directive, key string) bool {
	if directive != routeStrictAffinity || s.dispatcher == nil {
		return false
	}
	owner, self := s.dispatcher.Owner(key)
	if self {
		return false
	}
	w.Header().Set(ownerHeader, owner)
	writeError(w, http.StatusMisdirectedRequest, "wrong_replica",
		"this replica does not own the request's affinity placement; retry at %s", owner)
	return true
}

// handleInternalShards executes a batch of sweep shards on behalf of a
// peer replica's dispatcher. The route is internal: it requires the
// dispatch marker header and refuses any request carrying an external
// client identity — peers are not tenants, and tenants are not peers.
func (s *Server) handleInternalShards(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(dispatch.InternalHeader) == "" || r.Header.Get("X-API-Key") != "" {
		writeError(w, http.StatusForbidden, "forbidden",
			"%s is replica-to-replica only: requests must carry %s and no external client identity",
			dispatch.ShardsPath, dispatch.InternalHeader)
		return
	}
	var sreq dispatch.ShardsRequest
	if !decodeBody(w, r.Body, maxSweepBody, &sreq) {
		return
	}
	var req sweepRequest
	if err := decodeStrict(sreq.Sweep, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding sweep payload: %v", err)
		return
	}
	// The dispatching replica sends its normalized request; normalization
	// is idempotent (the fingerprint-stability contract the fuzz targets
	// pin), so re-normalizing here just re-derives the experiment.
	exp, axis, status, err := normalizeSweep(&req, tierSimulate)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	if req.Adaptive {
		writeError(w, http.StatusBadRequest, "bad_request",
			"adaptive sweeps do not dispatch: the estimator pre-screen runs on the serving replica")
		return
	}
	if len(sreq.Indices) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "indices is required: which shards of values to execute")
		return
	}
	for _, idx := range sreq.Indices {
		if idx < 0 || idx >= len(req.Values) {
			writeError(w, http.StatusBadRequest, "bad_request",
				"shard index %d out of range (sweep has %d values)", idx, len(req.Values))
			return
		}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// The batch runs as one engine job graph under this replica's own
	// worker budget — exactly the resource treatment a local sweep shard
	// gets, so dispatched and local shards contend identically.
	points, err := engine.Map(ctx, len(sreq.Indices), 0, func(ctx context.Context, i int) (dispatch.ShardPoint, error) {
		idx := sreq.Indices[i]
		p, warm, err := dispatch.LocalBackend{}.Exec(ctx, dispatch.Job{Exp: exp, Axis: axis, Values: req.Values}, idx)
		if err != nil {
			return dispatch.ShardPoint{}, err
		}
		return dispatch.NewShardPoint(idx, p, warm), nil
	})
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = statusClientClosedRequest
		}
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, dispatch.ShardsResponse{Points: points})
}

// replicasResponse is the GET /v1/replicas body. Distributed is false —
// and the dispatch fields absent — in single-process serving.
type replicasResponse struct {
	Distributed bool `json:"distributed"`
	*dispatch.Stats
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	out := replicasResponse{}
	if s.dispatcher != nil {
		st := s.dispatcher.Stats()
		out.Distributed, out.Stats = true, &st
	}
	writeJSON(w, http.StatusOK, out)
}
