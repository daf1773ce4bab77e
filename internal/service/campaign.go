package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"gpuvar/internal/campaign"
	"gpuvar/internal/cluster"
	"gpuvar/internal/gpu"
)

// maxCampaignBody bounds the request body; campaign requests are a few
// hundred bytes of JSON.
const maxCampaignBody = 1 << 16

// campaignRequest is the POST /v1/campaign body. Zero-valued knobs take
// the same defaults the campaign package applies, and the normalized
// struct (defaults filled in) is the cache fingerprint, so two requests
// that spell the same campaign differently share one simulation.
type campaignRequest struct {
	Cluster string `json:"cluster"`
	Seed    uint64 `json:"seed"`
	Days    int    `json:"days"`
	Plan    struct {
		OverheadFrac float64 `json:"overhead_frac"`
		BenchSeconds float64 `json:"bench_seconds"`
		DaySeconds   float64 `json:"day_seconds"`
	} `json:"plan"`
	Monitor struct {
		Alpha         float64 `json:"alpha"`
		DriftFrac     float64 `json:"drift_frac"`
		Confirmations int     `json:"confirmations"`
	} `json:"monitor"`
	Injection struct {
		Day    int    `json:"day"`
		NodeID string `json:"node_id"`
		Kind   string `json:"kind"`
	} `json:"injection"`
}

// alertView is one drift detection.
type alertView struct {
	GPUID      string  `json:"gpu_id"`
	Day        int     `json:"day"`
	BaselineMs float64 `json:"baseline_ms"`
	ObservedMs float64 `json:"observed_ms"`
	Exceedance float64 `json:"exceedance"`
}

// campaignResponse is one completed campaign simulation.
type campaignResponse struct {
	Request              campaignRequest `json:"request"`
	Days                 int             `json:"days"`
	CoveragePeriodDays   int             `json:"coverage_period_days"`
	Slots                int             `json:"slots"`
	OverheadFrac         float64         `json:"overhead_frac"`
	DetectionDay         int             `json:"detection_day"`
	DetectionLatencyDays int             `json:"detection_latency_days"`
	FalseAlerts          int             `json:"false_alerts"`
	Alerts               []alertView     `json:"alerts"`
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if !decodeBody(w, r.Body, maxCampaignBody, &req) {
		return
	}
	key, compute, status, err := campaignComputation(&req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	s.serveCached(w, r, key, compute)
}

// campaignComputation normalizes the request and returns the cache key
// plus the computation that renders the response — shared by the
// synchronous handler and the async job path.
func campaignComputation(reqp *campaignRequest) (string, func(ctx context.Context) (*cachedResponse, error), int, error) {
	spec, kind, status, err := normalizeCampaign(reqp)
	if err != nil {
		return "", nil, status, err
	}
	req := *reqp
	inj := campaign.Injection{Day: req.Injection.Day, NodeID: req.Injection.NodeID, Kind: kind}
	// The fingerprint is the normalized struct, not the raw body:
	// reordered keys or omitted defaults coalesce onto one entry.
	key := fmt.Sprintf("campaign|%+v", req)
	compute := func(ctx context.Context) (*cachedResponse, error) {
		rep, err := campaign.SimulateCtx(ctx, spec, req.Seed, req.Days,
			campaign.PlanConfig{
				OverheadFrac: req.Plan.OverheadFrac,
				BenchSeconds: req.Plan.BenchSeconds,
				DaySeconds:   req.Plan.DaySeconds,
			},
			campaign.MonitorConfig{
				Alpha:         req.Monitor.Alpha,
				DriftFrac:     req.Monitor.DriftFrac,
				Confirmations: req.Monitor.Confirmations,
			}, inj)
		if errors.Is(err, campaign.ErrUnknownNode) {
			return nil, &statusError{status: http.StatusBadRequest, err: err}
		}
		if err != nil {
			return nil, err
		}
		out := campaignResponse{
			Request:              req,
			Days:                 rep.Days,
			CoveragePeriodDays:   rep.CoveragePeriod,
			Slots:                rep.Slots,
			OverheadFrac:         rep.OverheadFrac,
			DetectionDay:         rep.DetectionDay,
			DetectionLatencyDays: rep.DetectionLatencyDays(inj),
			FalseAlerts:          rep.FalseAlerts,
			Alerts:               make([]alertView, len(rep.Alerts)),
		}
		for i, a := range rep.Alerts {
			out.Alerts[i] = alertView{
				GPUID:      a.GPUID,
				Day:        a.Day,
				BaselineMs: a.BaselineMs,
				ObservedMs: a.ObservedMs,
				Exceedance: a.Exceedance(),
			}
		}
		return jsonResponse(out)
	}
	return key, compute, 0, nil
}

// normalizeCampaign validates the request and fills every defaulted
// field so the struct is a canonical fingerprint. It resolves the
// cluster and defect kind (the two name-typed fields) up front, where a
// bad value is a client error, not a simulation failure.
func normalizeCampaign(req *campaignRequest) (cluster.Spec, gpu.DefectKind, int, error) {
	if req.Cluster == "" {
		req.Cluster = "Vortex"
	}
	spec, ok := cluster.ByName(req.Cluster)
	if !ok {
		return cluster.Spec{}, 0, http.StatusNotFound,
			fmt.Errorf("unknown cluster %q (known: %v)", req.Cluster, cluster.Names())
	}
	if req.Seed == 0 {
		req.Seed = 2022
	}
	if req.Days <= 0 {
		req.Days = 12
	}
	if req.Days > 3650 {
		return cluster.Spec{}, 0, http.StatusBadRequest,
			fmt.Errorf("days %d too large (max 3650)", req.Days)
	}
	if req.Plan.OverheadFrac <= 0 {
		req.Plan.OverheadFrac = 0.02
	}
	if req.Plan.BenchSeconds <= 0 {
		req.Plan.BenchSeconds = 600
	}
	if req.Plan.DaySeconds <= 0 {
		req.Plan.DaySeconds = 86400
	}
	if req.Monitor.Alpha <= 0 || req.Monitor.Alpha > 1 {
		req.Monitor.Alpha = 0.3
	}
	if req.Monitor.DriftFrac <= 0 {
		req.Monitor.DriftFrac = 0.05
	}
	if req.Monitor.Confirmations < 1 {
		req.Monitor.Confirmations = 1
	}
	kind := gpu.DefectNone
	if req.Injection.Kind != "" {
		var err error
		kind, err = campaign.ParseDefectKind(req.Injection.Kind)
		if err != nil {
			return cluster.Spec{}, 0, http.StatusBadRequest, err
		}
	}
	req.Injection.Kind = kind.String()
	return spec, kind, 0, nil
}
