package service

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/gpu"
	"gpuvar/internal/workload"
)

// experimentRequest is the normalized form of one experiment query —
// the response-cache fingerprint is derived from it, so every field
// must be in canonical form (workload name resolved through
// workload.ByName, defaults applied) before keying.
type experimentRequest struct {
	Workload   string  `json:"workload"`
	Cluster    string  `json:"cluster"`
	Seed       uint64  `json:"seed"`
	Fraction   float64 `json:"fraction"`
	Runs       int     `json:"runs"`
	Iterations int     `json:"iterations"`
	AdminCapW  float64 `json:"admin_cap_w"`
	Day        int     `json:"day"`
	Detail     string  `json:"detail"`
}

// summaryView is core.Summary with a stable snake_case wire schema.
type summaryView struct {
	GPUs      int     `json:"gpus"`
	MedianMs  float64 `json:"median_ms"`
	PerfVar   float64 `json:"perf_variation"`
	FreqVar   float64 `json:"freq_variation"`
	PowerVar  float64 `json:"power_variation"`
	TempVar   float64 `json:"temp_variation"`
	Outliers  int     `json:"outliers"`
	PerfFreq  float64 `json:"corr_perf_freq"`
	PerfTemp  float64 `json:"corr_perf_temp"`
	PerfPower float64 `json:"corr_perf_power"`
	PowerTemp float64 `json:"corr_power_temp"`
}

// groupView is one box-plot group (cabinet or Summit row).
type groupView struct {
	Group    string  `json:"group"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1_ms"`
	MedianMs float64 `json:"median_ms"`
	Q3       float64 `json:"q3_ms"`
	Outliers int     `json:"outliers"`
}

// gpuView is one per-GPU measurement row (detail=gpus).
type gpuView struct {
	GPUID   string  `json:"gpu_id"`
	Group   string  `json:"group"`
	PerfMs  float64 `json:"perf_ms"`
	FreqMHz float64 `json:"freq_mhz"`
	PowerW  float64 `json:"power_w"`
	TempC   float64 `json:"temp_c"`
	Defect  string  `json:"defect,omitempty"`
}

// experimentResponse is one completed experiment.
type experimentResponse struct {
	Request experimentRequest `json:"request"`
	Summary summaryView       `json:"summary"`
	Groups  []groupView       `json:"groups,omitempty"`
	GPUs    []gpuView         `json:"gpus,omitempty"`
}

// experimentCacheKey fingerprints a normalized experiment request —
// shared by the synchronous handler and the streaming handler so either
// primes the other's cache entry.
func experimentCacheKey(req experimentRequest) string {
	return fmt.Sprintf("experiment|%+v", req)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	req, exp, status, err := parseExperiment(r)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	s.serveCached(w, r, experimentCacheKey(req), experimentComputation(req, exp))
}

// experimentComputation renders one experiment's response — shared by
// the synchronous handler and the streaming handler, which attaches its
// shard sink to the context. The run goes through the
// streamExperimentRun seam (core.RunCtx in production).
func experimentComputation(req experimentRequest, exp core.Experiment) func(context.Context) (*cachedResponse, error) {
	return func(ctx context.Context) (*cachedResponse, error) {
		res, err := streamExperimentRun(ctx, exp)
		if err != nil {
			return nil, err
		}
		return jsonResponse(renderExperiment(req, res))
	}
}

// parseExperiment resolves the request's workload/cluster and
// normalizes every knob. The returned status is the HTTP code to use
// when err != nil (404 for unknown names, 400 for malformed values).
func parseExperiment(r *http.Request) (experimentRequest, core.Experiment, int, error) {
	req := experimentRequest{
		Cluster:  "Longhorn",
		Seed:     2022,
		Fraction: 1,
		Runs:     1,
		Detail:   "summary",
	}
	q := r.URL.Query()
	if v := q.Get("cluster"); v != "" {
		req.Cluster = v
	}
	spec, ok := cluster.ByName(req.Cluster)
	if !ok {
		return req, core.Experiment{}, http.StatusNotFound,
			fmt.Errorf("unknown cluster %q (known: %v)", req.Cluster, cluster.Names())
	}
	wl, err := workload.ByName(r.PathValue("name"), spec.SKU())
	if err != nil {
		return req, core.Experiment{}, http.StatusNotFound, err
	}
	req.Workload = wl.Name

	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return req, core.Experiment{}, http.StatusBadRequest, fmt.Errorf("bad seed %q", v)
		}
		req.Seed = n
	}
	if v := q.Get("fraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		// !(f > 0 && f <= 1) so NaN — which query strings can spell,
		// unlike JSON bodies — fails too.
		if err != nil || !(f > 0 && f <= 1) {
			return req, core.Experiment{}, http.StatusBadRequest,
				fmt.Errorf("bad fraction %q: want 0 < f <= 1", v)
		}
		req.Fraction = f
	}
	if v := q.Get("runs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return req, core.Experiment{}, http.StatusBadRequest,
				fmt.Errorf("bad runs %q: want a positive integer", v)
		}
		req.Runs = n
	}
	if v := q.Get("iterations"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return req, core.Experiment{}, http.StatusBadRequest,
				fmt.Errorf("bad iterations %q: want a positive integer", v)
		}
		wl.Iterations = n
	}
	req.Iterations = wl.Iterations
	if v := q.Get("cap"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		// !(f >= 0) so NaN fails with the negatives; +Inf parses too, and
		// neither may reach a JSON body.
		if err != nil || !(f >= 0) || math.IsInf(f, 1) {
			return req, core.Experiment{}, http.StatusBadRequest, fmt.Errorf("bad cap %q", v)
		}
		req.AdminCapW = f
	}
	req.Day = -1
	if v := q.Get("day"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 6 {
			return req, core.Experiment{}, http.StatusBadRequest,
				fmt.Errorf("bad day %q: want 0 (Monday) .. 6 (Sunday)", v)
		}
		req.Day = n
	}
	if v := q.Get("detail"); v != "" {
		if v != "summary" && v != "groups" && v != "gpus" {
			return req, core.Experiment{}, http.StatusBadRequest,
				fmt.Errorf("bad detail %q: want summary, groups, or gpus", v)
		}
		req.Detail = v
	}

	exp := core.Experiment{
		Cluster:   spec,
		Workload:  wl,
		Seed:      req.Seed,
		Fraction:  req.Fraction,
		Runs:      req.Runs,
		AdminCapW: req.AdminCapW,
		Day:       req.Day,
	}
	return req, exp, 0, nil
}

// renderExperiment projects a result into the wire schema at the
// requested detail level.
func renderExperiment(req experimentRequest, res *core.Result) experimentResponse {
	sum := res.Summarize()
	out := experimentResponse{
		Request: req,
		Summary: summaryView{
			GPUs:      sum.GPUs,
			MedianMs:  sum.MedianMs,
			PerfVar:   sum.PerfVar,
			FreqVar:   sum.FreqVar,
			PowerVar:  sum.PowerVar,
			TempVar:   sum.TempVar,
			Outliers:  sum.NOutliers,
			PerfFreq:  sum.Corr.PerfFreq,
			PerfTemp:  sum.Corr.PerfTemp,
			PerfPower: sum.Corr.PerfPower,
			PowerTemp: sum.Corr.PowerTemp,
		},
	}
	switch req.Detail {
	case "groups":
		byGroup := res.BoxByGroup(core.Perf)
		for _, g := range res.GroupLabels() {
			bp, ok := byGroup[g]
			if !ok {
				continue
			}
			out.Groups = append(out.Groups, groupView{
				Group:    g,
				N:        bp.N,
				Q1:       bp.Q1,
				MedianMs: bp.Q2,
				Q3:       bp.Q3,
				Outliers: len(bp.Outliers),
			})
		}
	case "gpus":
		out.GPUs = make([]gpuView, len(res.PerAG))
		for i, m := range res.PerAG {
			v := gpuView{
				GPUID:   m.GPUID,
				Group:   m.Loc.Group(),
				PerfMs:  m.PerfMs,
				FreqMHz: m.FreqMHz,
				PowerW:  m.PowerW,
				TempC:   m.TempC,
			}
			if m.Defect != gpu.DefectNone {
				v.Defect = m.Defect.String()
			}
			out.GPUs[i] = v
		}
	}
	return out
}
