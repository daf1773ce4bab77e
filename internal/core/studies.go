package core

import (
	"context"
	"fmt"

	"gpuvar/internal/engine"
	"gpuvar/internal/gpu"
	"gpuvar/internal/stats"
	"gpuvar/internal/workload"
)

// WeekStudy runs the experiment once per day of the week (§VI-A,
// Figs. 20–21) and returns the seven results, Monday first.
func WeekStudy(exp Experiment) ([]*Result, error) {
	return WeekStudyCtx(context.Background(), exp)
}

// WeekStudyCtx is WeekStudy as one engine job: the seven day-variants
// share the cached fleet and run concurrently, each day's result landing
// at its index (Monday first, identical to the serial order).
func WeekStudyCtx(ctx context.Context, exp Experiment) ([]*Result, error) {
	out, err := engine.Map(ctx, 7, 0, func(ctx context.Context, day int) (*Result, error) {
		e := exp
		e.Day = day
		// A different run phase per day: the same GPUs measured on
		// different days draw fresh run-level jitter.
		e.Seed = exp.Seed // fleet identical across days
		r, err := RunCtx(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("core: day %d: %w", day, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DayNames are the week-study labels.
var DayNames = [7]string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// AppStudyRow is one workload's variability summary on one cluster —
// the rows behind the paper's §V cross-application comparison.
type AppStudyRow struct {
	Workload string
	Class    workload.Class
	PerfVar  float64
	PowerVar float64
	FreqVar  float64
	MedianMs float64
	PerfFreq float64 // ρ(perf, freq)
}

// ApplicationStudy runs several workloads on the same cluster and fleet
// seed and summarizes each, preserving order.
func ApplicationStudy(base Experiment, wls []workload.Workload) ([]AppStudyRow, error) {
	return ApplicationStudyCtx(context.Background(), base, wls)
}

// ApplicationStudyCtx is ApplicationStudy with cooperative cancellation
// (each workload's run is an engine job that honors ctx).
func ApplicationStudyCtx(ctx context.Context, base Experiment, wls []workload.Workload) ([]AppStudyRow, error) {
	out := make([]AppStudyRow, 0, len(wls))
	for _, wl := range wls {
		e := base
		e.Workload = wl
		r, err := RunCtx(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", wl.Name, err)
		}
		row := AppStudyRow{
			Workload: wl.Name,
			Class:    workload.Classify(wl.Profile),
			PerfVar:  r.Variation(Perf),
			PowerVar: r.Variation(Power),
			FreqVar:  r.Variation(Freq),
			PerfFreq: r.Correlate().PerfFreq,
		}
		if bp, err := r.Box(Perf); err == nil {
			row.MedianMs = bp.Q2
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRow quantifies one mechanism's contribution to variability.
type AblationRow struct {
	Name    string
	PerfVar float64
}

// Ablation reruns the experiment with individual variability mechanisms
// disabled, attributing the observed variation (an extension beyond the
// paper).
func Ablation(exp Experiment) ([]AblationRow, error) {
	return AblationCtx(context.Background(), exp)
}

// AblationCtx is Ablation with cooperative cancellation.
func AblationCtx(ctx context.Context, exp Experiment) ([]AblationRow, error) {
	type variant struct {
		name string
		mod  func(*Experiment)
	}
	vm := exp.Cluster.Variation
	variants := []variant{
		{"full model", func(e *Experiment) {}},
		{"no defects", func(e *Experiment) { e.NoDefects = true }},
		{"no V/F-curve spread", func(e *Experiment) {
			v := vm
			v.VoltSpread = 0
			e.VariationOverride = &v
		}},
		{"no leakage spread", func(e *Experiment) {
			v := vm
			v.LeakSpread = 0
			e.VariationOverride = &v
		}},
		{"no bandwidth spread", func(e *Experiment) {
			v := vm
			v.MemBWSpread = 0
			e.VariationOverride = &v
		}},
		{"no manufacturing spread at all", func(e *Experiment) {
			e.VariationOverride = &gpu.VariationModel{}
		}},
	}
	out := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		e := exp
		v.mod(&e)
		r, err := RunCtx(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("core: ablation %q: %w", v.name, err)
		}
		out = append(out, AblationRow{Name: v.name, PerfVar: r.Variation(Perf)})
	}
	return out, nil
}

// SampleSizeCheck verifies the experiment's statistical power per the
// paper's §III methodology [31]: the number of GPUs measured versus the
// recommended sample for lambda-accurate mean power at the given
// confidence. The paper reports a 2.9× margin over the worst case.
type SampleSizeCheck struct {
	Measured    int
	Recommended int
	MarginX     float64
}

// CheckSampleSize computes the recommendation from the measured power
// coefficient of variation.
func (r *Result) CheckSampleSize(lambda, confidence float64) SampleSizeCheck {
	power := r.Values(Power)
	cv := stats.StdDev(power) / stats.Mean(power)
	rec := stats.RecommendedSampleSize(r.Exp.Cluster.NumGPUs(), cv, lambda, confidence)
	c := SampleSizeCheck{Measured: len(power), Recommended: rec}
	if rec > 0 {
		c.MarginX = float64(c.Measured) / float64(rec)
	}
	return c
}
