package core

import (
	"context"
	"fmt"
	"math"

	"gpuvar/internal/engine"
)

// A VariantAxis names the experiment knob a sweep varies. The paper's
// §VI-B power-limit sweep is one instance of a more general shape —
// "run the same experiment once per value of one knob" — that also
// covers fleet-seed sweeps (uncertainty bands), ambient-temperature
// sweeps (facility what-ifs), and coverage-fraction ladders
// (cost/accuracy trades). VariantSweepCtx implements that shape once;
// every axis shares the same engine job graph, validation, and result
// schema.
type VariantAxis string

const (
	// AxisPowerCap sweeps the administrative power limit in watts
	// (0 = TDP). Values must be >= 0.
	AxisPowerCap VariantAxis = "powercap"
	// AxisSeed sweeps the fleet instantiation seed. Values must be
	// non-negative integers (exactly representable in a float64).
	AxisSeed VariantAxis = "seed"
	// AxisAmbient sweeps the facility inlet-temperature offset in °C.
	// Values must lie in [-25, 25].
	AxisAmbient VariantAxis = "ambient"
	// AxisFraction sweeps the fraction of observed GPUs measured.
	// Values must lie in (0, 1].
	AxisFraction VariantAxis = "fraction"
)

// VariantAxes lists every axis, in a stable order for error messages
// and docs.
func VariantAxes() []VariantAxis {
	return []VariantAxis{AxisPowerCap, AxisSeed, AxisAmbient, AxisFraction}
}

// ParseVariantAxis resolves an axis name.
func ParseVariantAxis(s string) (VariantAxis, error) {
	for _, a := range VariantAxes() {
		if s == string(a) {
			return a, nil
		}
	}
	return "", fmt.Errorf("unknown sweep axis %q (known: %v)", s, VariantAxes())
}

// maxSeedValue is the largest float64-representable integer (2^53):
// seeds arrive as JSON numbers, so anything larger would already have
// lost precision in transit.
const maxSeedValue = 1 << 53

// Validate checks that v is a legal setting for the axis.
func (a VariantAxis) Validate(v float64) error {
	switch a {
	case AxisPowerCap:
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bad %s value %v: want a cap in watts >= 0 (0 = TDP)", a, v)
		}
	case AxisSeed:
		if v < 0 || v != math.Trunc(v) || v > maxSeedValue {
			return fmt.Errorf("bad %s value %v: want a non-negative integer <= 2^53", a, v)
		}
	case AxisAmbient:
		if math.IsNaN(v) || v < -25 || v > 25 {
			return fmt.Errorf("bad %s value %v: want an offset in °C within [-25, 25]", a, v)
		}
	case AxisFraction:
		if !(v > 0 && v <= 1) { // written so NaN fails too
			return fmt.Errorf("bad %s value %v: want a fraction 0 < f <= 1", a, v)
		}
	default:
		return fmt.Errorf("unknown sweep axis %q (known: %v)", a, VariantAxes())
	}
	return nil
}

// apply sets the axis's knob on the experiment. Values must already be
// validated.
func (a VariantAxis) apply(e *Experiment, v float64) {
	switch a {
	case AxisPowerCap:
		e.AdminCapW = v
	case AxisSeed:
		e.Seed = uint64(v)
	case AxisAmbient:
		e.AmbientOffsetC = v
	case AxisFraction:
		e.Fraction = v
	}
}

// VariantPoint is one variant's outcome: the axis value it ran at and
// the same summary statistics the power-limit sweep has always
// reported.
type VariantPoint struct {
	Axis      VariantAxis
	Value     float64
	PerfVar   float64
	MedianMs  float64
	NOutliers int
	GPUs      int
	Result    *Result

	// Estimated marks a point answered by the analytical estimator
	// (EstimateSweepCtx, or a screened-out variant of AdaptiveSweepCtx)
	// instead of full simulation; Bound is then the estimator's
	// relative error bound on MedianMs, and Result is nil.
	Estimated bool
	Bound     float64
}

// VariantSweep runs the sweep without cancellation.
func VariantSweep(exp Experiment, axis VariantAxis, values []float64) ([]VariantPoint, error) {
	return VariantSweepCtx(context.Background(), exp, axis, values)
}

// VariantSweepCtx runs the experiment once per value of the axis as one
// engine job graph: every variant is a shard, the variants' own per-GPU
// jobs nest inside, and results keep values order. Axes that leave the
// fleet untouched (powercap, ambient, fraction) share a single cached
// instantiation; the seed axis instantiates one fleet per value, which
// is exactly the case the fleet cache's LRU bound exists for.
// AxisPowerCap is the paper's §VI-B power-limit study (Fig. 22).
func VariantSweepCtx(ctx context.Context, exp Experiment, axis VariantAxis, values []float64) ([]VariantPoint, error) {
	for _, v := range values {
		if err := axis.Validate(v); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return engine.Map(ctx, len(values), 0, func(ctx context.Context, i int) (VariantPoint, error) {
		return runVariant(ctx, exp, axis, values[i])
	})
}

// RunVariantCtx runs exactly one variant — the shard body
// VariantSweepCtx fans out — validated and addressable on its own, so
// an out-of-process dispatcher (internal/dispatch) can execute single
// shards on another replica with bit-identical results.
func RunVariantCtx(ctx context.Context, exp Experiment, axis VariantAxis, v float64) (VariantPoint, error) {
	if err := axis.Validate(v); err != nil {
		return VariantPoint{}, fmt.Errorf("core: %w", err)
	}
	return runVariant(ctx, exp, axis, v)
}

// FleetSeed returns the fleet-instantiation seed the variant actually
// runs with: the axis value on seed sweeps, the experiment's seed
// otherwise. It is the seed half of the (spec, seed) fleet-cache key,
// which is what cache-affinity routing hashes on.
func FleetSeed(exp Experiment, axis VariantAxis, v float64) uint64 {
	if axis == AxisSeed {
		return uint64(v)
	}
	return exp.Seed
}

// runVariant is the one full-simulation shard body shared by
// VariantSweepCtx and AdaptiveSweepCtx — sharing it is what keeps an
// adaptive sweep's simulated points bit-identical to the plain sweep's.
func runVariant(ctx context.Context, exp Experiment, axis VariantAxis, v float64) (VariantPoint, error) {
	e := exp
	axis.apply(&e, v)
	r, err := RunCtx(ctx, e)
	if err != nil {
		return VariantPoint{}, fmt.Errorf("core: %s %v: %w", axis, v, err)
	}
	p := VariantPoint{Axis: axis, Value: v, PerfVar: r.Variation(Perf), GPUs: len(r.PerAG), Result: r}
	if bp, err := r.Box(Perf); err == nil {
		p.MedianMs = bp.Q2
		p.NOutliers = len(bp.Outliers)
	}
	return p, nil
}
