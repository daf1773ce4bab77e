// Package estimate is the analytical fast path of the suite: a
// closed-form steady-state estimator that answers a variant sweep in
// microseconds instead of milliseconds, with per-point error bounds.
//
// The shape follows the roofline playbook: predict performance from the
// hardware model's nominal operating point (sim.EstimateNominalSteady —
// the exact solveSteady physics with every random factor pinned to its
// mean), then calibrate the prediction against a handful of full-sim
// anchor runs with at most two fitted parameters per SKU×workload
// context: a fleet-median-to-nominal scale and a variability (noise)
// level. Calibrated models are memoized in-process; calibration is a
// pure function of the request and its value list, so identical
// requests calibrate identically no matter what ran before.
//
// The package deliberately does not import internal/core — core calls
// back into it, supplying full-simulation anchors through an
// AnchorFunc.
package estimate

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"gpuvar/internal/cluster"
	"gpuvar/internal/gpu"
	"gpuvar/internal/sim"
	"gpuvar/internal/thermal"
	"gpuvar/internal/workload"
)

// Axis names the swept knob. The values mirror core.VariantAxis (this
// package cannot import core, so the string is the contract).
type Axis string

const (
	AxisPowerCap Axis = "powercap"
	AxisSeed     Axis = "seed"
	AxisAmbient  Axis = "ambient"
	AxisFraction Axis = "fraction"
)

// Request is the normalized sweep context a model is calibrated for:
// everything that shapes the fleet and the physics except the swept
// value itself.
type Request struct {
	Cluster  cluster.Spec
	Workload workload.Workload
	Seed     uint64
	Fraction float64
	Runs     int
	// BaseCapW and BaseAmbientC are the experiment's own cap/ambient
	// settings, used on the axes that do not override them.
	BaseCapW     float64
	BaseAmbientC float64
	Axis         Axis
	// Extra discriminates experiment knobs this package has no model
	// for (day drift, defect toggles, variation overrides); requests
	// that differ there must not share a calibration.
	Extra string
}

// Point is one estimated variant: the summary statistics a full
// simulation would report, predicted analytically.
type Point struct {
	Value    float64
	MedianMs float64
	PerfVar  float64
	GPUs     int
	Outliers int
	// Bound is the model's relative error bound on MedianMs: the
	// validation harness asserts |estimate − simulation| / simulation
	// stays within it at every point.
	Bound float64
}

// Anchor is one full-simulation run's summary at an anchor value,
// supplied by the caller's AnchorFunc.
type Anchor struct {
	Value    float64
	MedianMs float64
	PerfVar  float64
	GPUs     int
	Outliers int
}

// AnchorFunc runs full simulation at the given axis values and returns
// one Anchor per value, in order. core supplies this from
// VariantSweepCtx so calibration and real sweeps share one code path.
type AnchorFunc func(ctx context.Context, values []float64) ([]Anchor, error)

// Bound composition: a floor for the closed form's own approximations
// (medians of jittered durations vs the jitter-free duration), a misfit
// term scaled by how much the anchor ratios drift from the fitted
// scale, and a noise term scaled by the anchor runs' fleet variability
// (which is what seed- and fraction-axis estimates are exposed to).
const (
	boundFloor  = 0.03
	boundMisfit = 2.5
	boundNoise  = 1.5
)

// Model is one calibrated estimator for a Request.
type Model struct {
	req     Request
	anchors []Anchor
	anchorV []float64
	// The two fitted parameters (the "≤2 per SKU×workload"):
	// scale maps the nominal closed form onto the fleet median; noise
	// is the anchors' median fleet variability.
	scale float64
	noise float64
	// spread is the relative drift of per-anchor ratios around scale —
	// the misfit evidence feeding every bound.
	spread float64
	// residual is the largest relative error the fitted model makes on
	// its own anchors; exported via Stats for observability.
	residual float64
}

// Point estimates the sweep's summary statistics at one axis value.
func (m *Model) Point(v float64) Point {
	counters.calls.Add(1)
	p := Point{
		Value:    v,
		MedianMs: m.scale * m.req.nominalPerf(v),
		Bound:    m.bound(),
	}
	p.PerfVar = m.interpPerfVar(v)
	a := m.nearestAnchor(v)
	p.GPUs, p.Outliers = a.GPUs, a.Outliers
	if m.req.Axis == AxisFraction && a.Value > 0 {
		g := math.Round(float64(a.GPUs) * v / a.Value)
		if g < 1 {
			g = 1
		}
		p.GPUs = int(g)
	}
	return p
}

// Points estimates every value of a sweep.
func (m *Model) Points(values []float64) []Point {
	out := make([]Point, len(values))
	for i, v := range values {
		out[i] = m.Point(v)
	}
	return out
}

// AnchorValues reports the axis values this model was calibrated at.
func (m *Model) AnchorValues() []float64 {
	return append([]float64(nil), m.anchorV...)
}

// Residual reports the model's largest relative anchor error.
func (m *Model) Residual() float64 { return m.residual }

func (m *Model) bound() float64 {
	return boundFloor + boundMisfit*m.spread + boundNoise*m.noise
}

// interpPerfVar linearly interpolates the anchors' fleet variability in
// value order (clamped outside the anchor span). Variability moves
// slowly along physical axes; on the seed axis it is simply the level
// the anchors observed.
func (m *Model) interpPerfVar(v float64) float64 {
	as := m.anchors // sorted by Value at fit time
	if v <= as[0].Value {
		return as[0].PerfVar
	}
	for i := 1; i < len(as); i++ {
		if v <= as[i].Value {
			lo, hi := as[i-1], as[i]
			if hi.Value == lo.Value {
				return hi.PerfVar
			}
			t := (v - lo.Value) / (hi.Value - lo.Value)
			return lo.PerfVar + t*(hi.PerfVar-lo.PerfVar)
		}
	}
	return as[len(as)-1].PerfVar
}

func (m *Model) nearestAnchor(v float64) Anchor {
	best := m.anchors[0]
	for _, a := range m.anchors[1:] {
		if math.Abs(a.Value-v) < math.Abs(best.Value-v) {
			best = a
		}
	}
	return best
}

// nominalPerf evaluates the closed form at one axis value. The seed and
// fraction axes leave the physics untouched — the nominal device is the
// same chip either way; only the fleet sample changes, which the scale
// and noise parameters absorb.
func (r Request) nominalPerf(v float64) float64 {
	capW, amb := r.BaseCapW, r.BaseAmbientC
	switch r.Axis {
	case AxisPowerCap:
		capW = v
	case AxisAmbient:
		amb = v
	}
	return Nominal(r.Cluster, r.Workload, capW, amb).PerfMs
}

// Nominal evaluates the closed-form steady state of a cluster's nominal
// device: the spec's SKU with every manufacturing factor at 1 and a
// thermal node at the cooling model's mean parameters.
func Nominal(spec cluster.Spec, wl workload.Workload, adminCapW, ambientOffsetC float64) sim.NominalSteady {
	chip := gpu.NewChip(spec.SKU(), "nominal", spec.Variation, nil)
	node := thermal.NewNode(spec.Cooling, 0.5, nil)
	return sim.EstimateNominalSteady(chip, node, wl, adminCapW, ambientOffsetC)
}

func fit(req Request, anchors []Anchor) (*Model, error) {
	if len(anchors) == 0 {
		return nil, fmt.Errorf("estimate: no anchors")
	}
	as := append([]Anchor(nil), anchors...)
	sort.Slice(as, func(i, j int) bool { return as[i].Value < as[j].Value })

	ratios := make([]float64, 0, len(as))
	vars := make([]float64, 0, len(as))
	for _, a := range as {
		nom := req.nominalPerf(a.Value)
		if !(nom > 0) || !(a.MedianMs > 0) || math.IsInf(nom, 0) {
			return nil, fmt.Errorf("estimate: degenerate anchor at %s=%v (nominal %v, median %v)",
				req.Axis, a.Value, nom, a.MedianMs)
		}
		ratios = append(ratios, a.MedianMs/nom)
		vars = append(vars, a.PerfVar)
	}
	m := &Model{
		req:     req,
		anchors: as,
		scale:   median(ratios),
		noise:   median(vars),
	}
	for _, a := range as {
		m.anchorV = append(m.anchorV, a.Value)
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios[1:] {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	m.spread = (hi - lo) / m.scale
	for _, a := range as {
		res := math.Abs(m.scale*req.nominalPerf(a.Value)-a.MedianMs) / a.MedianMs
		m.residual = math.Max(m.residual, res)
	}
	return m, nil
}

// median over a copy; n is small (anchor count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Screen decides which sweep values still need full simulation: a point
// simulates when the model's error bound exceeds the caller's
// threshold, when the estimated curve's local relative gradient does,
// or when it is an anchor (anchors are what the calibration is pinned
// to, so they stay exact). The simulated set is clamped to maxSim by
// descending score with anchors ranked first and ties broken by lower
// index, so an adaptive request can never fan out more full runs than
// the largest plain sweep. Returns one bool per point: true = simulate.
func Screen(points []Point, anchorValues []float64, threshold float64, maxSim int) []bool {
	n := len(points)
	simulate := make([]bool, n)
	anchor := make(map[float64]bool, len(anchorValues))
	for _, v := range anchorValues {
		anchor[v] = true
	}
	grad := localGradients(points)
	score := make([]float64, n)
	for i, p := range points {
		score[i] = p.Bound + grad[i]
		simulate[i] = anchor[p.Value] || p.Bound > threshold || grad[i] > threshold
	}

	count := 0
	for _, s := range simulate {
		if s {
			count++
		}
	}
	if count > maxSim {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			aa, ab := anchor[points[ia].Value], anchor[points[ib].Value]
			if aa != ab {
				return aa
			}
			if score[ia] != score[ib] {
				return score[ia] > score[ib]
			}
			return ia < ib
		})
		kept := make([]bool, n)
		budget := maxSim
		for _, i := range idx {
			if budget == 0 {
				break
			}
			if simulate[i] {
				kept[i] = true
				budget--
			}
		}
		simulate = kept
		count = maxSim
	}
	counters.fullSim.Add(uint64(count))
	counters.screenedOut.Add(uint64(n - count))
	return simulate
}

// localGradients measures, in value-sorted order, each point's largest
// relative jump to a neighbor — steep regions (cap-throttling knees,
// thermal cliffs) earn full simulation even when the bound is tight.
func localGradients(points []Point) []float64 {
	n := len(points)
	g := make([]float64, n)
	if n < 2 {
		return g
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return points[idx[a]].Value < points[idx[b]].Value })
	rel := func(a, b Point) float64 {
		den := math.Max(math.Abs(a.MedianMs), math.Abs(b.MedianMs))
		if den == 0 {
			return 0
		}
		return math.Abs(a.MedianMs-b.MedianMs) / den
	}
	for k, i := range idx {
		if k > 0 {
			g[i] = math.Max(g[i], rel(points[i], points[idx[k-1]]))
		}
		if k < n-1 {
			g[i] = math.Max(g[i], rel(points[i], points[idx[k+1]]))
		}
	}
	return g
}

// Calibrator memoizes calibrated models in-process. Keys are the
// normalized request context plus the anchor values — a pure function
// of each request, never of run history.
type Calibrator struct {
	mu     sync.Mutex
	models map[string]*Model
}

// DefaultCalibrator is the process-wide model store used by core.
var DefaultCalibrator = &Calibrator{}

// calibrationCacheCap bounds the model map; models are tiny, and a
// dropped entry just recalibrates (deterministically) on next use.
const calibrationCacheCap = 512

// Model returns the calibrated model for req over the given sweep
// values, fitting one from fresh anchor runs on first use. The anchor
// values are chosen from the request's own value list (see
// AnchorValues), so the result is independent of calibration history.
func (c *Calibrator) Model(ctx context.Context, req Request, values []float64, run AnchorFunc) (*Model, error) {
	av := AnchorValues(values)
	if len(av) == 0 {
		return nil, fmt.Errorf("estimate: no values to calibrate against")
	}
	key := req.key(av)
	c.mu.Lock()
	m := c.models[key]
	c.mu.Unlock()
	if m != nil {
		return m, nil
	}
	anchors, err := run(ctx, av)
	if err != nil {
		return nil, err
	}
	if len(anchors) != len(av) {
		return nil, fmt.Errorf("estimate: anchor runner returned %d anchors for %d values", len(anchors), len(av))
	}
	m, err = fit(req, anchors)
	if err != nil {
		return nil, err
	}
	counters.calibrations.Add(1)
	maxResidual.update(m.residual)
	c.mu.Lock()
	if c.models == nil {
		c.models = make(map[string]*Model)
	}
	if len(c.models) >= calibrationCacheCap {
		for k := range c.models {
			delete(c.models, k)
			break
		}
	}
	c.models[key] = m
	c.mu.Unlock()
	return m, nil
}

func (r Request) key(anchorValues []float64) string {
	return fmt.Sprintf("%s|%s|it%d|seed%d|frac%g|runs%d|cap%g|amb%g|%s|%s|%v",
		r.Cluster.Name, r.Workload.Name, r.Workload.Iterations,
		r.Seed, r.Fraction, r.Runs, r.BaseCapW, r.BaseAmbientC,
		r.Axis, r.Extra, anchorValues)
}

// anchorCount is how many full-simulation anchor runs each calibration
// performs: the extremes plus the midpoint.
const anchorCount = 3

// AnchorValues picks the calibration anchors for a value list: the
// extremes plus evenly spaced interior points in sorted order,
// deduplicated — a pure function of the value set.
func AnchorValues(values []float64) []float64 {
	if len(values) == 0 {
		return nil
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	uniq := s[:1]
	for _, v := range s[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= anchorCount {
		return append([]float64(nil), uniq...)
	}
	out := make([]float64, 0, anchorCount)
	for i := 0; i < anchorCount; i++ {
		out = append(out, uniq[i*(len(uniq)-1)/(anchorCount-1)])
	}
	return out
}
