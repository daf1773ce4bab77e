package estimate

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gpuvar/internal/cluster"
	"gpuvar/internal/workload"
)

func TestAnchorValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want []float64
	}{
		{nil, nil},
		{[]float64{200}, []float64{200}},
		{[]float64{300, 100}, []float64{100, 300}},
		{[]float64{300, 100, 200}, []float64{100, 200, 300}},
		// Wide lists pick extremes + midpoint of the SORTED DEDUPED set.
		{[]float64{100, 150, 200, 250, 300}, []float64{100, 200, 300}},
		{[]float64{300, 250, 200, 150, 100}, []float64{100, 200, 300}},
		{[]float64{100, 100, 100, 300}, []float64{100, 300}},
	}
	for _, c := range cases {
		got := AnchorValues(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("AnchorValues(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestNominalPhysics sanity-checks the closed form against physical
// expectations: a tighter power cap slows the nominal device, and a
// hotter facility never speeds it up.
func TestNominalPhysics(t *testing.T) {
	spec, _ := cluster.ByName("CloudLab")
	wl, err := workload.ByName("sgemm", spec.SKU())
	if err != nil {
		t.Fatal(err)
	}
	capped := Nominal(spec, wl, 120, 0)
	open := Nominal(spec, wl, 0, 0) // 0 = TDP
	if !(capped.PerfMs > open.PerfMs) {
		t.Fatalf("120W cap (%v ms) should be slower than TDP (%v ms)", capped.PerfMs, open.PerfMs)
	}
	if !(capped.PowerW <= 120+1e-9) {
		t.Fatalf("capped nominal power %vW exceeds the 120W cap", capped.PowerW)
	}
	hot := Nominal(spec, wl, 0, 15)
	if hot.PerfMs < open.PerfMs {
		t.Fatalf("a +15°C facility (%v ms) should not beat baseline (%v ms)", hot.PerfMs, open.PerfMs)
	}
	if hot.TempC <= open.TempC {
		t.Fatalf("a +15°C facility should raise die temperature (%v vs %v)", hot.TempC, open.TempC)
	}
}

func TestScreen(t *testing.T) {
	mkPoints := func(medians []float64, bound float64) []Point {
		pts := make([]Point, len(medians))
		for i, m := range medians {
			pts[i] = Point{Value: float64(i), MedianMs: m, Bound: bound}
		}
		return pts
	}

	// Flat curve, tight bound, generous threshold: only anchors simulate.
	flat := mkPoints([]float64{100, 100, 100, 100, 100}, 0.01)
	got := Screen(flat, []float64{0, 4}, 0.05, 32)
	if !reflect.DeepEqual(got, []bool{true, false, false, false, true}) {
		t.Fatalf("flat screen = %v", got)
	}

	// A cliff between points 2 and 3 exceeds the threshold from both
	// sides; the anchors ride along.
	cliff := mkPoints([]float64{100, 100, 100, 200, 200}, 0.01)
	got = Screen(cliff, []float64{0, 4}, 0.05, 32)
	if !reflect.DeepEqual(got, []bool{true, false, true, true, true}) {
		t.Fatalf("cliff screen = %v", got)
	}

	// Bound over threshold: everything wants simulation; the clamp keeps
	// maxSim with anchors guaranteed, deterministically.
	wide := mkPoints([]float64{100, 110, 120, 130, 140, 150}, 0.5)
	got = Screen(wide, []float64{0, 5}, 0.05, 3)
	count := 0
	for _, s := range got {
		if s {
			count++
		}
	}
	if count != 3 || !got[0] || !got[5] {
		t.Fatalf("clamped screen = %v (want 3 simulated incl. both anchors)", got)
	}
	again := Screen(wide, []float64{0, 5}, 0.05, 3)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("clamped screen not deterministic: %v vs %v", got, again)
	}
}

// TestCalibratorMemoizesByRequest pins the cache key contract: the same
// request reuses the model (no second anchor run); a different axis
// value list with the same anchors also reuses it; a different context
// refits.
func TestCalibratorMemoizesByRequest(t *testing.T) {
	spec, _ := cluster.ByName("CloudLab")
	wl, err := workload.ByName("sgemm", spec.SKU())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Cluster: spec, Workload: wl, Seed: 1, Fraction: 1, Runs: 1, Axis: AxisPowerCap}
	runs := 0
	run := func(ctx context.Context, values []float64) ([]Anchor, error) {
		runs++
		anchors := make([]Anchor, len(values))
		for i, v := range values {
			anchors[i] = Anchor{Value: v, MedianMs: 1e5 / v, PerfVar: 0.04, GPUs: 12}
		}
		return anchors, nil
	}
	c := &Calibrator{}
	ctx := context.Background()
	if _, err := c.Model(ctx, req, []float64{100, 200, 300}, run); err != nil {
		t.Fatal(err)
	}
	// Same anchors (extremes + midpoint) from a denser list: cache hit.
	if _, err := c.Model(ctx, req, []float64{100, 150, 200, 250, 300}, run); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("anchor runner ran %d times, want 1 (memoized)", runs)
	}
	req2 := req
	req2.Seed = 2
	if _, err := c.Model(ctx, req2, []float64{100, 200, 300}, run); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("anchor runner ran %d times after a seed change, want 2", runs)
	}
}

func TestModelBoundReflectsAnchorSpread(t *testing.T) {
	spec, _ := cluster.ByName("CloudLab")
	wl, err := workload.ByName("sgemm", spec.SKU())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Cluster: spec, Workload: wl, Seed: 1, Fraction: 1, Runs: 1, Axis: AxisSeed}
	mk := func(perturb float64) *Model {
		nom := req.nominalPerf(0)
		m, err := fit(req, []Anchor{
			{Value: 1, MedianMs: nom * 1.00, PerfVar: 0.04},
			{Value: 2, MedianMs: nom * (1.00 + perturb), PerfVar: 0.04},
			{Value: 3, MedianMs: nom * (1.00 - perturb), PerfVar: 0.04},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tight, loose := mk(0.01), mk(0.20)
	if !(loose.bound() > tight.bound()) {
		t.Fatalf("bound should widen with anchor spread: tight %v, loose %v", tight.bound(), loose.bound())
	}
	if tight.bound() < boundFloor {
		t.Fatalf("bound %v below floor %v", tight.bound(), boundFloor)
	}
	if math.IsNaN(loose.Residual()) || loose.Residual() <= 0 {
		t.Fatalf("loose fit should report a positive residual, got %v", loose.Residual())
	}
}

func TestStatsCounters(t *testing.T) {
	before := Snapshot()
	maxResidual.update(before.MaxResidual + 0.125)
	after := Snapshot()
	if after.MaxResidual != before.MaxResidual+0.125 {
		t.Fatalf("MaxResidual = %v, want %v", after.MaxResidual, before.MaxResidual+0.125)
	}
	maxResidual.update(after.MaxResidual - 1) // lower values never regress the max
	if got := Snapshot().MaxResidual; got != after.MaxResidual {
		t.Fatalf("MaxResidual regressed to %v", got)
	}
}
