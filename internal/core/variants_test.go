package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gpuvar/internal/cluster"
	"gpuvar/internal/workload"
)

// variantExp is a small CloudLab experiment the sweep tests share.
func variantExp() Experiment {
	wl := workload.SGEMMForCluster(cluster.CloudLab().SKU())
	wl.Iterations = 3
	return Experiment{Cluster: cluster.CloudLab(), Workload: wl, Seed: 7, Runs: 2}
}

// TestVariantSweepPowercapGolden pins the generalization contract: the
// powercap axis is bit-identical to a serial loop of RunCtx calls with
// AdminCapW set — the pre-generalization implementation.
func TestVariantSweepPowercapGolden(t *testing.T) {
	exp := variantExp()
	caps := []float64{0, 250, 150}

	pts, err := VariantSweep(exp, AxisPowerCap, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(caps) {
		t.Fatalf("lengths: variant %d, want %d", len(pts), len(caps))
	}
	for i, capW := range caps {
		// The serial reference: exactly what the old sweep computed.
		e := exp
		e.AdminCapW = capW
		ref, err := RunCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts[i].Result.PerAG, ref.PerAG) {
			t.Fatalf("cap %v: variant sweep diverged from the serial reference", capW)
		}
	}
}

// TestVariantSweepAxesApply checks each axis actually varies its knob.
func TestVariantSweepAxesApply(t *testing.T) {
	exp := variantExp()

	t.Run("seed", func(t *testing.T) {
		pts, err := VariantSweep(exp, AxisSeed, []float64{7, 8})
		if err != nil {
			t.Fatal(err)
		}
		if pts[0].Result.Exp.Seed != 7 || pts[1].Result.Exp.Seed != 8 {
			t.Fatalf("seeds = %d, %d, want 7, 8", pts[0].Result.Exp.Seed, pts[1].Result.Exp.Seed)
		}
		if reflect.DeepEqual(pts[0].Result.PerAG, pts[1].Result.PerAG) {
			t.Fatal("different fleet seeds produced identical measurements")
		}
	})
	t.Run("fraction", func(t *testing.T) {
		pts, err := VariantSweep(exp, AxisFraction, []float64{1, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		full, half := len(pts[0].Result.PerAG), len(pts[1].Result.PerAG)
		if half >= full {
			t.Fatalf("fraction 0.5 measured %d GPUs, full measured %d: want fewer", half, full)
		}
	})
	t.Run("ambient", func(t *testing.T) {
		pts, err := VariantSweep(exp, AxisAmbient, []float64{0, 10})
		if err != nil {
			t.Fatal(err)
		}
		base, hot := pts[0].Result.PerAG[0].TempC, pts[1].Result.PerAG[0].TempC
		if hot <= base {
			t.Fatalf("ambient +10°C did not raise temperatures (%v vs %v)", hot, base)
		}
	})
	t.Run("powercap", func(t *testing.T) {
		pts, err := VariantSweep(exp, AxisPowerCap, []float64{0, 120})
		if err != nil {
			t.Fatal(err)
		}
		uncapped, capped := pts[0].Result.PerAG[0].PowerW, pts[1].Result.PerAG[0].PowerW
		if capped > uncapped {
			t.Fatalf("120 W cap raised power (%v vs %v)", capped, uncapped)
		}
	})
}

// TestVariantAxisValidate pins the per-axis value rules.
func TestVariantAxisValidate(t *testing.T) {
	bad := []struct {
		axis VariantAxis
		v    float64
	}{
		{AxisPowerCap, -1},
		{AxisSeed, 1.5},
		{AxisSeed, -2},
		{AxisSeed, 1 << 54},
		{AxisAmbient, 26},
		{AxisAmbient, -26},
		{AxisFraction, 0},
		{AxisFraction, 1.1},
		{AxisFraction, -0.5},
	}
	for _, tt := range bad {
		if err := tt.axis.Validate(tt.v); err == nil {
			t.Errorf("Validate(%s, %v) accepted a bad value", tt.axis, tt.v)
		}
	}
	good := []struct {
		axis VariantAxis
		v    float64
	}{
		{AxisPowerCap, 0}, {AxisPowerCap, 300},
		{AxisSeed, 0}, {AxisSeed, 1 << 53},
		{AxisAmbient, -25}, {AxisAmbient, 25},
		{AxisFraction, 0.01}, {AxisFraction, 1},
	}
	for _, tt := range good {
		if err := tt.axis.Validate(tt.v); err != nil {
			t.Errorf("Validate(%s, %v) = %v, want ok", tt.axis, tt.v, err)
		}
	}
	if _, err := VariantSweep(variantExp(), AxisFraction, []float64{2}); err == nil {
		t.Error("VariantSweep accepted an invalid value")
	}
}

// TestParseVariantAxis resolves every known axis and rejects the rest.
func TestParseVariantAxis(t *testing.T) {
	for _, a := range VariantAxes() {
		got, err := ParseVariantAxis(string(a))
		if err != nil || got != a {
			t.Errorf("ParseVariantAxis(%q) = (%q, %v)", a, got, err)
		}
	}
	if _, err := ParseVariantAxis("voltage"); err == nil || !strings.Contains(err.Error(), "unknown sweep axis") {
		t.Errorf("ParseVariantAxis(voltage) = %v, want an unknown-axis error", err)
	}
}

// TestVariantSweepCancellation: a dead context refuses the sweep.
func TestVariantSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := VariantSweepCtx(ctx, variantExp(), AxisPowerCap, []float64{250, 200})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
