package core

import (
	"math"
	"strings"
	"testing"

	"gpuvar/internal/cluster"
	"gpuvar/internal/gpu"
	"gpuvar/internal/workload"
)

const testSeed = 2022

// sgemmExp builds a quick SGEMM experiment on a cluster (reduced
// repetitions keep the suite fast; the equilibrium measurements do not
// depend on the repetition count).
func sgemmExp(spec cluster.Spec, iters int) Experiment {
	wl := workload.SGEMMForCluster(spec.SKU())
	wl.Iterations = iters
	return Experiment{Cluster: spec, Workload: wl, Seed: testSeed}
}

func mustRun(t *testing.T, exp Experiment) *Result {
	t.Helper()
	r, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunCoversFleet(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 10))
	if len(r.PerAG) != 416 {
		t.Fatalf("measured %d GPUs, want all 416", len(r.PerAG))
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(t, sgemmExp(cluster.Vortex(), 10))
	b := mustRun(t, sgemmExp(cluster.Vortex(), 10))
	for i := range a.PerAG {
		if a.PerAG[i].PerfMs != b.PerAG[i].PerfMs || a.PerAG[i].PowerW != b.PerAG[i].PowerW {
			t.Fatalf("GPU %d differs between identical runs", i)
		}
	}
}

func TestFractionSubsampling(t *testing.T) {
	exp := sgemmExp(cluster.Longhorn(), 10)
	exp.Fraction = 0.25
	r := mustRun(t, exp)
	if n := len(r.PerAG); n != 104 {
		t.Fatalf("fraction 0.25 measured %d GPUs, want 104", n)
	}
}

func TestVortexObservedSubset(t *testing.T) {
	// Paper §IV-E: 184 of Vortex's 216 GPUs observed.
	r := mustRun(t, sgemmExp(cluster.Vortex(), 10))
	if len(r.PerAG) != 184 {
		t.Fatalf("Vortex measured %d GPUs, want 184", len(r.PerAG))
	}
}

func TestSGEMMVariationBands(t *testing.T) {
	// Paper headline numbers: Longhorn 9%, Vortex 9%, Summit 8%,
	// Corona 7%, Frontera 5% performance variation. We assert generous
	// shape bands around each (the substrate is a simulator, not the
	// authors' testbed; cmd/calib prints the exact measured values).
	cases := []struct {
		spec     cluster.Spec
		fraction float64
		lo, hi   float64
	}{
		{cluster.Longhorn(), 1, 0.05, 0.15},
		{cluster.Vortex(), 1, 0.05, 0.13},
		{cluster.Summit(), 0.06, 0.05, 0.13},
		{cluster.Corona(), 1, 0.05, 0.26},
		{cluster.Frontera(), 1, 0.04, 0.14},
	}
	for _, c := range cases {
		exp := sgemmExp(c.spec, 10)
		exp.Fraction = c.fraction
		r := mustRun(t, exp)
		v := r.Variation(Perf)
		if v < c.lo || v > c.hi {
			t.Errorf("%s SGEMM perf variation %.1f%% outside [%v, %v]",
				c.spec.Name, v*100, c.lo*100, c.hi*100)
		}
	}
}

func TestLonghornCorrelationSigns(t *testing.T) {
	// Paper Fig. 3: ρ(perf,temp)=0.46, ρ(perf,power)=−0.35,
	// ρ(perf,freq)=−0.97, ρ(power,temp)=−0.1.
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 10))
	c := r.Correlate()
	if c.PerfFreq > -0.9 {
		t.Errorf("Longhorn ρ(perf,freq) = %.2f, want strongly negative", c.PerfFreq)
	}
	if c.PerfTemp < 0.2 || c.PerfTemp > 0.75 {
		t.Errorf("Longhorn ρ(perf,temp) = %.2f, want weakly positive", c.PerfTemp)
	}
	if math.Abs(c.PowerTemp) > 0.4 {
		t.Errorf("Longhorn ρ(power,temp) = %.2f, want near zero", c.PowerTemp)
	}
}

func TestWaterCoolingDecorrelatesTemp(t *testing.T) {
	// Paper Fig. 10: on water-cooled Vortex, ρ(perf,temp) ≈ 0.04 while
	// ρ(perf,freq) ≈ −0.98.
	r := mustRun(t, sgemmExp(cluster.Vortex(), 10))
	c := r.Correlate()
	if math.Abs(c.PerfTemp) > 0.25 {
		t.Errorf("Vortex ρ(perf,temp) = %.2f, want ~0", c.PerfTemp)
	}
	if c.PerfFreq > -0.9 {
		t.Errorf("Vortex ρ(perf,freq) = %.2f, want ~-0.98", c.PerfFreq)
	}
}

func TestCoolingTemperatureOrdering(t *testing.T) {
	// Takeaway 3 + §IV-F: air-cooled clusters have much wider temperature
	// ranges than water; performance and power variation do NOT improve
	// with better cooling.
	long := mustRun(t, sgemmExp(cluster.Longhorn(), 10)) // air
	vort := mustRun(t, sgemmExp(cluster.Vortex(), 10))   // water

	lt, _ := long.Box(Temp)
	vt, _ := vort.Box(Temp)
	if lt.Range() < 2*vt.Range() {
		t.Errorf("air temp range %.1f should dwarf water %.1f", lt.Range(), vt.Range())
	}
	if lt.Range() < 30 {
		t.Errorf("Longhorn temp range %.1f °C, paper reports ≥ 30", lt.Range())
	}
	// Perf variation must NOT shrink with water cooling (both ~8-10%).
	lp, vp := long.Variation(Perf), vort.Variation(Perf)
	if vp < lp/2 {
		t.Errorf("water cooling should not halve perf variation: %v vs %v", vp, lp)
	}
}

func TestSummitPowerOutliersConcentrated(t *testing.T) {
	// Takeaway 2: Summit has sub-290 W power outliers concentrated in a
	// few rows (A, D, F, H).
	exp := sgemmExp(cluster.Summit(), 8)
	exp.Fraction = 0.12
	r := mustRun(t, exp)
	lowPower := map[string]int{}
	for _, m := range r.PerAG {
		if m.PowerW < 290 {
			lowPower[m.Loc.Row]++
		}
	}
	affected := lowPower["A"] + lowPower["D"] + lowPower["F"] + lowPower["H"]
	other := lowPower["B"] + lowPower["C"] + lowPower["E"] + lowPower["G"]
	if affected == 0 {
		t.Fatal("no sub-290 W outliers found on Summit")
	}
	if other > affected/3 {
		t.Errorf("outliers not concentrated: affected rows %d vs others %d", affected, other)
	}
}

func TestBrakedChipsHaveNoTempAnomaly(t *testing.T) {
	// Appendix B: power-braked Summit nodes show no temperature outliers.
	exp := sgemmExp(cluster.Summit(), 8)
	exp.Fraction = 0.12
	r := mustRun(t, exp)
	tb, _ := r.Box(Temp)
	for _, m := range r.PerAG {
		if m.Defect == gpu.DefectPowerBrake && m.TempC > tb.UpperWhisker {
			t.Errorf("braked chip %s is also a temperature outlier (%.1f °C)", m.GPUID, m.TempC)
		}
	}
}

func TestApplicationOrdering(t *testing.T) {
	// §V: multi-GPU ResNet has the highest perf variation, then
	// single-GPU ResNet, then BERT ≈ SGEMM, then the memory-bound pair
	// at ~1-3%.
	sku := gpu.V100SXM2()
	shorten := func(w workload.Workload, it int) workload.Workload {
		w.Iterations = it
		w.WarmupIters = 1
		return w
	}
	rows, err := ApplicationStudy(Experiment{Cluster: cluster.Longhorn(), Seed: testSeed},
		[]workload.Workload{
			shorten(workload.SGEMMForCluster(sku), 10),
			shorten(workload.ResNet50(4, 64, sku), 25),
			shorten(workload.ResNet50(1, 16, sku), 25),
			shorten(workload.BERT(4, 64, sku), 25),
			shorten(workload.LAMMPS(8, 16, 16, sku), 12),
			shorten(workload.PageRank(643994, 6250000, sku), 15),
		})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AppStudyRow{}
	for _, row := range rows {
		byName[row.Workload] = row
	}
	multi := byName["ResNet50-4gpu-b64"]
	single := byName["ResNet50-1gpu-b16"]
	lammps := byName["LAMMPS-8-16-16"]
	pagerank := byName["PageRank-643994v"]
	sgemm := byName["SGEMM-25536"]

	if !(multi.PerfVar > single.PerfVar && single.PerfVar > sgemm.PerfVar) {
		t.Errorf("perf variation ordering wrong: multi %v single %v sgemm %v",
			multi.PerfVar, single.PerfVar, sgemm.PerfVar)
	}
	if lammps.PerfVar > 0.04 || pagerank.PerfVar > 0.05 {
		t.Errorf("memory-bound workloads should vary ~1-3%%: %v %v",
			lammps.PerfVar, pagerank.PerfVar)
	}
	// §V-A: ResNet frequency-performance correlation vanishes.
	if math.Abs(multi.PerfFreq) > 0.3 {
		t.Errorf("ResNet ρ(perf,freq) = %v, want ~0", multi.PerfFreq)
	}
	// ML power variability dwarfs the compute benchmark's.
	if multi.PowerVar < 5*sgemm.PowerVar {
		t.Errorf("ResNet power var %v should dwarf SGEMM's %v", multi.PowerVar, sgemm.PowerVar)
	}
	// Classification matches §VII's scheduler discussion.
	if multi.Class != workload.Balanced || lammps.Class != workload.MemoryBound {
		t.Error("workload classes wrong")
	}
}

func TestPerGPURepeatability(t *testing.T) {
	// Fig. 8: per-GPU repeat variation medians 0.44% (Longhorn), 0.12%
	// (Summit), 6.06% (Corona) — V100 clusters are highly repeatable,
	// the coarse-state MI60s are not.
	runExp := func(spec cluster.Spec, frac float64) []float64 {
		exp := sgemmExp(spec, 8)
		exp.Runs = 3
		exp.Fraction = frac
		return mustRun(t, exp).PerGPUVariation()
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		s := append([]float64(nil), xs...)
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	longhorn := med(runExp(cluster.Longhorn(), 1))
	summit := med(runExp(cluster.Summit(), 0.04))
	corona := med(runExp(cluster.Corona(), 1))

	if longhorn > 0.02 {
		t.Errorf("Longhorn per-GPU variation %v, want sub-2%%", longhorn)
	}
	if summit > longhorn {
		t.Errorf("Summit (water) %v should be at most Longhorn (air) %v", summit, longhorn)
	}
	if corona < 0.02 {
		t.Errorf("Corona per-GPU variation %v, want several %%", corona)
	}
	if corona < 3*longhorn {
		t.Errorf("Corona %v should dwarf Longhorn %v", corona, longhorn)
	}
}

func TestWeekStudyConsistent(t *testing.T) {
	// §VI-A: variability holds across days of the week.
	exp := sgemmExp(cluster.Vortex(), 6)
	days, err := WeekStudy(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 7 {
		t.Fatalf("week study returned %d days", len(days))
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, d := range days {
		v := d.Variation(Perf)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 2.2*lo {
		t.Errorf("day-to-day variation unstable: %v..%v", lo, hi)
	}
}

func TestPowerLimitSweep(t *testing.T) {
	// Fig. 22: durations grow and variability rises as the cap drops
	// from 300 W to 150 W (9% → 18% in the paper).
	exp := sgemmExp(cluster.CloudLab(), 10)
	exp.Runs = 2
	points, err := VariantSweep(exp, AxisPowerCap, []float64{300, 250, 200, 150})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].MedianMs <= points[i-1].MedianMs {
			t.Errorf("median at %vW (%v ms) should exceed %vW (%v ms)",
				points[i].Value, points[i].MedianMs, points[i-1].Value, points[i-1].MedianMs)
		}
	}
	if points[3].PerfVar <= points[0].PerfVar {
		t.Errorf("150 W variability %v should exceed 300 W %v",
			points[3].PerfVar, points[0].PerfVar)
	}
}

func TestOutlierReportFindsPlantedDefects(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Frontera(), 10))
	sus := r.OutlierReport()
	found := 0
	for _, s := range sus {
		if s.TruthDefect == "clock-stuck" {
			found++
			if !strings.Contains(s.Diagnosis, "clock") && !strings.Contains(s.Diagnosis, "power") {
				t.Errorf("stuck clock misdiagnosed: %q", s.Diagnosis)
			}
			if !strings.HasPrefix(s.NodeID, "c197") {
				t.Errorf("stuck clock flagged outside c197: %s", s.NodeID)
			}
		}
	}
	if found != 2 {
		t.Errorf("flagged %d of 2 planted Frontera defects", found)
	}
}

func TestOutlierReportCoronaHotNode(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Corona(), 10))
	sus := r.OutlierReport()
	hot := 0
	for _, s := range sus {
		if s.TruthDefect == "cooling" {
			hot++
		}
	}
	if hot == 0 {
		t.Error("Corona cooling-defect node not flagged")
	}
}

func TestFormatSuspects(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Frontera(), 8))
	out := FormatSuspects(r.OutlierReport())
	if !strings.Contains(out, "DIAGNOSIS") {
		t.Fatalf("report missing header: %q", out)
	}
	if FormatSuspects(nil) != "no outliers flagged\n" {
		t.Fatal("empty report wrong")
	}
}

func TestUserImpact(t *testing.T) {
	// §VII: on Longhorn ~18% of GPUs are 6%+ slower than the fastest;
	// 4-GPU allocations hit one 40-55% of the time. Assert the
	// qualitative structure: multi-GPU odds well above single-GPU odds.
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 10))
	imp := r.Impact(0.06, 4)
	if imp.SlowFraction <= 0.02 || imp.SlowFraction >= 0.9 {
		t.Errorf("slow fraction %v implausible", imp.SlowFraction)
	}
	if imp.PMultiGPU <= imp.PSingleGPU {
		t.Error("4-GPU job should be more likely to draw a slow GPU")
	}
	want := 1 - math.Pow(1-imp.SlowFraction, 4)
	if math.Abs(imp.PMultiGPU-want) > 1e-9 {
		t.Errorf("multi-GPU odds %v, want %v", imp.PMultiGPU, want)
	}
}

func TestSampleSizeMethodology(t *testing.T) {
	// §III: measuring nearly every GPU gives a large margin over the
	// recommended sample size (the paper reports 2.9×).
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 10))
	chk := r.CheckSampleSize(0.005, 0.95)
	if chk.Recommended <= 0 {
		t.Fatal("no recommendation computed")
	}
	if chk.MarginX < 1 {
		t.Errorf("full coverage should exceed the recommendation: margin %vx", chk.MarginX)
	}
}

func TestProjectedVariationAtScale(t *testing.T) {
	// §IV-D: Longhorn's spread projected to Summit size grows slightly
	// (9% → 9.4% in the paper).
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 10))
	own := r.Variation(Perf)
	projected := r.ProjectedVariationAt(27648)
	if projected <= own*0.9 {
		t.Errorf("projection %v should not shrink much below measured %v", projected, own)
	}
	if projected > own*1.5 {
		t.Errorf("projection %v implausibly far above measured %v", projected, own)
	}
}

func TestAblationAttributesVariation(t *testing.T) {
	exp := sgemmExp(cluster.Vortex(), 8)
	rows, err := Ablation(exp)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range rows {
		byName[row.Name] = row.PerfVar
	}
	full := byName["full model"]
	noVF := byName["no V/F-curve spread"]
	none := byName["no manufacturing spread at all"]
	if noVF >= full {
		t.Errorf("removing V/F spread should reduce variation: %v vs %v", noVF, full)
	}
	if none >= full/2 {
		t.Errorf("removing all spread should collapse variation: %v vs %v", none, full)
	}
}

func TestBoxByGroupCoversCabinets(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 8))
	groups := r.BoxByGroup(Perf)
	if len(groups) != 8 {
		t.Fatalf("got %d cabinet groups, want 8", len(groups))
	}
	labels := r.GroupLabels()
	if len(labels) != 8 || labels[0] != "c002" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestFilter(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Longhorn(), 8))
	c002 := r.Filter(func(m Measurement) bool { return m.Loc.Cabinet == "c002" })
	if len(c002.PerAG) != 52 {
		t.Fatalf("c002 has %d GPUs, want 52", len(c002.PerAG))
	}
}

func TestNormalizedPerfMedianOne(t *testing.T) {
	r := mustRun(t, sgemmExp(cluster.Vortex(), 8))
	norm := r.NormalizedPerf()
	med := Median(norm)
	if math.Abs(med-1) > 1e-9 {
		t.Fatalf("normalized median = %v", med)
	}
}

// Median helper for tests.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func TestRejectsOversizedWorkload(t *testing.T) {
	exp := Experiment{
		Cluster:  cluster.Longhorn(), // 4 GPUs per node
		Workload: workload.ResNet50(4, 64, gpu.V100SXM2()),
		Seed:     1,
	}
	exp.Workload.GPUsPerJob = 8
	if _, err := Run(exp); err == nil {
		t.Fatal("8-GPU job on 4-GPU nodes should fail")
	}
}

func TestTransientPathOnSmallCluster(t *testing.T) {
	// The tick-level path must work end to end through the harness.
	exp := sgemmExp(cluster.CloudLab(), 3)
	exp.Transient = true
	r := mustRun(t, exp)
	if len(r.PerAG) != 12 {
		t.Fatalf("CloudLab measured %d GPUs", len(r.PerAG))
	}
	for _, m := range r.PerAG {
		if m.PerfMs < 2000 || m.PerfMs > 3500 {
			t.Errorf("transient perf %v ms implausible for %s", m.PerfMs, m.GPUID)
		}
	}
}

func TestSteadyTransientAgreeAtHarnessLevel(t *testing.T) {
	steady := mustRun(t, sgemmExp(cluster.CloudLab(), 4))
	exp := sgemmExp(cluster.CloudLab(), 4)
	exp.Transient = true
	transient := mustRun(t, exp)
	for i := range steady.PerAG {
		s, tr := steady.PerAG[i], transient.PerAG[i]
		if rel := math.Abs(s.PerfMs-tr.PerfMs) / tr.PerfMs; rel > 0.04 {
			t.Errorf("%s: steady %v vs transient %v (%.1f%%)", s.GPUID, s.PerfMs, tr.PerfMs, rel*100)
		}
	}
}

func BenchmarkRunLonghornSGEMM(b *testing.B) {
	exp := sgemmExp(cluster.Longhorn(), 10)
	for i := 0; i < b.N; i++ {
		if _, err := Run(exp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSummitFullSGEMM(b *testing.B) {
	exp := sgemmExp(cluster.Summit(), 10)
	for i := 0; i < b.N; i++ {
		if _, err := Run(exp); err != nil {
			b.Fatal(err)
		}
	}
}
