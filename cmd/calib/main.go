// Command calib prints a paper-vs-measured calibration summary: the
// measured variability, correlation, sweep and impact numbers to set
// beside the paper's. It is a maintenance tool, not a deliverable.
package main

import (
	"fmt"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/gpu"
	"gpuvar/internal/stats"
	"gpuvar/internal/workload"
)

func main() {
	seed := uint64(2022)
	iters := 30
	for _, spec := range []cluster.Spec{cluster.Longhorn(), cluster.Summit(), cluster.Corona(), cluster.Vortex(), cluster.Frontera()} {
		wl := workload.SGEMMForCluster(spec.SKU())
		wl.Iterations = iters
		exp := core.Experiment{Cluster: spec, Workload: wl, Seed: seed}
		if spec.Name == "Summit" {
			exp.Fraction = 0.25
		}
		r, _ := core.Run(exp)
		s := r.Summarize()
		fb, _ := r.Box(core.Freq)
		tb, _ := r.Box(core.Temp)
		pb, _ := r.Box(core.Power)
		fmt.Printf("%s|perf=%.1f%%|freq=%.1f%% (%.0f-%.0f)|pow=%.1f%% (%.0f-%.0f)|tempRange=%.0fC (med %.0f)|out=%d|pf=%+.2f|pt=%+.2f|pp=%+.2f|powtemp=%+.2f|med=%.0fms\n",
			s.Cluster, s.PerfVar*100, s.FreqVar*100, fb.LowerWhisker, fb.UpperWhisker,
			s.PowerVar*100, pb.LowerWhisker, pb.UpperWhisker, tb.Range(), tb.Q2, s.NOutliers,
			s.Corr.PerfFreq, s.Corr.PerfTemp, s.Corr.PerfPower, s.Corr.PowerTemp, s.MedianMs)
	}
	// per-GPU variation
	for _, spec := range []cluster.Spec{cluster.Longhorn(), cluster.Summit(), cluster.Corona()} {
		wl := workload.SGEMMForCluster(spec.SKU())
		wl.Iterations = 12
		exp := core.Experiment{Cluster: spec, Workload: wl, Seed: seed, Runs: 4}
		if spec.Name == "Summit" {
			exp.Fraction = 0.06
		}
		r, _ := core.Run(exp)
		fmt.Printf("perGPU|%s|median=%.2f%%\n", spec.Name, stats.Median(r.PerGPUVariation())*100)
	}
	// apps
	sku := gpu.V100SXM2()
	mk := func(w workload.Workload, it int) workload.Workload { w.Iterations = it; w.WarmupIters = 1; return w }
	rows, _ := core.ApplicationStudy(core.Experiment{Cluster: cluster.Longhorn(), Seed: seed},
		[]workload.Workload{
			mk(workload.ResNet50(4, 64, sku), 60),
			mk(workload.ResNet50(1, 16, sku), 60),
			mk(workload.BERT(4, 64, sku), 60),
			mk(workload.LAMMPS(8, 16, 16, sku), 20),
			mk(workload.PageRank(643994, 6250000, sku), 30),
		})
	for _, row := range rows {
		fmt.Printf("app|%s|perf=%.1f%%|pow=%.1f%%|freq=%.1f%%|med=%.0fms|pf=%+.2f|class=%s\n",
			row.Workload, row.PerfVar*100, row.PowerVar*100, row.FreqVar*100, row.MedianMs, row.PerfFreq, row.Class)
	}
	// power sweep
	wl := workload.SGEMMForCluster(sku)
	wl.Iterations = 20
	points, _ := core.VariantSweep(core.Experiment{Cluster: cluster.CloudLab(), Workload: wl, Seed: seed, Runs: 4},
		core.AxisPowerCap, []float64{300, 250, 200, 150, 100})
	for _, p := range points {
		fmt.Printf("sweep|%.0fW|var=%.1f%%|med=%.0fms\n", p.Value, p.PerfVar*100, p.MedianMs)
	}
	// projection
	lh, _ := core.Run(core.Experiment{Cluster: cluster.Longhorn(), Workload: wl, Seed: seed})
	fmt.Printf("projection|longhorn=%.1f%%|atSummitScale=%.1f%%\n",
		lh.Variation(core.Perf)*100, lh.ProjectedVariationAt(27648)*100)
	// impact
	imp := lh.Impact(0.06, 4)
	fmt.Printf("impact|slowFrac=%.0f%%|p1=%.0f%%|p4=%.0f%%\n", imp.SlowFraction*100, imp.PSingleGPU*100, imp.PMultiGPU*100)
}
