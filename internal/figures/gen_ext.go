package figures

import (
	"context"
	"fmt"
	"io"

	"gpuvar/internal/campaign"
	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/globalpm"
	"gpuvar/internal/gpu"
	"gpuvar/internal/report"
	"gpuvar/internal/rng"
	"gpuvar/internal/sched"
	"gpuvar/internal/thermal"
	"gpuvar/internal/workload"
)

// Extension studies beyond the paper's evaluation:
// mechanism ablation, the spatial/temporal interference study the paper
// defers to future work, and the global power management proposal from
// its conclusions.

func extGenerators() []Generator {
	return []Generator{
		{"ext-ablation", "Ext: variability mechanism ablation", genExtAblation},
		{"ext-spatial", "Ext: spatial interference (shared-node neighbors)", genExtSpatial},
		{"ext-temporal", "Ext: temporal carryover (preceding-job heat)", genExtTemporal},
		{"ext-globalpm", "Ext: global vs local power management", genExtGlobalPM},
		{"ext-scheduler", "Ext: variability-aware job placement", genExtScheduler},
		{"ext-campaign", "Ext: early-warning benchmarking campaign", genExtCampaign},
		{"ext-nextgen", "Ext: 7nm-class silicon (A100) vs V100 variability", genExtNextGen},
	}
}

func genExtNextGen(ctx context.Context, s *Session, w io.Writer) error {
	// The same air-cooled cluster and seed populated with V100s versus
	// 7 nm A100s (no planted defects on either side, isolating the
	// silicon generation). The paper closes §VII noting application-aware
	// placement "may change in future as thermal performance degrades
	// below 14nm" — the A100's larger leakage share tightens the
	// temperature→power→clock coupling.
	var t report.Table
	t.Header = []string{"SKU", "Perf var %", "Freq var %", "rho(perf,temp)", "Median W"}
	base := cluster.Longhorn()
	for _, cfg := range []struct {
		name string
		sku  func() *gpu.SKU
	}{
		{"V100-12nm", gpu.V100SXM2},
		{"A100-7nm", gpu.A100SXM4},
	} {
		spec := base.WithSKU(cfg.name, cfg.sku)
		wl := workload.SGEMMForCluster(spec.SKU())
		wl.Iterations = s.Cfg.Iterations
		r, err := s.run(ctx, "nextgen:"+cfg.name, core.Experiment{
			Cluster: spec, Workload: wl, Seed: s.Cfg.Seed,
		})
		if err != nil {
			return err
		}
		sum := r.Summarize()
		pb, _ := r.Box(core.Power)
		t.AddRow(cfg.name, fmt.Sprintf("%.1f", sum.PerfVar*100),
			fmt.Sprintf("%.1f", sum.FreqVar*100),
			fmt.Sprintf("%+.2f", sum.Corr.PerfTemp),
			fmt.Sprintf("%.0f", pb.Q2))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "same fleet, same cooling, same manufacturing spread: the 7nm part's "+
		"larger leakage share strengthens the temperature coupling (paper SVII's below-14nm caution)")
	return err
}

func genExtScheduler(ctx context.Context, s *Session, w io.Writer) error {
	wl := s.sgemmWorkload(cluster.Longhorn())
	outcomes, err := core.SchedulerStudyCtx(ctx, core.Experiment{
		Cluster:  cluster.Longhorn(),
		Workload: wl,
		Seed:     s.Cfg.Seed,
	}, core.SchedStudyConfig{ComputeJobs: 40, GPUsPerJob: 4, JobS: 600, ArrivalGapS: 5},
		[]sched.Policy{sched.Random, sched.FirstFit, sched.BestPerf})
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"Policy", "Mean job s", "Makespan s", "Slow-node hits"}
	for _, o := range outcomes {
		t.AddRow(o.Policy.String(), fmt.Sprintf("%.0f", o.MeanJobS),
			fmt.Sprintf("%.0f", o.MakespanS), o.SlowNodeHits)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "placing compute-bound jobs on benchmarked low-variation nodes avoids "+
		"the slow-GPU lottery (paper SVII 'Application-aware Frameworks')")
	return err
}

func genExtCampaign(ctx context.Context, s *Session, w io.Writer) error {
	inj := campaign.Injection{Day: 4, NodeID: "v003-n01", Kind: gpu.DefectPowerBrake}
	rep, err := campaign.SimulateCtx(ctx, cluster.Vortex(), s.Cfg.Seed, 12,
		campaign.PlanConfig{OverheadFrac: 0.02, BenchSeconds: 600},
		campaign.MonitorConfig{DriftFrac: 0.03}, inj)
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"Quantity", "Value"}
	t.AddRow("fleet coverage period", fmt.Sprintf("%d days", rep.CoveragePeriod))
	t.AddRow("benchmark slots over 12 days", rep.Slots)
	t.AddRow("overhead budget", fmt.Sprintf("%.1f%% of node-time", rep.OverheadFrac*100))
	t.AddRow("degradation injected", fmt.Sprintf("day %d on %s (%s)", inj.Day, inj.NodeID, inj.Kind))
	if rep.DetectionDay >= 0 {
		t.AddRow("detected", fmt.Sprintf("day %d (latency %d days)", rep.DetectionDay, rep.DetectionLatencyDays(inj)))
	} else {
		t.AddRow("detected", "no")
	}
	t.AddRow("false alerts", rep.FalseAlerts)
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "periodic benchmarking detects degradations within one coverage period "+
		"at bounded overhead (paper SI/SVII 'systematic benchmarking... early-warning')")
	return err
}

func genExtAblation(ctx context.Context, s *Session, w io.Writer) error {
	wl := s.sgemmWorkload(cluster.Longhorn())
	rows, err := core.AblationCtx(ctx, core.Experiment{
		Cluster:  cluster.Longhorn(),
		Workload: wl,
		Seed:     s.Cfg.Seed,
	})
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"Mechanism removed", "SGEMM perf variation %"}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.PerfVar*100))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "attribution: the V/F-curve quality spread is the dominant mechanism;\n"+
		"defects set the outliers; bandwidth spread only bounds memory-bound workloads")
	return err
}

func genExtSpatial(ctx context.Context, s *Session, w io.Writer) error {
	var t report.Table
	t.Header = []string{"Cluster", "Busy neighbors", "Median ms", "Median temp C", "Perf var %"}
	for _, spec := range []cluster.Spec{cluster.Longhorn(), cluster.Vortex()} {
		wl := s.sgemmWorkload(spec)
		points, err := core.SpatialStudyCtx(ctx, core.Experiment{
			Cluster:  spec,
			Workload: wl,
			Seed:     s.Cfg.Seed,
			Fraction: 0.5,
		}, 3)
		if err != nil {
			return err
		}
		for _, p := range points {
			t.AddRow(spec.Name, p.BusyNeighbors,
				fmt.Sprintf("%.0f", p.MedianMs),
				fmt.Sprintf("%.1f", p.MedianTempC),
				fmt.Sprintf("%.1f", p.PerfVar*100))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "shared-node neighbors heat air-cooled GPUs measurably; liquid loops isolate them\n"+
		"(the paper's exclusive allocations avoided this; clouds cannot)")
	return err
}

func genExtTemporal(ctx context.Context, s *Session, w io.Writer) error {
	points, err := core.TemporalStudyCtx(ctx, cluster.Longhorn(), s.Cfg.Seed, 6)
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"GPU", "Cold 1st kernel ms", "Hot 1st kernel ms", "Carryover %"}
	for _, p := range points {
		t.AddRow(p.GPUID,
			fmt.Sprintf("%.0f", p.ColdFirstKernelMs),
			fmt.Sprintf("%.0f", p.HotFirstKernelMs),
			fmt.Sprintf("%.1f", p.CarryoverPenalty()*100))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "a preceding job's heat slows the next job's first kernels until the\n"+
		"RC thermal constant (~20 s on air) elapses — the paper's warm-up runs absorb this")
	return err
}

func genExtGlobalPM(ctx context.Context, s *Session, w io.Writer) error {
	// A facility-capped 32-GPU pool (per-GPU share below TDP) under
	// local-only vs coordinated power management.
	parent := rng.New(s.Cfg.Seed).Split("globalpm")
	members := make([]globalpm.Member, 32)
	for i := range members {
		members[i] = globalpm.Member{
			Chip:  gpu.NewChip(gpu.V100SXM2(), fmt.Sprintf("g%02d", i), gpu.DefaultVariation(), parent.SplitIndex("c", i)),
			Therm: thermal.NewNode(thermal.WaterParams(), float64(i)/31, parent.SplitIndex("t", i)),
		}
	}
	act := gpu.Activity{Compute: 1.0, Memory: 0.6}
	const cf = 0.97
	budget := 32.0 * 280

	local := globalpm.LocalOnly(members, budget, act, cf)
	global, err := globalpm.Coordinate(members, budget, act, cf, globalpm.Config{})
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"Policy", "Perf variation %", "Median perf scale", "Total power W"}
	t.AddRow("local-only (today)", fmt.Sprintf("%.1f", local.Variation()*100),
		fmt.Sprintf("%.3f", local.MedianPerf()), fmt.Sprintf("%.0f", local.TotalPowerW()))
	t.AddRow("global coordinator", fmt.Sprintf("%.1f", global.Variation()*100),
		fmt.Sprintf("%.3f", global.MedianPerf()), fmt.Sprintf("%.0f", global.TotalPowerW()))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "shifting watts from efficient chips to inefficient ones compresses the\n"+
		"performance spread at the same facility budget (paper §VII's proposal)")
	return err
}
