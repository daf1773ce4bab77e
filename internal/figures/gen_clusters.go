package figures

import (
	"context"
	"fmt"
	"io"
	"sort"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/report"
	"gpuvar/internal/stats"
	"gpuvar/internal/workload"
)

// metricUnits maps metrics to display units.
func metricUnit(m core.Metric) string {
	switch m {
	case core.Perf:
		return " ms"
	case core.Freq:
		return " MHz"
	case core.Power:
		return " W"
	case core.Temp:
		return " C"
	}
	return ""
}

// fourMetricCharts renders the paper's standard 4-panel figure: box
// plots of frequency, performance, power, and temperature grouped by
// cabinet/row.
func fourMetricCharts(r *core.Result, w io.Writer) error {
	for _, m := range []core.Metric{core.Freq, core.Perf, core.Power, core.Temp} {
		chart := report.BoxChart{
			Title:        fmt.Sprintf("(%s) by group", m),
			Unit:         metricUnit(m),
			ClipOutliers: true,
		}
		grouped := map[string][]float64{}
		for _, meas := range r.PerAG {
			g := meas.Loc.Group()
			grouped[g] = append(grouped[g], m.Of(meas))
		}
		labels := make([]string, 0, len(grouped))
		for g := range grouped {
			labels = append(labels, g)
		}
		sort.Strings(labels)
		for _, g := range labels {
			if err := chart.Add(g, grouped[g]); err != nil {
				return err
			}
		}
		if err := chart.Render(w); err != nil {
			return err
		}
	}
	s := r.Summarize()
	_, err := fmt.Fprintf(w,
		"variation: perf %.1f%%, freq %.1f%%, power %.1f%%, temp %.1f%%; outliers %d of %d GPUs\n",
		s.PerfVar*100, s.FreqVar*100, s.PowerVar*100, s.TempVar*100, s.NOutliers, s.GPUs)
	return err
}

// correlationBlock renders the paper's scatter-caption numbers.
func correlationBlock(r *core.Result, w io.Writer) error {
	perf := r.Values(core.Perf)
	lines := []string{
		report.ScatterSummary("perf vs temperature", perf, r.Values(core.Temp)),
		report.ScatterSummary("perf vs power", perf, r.Values(core.Power)),
		report.ScatterSummary("perf vs frequency", perf, r.Values(core.Freq)),
		report.ScatterSummary("power vs temperature", r.Values(core.Power), r.Values(core.Temp)),
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, " ", l); err != nil {
			return err
		}
	}
	return nil
}

func genTab1(ctx context.Context, s *Session, w io.Writer) error {
	var t report.Table
	t.Header = []string{"Cluster", "GPU", "#GPUs", "#Nodes", "Cooling"}
	for _, spec := range cluster.All() {
		t.AddRow(spec.Name, spec.SKU().Name, spec.NumGPUs(), spec.NumNodes(),
			spec.Cooling.Cooling.String())
	}
	return t.Render(w)
}

func genFig1(ctx context.Context, s *Session, w io.Writer) error {
	chart := report.BoxChart{
		Title:        "Normalized SGEMM runtime (median = 1)",
		Unit:         "x",
		ClipOutliers: true,
	}
	for _, spec := range []cluster.Spec{
		cluster.Longhorn(), cluster.Summit(), cluster.Corona(),
		cluster.Vortex(), cluster.Frontera(),
	} {
		r, err := s.sgemmOn(ctx, spec, 1)
		if err != nil {
			return err
		}
		if err := chart.Add(spec.Name, r.NormalizedPerf()); err != nil {
			return err
		}
	}
	return chart.Render(w)
}

func genFig2(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Longhorn(), 1)
	if err != nil {
		return err
	}
	return fourMetricCharts(r, w)
}

func genFig3(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Longhorn(), 1)
	if err != nil {
		return err
	}
	return correlationBlock(r, w)
}

func genFig4(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Summit(), 1)
	if err != nil {
		return err
	}
	return fourMetricCharts(r, w)
}

func genFig5(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Summit(), 1)
	if err != nil {
		return err
	}
	return correlationBlock(r, w)
}

func genFig6(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Corona(), 1)
	if err != nil {
		return err
	}
	return fourMetricCharts(r, w)
}

func genFig7(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Corona(), 1)
	if err != nil {
		return err
	}
	return correlationBlock(r, w)
}

func genFig8(ctx context.Context, s *Session, w io.Writer) error {
	chart := report.BoxChart{
		Title:        "Per-GPU repeat variation (t_max - t_min)/t_median",
		Unit:         "",
		ClipOutliers: true,
	}
	for _, spec := range []cluster.Spec{cluster.Longhorn(), cluster.Summit(), cluster.Corona()} {
		r, err := s.sgemmOn(ctx, spec, s.Cfg.Runs)
		if err != nil {
			return err
		}
		vs := r.PerGPUVariation()
		if err := chart.Add(spec.Name, vs); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %s median per-GPU variation: %.2f%%\n",
			spec.Name, stats.Median(vs)*100); err != nil {
			return err
		}
	}
	return chart.Render(w)
}

func genFig9(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Vortex(), 1)
	if err != nil {
		return err
	}
	return fourMetricCharts(r, w)
}

func genFig10(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Vortex(), 1)
	if err != nil {
		return err
	}
	return correlationBlock(r, w)
}

func genFig12(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Frontera(), 1)
	if err != nil {
		return err
	}
	return fourMetricCharts(r, w)
}

func genFig13(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.sgemmOn(ctx, cluster.Frontera(), 1)
	if err != nil {
		return err
	}
	return correlationBlock(r, w)
}

func genFig20(ctx context.Context, s *Session, w io.Writer) error {
	return weekStudy(ctx, s, cluster.Summit(), w)
}
func genFig21(ctx context.Context, s *Session, w io.Writer) error {
	return weekStudy(ctx, s, cluster.Longhorn(), w)
}

func weekStudy(ctx context.Context, s *Session, spec cluster.Spec, w io.Writer) error {
	wl := s.sgemmWorkload(spec)
	exp := core.Experiment{Cluster: spec, Workload: wl, Seed: s.Cfg.Seed}
	if spec.Name == "Summit" {
		exp.Fraction = s.Cfg.SummitFraction
	}
	days, err := core.WeekStudyCtx(ctx, exp)
	if err != nil {
		return err
	}
	chart := report.BoxChart{Title: "Kernel duration by day of week", Unit: " ms", ClipOutliers: true}
	var t report.Table
	t.Header = []string{"Day", "PerfVar%", "Median ms", "Power outliers < 290 W"}
	for i, d := range days {
		if err := chart.Add(core.DayNames[i], d.Values(core.Perf)); err != nil {
			return err
		}
		low := 0
		for _, m := range d.PerAG {
			if m.PowerW < 0.967*spec.SKU().TDPWatts {
				low++
			}
		}
		sum := d.Summarize()
		t.AddRow(core.DayNames[i], fmt.Sprintf("%.1f", sum.PerfVar*100),
			fmt.Sprintf("%.0f", sum.MedianMs), low)
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	return t.Render(w)
}

func genFig22(ctx context.Context, s *Session, w io.Writer) error {
	wl := s.sgemmWorkload(cluster.CloudLab())
	exp := core.Experiment{Cluster: cluster.CloudLab(), Workload: wl, Seed: s.Cfg.Seed, Runs: s.Cfg.Runs}
	points, err := core.VariantSweepCtx(ctx, exp, core.AxisPowerCap, []float64{300, 250, 200, 150, 100})
	if err != nil {
		return err
	}
	var t report.Table
	t.Header = []string{"Cap W", "Median ms", "PerfVar%", "Outliers"}
	for _, p := range points {
		t.AddRow(p.Value, fmt.Sprintf("%.0f", p.MedianMs),
			fmt.Sprintf("%.1f", p.PerfVar*100), p.NOutliers)
	}
	return t.Render(w)
}

func genFig23(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.rowH(ctx)
	if err != nil {
		return err
	}
	chart := report.BoxChart{Title: "Row H kernel duration by column", Unit: " ms", ClipOutliers: true}
	byCol := map[string][]float64{}
	for _, m := range r.PerAG {
		key := fmt.Sprintf("col%02d", m.Loc.Col)
		byCol[key] = append(byCol[key], m.PerfMs)
	}
	cols := make([]string, 0, len(byCol))
	for c := range byCol {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		if err := chart.Add(c, byCol[c]); err != nil {
			return err
		}
	}
	return chart.Render(w)
}

func genFig24(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.rowH(ctx)
	if err != nil {
		return err
	}
	// The paper restricts Fig. 24 to GPUs with at least one power
	// reading below 290 W.
	lowPower := r.Filter(func(m core.Measurement) bool { return m.PowerW < 290 })
	if len(lowPower.PerAG) < 2 {
		_, err := fmt.Fprintln(w, "  fewer than 2 sub-290 W GPUs in row H sample")
		return err
	}
	if _, err := fmt.Fprintf(w, "  %d GPUs with power < 290 W\n", len(lowPower.PerAG)); err != nil {
		return err
	}
	return correlationBlock(lowPower, w)
}

func genFig26(ctx context.Context, s *Session, w io.Writer) error {
	r, err := s.rowH(ctx)
	if err != nil {
		return err
	}
	col36 := r.Filter(func(m core.Measurement) bool { return m.Loc.Col == 36 })
	chart := report.BoxChart{Title: "Row H column 36 kernel duration by node", Unit: " ms"}
	byNode := map[string][]float64{}
	for _, m := range col36.PerAG {
		byNode[m.Loc.NodeID()] = append(byNode[m.Loc.NodeID()], m.PerfMs)
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if err := chart.Add(n, byNode[n]); err != nil {
			return err
		}
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, core.FormatSuspects(col36.OutlierReport()))
	return err
}

// rowH measures all of Summit's row H (the Appendix B deep dive).
func (s *Session) rowH(ctx context.Context) (*core.Result, error) {
	wl := s.sgemmWorkload(cluster.Summit())
	exp := core.Experiment{Cluster: cluster.Summit(), Workload: wl, Seed: s.Cfg.Seed}
	r, err := s.run(ctx, "summit-rowH", exp)
	if err != nil {
		return nil, err
	}
	return r.Filter(func(m core.Measurement) bool { return m.Loc.Row == "H" }), nil
}

// sgemmWorkload builds the session-scaled SGEMM workload for a cluster.
func (s *Session) sgemmWorkload(spec cluster.Spec) workload.Workload {
	w := workload.SGEMMForCluster(spec.SKU())
	w.Iterations = s.Cfg.Iterations
	return w
}
