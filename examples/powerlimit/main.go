// Powerlimit: the paper's §VI-B study — how the administrative power
// limit shapes performance and variability (Fig. 22).
//
// On CloudLab (where the authors had root), SGEMM runs under caps from
// 300 W down to 100 W: kernels slow down as the cap drops, and the
// chip-to-chip spread widens (9% at 300 W → 18% at 150 W in the paper),
// because DVFS operating points diverge more on the steep low-power part
// of the V/F curve.
//
//	go run ./examples/powerlimit
package main

import (
	"fmt"
	"log"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/report"
	"gpuvar/internal/workload"
)

func main() {
	spec := cluster.CloudLab()
	wl := workload.SGEMMForCluster(spec.SKU())
	wl.Iterations = 20

	points, err := core.VariantSweep(core.Experiment{
		Cluster:  spec,
		Workload: wl,
		Seed:     7,
		Runs:     4, // CloudLab is tiny; repeat runs firm up the statistics
	}, core.AxisPowerCap, []float64{300, 250, 200, 150, 100})
	if err != nil {
		log.Fatal(err)
	}

	var t report.Table
	t.Header = []string{"Power cap (W)", "Median kernel (ms)", "Perf variation (%)", "Median clock (MHz)"}
	for _, p := range points {
		freqBox, err := p.Result.Box(core.Freq)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(
			fmt.Sprintf("%.0f", p.Value),
			fmt.Sprintf("%.0f", p.MedianMs),
			fmt.Sprintf("%.1f", p.PerfVar*100),
			fmt.Sprintf("%.0f", freqBox.Q2),
		)
	}
	if err := t.Render(log.Writer()); err != nil {
		log.Fatal(err)
	}

	base, low := points[0], points[3]
	fmt.Printf("\nAt %.0f W the fleet varies %.1f%%; at %.0f W it varies %.1f%% — "+
		"capping power amplifies manufacturing differences.\n",
		base.Value, base.PerfVar*100, low.Value, low.PerfVar*100)
	fmt.Println("Paper: \"variability and the number of outliers also increase with lower power limits.\"")
}
