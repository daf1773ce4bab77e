package gpu

import (
	"fmt"

	"gpuvar/internal/rng"
)

// DefectKind classifies the rare per-chip pathologies that produce the
// outlier signatures observed in the paper's clusters. DefectNone chips
// still vary through the continuous manufacturing spread.
type DefectKind int

// Defect taxonomy, each mapped to the cluster where the paper observed
// its signature.
const (
	// DefectNone: only the continuous V/F-curve, leakage, and bandwidth
	// spread that every chip has.
	DefectNone DefectKind = iota

	// DefectStall: a chronically sick node — far-bad-tail V/F quality
	// (low power-capped clocks) plus a starved host input pipeline
	// (Longhorn cabinet c002; the ResNet-50 stragglers at 76 W and
	// 1530 MHz, paper §V-A).
	DefectStall

	// DefectPowerBrake: firmware/board-level power cap below TDP. The
	// chip pins at a reduced clock, draws well under the cap, and shows
	// no temperature anomaly (Summit row-H outliers: 2510 ms at
	// 250–285 W, frequency locked near 1312 MHz, paper Appendix B).
	DefectPowerBrake

	// DefectCooling: degraded thermal path (clogged heatsink, failed
	// airflow). Runs hot, thermally throttles (Corona node c115 at
	// 99 °C and 165 W, paper §IV-D).
	DefectCooling

	// DefectClockStuck: clock locked at a low state — slower, cooler,
	// and lower power all at once (Frontera cabinet c197: 1100–1600 ms
	// slower, 16 °C cooler, 59 W below median, paper §IV-F).
	DefectClockStuck
)

// String returns a short label for the defect kind.
func (d DefectKind) String() string {
	switch d {
	case DefectNone:
		return "none"
	case DefectStall:
		return "stall"
	case DefectPowerBrake:
		return "power-brake"
	case DefectCooling:
		return "cooling"
	case DefectClockStuck:
		return "clock-stuck"
	default:
		return fmt.Sprintf("DefectKind(%d)", int(d))
	}
}

// VariationModel holds the distribution parameters for the continuous
// manufacturing spread. Zero value means "no spread" (useful in tests).
type VariationModel struct {
	// VoltSpread is the coefficient of variation of the chip-quality
	// factor that scales the voltage needed for a given frequency.
	// This is the dominant knob: it sets the spread of power-capped
	// equilibrium frequencies (~2.5% → ~100 MHz on V100).
	VoltSpread float64
	// LeakSpread is the coefficient of variation of leakage power.
	LeakSpread float64
	// MemBWSpread is the coefficient of variation of effective memory
	// bandwidth; it bounds the perf variation of memory-bound workloads
	// (paper: ~1% for LAMMPS and PageRank).
	MemBWSpread float64
}

// DefaultVariation returns the calibration used for all paper
// reproductions.
func DefaultVariation() VariationModel {
	return VariationModel{
		VoltSpread:  0.016,
		LeakSpread:  0.10,
		MemBWSpread: 0.004,
	}
}

// Chip is one physical GPU: a SKU plus its manufacturing deviations and
// (rarely) a defect. Chips are immutable after creation; runtime state
// lives in the simulator.
type Chip struct {
	SKU *SKU
	ID  string

	// Continuous manufacturing spread (all ~1.0).
	VoltFactor float64 // scales the V(f) curve; >1 is a "worse" chip
	LeakFactor float64 // scales leakage power
	MemBWFac   float64 // scales effective memory bandwidth

	// Defect state.
	Defect DefectKind
	// ComputeEff scales effective compute throughput (<1 for
	// DefectStall; 1 otherwise).
	ComputeEff float64
	// BoardCapW is the enforced power cap; equals SKU.TDPWatts unless
	// DefectPowerBrake lowers it.
	BoardCapW float64
	// ClockCapMHz bounds the highest clock DVFS may select; equals
	// SKU.MaxClockMHz unless DefectClockStuck lowers it.
	ClockCapMHz float64
	// ThermalResistFactor scales the cooling model's thermal resistance;
	// >1 for DefectCooling.
	ThermalResistFactor float64

	// defectGen counts InjectDefect applications. Steady-state caches
	// keyed on a chip use it to invalidate solutions when a defect lands
	// mid-stream (campaign injections).
	defectGen uint32
}

// NewChip samples a chip from the SKU's manufacturing distribution.
// The same (SKU, id, stream) always produces the same chip.
func NewChip(sku *SKU, id string, vm VariationModel, r *rng.Source) *Chip {
	c := &Chip{
		SKU:                 sku,
		ID:                  id,
		VoltFactor:          1,
		LeakFactor:          1,
		MemBWFac:            1,
		ComputeEff:          1,
		BoardCapW:           sku.TDPWatts,
		ClockCapMHz:         sku.MaxClockMHz,
		ThermalResistFactor: 1,
	}
	if r != nil {
		if vm.VoltSpread > 0 {
			c.VoltFactor = r.LogNormalMeanSpread(1, vm.VoltSpread)
		}
		if vm.LeakSpread > 0 {
			c.LeakFactor = r.LogNormalMeanSpread(1, vm.LeakSpread)
		}
		if vm.MemBWSpread > 0 {
			c.MemBWFac = r.LogNormalMeanSpread(1, vm.MemBWSpread)
		}
	}
	return c
}

// InjectDefect applies a defect with severity sampled from r. Severity
// ranges are calibrated to the outlier magnitudes reported in the paper.
func (c *Chip) InjectDefect(kind DefectKind, r *rng.Source) {
	c.Defect = kind
	c.defectGen++
	switch kind {
	case DefectNone:
		// Reset to healthy.
		c.ComputeEff = 1
		c.BoardCapW = c.SKU.TDPWatts
		c.ClockCapMHz = c.SKU.MaxClockMHz
		c.ThermalResistFactor = 1
	case DefectStall:
		// A chronically sick node. Two coupled symptoms, matching the
		// paper's c002 signature: (1) the chip's V/F curve is at the far
		// bad tail, so power-capped workloads settle at visibly lower
		// clocks — yet stay ON the frequency-performance line, which is
		// why Longhorn's SGEMM correlation stays near −0.97 even with
		// these chips included (Fig. 3c); (2) the node's host side
		// starves the input pipeline (see sim.Device.HostStallFrac),
		// which is what turns them into the 3.5×-slower, 76 W ResNet
		// stragglers at a pinned 1530 MHz (§V-A).
		c.VoltFactor *= 1 + r.TruncGaussian(0.055, 0.02, 0.03, 0.10)
	case DefectPowerBrake:
		// Board firmware pins the clock near a fixed reduced state. The
		// Summit row-H outliers all complete in ~2510 ms (same clock,
		// ~1312 MHz) while drawing 250–285 W depending on each chip's
		// V/F quality and leakage (paper Appendix B, Fig. 25: frequency
		// locked at 1312 MHz across runs while power wanders).
		frac := r.TruncGaussian(0.858, 0.006, 0.845, 0.875)
		c.ClockCapMHz = c.SKU.QuantizeClock(c.SKU.MaxClockMHz * frac)
		c.BoardCapW = c.SKU.TDPWatts
	case DefectCooling:
		// Thermal resistance 1.7–2.4× nominal. On Corona's hot air path
		// this pins the MI60 at its slowdown threshold and forces deep
		// throttling (c115: 99 °C at 165 W, ~1.4× slower, §IV-D); on a
		// water loop the same defect yields only a temperature anomaly
		// with no performance or power outlier — exactly the Summit
		// rowH-col36-n02 signature (Appendix B).
		c.ThermalResistFactor = r.TruncGaussian(2.0, 0.15, 1.7, 2.4)
	case DefectClockStuck:
		// Clock pinned at 55–70% of max: much slower, cooler, and lower
		// power all at once.
		frac := r.TruncGaussian(0.62, 0.05, 0.55, 0.70)
		c.ClockCapMHz = c.SKU.QuantizeClock(c.SKU.MaxClockMHz * frac)
	default:
		panic(fmt.Sprintf("gpu: unknown defect kind %d", kind))
	}
}

// Healthy reports whether the chip has no injected defect.
func (c *Chip) Healthy() bool { return c.Defect == DefectNone }

// DefectGen returns the number of defect injections this chip has seen,
// for cache invalidation in the simulation layer.
func (c *Chip) DefectGen() uint32 { return c.defectGen }

// EffMemBWGBs returns the chip's effective DRAM bandwidth.
func (c *Chip) EffMemBWGBs() float64 { return c.SKU.MemBWGBs * c.MemBWFac }

// MaxUsableClockMHz returns the highest clock DVFS may select on this
// chip (SKU max unless clock-stuck).
func (c *Chip) MaxUsableClockMHz() float64 {
	if c.ClockCapMHz < c.SKU.MaxClockMHz {
		return c.ClockCapMHz
	}
	return c.SKU.MaxClockMHz
}

// PowerCapW returns the power limit the DVFS controller must respect:
// the board cap (possibly braked) or an administrative limit adminCapW
// if positive and lower. adminCapW models `nvidia-smi -pl` (paper §VI-B).
func (c *Chip) PowerCapW(adminCapW float64) float64 {
	cap := c.BoardCapW
	if adminCapW > 0 && adminCapW < cap {
		cap = adminCapW
	}
	return cap
}
