package estimate

import (
	"math"
	"sync/atomic"
)

// Stats are the estimator's process-wide counters, exported on
// /v1/stats and as the gpuvar_estimate_* metric families.
type Stats struct {
	// Calls counts closed-form point evaluations (no simulation).
	Calls uint64 `json:"calls"`
	// Calibrations counts anchor-run model fits (cache misses).
	Calibrations uint64 `json:"calibrations"`
	// ScreenedOut counts adaptive-sweep variants answered analytically.
	ScreenedOut uint64 `json:"screened_out"`
	// FullSim counts adaptive-sweep variants sent to full simulation.
	FullSim uint64 `json:"full_sim"`
	// MaxResidual is the largest relative anchor residual any
	// calibration has observed — how far the two-parameter fit was from
	// its own full-sim anchors, worst case.
	MaxResidual float64 `json:"max_calibration_residual"`
}

var counters struct {
	calls        atomic.Uint64
	calibrations atomic.Uint64
	screenedOut  atomic.Uint64
	fullSim      atomic.Uint64
}

// maxResidual is an atomic float maintained by CAS on its bit pattern.
var maxResidual atomicMaxFloat

type atomicMaxFloat struct{ bits atomic.Uint64 }

func (m *atomicMaxFloat) update(v float64) {
	for {
		old := m.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMaxFloat) load() float64 { return math.Float64frombits(m.bits.Load()) }

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{
		Calls:        counters.calls.Load(),
		Calibrations: counters.calibrations.Load(),
		ScreenedOut:  counters.screenedOut.Load(),
		FullSim:      counters.fullSim.Load(),
		MaxResidual:  maxResidual.load(),
	}
}
