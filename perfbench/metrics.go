package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpuvar/internal/loadgen"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	Allocs, AllocBytes uint64
	GCCPU, TotalCPU    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		Allocs:     s[0].Value.Uint64(),
		AllocBytes: s[1].Value.Uint64(),
		GCCPU:      s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
	}
}

// runtimeMetrics reports allocations per operation and the share of CPU
// time spent in GC between two readings.
func runtimeMetrics(a, b runtimeSample, ops int, into map[string]metric) {
	n := float64(max(ops, 1))
	into["runtime.allocs_per_op"] = metric{float64(b.Allocs-a.Allocs) / n, "count"}
	into["runtime.alloc_bytes_per_op"] = metric{float64(b.AllocBytes-a.AllocBytes) / n, "B"}
	frac := 0.0
	if cpu := b.TotalCPU - a.TotalCPU; cpu > 0 {
		frac = (b.GCCPU - a.GCCPU) / cpu
	}
	into["runtime.gc_cpu_frac"] = metric{frac, "fraction"}
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantileMS returns the p-quantile of ds in milliseconds, with
// loadgen's nearest-rank convention and full nanosecond precision.
func quantileMS(ds []time.Duration, p float64) float64 {
	sorted := loadgen.SortDurations(append([]time.Duration(nil), ds...))
	return float64(loadgen.Percentile(sorted, p)) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
