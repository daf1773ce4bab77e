// Command perfbench is gpuvar's benchmark: it runs one named workload
// for a fixed time, checks every output against a pinned oracle, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	perfbench --workload serve-cold --seed 7 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and how they are
// measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	run      string // run id, shared by every span the run records
}

// runOut is what a workload run measured.
type runOut struct {
	attempted, failed int
	metrics           map[string]metric
	// report holds what the one-line result has no room for: sample
	// counts, requests per kind, measured cache hit ratios.
	report map[string]any
	// spans are the traced run's spans, written out at the end.
	spans []span
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*runOut, error){
	"catalog":    runCatalog,
	"serve-hot":  func(c runConfig) (*runOut, error) { return runServe(c, hotWorkload) },
	"serve-cold": func(c runConfig) (*runOut, error) { return runServe(c, coldWorkload) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wl        = flag.String("workload", "", "workload to run: catalog, serve-hot, serve-cold")
		seed      = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 25, "how long the run measures")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		child     = flag.String("child", "", "internal: run as a child process (catalog, probes)")
		fleetSeed = flag.Uint64("fleet-seed", 0, "internal: the catalog child's fleet seed")
		setupOnly = flag.Bool("setup-only", false, "internal: the catalog child exits after set-up")
		runID     = flag.String("run", "", "internal: run id of the parent run")
		mint      = flag.String("mint", "", "print a fresh oracle table (catalog, hot or cold) and exit")
	)
	flag.Parse()
	switch *child {
	case "":
	case "catalog":
		return catalogChild(*fleetSeed, *trace == 1, *setupOnly, *runID)
	case "probes":
		return probesChild(*runID)
	default:
		return fmt.Errorf("unknown child %q", *child)
	}
	if *mint != "" {
		return mintTable(*mint)
	}
	fn, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		run:      fmt.Sprintf("%s-seed%d-%d", *wl, *seed, time.Now().UnixNano()),
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	if want := expectedMetrics(cfg.trace); !slices.Equal(names(out.metrics), want) {
		return fmt.Errorf("metrics printed %v, declared %v", names(out.metrics), want)
	}
	if cfg.trace {
		path, err := writeSpans(".bench_build/traces", cfg.run, out.spans)
		if err != nil {
			return err
		}
		out.report["trace_file"] = path
	}
	out.report["workload"], out.report["seed"] = cfg.workload, cfg.seed
	rep, err := json.Marshal(out.report)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", rep)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return nil
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
