// Package figures regenerates every table and figure of the paper's
// evaluation from the modeled clusters. Each generator runs the
// corresponding experiment through internal/core and renders the same
// rows/series the paper reports (box-plot summaries per group, scatter
// correlations, time-series slices).
//
// Generators are addressed by id ("tab1", "fig1" … "fig26", "impact");
// cmd/figures exposes them on the command line and the repository-root
// benchmarks time each one.
package figures

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/engine"
	"gpuvar/internal/workload"
)

// Config scales the experiments. The zero value is usable: it selects
// the defaults below, which favor quick regeneration; raise the knobs
// for full-fidelity runs.
type Config struct {
	// Seed selects the fleet instantiation (default 2022).
	Seed uint64
	// SummitFraction is the share of Summit's 27,648 GPUs to measure
	// (default 0.08; 1.0 reproduces the full-scale study).
	SummitFraction float64
	// Iterations is the SGEMM repetition count (default 20; the paper
	// uses 100).
	Iterations int
	// MLIterations is the training-iteration count for ResNet/BERT
	// (default 30; the paper uses 500/250).
	MLIterations int
	// Runs is the per-GPU repetition count for repeatability studies
	// (default 3).
	Runs int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2022
	}
	if c.SummitFraction <= 0 || c.SummitFraction > 1 {
		c.SummitFraction = 0.08
	}
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.MLIterations <= 0 {
		c.MLIterations = 30
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	return c
}

// Generator produces one figure or table. Fn receives the caller's
// context and must abandon work when it ends — every experiment helper
// on Session already does.
type Generator struct {
	ID    string
	Title string
	Fn    func(context.Context, *Session, io.Writer) error
}

// Session caches experiment results across generators so that, e.g.,
// Fig. 2 (Longhorn box plots) and Fig. 3 (Longhorn correlations) share
// one run. Safe for concurrent use: concurrent generators asking for the
// same experiment share a single execution through a cancellation-safe
// engine.Group flight (which is what lets GenerateAllParallel
// deduplicate shared experiments instead of racing to run them twice),
// and only complete outcomes enter the result map — a canceled run
// leaves no entry, so the next request recomputes instead of replaying
// ctx.Err() forever. Fleet instantiation is shared further still,
// through the session's fleet cache.
type Session struct {
	Cfg Config
	// fleets is the fleet cache threaded into every core run. Defaults
	// to the process-wide cache so sessions with the same seed share
	// instantiations.
	fleets *cluster.FleetCache
	mu     sync.Mutex
	done   map[string]*sessionEntry
	flight engine.Group[*core.Result]
}

// sessionEntry is one experiment's completed outcome (result or a
// deterministic error; never a cancellation).
type sessionEntry struct {
	res *core.Result
	err error
}

// NewSession returns a session with the given config, backed by the
// process-wide fleet cache.
func NewSession(cfg Config) *Session {
	return &Session{
		Cfg:    cfg.withDefaults(),
		fleets: cluster.DefaultFleetCache,
		done:   map[string]*sessionEntry{},
	}
}

// run executes (or returns the cached) experiment keyed by a label.
// Concurrent callers with the same key share one execution; a caller
// whose ctx ends returns immediately while the execution continues for
// the rest, and is itself canceled only when nobody is left waiting.
// Complete outcomes — results and deterministic errors — are cached;
// cancellations are not.
func (s *Session) run(ctx context.Context, key string, exp core.Experiment) (*core.Result, error) {
	s.mu.Lock()
	e, ok := s.done[key]
	s.mu.Unlock()
	if ok {
		return e.res, e.err
	}
	res, _, err := s.flight.Do(ctx, key, func(fctx context.Context) (*core.Result, error) {
		r, err := core.RunWithCacheCtx(fctx, exp, s.fleets)
		if err == nil || !isCancellation(err) {
			s.mu.Lock()
			s.done[key] = &sessionEntry{res: r, err: err}
			s.mu.Unlock()
		}
		return r, err
	})
	return res, err
}

// isCancellation reports whether err is a context cancellation or
// deadline rather than a deterministic computation outcome.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sgemmOn returns the cached SGEMM characterization of a cluster.
func (s *Session) sgemmOn(ctx context.Context, spec cluster.Spec, runs int) (*core.Result, error) {
	wl := workload.SGEMMForCluster(spec.SKU())
	wl.Iterations = s.Cfg.Iterations
	exp := core.Experiment{
		Cluster:  spec,
		Workload: wl,
		Seed:     s.Cfg.Seed,
		Runs:     runs,
	}
	if spec.Name == "Summit" {
		exp.Fraction = s.Cfg.SummitFraction
	}
	return s.run(ctx, fmt.Sprintf("sgemm:%s:r%d", spec.Name, runs), exp)
}

// All returns every generator in paper order.
func All() []Generator {
	return []Generator{
		{"tab1", "Table I: clusters studied", genTab1},
		{"tab2", "Table II: applications studied", genTab2},
		{"fig1", "Fig 1: normalized SGEMM runtime across clusters", genFig1},
		{"fig2", "Fig 2: SGEMM on Longhorn (box plots)", genFig2},
		{"fig3", "Fig 3: SGEMM on Longhorn (correlations)", genFig3},
		{"fig4", "Fig 4: SGEMM on Summit by row (box plots)", genFig4},
		{"fig5", "Fig 5: SGEMM on Summit (correlations)", genFig5},
		{"fig6", "Fig 6: SGEMM on Corona (box plots)", genFig6},
		{"fig7", "Fig 7: SGEMM on Corona (correlations)", genFig7},
		{"fig8", "Fig 8: per-GPU repeat variation", genFig8},
		{"fig9", "Fig 9: SGEMM on Vortex (box plots)", genFig9},
		{"fig10", "Fig 10: SGEMM on Vortex (correlations)", genFig10},
		{"fig11", "Fig 11: DVFS frequency/power timelines", genFig11},
		{"fig12", "Fig 12: SGEMM on Frontera (box plots)", genFig12},
		{"fig13", "Fig 13: SGEMM on Frontera (correlations)", genFig13},
		{"fig14", "Fig 14: multi-GPU ResNet-50 on Longhorn", genFig14},
		{"fig15", "Fig 15: ResNet-50 correlations", genFig15},
		{"fig16", "Fig 16: single-GPU ResNet-50", genFig16},
		{"fig17", "Fig 17: multi-GPU BERT on Longhorn", genFig17},
		{"fig18", "Fig 18: LAMMPS on Longhorn", genFig18},
		{"fig19", "Fig 19: PageRank on Longhorn", genFig19},
		{"fig20", "Fig 20: Summit day-of-week study", genFig20},
		{"fig21", "Fig 21: Longhorn day-of-week study", genFig21},
		{"fig22", "Fig 22: power-limit sweep on CloudLab", genFig22},
		{"fig23", "Fig 23: Summit row H by column", genFig23},
		{"fig24", "Fig 24: Summit row H correlations", genFig24},
		{"fig25", "Fig 25: power-braked GPU timelines", genFig25},
		{"fig26", "Fig 26: Summit row H column 36 by node", genFig26},
		{"impact", "SVII: user impact of slow-GPU allocation", genImpact},
	}
}

// AllWithExtensions returns the paper generators followed by the
// extension studies (see gen_ext.go).
func AllWithExtensions() []Generator {
	return append(All(), extGenerators()...)
}

// IDs returns all generator ids (paper figures then extensions).
func IDs() []string {
	gens := AllWithExtensions()
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.ID
	}
	return out
}

// Normalized returns the config with defaults applied — the canonical
// form NewSession stores. Cache keys (the experiment service keys its
// session and response caches by config) must be derived from the
// normalized value so that, e.g., the zero config and an explicit
// {Seed: 2022} config share one entry.
func (c Config) Normalized() Config { return c.withDefaults() }

// The generator registry is fixed at compile time, so the ID→Generator
// map is built once instead of linear-scanning AllWithExtensions() on
// every Generate call.
var (
	registryOnce sync.Once
	registryByID map[string]Generator
)

func registry() map[string]Generator {
	registryOnce.Do(func() {
		gens := AllWithExtensions()
		registryByID = make(map[string]Generator, len(gens))
		for _, g := range gens {
			registryByID[g.ID] = g
		}
	})
	return registryByID
}

// generate renders one generator: title header, then the body.
func generate(ctx context.Context, g Generator, s *Session, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s ===\n", g.Title); err != nil {
		return err
	}
	return g.Fn(ctx, s, w)
}

// Lookup returns the generator registered under id (paper figures and
// extensions), letting callers distinguish unknown ids before paying for
// a run (the service's 404 path).
func Lookup(id string) (Generator, bool) {
	g, ok := registry()[id]
	return g, ok
}

// Generate runs one generator by id (paper figures and extensions).
func Generate(ctx context.Context, id string, s *Session, w io.Writer) error {
	g, ok := Lookup(id)
	if !ok {
		known := IDs()
		sort.Strings(known)
		return fmt.Errorf("figures: unknown id %q (known: %v)", id, known)
	}
	return generate(ctx, g, s, w)
}

// GenerateAll runs every generator in paper order, then the extensions.
func GenerateAll(ctx context.Context, s *Session, w io.Writer) error {
	for _, g := range AllWithExtensions() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := generate(ctx, g, s, w); err != nil {
			return fmt.Errorf("%s: %w", g.ID, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// GenerateAllParallel runs every generator concurrently through the
// execution engine (bounded by workers; ≤ 0 means GOMAXPROCS) and
// writes their outputs to w in the same order GenerateAll would.
// Generators are independent — they share experiments only through the
// session's singleflight flights, which ensure each shared experiment
// runs exactly once no matter how many generators wait on it. Output is
// byte-identical to GenerateAll's; like GenerateAll, every generator
// runs even if an earlier one fails, and the first failure in catalog
// order is returned.
func GenerateAllParallel(ctx context.Context, s *Session, w io.Writer, workers int) error {
	gens := AllWithExtensions()
	bufs := make([]bytes.Buffer, len(gens))
	errs := make([]error, len(gens))

	if _, err := engine.Map(ctx, len(gens), workers,
		func(ctx context.Context, i int) (struct{}, error) {
			if err := generate(ctx, gens[i], s, &bufs[i]); err != nil {
				errs[i] = fmt.Errorf("%s: %w", gens[i].ID, err)
				return struct{}{}, nil // collected in order below, not first-to-fail
			}
			fmt.Fprintln(&bufs[i])
			return struct{}{}, nil
		}); err != nil {
		return err
	}

	for i := range gens {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}
