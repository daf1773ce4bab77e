package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"gpuvar/internal/figures"
)

// fullConfig is the figure configuration `cmd/figures -full -seed S`
// runs: paper-scale iterations and all of Summit.
func fullConfig(fleetSeed uint64) figures.Config {
	return figures.Config{Seed: fleetSeed, SummitFraction: 1.0, Iterations: 100, MLIterations: 100, Runs: 5}
}

// catalogReport is what a catalog child process sends back.
type catalogReport struct {
	WallS    float64    `json:"wall_s"`
	SHA256   string     `json:"sha256"`
	FigureMS []float64  `json:"figure_ms"`
	Spans    []span     `json:"spans,omitempty"`
	Before   serveStats `json:"before"`
	After    serveStats `json:"after"`
}

// figureClock is the writer GenerateAll renders into. It hashes the
// catalog and times each figure from its title line to the next one's,
// so per-figure latency is measured without touching the generators.
type figureClock struct {
	titles []string
	next   int
	h      hash.Hash
	start  time.Time
	times  []float64
	tr     *tracer
	parent int
	span   int
}

func newFigureClock(tr *tracer, parent int) *figureClock {
	fc := &figureClock{h: sha256.New(), tr: tr, parent: parent}
	for _, g := range figures.AllWithExtensions() {
		fc.titles = append(fc.titles, "=== "+g.Title+" ===\n")
	}
	return fc
}

func (fc *figureClock) Write(p []byte) (int, error) {
	if fc.next < len(fc.titles) && string(p) == fc.titles[fc.next] {
		fc.finish()
		fc.next++
		fc.start = time.Now()
		fc.span = fc.tr.begin("op.figure", fc.parent)
	}
	return fc.h.Write(p)
}

// finish closes the figure being rendered, if any.
func (fc *figureClock) finish() {
	if fc.start.IsZero() {
		return
	}
	fc.times = append(fc.times, ms(time.Since(fc.start)))
	fc.tr.end(fc.span)
	fc.start = time.Time{}
}

// catalogChild regenerates the -full catalog in this (fresh) process,
// as `cmd/figures -full` does, and reports on stdout: first a "ready"
// line when set-up is over, then the catalogReport. With setupOnly it
// exits after the ready line.
func catalogChild(fleetSeed uint64, traced, setupOnly bool, run string) error {
	s := figures.NewSession(fullConfig(fleetSeed))
	var tr *tracer
	if traced {
		tr = newTracer(run)
	}
	before := localStats()
	fmt.Println("ready")
	if setupOnly {
		return nil
	}
	root := tr.begin("catalog", 0)
	fc := newFigureClock(tr, root)
	t0 := time.Now()
	err := figures.GenerateAll(context.Background(), s, fc)
	fc.finish()
	wall := time.Since(t0)
	tr.end(root)
	if err != nil {
		return err
	}
	after := localStats()
	rep := catalogReport{
		WallS:    wall.Seconds(),
		SHA256:   hex.EncodeToString(fc.h.Sum(nil)),
		FigureMS: fc.times,
		Before:   before,
		After:    after,
	}
	if tr != nil {
		rep.Spans = tr.snapshot()
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// childRun is one child process's outcome as the parent saw it.
type childRun struct {
	Setup  time.Duration // start of the process to its "ready" line
	Output []byte        // everything after the ready line
	PeakMB float64       // the child's peak RSS
}

// childTimeout bounds one child process, so that a hung child fails the
// run instead of stalling it; a catalog child takes ~12 s.
const childTimeout = 150 * time.Second

// spawn runs this benchmark binary as a child with args and waits for
// it to exit.
func spawn(args ...string) (childRun, error) {
	var cr childRun
	self, err := os.Executable()
	if err != nil {
		return cr, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return cr, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return cr, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	cr.Setup = time.Since(t0)
	if rerr == nil {
		cr.Output, rerr = io.ReadAll(br)
	}
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.PeakMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	switch {
	case werr != nil:
		return cr, fmt.Errorf("child %v: %w", args, werr)
	case rerr != nil:
		return cr, fmt.Errorf("child %v: %w", args, rerr)
	case line != "ready\n":
		return cr, fmt.Errorf("child %v: first line %q, want ready", args, line)
	}
	return cr, nil
}

// catalogSetup times a catalog child's set-up alone: the child runs the
// catalog child's code up to its ready line, and exits there.
func catalogSetup(fleetSeed uint64) (time.Duration, error) {
	cr, err := spawn("-child", "catalog", "-fleet-seed", strconv.FormatUint(fleetSeed, 10), "-setup-only")
	return cr.Setup, err
}

// runCatalogChild regenerates one catalog in a child process.
func runCatalogChild(fleetSeed uint64, traced bool, run string) (catalogReport, childRun, error) {
	var rep catalogReport
	args := []string{"-child", "catalog", "-fleet-seed", strconv.FormatUint(fleetSeed, 10), "-run", run}
	if traced {
		args = append(args, "-trace", "1")
	}
	cr, err := spawn(args...)
	if err != nil {
		return rep, cr, err
	}
	if err := json.Unmarshal(cr.Output, &rep); err != nil {
		return rep, cr, fmt.Errorf("catalog child report: %w", err)
	}
	return rep, cr, nil
}
