package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gpuvar/internal/figures"
	"gpuvar/internal/loadgen"
)

// endToEnd lists the end-to-end metrics with their units, in the order
// of BENCHMARK.json. Every workload prints all of them.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics with their units, in the order
// of BENCHMARK.json. Every traced run prints all of them.
var perLayer = [][2]string{
	{"cluster.instantiate_ms", "ms"},
	{"cluster.fleet_lookups", "count"},
	{"cluster.fleet_hit_ratio", "ratio"},
	{"cluster.fleet_evictions", "count"},
	{"sim.solve_us_per_gpu", "us"},
	{"sim.synth_us_per_gpu_run", "us"},
	{"core.run_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"figures.generate_ms", "ms"},
	{"figures.render_ms", "ms"},
	{"engine.shards", "count"},
	{"engine.retries", "count"},
	{"engine.hedges", "count"},
	{"engine.useful_shard_ratio", "ratio"},
	{"engine.map_us_per_shard", "us"},
	{"estimate.calibrations", "count"},
	{"estimate.calibrate_ms", "ms"},
	{"service.requests", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.stale_served", "count"},
	{"service.hit_us", "us"},
	{"service.miss_ms", "ms"},
	{"http.transport_us", "us"},
	{"stream.ttfl_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.shed", "count"},
	{"dispatch.hop_ms", "ms"},
	{"dispatch.shards", "count"},
	{"dispatch.remote_shard_ratio", "ratio"},
	{"dispatch.warm_ratio", "ratio"},
	{"dispatch.ejections", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"op.self_ms", "ms"},
	{"service.self_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "fraction"},
}

// selfTimeLayers are the layers whose self time, over the workload's
// own spans, a traced run reports (as <layer>.self_ms): "op" is the
// client operations, less the server handler spans inside them;
// "service" is those handler spans, which hold everything the program
// does for a request. The probes' spans are leaf calls, whose times are
// the probe metrics themselves, so they are left out.
var selfTimeLayers = []string{"op", "service"}

func expectedMetrics(trace bool) []string {
	list := endToEnd
	if trace {
		list = perLayer
	}
	var out []string
	for _, m := range list {
		out = append(out, m[0])
	}
	sort.Strings(out)
	return out
}

// minus returns the counters accumulated between a and b.
func (b serveStats) minus(a serveStats) serveStats {
	d := b
	d.Cache.Hits -= a.Cache.Hits
	d.Cache.Misses -= a.Cache.Misses
	d.Cache.Coalesced -= a.Cache.Coalesced
	d.Cache.StaleServed -= a.Cache.StaleServed
	d.Jobs.Submitted -= a.Jobs.Submitted
	d.Jobs.Shed -= a.Jobs.Shed
	d.Dispatch.ShardsLocal -= a.Dispatch.ShardsLocal
	d.Dispatch.ShardsRemote -= a.Dispatch.ShardsRemote
	d.Dispatch.WarmShards -= a.Dispatch.WarmShards
	d.Dispatch.ColdShards -= a.Dispatch.ColdShards
	d.Ejections -= a.Ejections
	d.Fleet.Hits -= a.Fleet.Hits
	d.Fleet.Misses -= a.Fleet.Misses
	d.Fleet.Evictions -= a.Fleet.Evictions
	d.Engine.ShardsCompleted -= a.Engine.ShardsCompleted
	d.Engine.TransientShardErrors -= a.Engine.TransientShardErrors
	d.Engine.Retries -= a.Engine.Retries
	d.Engine.Hedges -= a.Engine.Hedges
	d.Estimate.Calibrations -= a.Estimate.Calibrations
	return d
}

// layerMetrics turns the counters a traced phase accumulated (d, from
// minus) and the runtime readings around it into per-layer metrics.
func layerMetrics(d serveStats, r0, r1 runtimeSample, ops int, m map[string]metric) {
	lookups := d.Fleet.Hits + d.Fleet.Misses
	m["cluster.fleet_lookups"] = metric{float64(lookups), "count"}
	m["cluster.fleet_hit_ratio"] = metric{ratio(d.Fleet.Hits, lookups), "ratio"}
	m["cluster.fleet_evictions"] = metric{float64(d.Fleet.Evictions), "count"}
	e := d.Engine
	m["engine.shards"] = metric{float64(e.ShardsCompleted), "count"}
	m["engine.retries"] = metric{float64(e.Retries), "count"}
	m["engine.hedges"] = metric{float64(e.Hedges), "count"}
	m["engine.useful_shard_ratio"] = metric{ratio(e.ShardsCompleted, e.ShardsCompleted+e.TransientShardErrors+e.Hedges), "ratio"}
	m["estimate.calibrations"] = metric{float64(d.Estimate.Calibrations), "count"}
	reqs := d.Cache.Hits + d.Cache.Misses + d.Cache.Coalesced
	m["service.requests"] = metric{float64(reqs), "count"}
	m["service.cache_hit_ratio"] = metric{ratio(d.Cache.Hits, reqs), "ratio"}
	m["service.coalesced"] = metric{float64(d.Cache.Coalesced), "count"}
	m["service.stale_served"] = metric{float64(d.Cache.StaleServed), "count"}
	m["jobs.shed"] = metric{float64(d.Jobs.Shed), "count"}
	runtimeMetrics(r0, r1, ops, m)
}

// probeReport is what the probes child sends back.
type probeReport struct {
	Metrics map[string]metric `json:"metrics"`
	Spans   []span            `json:"spans"`
}

func probesChild(run string) error {
	fmt.Println("ready")
	tr := newTracer(run)
	m, err := runProbes(tr)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(probeReport{Metrics: m, Spans: tr.snapshot()})
}

// finishTrace adds the self times of the workload's spans in tr, then
// runs the layer probes in a fresh child process and adds their metrics
// and spans.
func finishTrace(cfg runConfig, tr *tracer, overhead float64, out *runOut) error {
	self := selfTimes(tr.snapshot())
	for _, l := range selfTimeLayers {
		out.metrics[l+".self_ms"] = metric{ms(self[l]), "ms"}
	}
	cr, err := spawn("-child", "probes", "-run", cfg.run)
	if err != nil {
		return err
	}
	var pr probeReport
	if err := json.Unmarshal(cr.Output, &pr); err != nil {
		return fmt.Errorf("probes child report: %w", err)
	}
	for k, v := range pr.Metrics {
		out.metrics[k] = v
	}
	tr.adopt(pr.Spans, 0)
	out.spans = tr.snapshot()
	out.metrics["trace.spans"] = metric{float64(len(out.spans)), "count"}
	out.metrics["trace.overhead_frac"] = metric{overhead, "fraction"}
	return nil
}

// spareSetups is how many set-up-only catalog children follow each
// catalog of a run.
const spareSetups = 10

func runCatalog(cfg runConfig) (*runOut, error) {
	fleetSeed := cfg.seed % catalogSeeds
	oracle, err := catalogOracle(fleetSeed)
	if err != nil {
		return nil, err
	}
	out := &runOut{metrics: map[string]metric{}, report: map[string]any{"fleet_seed": fleetSeed}}
	nfig := len(figures.AllWithExtensions())
	var mismatches []string
	// check counts one catalog's figures and reports whether its bytes
	// match the pinned hash; a mismatch fails all of them.
	check := func(rep catalogReport) bool {
		out.attempted += nfig
		if rep.SHA256 != oracle || len(rep.FigureMS) != nfig {
			out.failed += nfig
			mismatches = append(mismatches, fmt.Sprintf("catalog sha256 %s (%d figures), pinned %s", rep.SHA256, len(rep.FigureMS), oracle))
			return false
		}
		return true
	}
	defer func() {
		if len(mismatches) > 0 {
			out.report["mismatches"] = mismatches
		}
	}()

	if cfg.trace {
		u, _, err := runCatalogChild(fleetSeed, false, cfg.run)
		if err != nil {
			return nil, err
		}
		t, _, err := runCatalogChild(fleetSeed, true, cfg.run)
		if err != nil {
			return nil, err
		}
		check(u)
		check(t)
		layerMetrics(t.After.minus(t.Before), t.Before.Runtime, t.After.Runtime, nfig, out.metrics)
		tr := newTracer(cfg.run)
		tr.adopt(t.Spans, 0)
		out.report["untraced_wall_s"], out.report["traced_wall_s"] = u.WallS, t.WallS
		return out, finishTrace(cfg, tr, t.WallS/u.WallS-1, out)
	}

	// Set-up is a catalog child's start to its ready line, which it
	// prints once figures.NewSession has returned, just before the first
	// figure: process start, runtime and package initialisation, and
	// session construction, as a `cmd/figures` user waits for them. It
	// takes ~4 ms, so one sample is mostly process-start jitter: after
	// each catalog, spareSetups more children run the same set-up and
	// exit, and setup_s is the median of all.
	var setups, walls, peaks, figs []float64
	start := time.Now()
	// Another catalog starts while it would end no more than half a
	// catalog past the run's time.
	for last := 0.0; len(walls) == 0 || time.Since(start).Seconds()+last/2 <= cfg.seconds.Seconds(); {
		rep, cr, err := runCatalogChild(fleetSeed, false, cfg.run)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cr.Setup.Seconds())
		for i := 0; i < spareSetups; i++ {
			d, err := catalogSetup(fleetSeed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		walls = append(walls, rep.WallS)
		peaks = append(peaks, cr.PeakMB)
		if check(rep) {
			done := 0.0
			for _, f := range rep.FigureMS {
				done += f
				figs = append(figs, done)
			}
		}
		last = rep.WallS
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	// figs holds completion times: from a catalog's first figure to the
	// end of each figure. Per-figure durations were too fragile a
	// latency: most figures only re-render experiments an earlier one
	// ran, so their median sat among millisecond renders and moved by a
	// third between runs.
	lat := make([]time.Duration, len(figs))
	for i, f := range figs {
		lat[i] = time.Duration(f * 1e6)
	}
	out.metrics["setup_s"] = metric{median(setups), "s"}
	out.metrics["wall_s"] = metric{median(walls), "s"}
	out.metrics["throughput_rps"] = metric{float64(len(figs)) / total, "1/s"}
	out.metrics["p50_ms"] = metric{quantileMS(lat, 0.50), "ms"}
	out.metrics["p99_ms"] = metric{quantileMS(lat, 0.99), "ms"}
	out.metrics["peak_rss_mb"] = metric{median(peaks), "MB"}
	out.report["catalogs"], out.report["wall_s_samples"] = len(walls), walls
	out.report["setup_samples"], out.report["latency_samples"] = setups, len(figs)
	return out, nil
}

// serveWorkload describes one serving workload.
type serveWorkload struct {
	// wrap cycles the sequence; only serve-hot, whose requests all hit
	// after the warm-up, may repeat it.
	wrap     bool
	warm     bool // a warm-up pass over the distinct requests is part of set-up
	sequence func(seed uint64) ([]op, error)
}

var (
	hotWorkload = serveWorkload{wrap: true, warm: true, sequence: func(seed uint64) ([]op, error) {
		o, err := hotOracles()
		if err != nil {
			return nil, err
		}
		return hotSequence(seed, o)
	}}
	coldWorkload = serveWorkload{sequence: func(seed uint64) ([]op, error) {
		p, err := loadColdPool()
		if err != nil {
			return nil, err
		}
		return coldSequence(seed, p)
	}}
)

// settle is the untimed closed-loop phase between set-up and timing.
// Throughput over a fresh server's first seconds climbed by 10-15% before
// levelling off, and timing that ramp made runs disagree.
const settle = 2 * time.Second

// setupSamples is how many set-ups a serving run times; setup_s is
// their median. The first is the run's own. The timed loop then runs in
// setupSamples-1 equal parts, and after each a spare server is set up
// the same way and timed, outside the timed window. A shared 2-vCPU
// VM's speed moves on a scale of seconds, so set-ups taken one after another
// all land on one moment's speed; spread over the run, they see the
// same mix of speeds as the timed operations.
const setupSamples = 11

// setUp boots the workload's server and, for serve-hot, runs the
// warm-up pass with client c, returning how long that took.
func setUp(w serveWorkload, ops []op, c *loadgen.Client) (*replicaSet, tally, time.Duration, error) {
	var warm tally
	t0 := time.Now()
	rs, err := bootReplicas(1)
	if err != nil {
		return nil, warm, 0, err
	}
	if w.warm {
		for _, o := range distinct(ops) {
			warm.add(execOp(c, rs.bases[0], o, "perfbench-warm"))
		}
	}
	return rs, warm, time.Since(t0), nil
}

func runServe(cfg runConfig, w serveWorkload) (*runOut, error) {
	ops, err := w.sequence(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &runOut{metrics: map[string]metric{}, report: map[string]any{"sequence_sha256": sequenceDigest(ops)}}
	cs := newClients()
	defer closeClients(cs)

	// The generator's garbage is collected first, so the set-up does not
	// pay for it.
	runtime.GC()
	rs, warm, d0, err := setUp(w, ops, cs[0])
	if err != nil {
		return nil, err
	}
	defer rs.close()
	setups := []float64{d0.Seconds()}
	settled := closedLoop(cs, rs.bases[0], ops, 0, w.wrap, settle, nil, nil, 0)
	next := settled.n
	runtime.GC()
	before, err := readServeStats(rs)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var phases []loopResult
	// lat[0] holds the timed latencies; a traced run keeps the traced
	// blocks' in lat[1].
	lat := [2]*latencies{newLatencies()}
	// An untraced run reports the median over its timed parts of each
	// part's throughput and percentiles (see the README).
	var parts struct {
		n             int
		rps, p50, p99 []float64
	}
	if cfg.trace {
		// Traced and untraced one-second blocks alternate, so both see the
		// same mix of warm and cold caches; the difference in median
		// operation latency between them is the tracing overhead.
		lat[1] = newLatencies()
		tr = newTracer(cfg.run)
		root := tr.begin("workload", 0)
		blocks := max(2, int(cfg.seconds/time.Second))
		for b := 0; b < blocks; b++ {
			var t *tracer
			if b%2 == 1 {
				t = tr
			}
			rs.trace.Store(t)
			lr := closedLoop(cs, rs.bases[0], ops, next, w.wrap, cfg.seconds/time.Duration(blocks), lat[b%2], t, root)
			next += lr.n
			phases = append(phases, lr)
		}
		rs.trace.Store(nil)
		tr.end(root)
	} else {
		for len(setups) < setupSamples {
			lr := closedLoop(cs, rs.bases[0], ops, next, w.wrap, cfg.seconds/(setupSamples-1), lat[0], nil, 0)
			next += lr.n
			phases = append(phases, lr)
			n, p50, p99 := lat[0].cut()
			parts.n += n
			parts.rps = append(parts.rps, float64(n)/lr.Elapsed.Seconds())
			parts.p50, parts.p99 = append(parts.p50, p50), append(parts.p99, p99)
			spare, t, d, err := setUp(w, ops, cs[0])
			if err != nil {
				return nil, err
			}
			spare.close()
			warm.merge(t)
			setups = append(setups, d.Seconds())
		}
	}
	peak := peakRSSMB()
	after, err := readServeStats(rs)
	if err != nil {
		return nil, err
	}

	// Every operation counts toward attempted and failed, timed or not.
	all := warm
	all.merge(settled.tally)
	for _, p := range phases {
		all.merge(p.tally)
	}
	out.attempted, out.failed = all.n, all.failed
	d := after.minus(before)
	hitRatio := ratio(d.Cache.Hits, d.Cache.Hits+d.Cache.Misses+d.Cache.Coalesced)
	out.report["requests_per_kind"], out.report["cache_hit_ratio"] = all.kinds, hitRatio
	out.report["setup_samples"] = setups
	if len(all.errs) > 0 {
		out.report["errors"] = all.errs
	}
	for _, p := range phases {
		if p.Exhausted {
			out.report["sequence_exhausted"] = true
		}
	}

	if cfg.trace {
		// Op latencies are heavy-tailed, so the blocks compare medians.
		layerMetrics(d, before.Runtime, after.Runtime, lat[0].n+lat[1].n, out.metrics)
		return out, finishTrace(cfg, tr, quantileMS(lat[1].buf, 0.5)/quantileMS(lat[0].buf, 0.5)-1, out)
	}

	var elapsed time.Duration
	for _, p := range phases {
		elapsed += p.Elapsed
	}
	out.metrics["setup_s"] = metric{median(setups), "s"}
	out.metrics["wall_s"] = metric{elapsed.Seconds(), "s"}
	out.metrics["throughput_rps"] = metric{median(parts.rps), "1/s"}
	out.metrics["p50_ms"] = metric{median(parts.p50), "ms"}
	out.metrics["p99_ms"] = metric{median(parts.p99), "ms"}
	out.metrics["peak_rss_mb"] = metric{peak, "MB"}
	out.report["latency_samples"] = parts.n
	out.report["part_throughput_rps"], out.report["part_p50_ms"], out.report["part_p99_ms"] = parts.rps, parts.p50, parts.p99
	return out, nil
}
