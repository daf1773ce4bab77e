package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/dvfs"
	"gpuvar/internal/engine"
	"gpuvar/internal/figures"
	"gpuvar/internal/jobs"
	"gpuvar/internal/loadgen"
	"gpuvar/internal/rng"
	"gpuvar/internal/service"
	"gpuvar/internal/sim"
	"gpuvar/internal/workload"
)

// The layer probes of a traced run. Each times calls into one layer's
// public functions from outside, in a fresh process of its own so that
// its figures do not depend on what the workload left in the
// process-wide caches. Every call is recorded as a span.

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianOf runs fn n times and returns the median of what it returns.
func medianOf(n int, fn func(i int) float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn(i)
	}
	return median(xs)
}

func runProbes(tr *tracer) (map[string]metric, error) {
	ctx := context.Background()
	m := map[string]metric{}
	root := tr.begin("probe", 0)
	defer tr.end(root)
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// cluster: instantiate a Longhorn fleet on a fresh cache.
	spec := cluster.Longhorn()
	fleets := make([]*cluster.Fleet, 3)
	m["cluster.instantiate_ms"] = metric{medianOf(3, func(i int) float64 {
		fc := cluster.NewFleetCache()
		return ms(tr.timed("cluster.instantiate", root, func() {
			var err error
			fleets[i], err = fc.Get(ctx, spec, uint64(101+i))
			check(err)
		}))
	}), "ms"}
	if firstErr != nil {
		return nil, firstErr
	}

	// sim: one-GPU SGEMM jobs on fresh devices (steady-state solve plus
	// iteration synthesis), then the same calls again on the now
	// memo-warm devices (synthesis only).
	wl := workload.SGEMMForCluster(spec.SKU())
	wl.Iterations = figures.Config{}.Normalized().Iterations
	var solve, synth []float64
	for i, fl := range fleets {
		members := fl.Observed()
		devs := make([]*sim.Device, len(members))
		sys := rng.New(uint64(101 + i)).Split("perfbench-sim")
		for j, mb := range members {
			node := *mb.Therm
			devs[j] = sim.NewDevice(mb.Chip, &node, dvfs.DefaultConfig(), 0, sys.SplitIndex("sys", j))
		}
		runAll := func() time.Duration {
			return tr.timed("sim.run_steady", root, func() {
				for j, d := range devs {
					sim.RunSteady([]*sim.Device{d}, wl, sys.SplitIndex("job", j), sim.Options{})
				}
			})
		}
		cold, warm := runAll(), runAll()
		n := float64(len(devs))
		solve = append(solve, us(cold-warm)/n)
		synth = append(synth, us(warm)/n)
	}
	m["sim.solve_us_per_gpu"] = metric{median(solve), "us"}
	m["sim.synth_us_per_gpu_run"] = metric{median(synth), "us"}

	// core: a Longhorn SGEMM experiment with its fleet already cached,
	// then the aggregations the figures render from.
	exp := core.Experiment{Cluster: spec, Workload: wl, Seed: 101, Runs: 1}
	res, err := core.RunCtx(ctx, exp)
	if err != nil {
		return nil, err
	}
	m["core.run_ms"] = metric{medianOf(3, func(int) float64 {
		return ms(tr.timed("core.run", root, func() {
			var err error
			res, err = core.RunCtx(ctx, exp)
			check(err)
		}))
	}), "ms"}
	m["core.aggregate_ms"] = metric{medianOf(3, func(int) float64 {
		return ms(tr.timed("core.aggregate", root, func() {
			res.Summarize()
			res.Correlate()
			res.BoxByGroup(core.Perf)
		}))
	}), "ms"}

	// figures: every generator at default fidelity on a fresh session
	// (experiments run), then again on the same session (render only).
	s := figures.NewSession(figures.Config{})
	catalogPass := func(name string) time.Duration {
		var total time.Duration
		for _, g := range figures.AllWithExtensions() {
			total += tr.timed(name, root, func() { check(figures.Generate(ctx, g.ID, s, io.Discard)) })
		}
		return total
	}
	m["figures.generate_ms"] = metric{ms(catalogPass("figures.generate")), "ms"}
	m["figures.render_ms"] = metric{ms(catalogPass("figures.render")), "ms"}

	// engine: elastic Map over no-op shards.
	const noopShards = 20000
	m["engine.map_us_per_shard"] = metric{medianOf(3, func(int) float64 {
		return us(tr.timed("engine.map", root, func() {
			_, err := engine.Map(ctx, noopShards, 0, func(context.Context, int) (struct{}, error) { return struct{}{}, nil })
			check(err)
		})) / noopShards
	}), "us"}

	// estimate: a cold estimator sweep (calibration anchor runs plus
	// closed-form points) minus the same sweep repeated (points only).
	cl := cluster.CloudLab()
	clWL := workload.SGEMMForCluster(cl.SKU())
	clWL.Iterations = wl.Iterations
	m["estimate.calibrate_ms"] = metric{medianOf(3, func(i int) float64 {
		e := core.Experiment{Cluster: cl, Workload: clWL, Seed: uint64(104 + i), Runs: 1}
		vals := []float64{300, 260, 220, 180, 140}
		sweep := func() time.Duration {
			return tr.timed("estimate.sweep", root, func() {
				_, err := core.EstimateSweepCtx(ctx, e, core.AxisPowerCap, vals)
				check(err)
			})
		}
		cold, warm := sweep(), sweep()
		return ms(cold - warm)
	}), "ms"}
	if firstErr != nil {
		return nil, firstErr
	}

	if err := probeServing(tr, root, m); err != nil {
		return nil, err
	}
	return m, firstErr
}

// probeServing measures the service, HTTP, stream, jobs and dispatch
// layers against servers of its own.
func probeServing(tr *tracer, root int, m map[string]metric) error {
	oracles, err := hotOracles()
	if err != nil {
		return err
	}
	seq, err := hotSequence(2022, oracles)
	if err != nil {
		return err
	}
	hot := distinct(seq)

	srv, err := service.New(service.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	handle := func(o op) (string, []byte, time.Duration) {
		req := httptest.NewRequest(o.Method, o.Path, strings.NewReader(o.Body))
		if o.Body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		id := tr.begin("service.serve_http", root)
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		tr.end(id)
		return rec.Header().Get("X-Cache"), rec.Body.Bytes(), d
	}
	var hits, misses []float64
	for round := 0; round < 40; round++ {
		for _, o := range hot {
			cache, body, d := handle(o)
			if err := verifyBody(o, body); err != nil {
				return err
			}
			switch cache {
			case "hit":
				hits = append(hits, us(d))
			case "miss":
				misses = append(misses, ms(d))
			}
		}
	}
	m["service.hit_us"] = metric{median(hits), "us"}
	m["service.miss_ms"] = metric{median(misses), "ms"}

	// http: the same hits over a loopback socket; the difference to the
	// handler's own time is the transport.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClients()[0]
	defer closeClients([]*loadgen.Client{c})
	var socket []float64
	for round := 0; round < 40; round++ {
		for _, o := range hot {
			var res outcome
			d := tr.timed("http.request", root, func() { res = execOp(c, ts.URL, o, "") })
			if res.Err != nil {
				return res.Err
			}
			socket = append(socket, us(d))
		}
	}
	m["http.transport_us"] = metric{median(socket) - median(hits), "us"}

	pool, err := loadColdPool()
	if err != nil {
		return err
	}
	sweeps := pool.sweeps[:0:0]
	for _, e := range pool.sweeps {
		if e.cluster == "CloudLab" && e.axis == "powercap" {
			sweeps = append(sweeps, e)
		}
		if len(sweeps) == 24 {
			break
		}
	}

	// stream: time to the first NDJSON line.
	var ttfl []float64
	for _, e := range sweeps[:5] {
		var res outcome
		tr.timed("stream.sweep", root, func() { res = execOp(c, ts.URL, e.as("stream"), "") })
		if res.Err != nil {
			return res.Err
		}
		ttfl = append(ttfl, ms(res.TTFL))
	}
	m["stream.ttfl_ms"] = metric{median(ttfl), "ms"}

	// jobs: four sweeps submitted at once against two execution slots;
	// queue wait and run time come from the job's own timestamps.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var waits, runs []float64
	var jobErr error
	for _, e := range sweeps[5:9] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := runJob(tr, root, ts.URL, e)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				jobErr = err
				return
			}
			waits = append(waits, ms(snap.StartedAt.Sub(snap.CreatedAt)))
			runs = append(runs, ms(snap.FinishedAt.Sub(snap.StartedAt)))
		}()
	}
	wg.Wait()
	if jobErr != nil {
		return jobErr
	}
	m["jobs.queue_wait_ms"] = metric{median(waits), "ms"}
	m["jobs.run_ms"] = metric{median(runs), "ms"}

	// dispatch: a sweep forced onto the peer replica minus the same
	// sweep computed locally, each on a server that has not cached it.
	rs, err := bootReplicas(2)
	if err != nil {
		return err
	}
	defer rs.close()
	var hops []float64
	for _, e := range sweeps[9:14] {
		local := e.as("sweep")
		var lres outcome
		dl := tr.timed("dispatch.local", root, func() { lres = execOp(c, ts.URL, local, "") })
		var rerr error
		dr := tr.timed("dispatch.remote", root, func() { rerr = remoteSweep(rs.bases[0], local) })
		if lres.Err != nil {
			return lres.Err
		}
		if rerr != nil {
			return rerr
		}
		hops = append(hops, ms(dr-dl))
	}
	m["dispatch.hop_ms"] = metric{median(hops), "ms"}

	// The pair's own counters over sweeps the default affinity policy
	// routes, sent to both replicas in turn: where shards ran, and
	// whether the replica that ran one already held its fleet.
	before, err := readServeStats(rs)
	if err != nil {
		return err
	}
	for i, e := range sweeps[14:24] {
		var res outcome
		tr.timed("dispatch.sweep", root, func() { res = execOp(c, rs.bases[i%2], e.as("sweep"), "") })
		if res.Err != nil {
			return res.Err
		}
	}
	after, err := readServeStats(rs)
	if err != nil {
		return err
	}
	d := after.minus(before)
	shards := d.Dispatch.ShardsLocal + d.Dispatch.ShardsRemote
	m["dispatch.shards"] = metric{float64(shards), "count"}
	m["dispatch.remote_shard_ratio"] = metric{ratio(d.Dispatch.ShardsRemote, shards), "ratio"}
	m["dispatch.warm_ratio"] = metric{ratio(d.Dispatch.WarmShards, d.Dispatch.WarmShards+d.Dispatch.ColdShards), "ratio"}
	m["dispatch.ejections"] = metric{float64(d.Ejections), "count"}
	return nil
}

func verifyBody(o op, body []byte) error {
	return checkOracle(o, sha256Hex(body))
}

// remoteSweep sends a sweep with every shard forced onto a peer.
func remoteSweep(base string, o op) error {
	req, err := http.NewRequest(o.Method, base+o.Path, strings.NewReader(o.Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-GPUVar-Route", "remote")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote sweep: status %d: %s", resp.StatusCode, loadgen.FirstLine(body))
	}
	return verifyBody(o, body)
}

// runJob submits a sweep as an async job, waits for it, checks its
// result bytes, and returns the job's final snapshot.
func runJob(tr *tracer, parent int, base string, e poolEntry) (jobs.Snapshot, error) {
	var snap jobs.Snapshot
	id := tr.begin("jobs.lifecycle", parent)
	defer tr.end(id)
	o := e.as("jobs")
	resp, err := http.Post(base+o.Path, "application/json", strings.NewReader(o.Body))
	if err != nil {
		return snap, err
	}
	var view struct {
		jobs.Snapshot
		URL string `json:"url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return snap, fmt.Errorf("job submit: status %d", resp.StatusCode)
	}
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	for view.State != jobs.StateDone {
		if view.State == jobs.StateFailed || view.State == jobs.StateCanceled {
			return snap, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
		}
		time.Sleep(time.Millisecond)
		if err := getJSON(hc, base+view.URL, &view); err != nil {
			return snap, err
		}
	}
	res, err := hc.Get(base + view.URL + "/result")
	if err != nil {
		return snap, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return snap, err
	}
	return view.Snapshot, verifyBody(o, body)
}
