// Command loadgen hammers a running gpuvard with concurrent identical
// requests and verifies the service's core contract: every response for
// the same request is byte-identical regardless of which worker asked,
// whether it was computed, coalesced, or replayed from the cache.
//
// It reports throughput (req/s), latency percentiles (p50/p99), the
// cold-vs-warm latency ratio for the first path, and the server's
// X-Cache hit/miss split. Server-aborted responses — 504 (request
// deadline exceeded) and 499 (request canceled) — are counted
// separately from failures: under an aggressive -timeout they are the
// server shedding load as designed, not a bug. It exits nonzero if any
// response diverges from the first response for its path or fails
// outright.
//
// With -jobs, the -sweep body is additionally exercised through the
// async path: each such "request" is a full POST /v1/jobs submission
// (202 + job URL), a poll loop over GET /v1/jobs/{id} asserting the
// reported shard progress never goes backwards, and a GET of
// /v1/jobs/{id}/result — whose bytes must match the synchronous
// POST /v1/sweep reference exactly (the async path's core contract).
//
// With -stream, the streaming endpoints are verified against their
// synchronous twins: the -sweep body is replayed as GET
// /v1/stream/sweep (query-parameter spelling) and every -paths entry
// under /v1/experiments/ as GET /v1/stream/experiments/..., reading the
// NDJSON incrementally. The concatenated line payloads must hash
// identically to the synchronous reference, the terminal summary's
// declared sha256 must match, and the time to the first line is
// measured and reported — the stream's reason to exist.
//
// With -estimate, the -sweep body drives the analytical tier instead
// of the plain sweep (a wide axis is the point, and wide axes exceed
// the 32-value full-simulation cap by design — so -estimate excludes
// -jobs and -stream): it is POSTed to /v1/estimate and as an adaptive
// /v1/sweep (tolerance -threshold), both riding the same prime/hot
// byte-identity machinery — the estimator must be deterministic
// request over request. On top of that, the adaptive response's
// structure is verified once after priming against the pre-screened
// sweep's contract.
//
// # Traffic traces
//
// Two further modes speak the versioned trace format of
// internal/traffic (record with gpuvard -record-trace):
//
// With -replay, loadgen plays a trace file back instead of a synthetic
// mix: every record is sent at its recorded offset (virtual clock by
// default; -pace 1.0 replays at recorded wall-clock speed), as its
// recorded client identity, and the response is verified against the
// record's oracle status + sha256. Async job records drive the full
// submit/poll/result lifecycle; stream records reassemble the NDJSON.
// The run reports overall and per-phase p50/p99, stream
// time-to-first-line percentiles, and a digest — the sha256 of the
// observed (status, sha256) sequence in trace order, so two replay
// runs are comparable with a single string equality. -record-out
// writes the trace back with each record's oracle filled from this
// run's observations (how a generated trace becomes a fixture).
//
// With -generate, loadgen emits a seeded synthetic workload trace
// instead of running at all: traffic.GenSpec's default shape (a
// multi-period diurnal rate curve, bursty on/off client cohorts with
// heavy-tailed Pareto burst sizes, and a weighted request mix over the
// five endpoint kinds: figures, sweep, estimate, stream, jobs) at the
// -gen-rate and -gen-duration given. The same -gen-seed always produces
// a byte-identical file.
//
// Usage:
//
//	loadgen                                     # 32 workers, 512 reqs, /v1/figures/fig2
//	loadgen -c 64 -n 2048 -paths /v1/figures/fig2,/v1/experiments/sgemm?cluster=CloudLab
//	loadgen -duration 30s                       # time-based instead of count-based
//	loadgen -sweep '{"cluster":"CloudLab","axis":"powercap","values":[300,250,200,150]}'
//	loadgen -sweep '{"axis":"seed","values":[1,2,3]}' -jobs
//	loadgen -sweep '{"axis":"fraction","values":[0.5,1]}' -stream
//	loadgen -sweep '{"axis":"powercap","values":[100,150,200,250,300]}' -estimate
//	loadgen -url http://localhost:9090 -c 8
//	loadgen -url http://h1:8081,http://h2:8082,http://h3:8083 -sweep '...'
//	loadgen -clients 4 -api-key team -jobs -sweep '...'
//	loadgen -generate burst.trace -gen-seed 7 -gen-duration 30s -gen-rate 8
//	loadgen -replay burst.trace                 # virtual clock, verify oracles
//	loadgen -replay burst.trace -pace 1.0       # recorded wall-clock pacing
//	loadgen -replay burst.trace -record-out burst.oracle.trace
//
// -url accepts a comma-separated replica list: priming, streaming, and
// the adaptive verification hit the first replica (pinning the
// reference bytes), and the hot pass rotates requests across all of
// them — so one run asserts the distributed deployment's byte-identity
// contract: any replica, same request, same bytes.
//
// With -api-key, every request carries an X-API-Key header so the
// server attributes it to a client; -clients N spreads the workers
// across N derived identities (<key>-0 .. <key>-N-1), exercising the
// server's per-client fair queuing and per-client 429 shedding the way
// N separate tenants would.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuvar/internal/loadgen"
	"gpuvar/internal/traffic"
)

func main() {
	var (
		base     = flag.String("url", "http://localhost:8080", "server base URL, or a comma-separated replica list (priming uses the first; the hot pass rotates over all)")
		paths    = flag.String("paths", "/v1/figures/fig2", "comma-separated GET request paths")
		sweep    = flag.String("sweep", "", "JSON body to POST to /v1/sweep as part of the mix (empty = no sweep requests)")
		jobsMode = flag.Bool("jobs", false, "also run the -sweep body through the async job path (submit, poll progress, fetch result) and require the result bytes to match the synchronous sweep response")
		stream   = flag.Bool("stream", false, "also verify the streaming endpoints: reassembled NDJSON payloads must be byte-identical to the synchronous responses; reports time-to-first-line")
		estimate = flag.Bool("estimate", false, "also drive the analytical tier: POST the -sweep body to /v1/estimate and as an adaptive sweep, verifying the mixed response's structure and that its simulated points match a plain sweep of the same values")
		thresh   = flag.Float64("threshold", 0.05, "relative error tolerance for the adaptive sweep driven by -estimate")
		conc     = flag.Int("c", 32, "concurrent workers (also the replay in-flight bound)")
		total    = flag.Int("n", 512, "total requests (split across workers, round-robin over paths)")
		duration = flag.Duration("duration", 0, "run for this long instead of a fixed -n (0 = use -n)")
		apiKey   = flag.String("api-key", "", "X-API-Key to send (empty = anonymous; the server falls back to the remote address)")
		clients  = flag.Int("clients", 1, "spread workers across this many derived client identities (<api-key>-0 .. <api-key>-N-1)")

		replayPath = flag.String("replay", "", "replay this traffic-trace file instead of a synthetic mix (see internal/traffic)")
		pace       = flag.Float64("pace", 0, "replay clock: 0 = virtual (as fast as ordering allows), 1.0 = recorded speed, 2.0 = twice recorded speed")
		recordOut  = flag.String("record-out", "", "after -replay, write the trace back here with each record's oracle (status+sha256) filled from this run")

		genOut      = flag.String("generate", "", "generate a seeded workload trace to this file and exit (no server needed)")
		genSeed     = flag.Uint64("gen-seed", 1, "generator seed (same seed = byte-identical trace)")
		genDuration = flag.Duration("gen-duration", time.Minute, "generated workload's virtual duration")
		genRate     = flag.Float64("gen-rate", 40, "mean request rate (req/s) at diurnal level 1.0")
	)
	flag.Parse()

	if *genOut != "" {
		os.Exit(runGenerate(*genOut, traffic.GenSpec{Seed: *genSeed, Duration: *genDuration, Rate: *genRate}))
	}

	var bases []string
	for _, b := range strings.Split(*base, ",") {
		if b = strings.TrimSpace(strings.TrimSuffix(b, "/")); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -url must name at least one replica")
		os.Exit(1)
	}

	if *replayPath != "" {
		os.Exit(runReplay(*replayPath, bases, *conc, *pace, *recordOut))
	}

	os.Exit(runClassic(bases, *paths, *sweep, *jobsMode, *stream, *estimate, *thresh,
		*conc, *total, *duration, *apiKey, *clients))
}

// runGenerate emits a seeded workload trace (no server involved).
func runGenerate(out string, spec traffic.GenSpec) int {
	tr, err := traffic.Generate(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if err := os.WriteFile(out, tr.Encode(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Printf("generated %s: %d records, seed %d, %s\n", out, len(tr.Records), spec.Seed, tr.Header.Note)
	for kind, n := range tr.Kinds() {
		fmt.Printf("  %-10s %d\n", kind, n)
	}
	fmt.Println("replay it (and fill the oracle) with: loadgen -replay", out, "-record-out", out)
	return 0
}

// runReplay plays a trace back and reports per-phase latency, stream
// TTFL, and the run digest.
func runReplay(path string, bases []string, conc int, pace float64, recordOut string) int {
	tr, stats, err := traffic.DecodeFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if stats.SkippedRecords > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: note: %s has a torn tail (%d chunk(s), %d bytes dropped) — replaying the intact prefix\n",
			path, stats.SkippedRecords, stats.TruncatedBytes)
	}
	if len(tr.Records) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: trace has no records")
		return 1
	}
	clock := "virtual clock"
	if pace > 0 {
		clock = fmt.Sprintf("wall clock, pace %gx", pace)
	}
	fmt.Printf("replay %s: %d records (source %s, seed %d), %s, %d in flight\n",
		path, len(tr.Records), tr.Header.Source, tr.Header.Seed, clock, conc)

	c := &loadgen.Client{}
	res, err := c.Replay(tr, loadgen.ReplayOptions{Bases: bases, Concurrency: conc, Pace: pace, Verify: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}

	fmt.Printf("\n%d requests in %.2fs (%.0f req/s)\n",
		len(res.Records), res.Elapsed.Seconds(), float64(len(res.Records))/res.Elapsed.Seconds())
	all := res.Latencies("")
	fmt.Printf("latency:    p50 %.2f ms  p99 %.2f ms\n",
		loadgen.PercentileMS(all, 0.50), loadgen.PercentileMS(all, 0.99))
	for _, phase := range res.Phases() {
		if phase == "" {
			continue
		}
		ds := res.Latencies(phase)
		fmt.Printf("  %-9s p50 %.2f ms  p99 %.2f ms  (%d reqs)\n",
			phase, loadgen.PercentileMS(ds, 0.50), loadgen.PercentileMS(ds, 0.99), len(ds))
	}
	if ttfls := res.TTFLs(); len(ttfls) > 0 {
		fmt.Printf("stream TTFL: p50 %.2f ms  p99 %.2f ms  (%d streams)\n",
			loadgen.PercentileMS(ttfls, 0.50), loadgen.PercentileMS(ttfls, 0.99), len(ttfls))
	}
	if n := res.Aborts(); n > 0 {
		fmt.Printf("aborted:    %d responses shed by the server (deadline/cancel)\n", n)
	}
	fmt.Printf("digest: %s\n", res.Digest())

	if recordOut != "" {
		filled, err := res.FillOracle(tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: -record-out:", err)
			return 1
		}
		if err := os.WriteFile(recordOut, filled.Encode(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		fmt.Printf("wrote %s with the oracle filled from this run\n", recordOut)
	}
	if n := res.Mismatches(); n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d mismatched or failed records\n", n)
		if bad := res.FirstBad(); bad != nil {
			fmt.Fprintf(os.Stderr, "loadgen: first failure: record #%d (%s %s)\n", bad.Index, bad.Kind, tr.Records[bad.Index].Path)
			if bad.Err != nil {
				fmt.Fprintf(os.Stderr, "loadgen:   error: %v\n", bad.Err)
			} else {
				fmt.Fprintf(os.Stderr, "loadgen:   %s\n", bad.Mismatch)
			}
		}
		return 1
	}
	fmt.Println("replay verification: OK (every record matched its oracle)")
	return 0
}

// runClassic is the synthetic round-robin mix: prime, verify the
// stream/adaptive contracts, then the hot byte-identity pass.
func runClassic(bases []string, paths, sweep string, jobsMode, stream, estimate bool, thresh float64,
	conc, total int, duration time.Duration, apiKey string, clients int) int {
	if len(bases) > 1 {
		fmt.Printf("replicas: %d (%s reference; hot pass rotates)\n", len(bases), bases[0])
	}
	if estimate && stream {
		fmt.Fprintln(os.Stderr, "loadgen: -estimate routes -sweep to the analytical tier; run -jobs/-stream in a separate invocation")
		return 1
	}
	if clients < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -clients must be at least 1")
		return 1
	}
	// keyFor derives worker w's client identity. One identity total when
	// -clients is 1; N distinct suffixed keys otherwise ("tenant" stands
	// in as the prefix if -api-key was not given).
	keyFor := func(w int) string {
		if clients == 1 {
			return apiKey
		}
		prefix := apiKey
		if prefix == "" {
			prefix = "tenant"
		}
		return fmt.Sprintf("%s-%d", prefix, w%clients)
	}
	if clients > 1 {
		fmt.Printf("clients: %d identities (X-API-Key %s .. %s)\n", clients, keyFor(0), keyFor(clients-1))
	}

	targets, adaptiveBody, err := loadgen.BuildMix(loadgen.MixConfig{
		Paths:     strings.Split(paths, ","),
		Sweep:     sweep,
		Jobs:      jobsMode,
		Estimate:  estimate,
		Threshold: thresh,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	client := &loadgen.Client{}

	// Cold pass: one priming request per target, timed separately. This
	// also pins the reference body every later response must match.
	ref := make(map[string][32]byte, len(targets))
	coldMs := make(map[string]float64, len(targets))
	for _, tg := range targets {
		t0 := time.Now()
		body, cacheHdr, aborted, err := client.Do(bases[0], tg, keyFor(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		if aborted {
			fmt.Fprintf(os.Stderr, "loadgen: priming %s was server-aborted; raise the server -timeout or shrink the request\n", tg.Label)
			return 1
		}
		coldMs[tg.Label] = float64(time.Since(t0).Microseconds()) / 1000
		ref[tg.Label] = sha256.Sum256(body)
		fmt.Printf("prime %-60s %8.1f ms  (%d bytes, X-Cache: %s)\n", tg.Label, coldMs[tg.Label], len(body), cacheHdr)
	}
	// The async path must return the synchronous sweep's exact bytes.
	if jobsMode && ref[loadgen.JobLabel] != ref[loadgen.SweepLabel] {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL: async job result diverged from the synchronous /v1/sweep response")
		return 1
	}

	// Structural verification of the adaptive tier: re-fetch the primed
	// adaptive response (a warm hit — also proving the estimator answers
	// deterministically) and hold it to the pre-screened contract.
	if estimate {
		simulated, estimated, err := client.VerifyAdaptive(bases[0], sweep, adaptiveBody, keyFor(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: FAIL: adaptive sweep:", err)
			return 1
		}
		fmt.Printf("adaptive: %d simulated + %d estimated variants; simulated points match a plain sweep literal-for-literal\n",
			simulated, estimated)
	}

	// Streaming verification: every stream must reassemble to its
	// synchronous reference, byte for byte, with the first line well
	// ahead of completion.
	if stream {
		type streamTarget struct {
			label string
			url   string
			ref   [32]byte
		}
		var sts []streamTarget
		if sweep != "" {
			u, err := loadgen.SweepStreamURL(bases[0], sweep)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen: -stream:", err)
				return 1
			}
			sts = append(sts, streamTarget{label: "STREAM /v1/stream/sweep", url: u, ref: ref[loadgen.SweepLabel]})
		}
		for _, p := range strings.Split(paths, ",") {
			if strings.HasPrefix(p, "/v1/experiments/") {
				sts = append(sts, streamTarget{
					label: "STREAM /v1/stream" + p[len("/v1"):],
					url:   bases[0] + strings.Replace(p, "/v1/experiments/", "/v1/stream/experiments/", 1),
					ref:   ref["GET "+p],
				})
			}
		}
		if len(sts) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -stream needs -sweep or a /v1/experiments/ path to stream")
			return 1
		}
		for _, st := range sts {
			sr, err := client.StreamVerify(st.url, st.ref, keyFor(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: FAIL: %s: %v\n", st.label, err)
				return 1
			}
			fmt.Printf("stream %-55s %d lines, first line %8.1f ms, done %8.1f ms, byte-identity OK\n",
				st.label, sr.Lines, float64(sr.TTFL.Microseconds())/1000, float64(sr.Total.Microseconds())/1000)
		}
	}

	// Hot pass: all workers, round-robin over targets, every completed
	// body checked against the reference hash. In duration mode workers
	// run until the deadline; otherwise until -n requests are done.
	var (
		mu       sync.Mutex
		stats    loadgen.Stats
		mismatch atomic.Int64
		aborts   atomic.Int64
		next     atomic.Int64
		// firstBad captures the first diverging or failed request for
		// triage: under chaos testing "1 of 512 mismatched" is useless
		// without knowing which request and how the bytes differed.
		firstBad atomic.Pointer[loadgen.MismatchReport]
	)
	recordBad := func(r *loadgen.MismatchReport) {
		firstBad.CompareAndSwap(nil, r)
		mismatch.Add(1)
	}
	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		key := keyFor(w)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if deadline.IsZero() {
					if i >= total {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				tg := targets[i%len(targets)]
				t0 := time.Now()
				body, cacheHdr, aborted, err := client.Do(bases[i%len(bases)], tg, key)
				d := time.Since(t0)
				if aborted {
					aborts.Add(1)
					continue
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "loadgen:", err)
					recordBad(&loadgen.MismatchReport{Request: i, Label: tg.Label, Err: err})
					continue
				}
				if got := sha256.Sum256(body); got != ref[tg.Label] {
					fmt.Fprintf(os.Stderr, "loadgen: response for %s diverged from reference\n", tg.Label)
					recordBad(&loadgen.MismatchReport{
						Request: i, Label: tg.Label,
						WantSHA: ref[tg.Label], GotSHA: got,
						Body: body,
					})
					continue
				}
				mu.Lock()
				stats.Add(loadgen.Sample{Label: tg.Label, D: d, Cache: cacheHdr})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(stats.Samples) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no successful requests")
		return 1
	}
	durs := stats.Durations()
	reqs := float64(len(stats.Samples))
	hits := stats.Hits()
	fmt.Printf("\n%d requests, %d workers, %.2fs\n", len(stats.Samples), conc, elapsed.Seconds())
	fmt.Printf("throughput: %.0f req/s\n", reqs/elapsed.Seconds())
	fmt.Printf("latency:    p50 %.2f ms  p99 %.2f ms\n",
		loadgen.PercentileMS(durs, 0.50), loadgen.PercentileMS(durs, 0.99))
	fmt.Printf("cache:      %d/%d hits (%.0f%%)\n", hits, len(stats.Samples), 100*float64(hits)/reqs)
	if n := aborts.Load(); n > 0 {
		fmt.Printf("aborted:    %d responses shed by the server (deadline/cancel), not counted as failures\n", n)
	}
	byLabel := stats.ByLabel()
	for _, tg := range targets {
		ds := byLabel[tg.Label]
		if len(ds) == 0 {
			continue
		}
		if warm := loadgen.PercentileMS(ds, 0.50); warm > 0 {
			fmt.Printf("cold/warm:  %-60s %.1fx (cold %.1f ms vs warm p50 %.2f ms)\n",
				tg.Label, coldMs[tg.Label]/warm, coldMs[tg.Label], warm)
		}
	}
	if n := mismatch.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d mismatched or failed responses\n", n)
		if r := firstBad.Load(); r != nil {
			r.Print(os.Stderr)
		}
		return 1
	}
	fmt.Println("byte-identity: OK (every response matched its target's reference)")
	return 0
}
