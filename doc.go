// Package gpuvar reproduces "Not All GPUs Are Created Equal:
// Characterizing Variability in Large-Scale, Accelerator-Rich Systems"
// (SC 2022) as a Go library: a physics-based GPU fleet simulator (V/F
// curves, DVFS controllers, RC thermal models, manufacturing spread, and
// a defect taxonomy), the paper's five workloads, its six clusters, and
// the full characterization methodology (IQR variability, correlations,
// repeatability, day-of-week, power-limit sweeps, outlier triage).
//
// See internal/figures for the per-experiment generator catalog,
// cmd/calib for a paper-versus-measured calibration summary, and the
// examples/ directory for runnable entry points. The benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation; the same generators are exposed interactively by
// cmd/figures.
//
// # Performance
//
// The experiment hot path is
//
//	fleet instantiate → steady-state solve → iteration synthesis → aggregation
//
// and each stage has a reuse layer in front of it:
//
//   - Fleet instantiation (internal/cluster) samples every chip and
//     thermal node of a cluster — 27,648 of each for Summit — and is a
//     pure function of (Spec, seed). cluster.FleetCache memoizes it by
//     (Spec fingerprint, seed); core.Run goes through the process-wide
//     cluster.DefaultFleetCache, so a session pays the cost once per
//     distinct fleet instead of once per experiment. The ablation knobs
//     (NoDefects, VariationOverride) rewrite the spec before the lookup
//     and therefore hash to their own entries: cached fleets are never
//     mutated. Jobs still receive private thermal-node copies, so runs
//     cannot leak heat into each other. core.RunFresh bypasses the cache;
//     the golden tests in internal/core assert both paths are
//     bit-identical.
//
//   - The steady-state solve (internal/sim) converges each device's
//     DVFS/thermal operating point per kernel class — the math.Exp-heavy
//     part of the profile. Devices memoize solved points keyed by
//     (workload, ambient offset, P-state dither, chip defect generation),
//     which collapses the benchmarking-campaign loop (the same GPU
//     re-benchmarked every coverage period) to one solve per GPU.
//
//   - Iteration synthesis (sim.RunSteady) addresses all per-kernel state
//     through a kernelIndex — kernel names interned to dense slice
//     indices once per run — instead of string-keyed maps, and
//     preallocates every accumulator to its exact final size.
//
//   - Figure regeneration (internal/figures) builds its ID→generator
//     registry once, deduplicates shared experiments through a
//     singleflight session cache, and offers GenerateAllParallel
//     (cmd/figures -parallel) to run independent generators concurrently
//     with byte-identical output order.
//
// Every layer is required to be bit-exact: golden-output tests in
// internal/core and internal/campaign pin the full measurement stream
// (IEEE-754 bit patterns) against the original implementation, and
// TestGenerateAllParallelMatchesSerial pins the parallel catalog against
// the serial one.
//
// # Execution engine
//
// All compute fan-out runs on one shared executor, internal/engine,
// instead of per-layer worker pools:
//
//	engine.Map(ctx, n, workers, fn)  — sharded job: bounded pool sized
//	                                   once, results in shard order,
//	                                   per-shard panic recovery,
//	                                   cooperative ctx checks between
//	                                   shards, progress counters
//	engine.Group[V].Do(ctx, key, fn) — cancellation-safe singleflight:
//	                                   the execution belongs to its set
//	                                   of waiters, not to the caller
//	                                   that started it
//
// core.RunCtx shards an experiment over its jobs; campaign.SimulateCtx
// shards each benchmarking day over its node slots (the monitor then
// folds measurements sequentially — EWMA state is order-sensitive);
// figures.GenerateAllParallel shards the catalog over generators; the
// week/power/spatial studies shard over their variants. Deterministic
// shard→result ordering is what keeps every one of these bit-identical
// to the serial loops they replaced.
//
// The cancellation contract: every entry point takes a context and
// returns ctx.Err() promptly when it ends — workers stop pulling shards,
// in-flight shards finish (they are ms-scale), and no goroutines leak.
// Cache layers only ever store complete results: a canceled
// singleflight leader hands the in-flight computation to the remaining
// waiters (engine.Group refcounts them) rather than poisoning the key,
// and a computation nobody waits for anymore is itself canceled. The
// fleet cache is the one deliberate exception — instantiation is a pure
// memoizable function, so once sampling has begun an abandoned
// instantiate runs to completion and is cached for the next request,
// while the abandoning caller still returns immediately. But an
// instantiate whose every waiter is gone before sampling begins is
// never started (the admission rule), and completed fleets live in an
// LRU bounded at gpuvard -fleet-cache (default 16) with eviction and
// admission-skip counters on /v1/healthz — so seed-scanning clients
// cannot grow the server's fleet working set without limit.
//
// To profile the pipeline:
//
//	go test -run '^$' -bench BenchmarkFig04SGEMMSummit -cpuprofile cpu.out .
//	go tool pprof -top cpu.out
//
// and to record the benchmark trajectory across PRs:
//
//	make bench            # full suite → BENCH_10.json (ns/op, B/op, allocs/op)
//	make verify           # tier-1 tests + vet + bench smoke + regression gate
//
// # Serving
//
// The same catalog is served concurrently over HTTP by internal/service
// (run it with cmd/gpuvard, default :8080):
//
//	GET    /v1/figures            catalog of figure/table generators
//	GET    /v1/figures/{id}       one rendered figure (config via query)
//	GET    /v1/experiments/{name} one experiment summary (params via query)
//	POST   /v1/campaign           one campaign simulation (params via body)
//	POST   /v1/sweep              a bounded variant-axis sweep as one
//	                              engine job graph (see below); accepts
//	                              adaptive: true for pre-screened sweeps
//	GET/POST /v1/estimate         the sweep request answered analytically
//	                              in microseconds, every point carrying
//	                              an error bound (see below)
//	GET    /v1/stream/sweep       the same sweep streamed as NDJSON,
//	                              one line per variant (see below)
//	GET    /v1/stream/experiments/{name}
//	                              an experiment streamed as NDJSON,
//	                              one line per shard
//	POST   /v1/jobs               async submission → 202 + poll URL
//	GET    /v1/jobs               list live jobs, in creation order
//	GET    /v1/jobs/{id}          job state + per-shard progress
//	GET    /v1/jobs/{id}/result   finished job's response (replayable)
//	DELETE /v1/jobs/{id}          cancel (active) / forget (terminal)
//	GET    /v1/stats              cache/session/engine/job counters,
//	                              per-class queues, budget occupancy
//	GET    /v1/healthz            liveness + the same counters
//	GET    /v1/                   discovery document: every route with
//	                              its stability marker
//	GET    /v1/replicas           fleet membership + dispatch counters
//	                              (see Distribution below)
//
// # Variant-axis sweeps
//
// A sweep runs the same experiment once per value of one knob — its
// variant axis — as a single engine job graph (each value a shard, the
// values' own per-GPU jobs nested inside). The normalized request
// schema covers every axis the studies need:
//
//	{
//	  "workload":   "sgemm",         // default sgemm
//	  "cluster":    "CloudLab",      // default CloudLab
//	  "axis":       "powercap",      // powercap | seed | ambient | fraction
//	  "values":     [300, 250, 200], // ≤ 32 values, validated per axis
//	  "seed": 2022, "fraction": 1, "runs": 1, "iterations": 0
//	}
//
// powercap sweeps the administrative W cap (the paper's §VI-B study;
// 0 = TDP), seed sweeps fleet instantiation seeds (uncertainty bands),
// ambient sweeps inlet-temperature offsets in °C within ±25 (facility
// what-ifs), and fraction sweeps measurement coverage in (0, 1] (cost
// ladders). core.VariantSweepCtx implements all four axes once; the
// Fig. 22 generator is its powercap instance.
//
// # Analytical estimator
//
// A full-simulation sweep costs milliseconds per value; exploring a
// design space costs thousands of values. The estimator tier
// (internal/estimate, surfaced as /v1/estimate and the adaptive sweep
// mode) answers the same sweep-shaped questions from a calibrated
// closed form instead: sim.EstimateNominalSteady solves the
// steady-state DVFS/thermal/power fixed point for the NOMINAL device —
// no per-iteration loop, no RNG — and a tiny per-(SKU, workload, axis)
// calibration maps that nominal curve onto the fleet the simulator
// would actually build. Calibration fits two numbers — a fleet scale
// factor and a run-to-run noise level — against a handful of
// full-simulation anchor runs (three: the extremes and the midpoint of
// the requested axis), memoized
// process-wide by the exact request fingerprint, so it is a pure
// function of the request and never of run history: the same request
// estimates identically forever.
//
// Every estimated point carries an honest relative error bound
// assembled from what calibration observed — a floor, the anchors'
// spread around the fitted scale (model misfit: Corona's coarse MI60
// P-states yield wide bounds, CloudLab's smooth V100 curve tight
// ones), and the measured noise level. The validation harness pins
// that the true error against full simulation stays within the bound
// across all four axes and every catalog SKU. Warm, /v1/estimate
// answers a 9-value axis in ~40µs (BenchmarkServiceEstimate gates
// ≤50µs) and accepts 1024 values per request against the plain sweep's
// 32.
//
// Adaptive sweeps splice the two tiers: {"adaptive": true,
// "threshold": t} screens the axis through the estimator and spends
// full simulation only where the model cannot vouch for a point within
// tolerance t — its calibration anchors, points whose bound exceeds t,
// and points flanking a sharp local gradient — clamped at 32 simulated
// values per request. Both kinds run through ONE engine job graph
// whose simulated shards execute the exact shard body of the plain
// sweep, so simulated points are byte-identical to the non-adaptive
// sweep's (golden tests pin this per point, down to the JSON numeric
// literals) and ordered sink streaming works unchanged. threshold: 0
// folds onto the plain sweep — same cache entry, same bytes. The
// gpuvar_estimate_* metrics families count estimator calls,
// calibrations, screened-out versus fully simulated variants, and the
// worst calibration residual ever observed.
//
// # Streaming results
//
// The engine completes shards in deterministic order, so the service
// does not have to buffer a whole computation before answering: the
// /v1/stream endpoints flush one NDJSON line per completed top-level
// shard — a sweep variant, a per-GPU measurement job — with the first
// byte on the wire in milliseconds even for Summit-scale runs. The
// mechanism is engine.WithSink: an ordered per-shard sink carried via
// context (like engine.Progress), consumed by the next Map to run,
// which emits each shard's value the moment it and every lower-indexed
// shard have completed while nested jobs compute silently.
//
// Every line is {"kind", "shard", "shards", "payload", ...}: "start"
// (the body's prefix, sent immediately), "shard" (one completed shard,
// in order), and a terminal "summary" (the closing chunk plus the
// body's length and sha256) or in-band "error". The payloads are a
// progressive encoding of the SYNCHRONOUS response: concatenated in
// order they are byte-identical to the corresponding POST /v1/sweep or
// GET /v1/experiments body — golden tests pin this for all four sweep
// axes and both endpoints, and a completed stream deposits its verified
// body into the response cache so the synchronous twin replays it as a
// hit. Every stream, direct or async job, is one mechanism: the
// computation appends its lines to a bounded line log and the client
// follows that log, so a slow reader never blocks an engine worker. A
// sweep's log is bounded by its variant count and an experiment's by
// the cluster's GPU count (every measurement job holds at least one
// GPU). Streams run under the batch-length deadline (-job-timeout) and
// abort mid-shard on client disconnect; cmd/loadgen -stream reassembles
// them under load, asserts identity, and reports time-to-first-line.
//
// # Scheduling classes
//
// All elastic worker pools draw from one process-wide weighted token
// budget (gpuvard -budget, default GOMAXPROCS) instead of sizing
// per-job from GOMAXPROCS, so nested job graphs (sweep → experiment →
// per-GPU jobs) cannot oversubscribe the scheduler under heavy
// traffic. Every elastic Map runs one worker inline on its caller's
// goroutine — progress is guaranteed with zero tokens, which makes the
// scheduler deadlock-free under nesting — and recruits extra workers
// non-blockingly as shards complete, growing the pool the moment
// another job releases tokens.
//
// Work is classed interactive or batch (engine.WithClass, carried on
// the context): synchronous handlers and streams run interactive;
// async jobs default to batch, overridable per submission with
// {"class": "interactive"}. Interactive may occupy the whole budget;
// batch is capped below it (an interactive reserve of at least one
// token), and the jobs layer gives each class its own execution slots
// and queue — so an interactive request completes even while the batch
// side is saturated, a contract the engine and service test suites pin.
// Saturation is observable (/v1/healthz, /v1/stats: per-class queue
// depth and budget occupancy) and bounded: batch submissions past the
// queue bound (-max-queued-jobs) shed with 429 + Retry-After instead of
// growing an unbounded backlog.
//
// # Async jobs
//
// Summit-scale sweeps and long campaigns outlive any sane request
// deadline, so the service also accepts them asynchronously: POST
// /v1/jobs with {"kind": "sweep"|"campaign", "<kind>": <the sync
// endpoint's body>} answers 202 with a poll URL instead of holding the
// connection. The lifecycle (internal/jobs):
//
//	queued ──► running ──► done
//	   │          │    ├──► failed
//	   └──────────┴───────► canceled
//
// A job is queued until one of its class's execution slots frees
// (gpuvard -max-jobs bounds per-class concurrency so batch jobs cannot
// starve interactive ones), running while it computes under its
// own budget (-job-timeout, default 10m), and terminal afterwards.
// GET /v1/jobs/{id} reports the state plus per-shard progress —
// shards_done / shards_total, fed by the engine's shard counters
// through the job's context, with the total growing as nested jobs are
// discovered and both counters monotone while it runs. (A job that
// coalesces onto an identical in-flight computation, or replays a
// cached result, shows 0/0 — the work is not its own — and just
// completes when the shared flight does.) DELETE cancels:
// the engine stops dispatching the job's shards and its workers drain
// promptly.
//
// Retention: GET /v1/jobs/{id}/result replays the finished bytes on
// every fetch (fetching never consumes) until the job ages past its
// TTL (-job-ttl, default 10m) or the retained set exceeds its LRU cap,
// after which the job answers 404; canceled jobs answer 410, unfinished
// ones 409 + Retry-After. A job's computation runs through the same
// response cache and singleflight as the synchronous handlers, which
// guarantees its result is byte-identical to the held-connection
// response for the same body — and primes the cache for later
// synchronous requests. cmd/loadgen -jobs drives this whole lifecycle
// under load and asserts exactly that identity.
//
// A request descends through four reuse layers, each of which may
// short-circuit it: (1) the service's fingerprint-keyed LRU response
// cache with cancellation-safe singleflight coalescing — N concurrent
// identical requests cost one computation, and repeats replay stored
// bytes; (2) the figure session cache, which runs each shared
// experiment once per config; (3) the process-wide fleet cache, one
// instantiation per (spec, seed); (4) per-device steady-point
// memoization inside the simulator. The whole stack is deterministic,
// so identical requests are byte-identical no matter which layer
// answers — cmd/loadgen hammers a running server with concurrent
// workers and verifies exactly that while measuring req/s and p50/p99
// latency:
//
//	make serve                  # gpuvard on :8080
//	go run ./cmd/loadgen -c 32  # 32 workers, byte-identity + latency report
//
// Every handler bounds its computation with a per-request deadline
// (gpuvard -timeout, default 30s) and aborts it mid-run on client
// disconnect; the server answers 504 (deadline) or 499 (canceled), and
// loadgen reports such server-shed responses separately from failures.
//
// Concurrency model: cross-request shared state is confined to
// internally locked caches (response LRU, session pool, figures
// singleflight, fleet cache); every mutable simulation object
// (sim.Device, rng streams, thermal-node copies) is created inside the
// owning goroutine and never escapes it. go test -race covers the full
// stack, including a concurrent catalog run and an in-flight request
// cancellation through the server.
//
// # Multi-tenancy
//
// The front door attributes every request to a client: the X-API-Key
// header when sent (sanitized to 64 printable-ASCII chars), the remote
// address otherwise. Identity never changes response bytes — requests
// stay pure functions of their payload — it drives admission, fair
// scheduling, and accounting:
//
//   - Admission is double-bounded. Batch submissions shed with 429 when
//     the class-wide queue is full (gpuvard -max-queued-jobs; code
//     "queue_full") or when the submitting client's own backlog exceeds
//     its slice (-max-queued-per-client; code "client_queue_full",
//     naming the client) — a noisy tenant hits its own wall while quiet
//     tenants keep submitting.
//   - Dispatch is stride-scheduled fair sharing across clients inside
//     the class budget: each client's queue drains in proportion to its
//     weight (-client-weight team-a=4; default 1), a newly active
//     client enters at the class's virtual time (no starvation, no
//     banked credit), and ties break deterministically by client ID.
//   - Accounting rides /v1/stats (per-client queued/running/shed/served
//     and weight) and the dependency-free Prometheus text exposition at
//     GET /metrics (gpuvar_* counter/gauge families with per-class,
//     per-client, and per-fault-site labels).
//
// Every response carries X-Request-ID (echoed from the client if
// reasonable, generated otherwise), errors are a uniform JSON envelope
// with a stable machine-readable code.
//
// Async jobs also record their stream in the same line log the
// streaming endpoints serve from (the same schema and byte-identical
// payload chunks), kept for the job's lifetime, and GET
// /v1/jobs/{id}/stream attaches at ANY point in the job's life —
// replaying everything already emitted, then following live until the
// terminal line. A mid-run attach therefore delivers the identical
// bytes a from-the-start reader saw, and the concatenated payloads
// equal the job's result body exactly. A job replayed from the journal
// streams as an empty start line and a summary carrying the whole
// result. GET /v1/jobs is paginated
// (limit/page_token over stable creation order) and filterable by
// client and state. API.md documents the full surface.
//
// # Resilience
//
// The serving stack is built to keep answering — with the right bytes —
// while individual shard executions misbehave, and to prove it on
// demand. internal/faults is a process-wide fault-injection registry
// with named sites compiled into the hot paths:
//
//	engine.shard.pre    before a shard attempt executes
//	engine.shard.post   after a shard attempt returns
//	cache.fleet.get     fleet-cache lookups
//	jobs.persist        job-journal appends
//
// Each site can be armed (gpuvard -faults, or $GPUVARD_FAULTS) with a
// behavior and probability — 'site=error:p', 'panic:p', 'stall:p'
// (block until the context ends), or 'slow:p:dur' — e.g.
//
//	gpuvard -faults 'engine.shard.pre=error:0.3,cache.fleet.get=slow:0.1:5ms'
//
// Injections draw from per-site RNG streams derived from a fixed
// registry seed and the site name, so a chaos run is reproducible. A disarmed registry costs one atomic load
// per site check. Armed sites and their check/injection counters appear
// on /v1/healthz and /v1/stats.
//
// Failures are classified (engine.ClassifyError): context
// cancellation/deadline is Canceled, errors marked transient — by
// engine.MarkTransient or by implementing IsTransient() bool, as
// injected faults do — are Transient, everything else (including
// contained shard panics) is Permanent. Under a retry policy
// (engine.WithRetry on the context, or the process default from
// gpuvard -retries) a transiently failing shard re-executes up to
// MaxAttempts times with jittered doubling backoff, aborting promptly
// if the context ends; Permanent and Canceled failures never retry.
// Shards are pure functions of their inputs, so a retried shard's
// result is the first attempt's, and responses stay byte-identical —
// the golden chaos tests pin exactly that: sweep and campaign bytes
// under 30% injected transient shard faults equal the fault-free
// bytes. The engine does not hedge stragglers: in-process shards are
// deterministic and CPU-bound, so a duplicate attempt would only
// compete for the same cores. Retry and fault counters surface in
// engine.Stats and on /v1/stats.
//
// Jobs survive crashes: with gpuvard -data-dir set, internal/jobs
// appends a write-ahead journal of JSON lines (submit records and
// terminal transitions, done results' bytes included) under the data
// directory, fsynced per -journal-sync (terminal fsyncs terminal
// records — the default; always and never trade durability against
// throughput). On boot the journal replays: finished jobs answer
// GET /v1/jobs/{id}/result with their exact pre-crash bytes, and jobs
// interrupted mid-run resolve to failed with an explicit interruption
// reason instead of vanishing. Recovery tolerates corruption — a torn
// or garbage tail is truncated at the last decodable record and
// counted (skipped_records, truncated_bytes on /v1/stats) — and each
// replay compacts the file to the retained set so it tracks retention
// instead of growing without bound.
//
// Degraded serving: when a synchronous computation fails server-side
// (5xx) and a previously evicted copy of that exact response is still
// held in the cache's stale store, the service answers 200 with the
// stale bytes and X-Degraded: stale (plus X-Cache: stale) instead of
// the error — responses are pure functions of the request fingerprint,
// so a stale copy is never wrong, merely evicted. Client errors (4xx)
// are never masked. /v1/healthz reports status "degraded" (with ok
// still true — liveness is unaffected) while faults are armed or
// within a minute of a stale serve; degraded_serves counts them.
//
// scripts/smoke.sh drives all of this against a real server: a chaos
// stage (30% injected shard faults, retries armed, byte-identity to
// the fault-free run with zero 5xx) and a crash stage (kill -9
// mid-jobs, reboot over the same -data-dir, journal replay asserted).
//
// # Distribution
//
// One replica's worker budget bounds one machine; internal/dispatch
// puts a seam under engine.Map so a fleet of gpuvard replicas shares
// the shard work instead. A Backend executes a contiguous run of a
// job's shards — LocalBackend runs them in-process (the identity
// path: zero overhead, byte-identical to plain Map), HTTPBackend
// POSTs them to a peer's internal /v1/internal/shards route, where
// the same shard function runs against the peer's own caches. The
// Dispatcher in front holds the replica set and routes by affinity: it
// rendezvous-hashes each shard's fleet-cache fingerprint (spec, seed,
// axis setting) over the healthy members and picks the owner's
// backend. Affinity is the placement that makes a fleet faster than
// its parts: repeat variants of the same
// (cluster, seed) land on the replica whose fleet cache is already
// warm, and rendezvous hashing keeps placements stable under
// membership churn — a leaving peer remaps only its own keys. Wire a
// fleet by handing every replica the same -peers list (each drops its
// own -self-url); a background prober (-peer-probe, default 2s)
// ejects failing peers and readmits recovered ones, a shard that
// fails remotely ejects its peer immediately and re-picks a survivor
// (or local execution) under the engine retry policy, and a fleet
// with every peer down degrades to exactly the single-process server.
// Responses are byte-identical from any replica and to single-process
// serving — golden tests pin the dispatched sweep, stream, and job
// bodies against the local ones, and the smoke's 3-replica stage
// re-proves it end to end while asserting affinity places all 8
// re-swept shards on warm fleet caches and a kill -9'd replica costs
// zero 5xx.
// Clients can steer routing per request (X-GPUVar-Route: remote |
// affinity-strict; the strict form answers 421 wrong_replica naming
// the owner in X-GPUVar-Owner), GET /v1/replicas reports membership
// and the local/remote + warm/cold shard splits, and the same
// counters ride /metrics as the gpuvar_dispatch_* families.
//
// # Traffic
//
// Perf claims are only as good as the load they were measured under, so
// the serving stack records and replays its own traffic
// (internal/traffic) and synthesizes production-shaped workloads
// instead of relying on loadgen's uniform round-robin mix alone.
//
// A trace is versioned JSON lines — a header naming its source
// (recorded | generated) and seed, then one record per request carrying
// the microsecond offset from session start, client identity, endpoint
// kind, method/path/body, a request fingerprint, and the
// expected-response oracle (status + body sha256). gpuvard
// -record-trace captures every replayable request the server serves
// (observability and polling routes are classified out), flushing per
// record with the job journal's torn-tail tolerance: a capture that
// dies mid-line replays its intact prefix. loadgen -replay plays a
// trace back — at recorded offsets on a virtual clock, or wall-clock
// with -pace — verifies every response against its oracle (job
// submissions re-drive the whole submit/poll/result cycle; streams
// reassemble and hash the raw NDJSON), and reports per-phase p50/p99,
// stream time-to-first-line, and a run digest over every (status,
// sha256) pair: equal digests across runs are the replay-determinism
// contract.
//
// loadgen -generate emits seeded synthetic traces in the same format,
// at the mean rate and length -gen-rate and -gen-duration give, in
// traffic.GenSpec's default shape: a multi-period diurnal rate curve (a
// sum of sinusoids) modulates Poisson arrivals; client cohorts burst
// on/off with Pareto-tailed burst sizes; request kinds draw from a
// weighted heavy-tailed mix over figures, sweeps, estimates, streams,
// and async jobs, with Zipf-skewed parameter pools so some variants are
// hot and most are cold. The same -gen-seed reproduces a trace
// byte-for-byte, and each record is phase-tagged (peak | offpeak) so
// replay reports latency under burst separately. The committed
// testdata/traces/burst.trace fixture (regenerable via go test -run
// TestReplayBurstFixture -update-trace) pins all of it:
// TestReplayBurstFixture replays it twice with zero oracle mismatches
// and equal digests, BenchmarkReplayBurst gates its p99 and stream-TTFL
// under burst in the benchmark trajectory, and the smoke's replay stage
// re-proves determinism against a live server process.
//
// # CI gates
//
// Every PR must clear .github/workflows/ci.yml: the verify job
// (scripts/verify.sh — build, gofmt check, vet, a pinned staticcheck
// pass, tests with a coverage-floor gate that fails if total coverage
// drops below the committed baseline, a short native-fuzz smoke of the
// request-normalization and trace-decode targets (FuzzSweepRequest,
// FuzzJobEnvelope, FuzzTraceDecode; the full sessions run via make
// fuzz), vet and tests of the separate perfbench module (which the root
// build never compiles), a benchmark smoke run, and the cmd/benchjson
// -compare regression gate, which re-measures the banked
// perf wins plus the sweep, async-job, streaming, and classed-engine
// serving paths — plus the retry-overhead guard (a fault-free run with
// retries armed must stay free), the replayable job-stream attach, the
// warm /v1/estimate microsecond path, and the cold pre-screened
// adaptive sweep — plus the dispatched-sweep overhead guard and the
// burst-trace replay (latency under production-shaped arrivals) — and
// fails on >25% ns/op or allocs/op growth against the committed
// BENCH_10.json), the race job (go test -race -short
// ./...), and the smoke job (make smoke — build gpuvard, boot it
// recording its own traffic, replay the committed burst trace twice
// asserting zero oracle mismatches and identical run digests, and
// drive a concurrent loadgen mix over figures, variant-axis sweeps, the
// async job lifecycle, and the streaming endpoints, asserting zero
// failures and byte-identity end to end, then an estimator stage (a
// 256-value /v1/estimate, the over-cap plain-sweep rejection, and
// loadgen -estimate verifying the adaptive mix), a multi-tenant stage
// (4 client identities through the job path, per-client accounting
// asserted on /v1/stats and /metrics, a job stream replayed through its
// summary line), the chaos and crash-recovery stages described under
// Resilience, and the 3-replica distributed stage described under
// Distribution). Superseded CI runs on the same ref are canceled
// (concurrency: cancel-in-progress).
package gpuvar
