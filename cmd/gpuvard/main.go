// Command gpuvard serves the characterization suite over HTTP: the full
// figure/table catalog, ad-hoc experiments, and campaign simulations as
// JSON (see internal/service for the routes and caching layers).
//
// Usage:
//
//	gpuvard                         # listen on :8080, quick settings
//	gpuvard -addr :9090 -seed 7
//	gpuvard -summit-fraction 1.0    # full-scale Summit figures (slow)
//
// Probe it with curl or hammer it with cmd/loadgen:
//
//	curl localhost:8080/v1/figures
//	curl localhost:8080/v1/figures/fig2
//	curl 'localhost:8080/v1/experiments/sgemm?cluster=CloudLab&runs=3'
//	curl -X POST -d '{"cluster":"Vortex","injection":{"day":4,"node_id":"v003-n01","kind":"power-brake"}}' localhost:8080/v1/campaign
//	curl -X POST -d '{"cluster":"CloudLab","axis":"powercap","values":[300,250,200,150,100]}' localhost:8080/v1/sweep
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/healthz
//
// The analytical estimator answers sweep-shaped questions in
// microseconds from a calibrated closed form instead of simulating —
// up to 1024 values per request, every point carrying an error bound —
// and "adaptive" sweeps pre-screen wide axes, simulating only the
// values the estimator cannot vouch for (-estimate-anchors tunes how
// many full-simulation anchors each calibration spends):
//
//	curl -X POST -d '{"cluster":"CloudLab","axis":"powercap","values":[300,250,200,150,100]}' localhost:8080/v1/estimate
//	curl 'localhost:8080/v1/estimate?cluster=CloudLab&axis=ambient&values=-8,-4,0,4,8'
//	curl -X POST -d '{"axis":"powercap","values":[300,290,280,270,260,250],"adaptive":true,"threshold":0.05}' localhost:8080/v1/sweep
//
// Long computations stream instead of buffering — NDJSON, one line per
// completed shard, whose concatenated payloads are byte-identical to
// the synchronous response:
//
//	curl -N 'localhost:8080/v1/stream/sweep?cluster=CloudLab&axis=powercap&values=300,250,200'
//	curl -N 'localhost:8080/v1/stream/experiments/sgemm?cluster=CloudLab'
//
// Heavy computations can be submitted asynchronously instead of held
// on the connection — 202 + a poll URL, progress, result, and cancel.
// "class" selects the scheduling class (batch by default; interactive
// jumps saturated batch queues):
//
//	curl -X POST -d '{"kind":"sweep","sweep":{"cluster":"Summit","axis":"fraction","values":[0.02,0.05,0.1]}}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/<id>           # state + shards done/total
//	curl localhost:8080/v1/jobs/<id>/result    # the finished response
//	curl -X DELETE localhost:8080/v1/jobs/<id> # cancel
//	curl -N localhost:8080/v1/jobs/<id>/stream # attach any time: replay + live tail
//	curl 'localhost:8080/v1/jobs?limit=10&client=team-a&state=done'
//
// Multi-tenancy: requests are attributed to a client — the X-API-Key
// header if sent, the remote address otherwise. Batch job queues are
// fair-shared across clients (stride scheduling, -client-weight team-a=4
// to favor one), each client's queue depth is bounded separately from
// the class-wide bound (-max-queued-per-client), and 429 responses say
// which scope shed. Per-client counters ride /v1/stats and /metrics
// (Prometheus text format):
//
//	curl -H 'X-API-Key: team-a' -X POST -d '...' localhost:8080/v1/jobs
//	curl localhost:8080/metrics
//
// Every synchronous computation is deadline-bounded (-timeout, default
// 30s) and cancels mid-run when the client disconnects; async jobs and
// streams get the batch budget (-job-timeout, default 10m), jobs run
// with bounded per-class concurrency (-max-jobs) behind a bounded batch
// queue (-max-queued-jobs; past it, submissions shed with 429). All
// elastic worker pools draw from one process-wide weighted token budget
// (-budget, default GOMAXPROCS) with an interactive reserve, so nested
// job graphs cannot oversubscribe the scheduler. The fleet cache's LRU
// bound (-fleet-cache) caps how many distinct (spec, seed) fleets the
// server retains.
//
// Resilience (see the doc.go "Resilience" section for the full story):
//
//	-retries 3 -retry-backoff 1ms   per-shard retry of transient failures
//	-data-dir /var/lib/gpuvar       crash-safe async jobs: lifecycle +
//	                                results journaled and replayed on boot
//	-journal-sync terminal          journal fsync policy (terminal,
//	                                always, never)
//	-faults 'engine.shard.pre=error:0.3'
//	                                arm fault injection for chaos drills
//	                                (also $GPUVARD_FAULTS); sites and
//	                                trigger counts appear on /v1/healthz,
//	                                which reports status "degraded" while
//	                                armed
//
// Distributed serving: hand every replica the same fleet-wide -peers
// list (each drops its own -self-url) and sweep shards fan out across
// the fleet over POST /v1/internal/shards, byte-identical to local
// serving (see the doc.go "Distribution" section):
//
//	gpuvard -addr :8081 -self-url http://h1:8081 -peers http://h1:8081,http://h2:8082
//	-route-policy affinity          rendezvous-hash each shard onto the
//	                                replica whose fleet cache is warm
//	                                (roundrobin and leastloaded too)
//	-peer-probe 2s                  health-probe cadence: failing peers
//	                                are ejected, recovered ones readmitted
//	curl localhost:8081/v1/          # route discovery document
//	curl localhost:8081/v1/replicas  # membership + dispatch counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/engine"
	"gpuvar/internal/faults"
	"gpuvar/internal/figures"
	"gpuvar/internal/jobs"
	"gpuvar/internal/service"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		seed            = flag.Uint64("seed", 2022, "default fleet instantiation seed")
		iters           = flag.Int("iterations", 0, "default SGEMM repetitions (0 = quick setting)")
		summit          = flag.Float64("summit-fraction", 0, "default Summit coverage fraction (0 = quick setting)")
		respLRU         = flag.Int("response-cache", 256, "response LRU size (entries)")
		sessLRU         = flag.Int("session-cache", 4, "figure-session LRU size (distinct configs)")
		fleetLRU        = flag.Int("fleet-cache", cluster.DefaultFleetCacheCap, "fleet LRU size (distinct (spec, seed) instantiations)")
		timeout         = flag.Duration("timeout", 30*time.Second, "per-request computation deadline (negative disables)")
		jobTimeout      = flag.Duration("job-timeout", 10*time.Minute, "per-async-job (and per-stream) computation deadline (negative disables)")
		maxJobs         = flag.Int("max-jobs", 2, "async jobs executing concurrently, per scheduling class")
		maxQueued       = flag.Int("max-queued-jobs", 16, "batch-class jobs queued before submissions shed with 429 (negative disables)")
		maxQueuedClient = flag.Int("max-queued-per-client", 8, "one client's queued batch jobs before its submissions shed with 429 (negative disables)")
		jobTTL          = flag.Duration("job-ttl", 10*time.Minute, "finished-job retention before results expire")
		budget          = flag.Int("budget", 0, "worker-token budget for elastic engine pools (0 = GOMAXPROCS)")
		estAnchors      = flag.Int("estimate-anchors", 0, "full-simulation anchors per estimator calibration, 2..5 (0 = default 3)")

		retries      = flag.Int("retries", 3, "total attempts per engine shard for transient failures (<=1 disables retry)")
		retryBackoff = flag.Duration("retry-backoff", time.Millisecond, "base backoff before a shard retry (jittered, doubling, capped at 100x)")
		dataDir      = flag.String("data-dir", "", "directory for the crash-safe job journal (empty = jobs are in-memory only)")
		journalSync  = flag.String("journal-sync", "terminal", "job-journal fsync policy: terminal, always, or never")
		faultSpec    = flag.String("faults", "", "fault-injection spec, e.g. 'engine.shard.pre=error:0.3' (also $GPUVARD_FAULTS)")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for the fault registry's per-site RNG streams")

		peers       = flag.String("peers", "", "comma-separated base URLs of peer replicas to dispatch sweep shards to")
		routePolicy = flag.String("route-policy", "", "shard routing policy: affinity (default), roundrobin, or leastloaded")
		selfURL     = flag.String("self-url", "", "this replica's own base URL, so it can drop itself from -peers lists shared fleet-wide")
		peerProbe   = flag.Duration("peer-probe", 2*time.Second, "peer health-probe interval (negative disables probing; peers then stay unused)")

		recordTrace = flag.String("record-trace", "", "record replayable traffic to this trace file (see internal/traffic; loadgen -replay plays it back)")
	)
	clientWeights := map[string]int{}
	flag.Func("client-weight", "per-client fair-share weight as client=N (repeatable; unlisted clients weigh 1)", func(v string) error {
		name, val, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want client=N, got %q", v)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return fmt.Errorf("weight %q: want a positive integer", val)
		}
		clientWeights[name] = w
		return nil
	})
	flag.Parse()

	cluster.DefaultFleetCache.SetCap(*fleetLRU)
	engine.SetBudgetCapacity(*budget)
	engine.SetRetryPolicy(engine.RetryPolicy{MaxAttempts: *retries, BaseBackoff: *retryBackoff})

	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("GPUVARD_FAULTS")
	}
	faults.SetSeed(*faultSeed)
	if err := faults.Arm(spec); err != nil {
		fmt.Fprintln(os.Stderr, "gpuvard:", err)
		os.Exit(2)
	}
	if spec != "" {
		fmt.Fprintf(os.Stderr, "gpuvard: fault injection armed: %s\n", spec)
	}

	sync, err := jobs.ParseSyncPolicy(*journalSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuvard:", err)
		os.Exit(2)
	}
	srv, err := service.New(service.Options{
		Figures: figures.Config{
			Seed:           *seed,
			Iterations:     *iters,
			SummitFraction: *summit,
		},
		ResponseCacheSize:      *respLRU,
		SessionCacheSize:       *sessLRU,
		RequestTimeout:         *timeout,
		JobTimeout:             *jobTimeout,
		MaxRunningJobs:         *maxJobs,
		MaxQueuedJobs:          *maxQueued,
		MaxQueuedJobsPerClient: *maxQueuedClient,
		ClientWeights:          clientWeights,
		JobTTL:                 *jobTTL,
		DataDir:                *dataDir,
		JournalSync:            sync,
		EstimateAnchors:        *estAnchors,
		Peers:                  splitPeers(*peers),
		RoutePolicy:            *routePolicy,
		SelfURL:                *selfURL,
		PeerProbeInterval:      *peerProbe,
		RecordTrace:            *recordTrace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuvard:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if *recordTrace != "" {
		fmt.Fprintf(os.Stderr, "gpuvard: recording replayable traffic to %s\n", *recordTrace)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gpuvard: listening on %s\n", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "gpuvard:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "gpuvard: shutdown:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "gpuvard: drained, bye")
	}
}

// splitPeers parses the -peers flag: comma-separated URLs, blanks
// dropped, so every replica can receive the identical fleet-wide list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
