// Package engine is the shared execution layer under every compute
// entry point of the suite: core experiment fan-out, campaign
// benchmarking days, figure-catalog regeneration, and the HTTP
// service's request computations all run their shards through Map and
// coalesce duplicate work through Group.
//
// The contract it standardizes (previously re-implemented, differently,
// by three ad-hoc worker pools):
//
//   - Bounded parallelism: workers > 0 pins a fixed pool of exactly
//     that many workers pulling shards from a shared cursor — no
//     per-shard goroutine churn. workers <= 0 selects elastic mode: one
//     worker always runs inline on the caller's goroutine, and extra
//     workers are recruited from the process-wide weighted token budget
//     (see sched.go) as shards complete, instead of sizing every pool
//     from GOMAXPROCS — so nested job graphs cannot oversubscribe the
//     scheduler, and an interactive job keeps its reserved headroom no
//     matter how much batch work is in flight.
//   - Deterministic ordering: results[i] always holds shard i's value,
//     no matter which worker ran it or when it finished, so callers that
//     must be bit-identical to a serial loop just iterate the slice.
//   - Streaming: a ShardSink attached via WithSink receives each
//     shard's value as soon as it and all lower-indexed shards have
//     completed (see stream.go) — incremental results in the same order
//     the finished slice would have.
//   - Cooperative cancellation: workers check the context between
//     shards and stop pulling new work the moment it is canceled; Map
//     returns ctx.Err() promptly (in-flight shards finish — shard
//     functions that run long should check ctx themselves).
//   - Panic containment: a panicking shard fails the job with a
//     stack-annotated error instead of crashing the process; the
//     remaining workers drain and exit.
//   - Failure-domain semantics: shard errors are classified
//     (Transient / Permanent / Canceled), transient failures re-run
//     under the resolved RetryPolicy with jittered backoff — shards are
//     pure, so a retried shard's output is bit-identical to a first-try
//     success (see retry.go).
//   - Observability: package-level progress counters (jobs in flight,
//     shards completed, cancellations) and the budget's per-class
//     occupancy, exported by the service.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gpuvar/internal/faults"
)

// counters is the package-wide progress ledger. Everything is atomic:
// jobs from any layer (core runs, campaigns, figure catalogs, service
// sweeps) fold into one view of what the process is computing.
var counters struct {
	jobsStarted     atomic.Uint64
	jobsCompleted   atomic.Uint64
	jobsCanceled    atomic.Uint64
	jobsFailed      atomic.Uint64
	shardsCompleted atomic.Uint64
	inFlightJobs    atomic.Int64
	// Resilience counters (see retry.go): transient attempt failures
	// observed and re-executions.
	transientShardErrors atomic.Uint64
	shardRetries         atomic.Uint64
}

// Progress accumulates shard progress for one logical job tree. Attach
// it to a context with WithProgress and every Map that runs under that
// context — including nested jobs (a sweep's variants each fan out
// their own per-GPU jobs) — adds its shards to Total at submission and
// to Done as they complete. Both counters are monotonically
// non-decreasing while work runs, so a poller sees Done/Total advance;
// Total grows as nested jobs are discovered, reaching its final value
// only when the tree finishes. The zero value is ready to use, and a
// Progress may be read concurrently with the work it observes.
type Progress struct {
	total atomic.Int64
	done  atomic.Int64
}

// Snapshot reads the counters: shards completed and shards scheduled so
// far.
func (p *Progress) Snapshot() (done, total int64) {
	// done is loaded first so a racing shard completion can only make
	// the pair look older (done lagging total), never done > total.
	return p.done.Load(), p.total.Load()
}

// progressKey carries a *Progress through a context.
type progressKey struct{}

// WithProgress returns a context whose engine jobs report their shard
// counts into p. Nested contexts inherit it; the service's job manager
// uses this to expose per-job progress for async submissions.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, p)
}

// progressFrom extracts the context's progress sink, if any.
func progressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressKey{}).(*Progress)
	return p
}

// Stats is a point-in-time snapshot of the engine's progress counters
// and worker-token budget, exposed by the service's /v1/stats and
// /v1/healthz endpoints.
type Stats struct {
	JobsStarted     uint64 `json:"jobs_started"`
	JobsCompleted   uint64 `json:"jobs_completed"`
	JobsCanceled    uint64 `json:"jobs_canceled"`
	JobsFailed      uint64 `json:"jobs_failed"`
	ShardsCompleted uint64 `json:"shards_completed"`
	InFlightJobs    int64  `json:"in_flight_jobs"`
	// TransientShardErrors counts shard attempts that failed with a
	// transient (retryable) error — injected faults included; Retries
	// counts the re-executions the retry policy spent on them.
	TransientShardErrors uint64 `json:"transient_shard_errors"`
	Retries              uint64 `json:"retries"`
	// Hedges is always zero: the engine does not hedge stragglers.
	// The field remains only because the repository benchmark
	// (perfbench) reads it for its engine.hedges metric; it goes when
	// the benchmark drops that metric.
	Hedges uint64      `json:"hedges"`
	Budget BudgetStats `json:"budget"`
}

// Snapshot reads the counters.
func Snapshot() Stats {
	return Stats{
		JobsStarted:          counters.jobsStarted.Load(),
		JobsCompleted:        counters.jobsCompleted.Load(),
		JobsCanceled:         counters.jobsCanceled.Load(),
		JobsFailed:           counters.jobsFailed.Load(),
		ShardsCompleted:      counters.shardsCompleted.Load(),
		InFlightJobs:         counters.inFlightJobs.Load(),
		TransientShardErrors: counters.transientShardErrors.Load(),
		Retries:              counters.shardRetries.Load(),
		Budget:               defaultBudget.stats(),
	}
}

// Map runs fn for every shard in [0, n) on a bounded worker pool and
// returns the results in shard order: results[i] is fn(ctx, i).
// workers > 0 pins a fixed pool of exactly that many workers (never
// exceeding n); workers <= 0 selects elastic mode — the caller's
// goroutine runs one worker inline and extra workers are drawn from the
// process-wide token budget under the context's scheduling class (see
// sched.go), re-solicited as shards complete. The inline worker makes
// elastic Maps deadlock-free under nesting and guarantees progress even
// with the budget fully drained.
//
// The first shard error (or panic, converted to an error) fails the
// job: workers stop pulling new shards, in-flight shards finish, and
// Map returns nil results with that error. Cancellation is cooperative:
// workers re-check ctx between shards, so a canceled job returns
// ctx.Err() after at most the in-flight shards' residual work. fn
// receives the job's context and should check it inside long shards.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, shard int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	elastic := workers <= 0
	if workers > n {
		workers = n
	}
	class := ClassFrom(ctx)
	// Resolve the retry policy once per Map, not per shard: it cannot
	// change mid-job, and the fault-free hot path should pay one context
	// walk per job, not n. When nothing is armed — no retry, no fault
	// sites — shards skip the resilient wrapper entirely, so the
	// disarmed cost is one atomic load per Map.
	retryPolicy := RetryFrom(ctx)
	resilient := retryPolicy.enabled() || faults.Armed()
	counters.jobsStarted.Add(1)
	counters.inFlightJobs.Add(1)
	defer counters.inFlightJobs.Add(-1)
	prog := progressFrom(ctx)
	if prog != nil {
		prog.total.Add(int64(n))
	}

	results := make([]T, n)
	// This Map consumes the context's sink (if any): shards run with it
	// stripped so nested jobs never double-emit.
	fnCtx := ctx
	var emit *orderedEmitter
	if sink := sinkFrom(ctx); sink != nil {
		fnCtx = WithSink(ctx, nil)
		emit = newOrderedEmitter(sink, n, func(i int) any { return results[i] })
	}
	var (
		cursor   atomic.Int64
		failedFl atomic.Bool // lock-free fast path for the workers' loop check
		mu       sync.Mutex
		firstErr error
		errShard = n // shard index of firstErr; lowest wins, like the serial loop
	)
	fail := func(shard int, err error) {
		mu.Lock()
		// Keep the lowest-index shard's error, not the temporally first:
		// when several shards fail, the serial loops this executor
		// replaced always surfaced the earliest iteration's error, and
		// deterministic errors keep tests and logs stable.
		if firstErr == nil || shard < errShard {
			firstErr = err
			errShard = shard
		}
		mu.Unlock()
		failedFl.Store(true)
	}
	runShard := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				fail(i, fmt.Errorf("engine: shard %d panicked: %v\n%s", i, r, debug.Stack()))
			}
		}()
		var (
			v   T
			err error
		)
		if resilient {
			v, err = runShardResilient(fnCtx, i, retryPolicy, fn)
		} else {
			v, err = fn(fnCtx, i)
		}
		if err != nil {
			fail(i, err)
			return
		}
		results[i] = v
		counters.shardsCompleted.Add(1)
		if prog != nil {
			prog.done.Add(1)
		}
		if emit != nil {
			emit.complete(i)
		}
	}

	var wg sync.WaitGroup
	if !elastic {
		// Fixed pool: exactly `workers` goroutines, independent of the
		// budget — the deterministic-concurrency knob tests and callers
		// with their own sizing policy rely on.
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					if err := ctx.Err(); err != nil {
						fail(n, err) // rank below any real shard failure
						return
					}
					if failedFl.Load() {
						return
					}
					i := int(cursor.Add(1)) - 1
					if i >= n {
						return
					}
					runShard(i)
				}
			}()
		}
	} else {
		// Elastic: the caller's goroutine works inline; helpers hold one
		// budget token each and are re-solicited after every completed
		// shard, so the pool grows the moment tokens free up elsewhere.
		var (
			live    atomic.Int64 // current workers, inline included
			recruit func()
		)
		loop := func() {
			for {
				if err := ctx.Err(); err != nil {
					fail(n, err)
					return
				}
				if failedFl.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				runShard(i)
				recruit()
			}
		}
		recruit = func() {
			for {
				if int(cursor.Load()) >= n { // every shard already claimed
					return
				}
				l := live.Load()
				if l >= int64(n) {
					return
				}
				if !live.CompareAndSwap(l, l+1) {
					continue
				}
				if !defaultBudget.tryAcquire(class) {
					live.Add(-1)
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer defaultBudget.release(class)
					defer live.Add(-1)
					loop()
				}()
			}
		}
		live.Store(1)
		recruit()
		loop()
		live.Add(-1)
	}
	wg.Wait()

	if firstErr != nil {
		if ctx.Err() != nil {
			counters.jobsCanceled.Add(1)
		} else {
			counters.jobsFailed.Add(1)
		}
		return nil, firstErr
	}
	counters.jobsCompleted.Add(1)
	return results, nil
}
