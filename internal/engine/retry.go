package engine

// Failure-domain semantics for shard execution: the paper's machines
// misbehave (slow GPUs, throttling, injected defects), so the engine
// that reproduces them must assume its own execution can too. Two
// mechanisms, both per shard:
//
//   - Classification. Every shard error is Transient, Permanent, or
//     Canceled (ClassifyError). Only transients are worth re-running;
//     cancellation must stay prompt; permanent failures (bad input,
//     panics) fail fast.
//   - Retry. A RetryPolicy re-runs a transiently failed shard up to
//     MaxAttempts times with jittered exponential backoff, re-checking
//     the context before each attempt. Shards are pure functions of
//     (ctx, index), so a retried shard's output is bit-identical to a
//     first-try success — the golden chaos tests pin exactly that.
//
// The policy resolves once per Map: a context-attached policy
// (WithRetry) wins; otherwise the process default (SetRetryPolicy,
// wired to gpuvard -retries) applies; the zero policy disables
// retries. With nothing armed — no policy, no fault sites — Map
// bypasses this file entirely (one atomic load per Map); the
// fault-free overhead of an armed retry policy is the per-attempt
// classification branches — see BenchmarkEngineRetryOverhead, which
// runs with retries armed and is gated against
// BenchmarkEngineClassedMap-level cost.

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"gpuvar/internal/faults"
)

// ErrClass partitions shard errors by what the engine should do about
// them.
type ErrClass int

const (
	// Permanent errors fail the job immediately: bad input, panics,
	// logic errors — re-running cannot help.
	Permanent ErrClass = iota
	// Transient errors are worth re-running: injected faults, wedged
	// caches, anything marked via MarkTransient or an IsTransient
	// method.
	Transient
	// Canceled errors are the context's: the caller is gone or out of
	// time, and retrying would fight the cancellation contract.
	Canceled
)

// String names the class.
func (c ErrClass) String() string {
	switch c {
	case Transient:
		return "transient"
	case Canceled:
		return "canceled"
	}
	return "permanent"
}

// transient is the marker interface an error implements to classify as
// Transient (faults.Error does; MarkTransient wraps arbitrary errors
// with it).
type transient interface{ IsTransient() bool }

// ClassifyError assigns a non-nil shard error its class: context
// cancellation and deadline errors are Canceled, errors carrying
// IsTransient() == true anywhere in their chain are Transient,
// everything else is Permanent.
func ClassifyError(err error) ErrClass {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled
	}
	var t transient
	if errors.As(err, &t) && t.IsTransient() {
		return Transient
	}
	return Permanent
}

// transientError is MarkTransient's wrapper.
type transientError struct{ err error }

func (e *transientError) Error() string     { return e.err.Error() }
func (e *transientError) Unwrap() error     { return e.err }
func (e *transientError) IsTransient() bool { return true }

// MarkTransient wraps err so ClassifyError returns Transient for it —
// the seam by which lower layers (a flaky backend, a wedged cache fill)
// opt their failures into the retry policy. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// RetryPolicy bounds per-shard re-execution of transient failures. The
// zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions per shard (first try
	// included); <= 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before attempt 2; each further
	// attempt doubles it, capped at MaxBackoff. Defaults to 1ms when
	// retries are enabled.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 100ms).
	MaxBackoff time.Duration
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// backoff returns the jittered delay before the given retry (retry 1 is
// the first re-execution). Jitter is ±50%, so synchronized shard
// failures do not re-arrive in lockstep.
func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 100 * time.Millisecond
	}
	d := base << uint(retry-1)
	if d > maxB || d <= 0 { // d <= 0 guards shift overflow
		d = maxB
	}
	// Scale by a factor in [0.5, 1.5).
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

type retryKey struct{}

// WithRetry attaches a retry policy to the context; Maps under it (and
// their nested jobs) apply it per shard, overriding the process
// default.
func WithRetry(ctx context.Context, p RetryPolicy) context.Context {
	return context.WithValue(ctx, retryKey{}, p)
}

// defaultRetry is the process-default policy (gpuvard -retries /
// -retry-backoff). Stored behind an atomic pointer so the per-Map read
// is one load, mutex-free.
var defaultRetry atomic.Pointer[RetryPolicy]

// SetRetryPolicy installs the process-default retry policy applied to
// every Map whose context carries none. The zero policy disables
// retries.
func SetRetryPolicy(p RetryPolicy) { defaultRetry.Store(&p) }

// RetryFrom resolves the effective retry policy: context override
// first, then the process default.
func RetryFrom(ctx context.Context) RetryPolicy {
	if p, ok := ctx.Value(retryKey{}).(RetryPolicy); ok {
		return p
	}
	if p := defaultRetry.Load(); p != nil {
		return *p
	}
	return RetryPolicy{}
}

// attemptShard runs one execution of shard i: the pre-attempt fault
// site, the shard function, and the post-attempt fault site. Injected
// faults surface as ordinary errors and classify like any other.
func attemptShard[T any](ctx context.Context, i int, fn func(ctx context.Context, shard int) (T, error)) (T, error) {
	var zero T
	if err := faults.Inject(ctx, faults.SiteShardPre); err != nil {
		return zero, err
	}
	v, err := fn(ctx, i)
	if err != nil {
		return zero, err
	}
	if err := faults.Inject(ctx, faults.SiteShardPost); err != nil {
		return zero, err
	}
	return v, nil
}

// runShardResilient executes shard i under the resolved retry policy:
// transient failures re-run with jittered backoff; permanent and
// canceled errors (and panics, which the caller's recover converts)
// fail fast.
func runShardResilient[T any](ctx context.Context, i int, rp RetryPolicy, fn func(ctx context.Context, shard int) (T, error)) (T, error) {
	var zero T
	attempts := rp.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			counters.shardRetries.Add(1)
			t := time.NewTimer(rp.backoff(attempt))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return zero, ctx.Err()
			}
		}
		v, err := attemptShard(ctx, i, fn)
		if err == nil {
			return v, nil
		}
		if ClassifyError(err) != Transient {
			return zero, err
		}
		counters.transientShardErrors.Add(1)
		lastErr = err
	}
	return zero, lastErr
}
