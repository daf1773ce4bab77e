package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuvar/internal/faults"
	"gpuvar/internal/testutil"
)

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{context.Canceled, Canceled},
		{context.DeadlineExceeded, Canceled},
		{fmt.Errorf("wrapped: %w", context.Canceled), Canceled},
		{errors.New("boom"), Permanent},
		{MarkTransient(errors.New("flaky")), Transient},
		{fmt.Errorf("wrapped: %w", MarkTransient(errors.New("flaky"))), Transient},
		{&faults.Error{Site: faults.SiteShardPre}, Transient},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryRecoversTransient: a shard that fails transiently twice and
// then succeeds completes under a 3-attempt policy, and the counters
// record the spent retries.
func TestRetryRecoversTransient(t *testing.T) {
	leak := testutil.LeakCheck(t, 0)
	before := Snapshot()
	var calls atomic.Int64
	ctx := WithRetry(context.Background(), RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond})
	got, err := Map(ctx, 1, 1, func(ctx context.Context, i int) (int, error) {
		if calls.Add(1) <= 2 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return 41 + i, nil
	})
	if err != nil || got[0] != 41 {
		t.Fatalf("Map = (%v, %v), want ([41], nil)", got, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("shard ran %d times, want 3", n)
	}
	after := Snapshot()
	if d := after.Retries - before.Retries; d != 2 {
		t.Errorf("retries counter advanced %d, want 2", d)
	}
	if d := after.TransientShardErrors - before.TransientShardErrors; d != 2 {
		t.Errorf("transient counter advanced %d, want 2", d)
	}
	leak()
}

// TestRetryExhaustionReturnsLastError: a shard that never stops failing
// transiently fails the job after exactly MaxAttempts executions.
func TestRetryExhaustionReturnsLastError(t *testing.T) {
	var calls atomic.Int64
	ctx := WithRetry(context.Background(), RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond})
	_, err := Map(ctx, 1, 1, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, MarkTransient(errors.New("always flaky"))
	})
	if err == nil || !strings.Contains(err.Error(), "always flaky") {
		t.Fatalf("err = %v, want the transient error after exhaustion", err)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("shard ran %d times, want MaxAttempts=4", n)
	}
}

// TestPermanentFailsFast: a permanent error never retries, even under
// an armed policy.
func TestPermanentFailsFast(t *testing.T) {
	var calls atomic.Int64
	ctx := WithRetry(context.Background(), RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond})
	_, err := Map(ctx, 1, 1, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, errors.New("bad input")
	})
	if err == nil {
		t.Fatal("want the permanent error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("permanent error ran the shard %d times, want 1", n)
	}
}

// TestCanceledFailsFast: cancellation is never retried, and backoff
// waits abort promptly when the context ends.
func TestCanceledFailsFast(t *testing.T) {
	leak := testutil.LeakCheck(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	ctx = WithRetry(ctx, RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Hour}) // backoff must not be waited out
	var calls atomic.Int64
	start := time.Now()
	_, err := Map(ctx, 1, 1, func(context.Context, int) (int, error) {
		if calls.Add(1) == 1 {
			cancel() // fail transiently with the context already dead
			return 0, MarkTransient(errors.New("flaky"))
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("canceled retry waited %v, the hour-long backoff was not aborted", d)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("shard ran %d times after cancellation, want 1", n)
	}
	leak()
}

// TestPanicShardZeroAndLast pins the deterministic-error contract under
// panics at both extremes of the shard range: whichever shards panic,
// the job fails with the lowest-indexed shard's annotated panic.
func TestPanicShardZeroAndLast(t *testing.T) {
	const n = 8
	for _, panicShard := range []int{0, n - 1} {
		leak := testutil.LeakCheck(t, 0)
		_, err := Map(context.Background(), n, 4, func(_ context.Context, i int) (int, error) {
			if i == panicShard {
				panic(fmt.Sprintf("shard %d exploded", i))
			}
			return i, nil
		})
		want := fmt.Sprintf("shard %d panicked", panicShard)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("panic in shard %d: err = %v, want %q", panicShard, err, want)
		}
		leak()
	}
	// Both ends panicking: the lowest index must win, exactly like the
	// serial loop the engine replaced.
	_, err := Map(context.Background(), n, 4, func(_ context.Context, i int) (int, error) {
		if i == 0 || i == n-1 {
			panic(fmt.Sprintf("shard %d exploded", i))
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard 0 panicked") {
		t.Fatalf("err = %v, want shard 0's panic to win", err)
	}
}

// TestPanicUnderRetryIsNotRetried: a panicking shard converts to a
// permanent error and must not be re-executed by the retry policy.
func TestPanicUnderRetryIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	ctx := WithRetry(context.Background(), RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond})
	_, err := Map(ctx, 1, 1, func(context.Context, int) (int, error) {
		calls.Add(1)
		panic("logic error")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the contained panic", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("panicking shard ran %d times, want 1 (panics are permanent)", n)
	}
}

// TestChaosByteIdentity is the engine-level golden bar: a Map under 30%
// injected transient shard faults, with retries armed, returns results
// identical to the fault-free run.
func TestChaosByteIdentity(t *testing.T) {
	const n = 64
	fn := func(_ context.Context, i int) (int, error) {
		return i*i + 7, nil // pure function of the shard index
	}
	clean, err := Map(context.Background(), n, 0, fn)
	if err != nil {
		t.Fatal(err)
	}

	faults.SetSeed(2022)
	if err := faults.Arm("engine.shard.pre=error:0.3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faults.Reset(); faults.SetSeed(1) })
	ctx := WithRetry(context.Background(), RetryPolicy{MaxAttempts: 12, BaseBackoff: time.Microsecond})
	chaotic, err := Map(ctx, n, 0, fn)
	if err != nil {
		t.Fatalf("Map under 30%% faults = %v (12 attempts should outlast p=0.3)", err)
	}
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("shard %d: chaotic result %d != clean %d", i, chaotic[i], clean[i])
		}
	}
	// The faults must actually have fired for this to mean anything.
	snap := faults.Snapshot()
	if len(snap) != 1 || snap[0].Injected == 0 {
		t.Fatalf("no faults injected (snapshot %+v); the golden run proved nothing", snap)
	}
}
