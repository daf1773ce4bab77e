package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
	"gpuvar/internal/faults"
	"gpuvar/internal/figures"
	"gpuvar/internal/jobs"
)

// armFaults arms the process-global fault registry for one test and
// restores disarmed serving (and the default seed) afterwards.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	faults.SetSeed(2022)
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		faults.Reset()
		faults.SetSeed(1)
	})
}

// withRetries installs a process-default retry policy and removes it at
// cleanup (the policy is what gpuvard -retries would set).
func withRetries(t *testing.T, attempts int) {
	t.Helper()
	engine.SetRetryPolicy(engine.RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Microsecond})
	t.Cleanup(func() { engine.SetRetryPolicy(engine.RetryPolicy{}) })
}

// TestChaosByteIdentity is the PR's golden bar at the service level:
// sweep and campaign responses computed under 30% injected transient
// shard faults (with retries armed) are byte-identical to the fault-free
// responses, and none of the chaos requests answers 5xx.
func TestChaosByteIdentity(t *testing.T) {
	requests := []struct{ name, method, target, body string }{
		{"sweep", "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250]}`},
		{"campaign", "POST", "/v1/campaign", campaignBody},
	}

	// Fault-free baselines on a pristine server.
	clean := map[string]string{}
	srv := testServer()
	for _, req := range requests {
		rr := doReq(t, srv, req.method, req.target, req.body)
		if rr.Code != 200 {
			t.Fatalf("%s baseline: status %d: %s", req.name, rr.Code, rr.Body.String())
		}
		clean[req.name] = rr.Body.String()
	}

	// The same requests on a fresh server (cold response cache — the
	// computations must actually re-run) under 30% shard faults.
	withRetries(t, 12)
	armFaults(t, "engine.shard.pre=error:0.3")
	chaos := testServer()
	for _, req := range requests {
		rr := doReq(t, chaos, req.method, req.target, req.body)
		if rr.Code != 200 {
			t.Fatalf("%s under faults: status %d (5xx under 30%% transient faults means retry failed): %s",
				req.name, rr.Code, rr.Body.String())
		}
		if rr.Body.String() != clean[req.name] {
			t.Fatalf("%s response under faults is not byte-identical to the fault-free run", req.name)
		}
	}

	// The drill must have injected something, and the stats must show it.
	var stats statsResponse
	rr := doReq(t, chaos, "GET", "/v1/stats", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Faults) != 1 || stats.Faults[0].Injected == 0 {
		t.Fatalf("stats faults = %+v, want the armed site with injections", stats.Faults)
	}
	if stats.Engine.Retries == 0 || stats.Engine.TransientShardErrors == 0 {
		t.Fatalf("engine stats %+v recorded no retries under 30%% faults", stats.Engine)
	}
}

// TestDegradedServingFromStale: when a recompute fails server-side, a
// previously evicted copy of the response answers with X-Degraded:
// stale instead of a 5xx, and healthz reports degraded — both while the
// registry is armed and for the window after the stale serve.
func TestDegradedServingFromStale(t *testing.T) {
	srv := mustNew(Options{
		Figures:           figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		ResponseCacheSize: 1, // every new key evicts the previous one into the stale store
	})
	const (
		bodyA = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250]}`
		bodyB = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[200,150]}`
	)
	rr := doReq(t, srv, "POST", "/v1/sweep", bodyA)
	if rr.Code != 200 {
		t.Fatalf("warm A: %d: %s", rr.Code, rr.Body.String())
	}
	wantBody := rr.Body.String()
	if rr = doReq(t, srv, "POST", "/v1/sweep", bodyB); rr.Code != 200 {
		t.Fatalf("warm B: %d: %s", rr.Code, rr.Body.String())
	}
	if s := srv.CacheStats(); s.StaleEntries != 1 {
		t.Fatalf("cache stats %+v, want A's response demoted to 1 stale entry", s)
	}

	// Every shard attempt now fails and nothing retries: recomputing A
	// is guaranteed to fail server-side.
	armFaults(t, "engine.shard.pre=error:1")
	rr = doReq(t, srv, "POST", "/v1/sweep", bodyA)
	if rr.Code != 200 || rr.Header().Get("X-Degraded") != "stale" || rr.Header().Get("X-Cache") != "stale" {
		t.Fatalf("degraded serve: status %d, X-Degraded %q, X-Cache %q; body: %s",
			rr.Code, rr.Header().Get("X-Degraded"), rr.Header().Get("X-Cache"), rr.Body.String())
	}
	if rr.Body.String() != wantBody {
		t.Fatal("stale bytes differ from the originally cached response")
	}

	var hz healthzResponse
	rr = doReq(t, srv, "GET", "/v1/healthz", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Status != "degraded" {
		t.Fatalf("healthz armed = ok:%v status:%q, want ok:true status:degraded", hz.OK, hz.Status)
	}
	if hz.DegradedServes != 1 {
		t.Fatalf("degraded_serves = %d, want 1", hz.DegradedServes)
	}

	// Disarm: the recent stale serve keeps status degraded for the
	// window even with no faults armed.
	faults.Reset()
	rr = doReq(t, srv, "GET", "/v1/healthz", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Fatalf("healthz right after a stale serve = %q, want degraded for the %s window", hz.Status, degradedWindow)
	}

	// A fresh server with nothing armed and no stale history is ok.
	var cleanHz healthzResponse
	rr = doReq(t, testServer(), "GET", "/v1/healthz", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &cleanHz); err != nil {
		t.Fatal(err)
	}
	if cleanHz.Status != "ok" {
		t.Fatalf("pristine healthz status = %q, want ok", cleanHz.Status)
	}
}

// TestNoStaleForClientErrors: 4xx failures are the client's, not the
// server's — a stale copy must never mask them.
func TestNoStaleForClientErrors(t *testing.T) {
	srv := mustNew(Options{
		Figures:           figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		ResponseCacheSize: 1,
	})
	// A bad cluster name is a 404 from the computation; no amount of
	// stale data should change that.
	rr := doReq(t, srv, "POST", "/v1/sweep", `{"cluster":"Atlantis","iterations":2,"axis":"powercap","values":[300]}`)
	if rr.Code/100 != 4 {
		t.Fatalf("bad cluster: status %d, want a 4xx", rr.Code)
	}
	if rr.Header().Get("X-Degraded") != "" {
		t.Fatal("client error answered with a degraded header")
	}
}

// TestJobJournalAcrossRestart is the crash-safety acceptance path via
// the HTTP surface: finish a job on one server, build a second server
// over the same data dir, and fetch the same result bytes from it.
func TestJobJournalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Figures: figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		DataDir: dir,
	}
	srv1 := mustNew(opts)
	view := submitJob(t, srv1, `{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250]}}`)
	waitFor(t, func() bool {
		s, ok := srv1.jobs.Get(view.ID)
		return ok && s.State == jobs.StateDone
	})
	rr := doReq(t, srv1, "GET", view.URL+"/result", "")
	if rr.Code != 200 {
		t.Fatalf("result on srv1: %d: %s", rr.Code, rr.Body.String())
	}
	want := rr.Body.String()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": a second server over the same data dir replays the
	// journal; the job ID, its state, and its exact bytes all survive.
	srv2 := mustNew(opts)
	defer srv2.Close()
	rr = doReq(t, srv2, "GET", view.URL, "")
	if rr.Code != 200 {
		t.Fatalf("status on srv2: %d: %s", rr.Code, rr.Body.String())
	}
	rr = doReq(t, srv2, "GET", view.URL+"/result", "")
	if rr.Code != 200 {
		t.Fatalf("result on srv2: %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Body.String() != want {
		t.Fatal("replayed result bytes differ from the original")
	}
	var stats statsResponse
	rr = doReq(t, srv2, "GET", "/v1/stats", "")
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Journal == nil || stats.Jobs.Journal.RecoveredTerminal != 1 {
		t.Fatalf("journal stats on srv2 = %+v, want 1 recovered terminal job", stats.Jobs.Journal)
	}

	// The replayed job has no recorded lines, so its stream is the
	// two-line whole-body form: an empty start line, then a summary
	// carrying the entire result.
	rr = doReq(t, srv2, "GET", view.URL+"/stream", "")
	if rr.Code != 200 {
		t.Fatalf("stream on srv2: %d: %s", rr.Code, rr.Body.String())
	}
	lines, payload := decodeStream(t, rr.Body.Bytes())
	if len(lines) != 2 || lines[0].Payload != "" || lines[1].Kind != "summary" {
		t.Fatalf("replayed job stream = %+v, want an empty start line and a summary", lines)
	}
	sum := sha256.Sum256([]byte(want))
	if string(payload) != want || lines[1].Bytes != len(want) || lines[1].SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatal("replayed job stream's summary does not carry the whole result body, its bytes and its sha256")
	}
}

// TestStaleServesDeadlineAfterEviction: the stale store answers a real,
// uninjected server-side failure — a recompute of an evicted key that
// runs into the request deadline — with the evicted bytes, not a 504.
func TestStaleServesDeadlineAfterEviction(t *testing.T) {
	if faults.Armed() {
		t.Fatal("fault registry armed; this test needs an uninjected failure")
	}
	srv := mustNew(Options{
		Figures:           figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		ResponseCacheSize: 1, // B evicts A into the stale store
		RequestTimeout:    100 * time.Millisecond,
	})
	const (
		bodyA = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250]}`
		bodyB = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[200,150]}`
	)
	rr := doReq(t, srv, "POST", "/v1/sweep", bodyA)
	if rr.Code != 200 {
		t.Fatalf("sweep A: %d: %s", rr.Code, rr.Body.String())
	}
	wantBody := rr.Body.String()
	if rr = doReq(t, srv, "POST", "/v1/sweep", bodyB); rr.Code != 200 {
		t.Fatalf("sweep B: %d: %s", rr.Code, rr.Body.String())
	}

	// Recomputing A now blocks until the request deadline fires.
	prev := streamSweepRun
	streamSweepRun = func(ctx context.Context, _ core.Experiment, _ core.VariantAxis, _ []float64) ([]core.VariantPoint, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer func() { streamSweepRun = prev }()

	rr = doReq(t, srv, "POST", "/v1/sweep", bodyA)
	if rr.Code != 200 || rr.Header().Get("X-Degraded") != "stale" {
		t.Fatalf("A after eviction and deadline: status %d, X-Degraded %q; body: %s",
			rr.Code, rr.Header().Get("X-Degraded"), rr.Body.String())
	}
	if rr.Body.String() != wantBody {
		t.Fatal("stale bytes differ from A's original response")
	}
}

// TestErrorEnvelopeConsistency pins the satellite fix: every 404 on the
// API — unknown job IDs on all three job routes, and entirely unknown
// routes — answers the same JSON envelope, never net/http's plain text.
func TestErrorEnvelopeConsistency(t *testing.T) {
	srv := testServer()
	cases := []struct{ name, method, target, wantIn string }{
		{"job status", "GET", "/v1/jobs/jnope", "unknown job"},
		{"job result", "GET", "/v1/jobs/jnope/result", "unknown job"},
		{"job delete", "DELETE", "/v1/jobs/jnope", "unknown job"},
		{"unknown route", "GET", "/v1/nope", "unknown route"},
		{"root", "GET", "/", "unknown route"},
	}
	for _, c := range cases {
		rr := doReq(t, srv, c.method, c.target, "")
		if rr.Code != 404 {
			t.Errorf("%s: status %d, want 404", c.name, rr.Code)
			continue
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.name, ct)
		}
		var body errorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: body is not the JSON envelope: %s", c.name, rr.Body.String())
			continue
		}
		if !strings.Contains(body.Error, c.wantIn) {
			t.Errorf("%s: error %q does not mention %q", c.name, body.Error, c.wantIn)
		}
	}
	// The three job-route 404s must carry the same message (the TTL
	// hint included), so clients see one contract, not three.
	msgs := map[string]bool{}
	for _, target := range []string{"/v1/jobs/jnope", "/v1/jobs/jnope/result"} {
		var body errorBody
		rr := doReq(t, srv, "GET", target, "")
		_ = json.Unmarshal(rr.Body.Bytes(), &body)
		msgs[body.Error] = true
	}
	var del errorBody
	rr := doReq(t, srv, "DELETE", "/v1/jobs/jnope", "")
	_ = json.Unmarshal(rr.Body.Bytes(), &del)
	msgs[del.Error] = true
	if len(msgs) != 1 {
		t.Errorf("job 404 messages diverge: %v", msgs)
	}
}
