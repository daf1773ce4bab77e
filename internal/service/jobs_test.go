package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpuvar/internal/engine"
	"gpuvar/internal/jobs"
)

// submitJob posts a job envelope and decodes the 202 response.
func submitJob(t *testing.T, h http.Handler, body string) jobView {
	t.Helper()
	rr := doReq(t, h, "POST", "/v1/jobs", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202; body: %s", rr.Code, rr.Body.String())
	}
	var view jobView
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatalf("submit: decoding 202 body: %v", err)
	}
	if loc := rr.Header().Get("Location"); loc != "/v1/jobs/"+view.ID {
		t.Fatalf("submit: Location %q does not match job id %q", loc, view.ID)
	}
	if view.URL != "/v1/jobs/"+view.ID {
		t.Fatalf("submit: url %q does not match job id %q", view.URL, view.ID)
	}
	return view
}

// pollJob polls the status endpoint until the job is terminal,
// asserting progress monotonicity along the way.
func pollJob(t *testing.T, h http.Handler, url string) jobView {
	t.Helper()
	var lastDone, lastTotal int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job at %s did not reach a terminal state within 30s", url)
		}
		rr := doReq(t, h, "GET", url, "")
		if rr.Code != 200 {
			t.Fatalf("poll %s: status %d: %s", url, rr.Code, rr.Body.String())
		}
		var view jobView
		if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
			t.Fatalf("poll %s: %v", url, err)
		}
		if view.ShardsDone < lastDone || view.ShardsTotal < lastTotal {
			t.Fatalf("progress went backwards: %d/%d after %d/%d",
				view.ShardsDone, view.ShardsTotal, lastDone, lastTotal)
		}
		lastDone, lastTotal = view.ShardsDone, view.ShardsTotal
		if view.State.Terminal() {
			return view
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobSweepByteIdenticalToSync is the acceptance contract of the
// async path: the same sweep computed synchronously on one server and
// as a cold async job on another (so neither run can replay the
// other's cache) yields byte-identical bodies, the job reports
// per-shard progress, and double-fetching the result replays the same
// bytes.
func TestJobSweepByteIdenticalToSync(t *testing.T) {
	const sweepBody = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[250,200]}`

	sync := doReq(t, testServer(), "POST", "/v1/sweep", sweepBody)
	if sync.Code != 200 {
		t.Fatalf("sync sweep: status %d: %s", sync.Code, sync.Body.String())
	}

	srv := testServer() // fresh response cache: the job computes cold
	view := submitJob(t, srv, `{"kind":"sweep","sweep":`+sweepBody+`}`)
	final := pollJob(t, srv, view.URL)
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.ShardsTotal == 0 || final.ShardsDone != final.ShardsTotal {
		t.Fatalf("final progress = %d/%d, want complete and nonzero", final.ShardsDone, final.ShardsTotal)
	}
	if final.ResultURL != view.URL+"/result" {
		t.Fatalf("result_url = %q, want %q", final.ResultURL, view.URL+"/result")
	}

	res1 := doReq(t, srv, "GET", final.ResultURL, "")
	res2 := doReq(t, srv, "GET", final.ResultURL, "")
	if res1.Code != 200 || res2.Code != 200 {
		t.Fatalf("result fetches: %d, %d", res1.Code, res2.Code)
	}
	if !bytes.Equal(res1.Body.Bytes(), res2.Body.Bytes()) {
		t.Fatal("double-fetching the result returned different bytes")
	}
	if !bytes.Equal(res1.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("async job result diverged from the synchronous /v1/sweep response")
	}
}

// TestJobPrimesResponseCache: a finished job's computation went through
// the shared response cache, so the equivalent synchronous request —
// here spelled with the axis left to its powercap default — replays it
// as a hit with identical bytes.
func TestJobPrimesResponseCache(t *testing.T) {
	srv := testServer()
	view := submitJob(t, srv,
		`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[240]}}`)
	final := pollJob(t, srv, view.URL)
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	res := doReq(t, srv, "GET", final.ResultURL, "")

	sync := doReq(t, srv, "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"values":[240]}`)
	if sync.Code != 200 || sync.Header().Get("X-Cache") != "hit" {
		t.Fatalf("synchronous sweep after job: status %d, X-Cache %q; want a 200 hit",
			sync.Code, sync.Header().Get("X-Cache"))
	}
	if !bytes.Equal(sync.Body.Bytes(), res.Body.Bytes()) {
		t.Fatal("synchronous sweep returned different bytes than the job result")
	}
}

// TestJobCampaign: the campaign payload works through the async path
// and matches its synchronous twin.
func TestJobCampaign(t *testing.T) {
	srv := testServer()
	sync := doReq(t, srv, "POST", "/v1/campaign", campaignBody)
	if sync.Code != 200 {
		t.Fatalf("sync campaign: %d: %s", sync.Code, sync.Body.String())
	}
	view := submitJob(t, srv, `{"kind":"campaign","campaign":`+campaignBody+`}`)
	final := pollJob(t, srv, view.URL)
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	res := doReq(t, srv, "GET", final.ResultURL, "")
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Fatal("async campaign result diverged from the synchronous response")
	}
}

// TestJobResultBeforeDone: fetching an unfinished job's result answers
// 409 with a Retry-After hint, not a broken body.
func TestJobResultBeforeDone(t *testing.T) {
	srv := testServer()
	// A multi-second campaign (184 Vortex GPUs × 3650 days) that cannot
	// finish before we probe.
	view := submitJob(t, srv,
		`{"kind":"campaign","campaign":{"cluster":"Vortex","days":3650,"plan":{"overhead_frac":0.05,"bench_seconds":600}}}`)
	rr := doReq(t, srv, "GET", view.URL+"/result", "")
	if rr.Code != http.StatusConflict {
		t.Fatalf("result while %s: status %d, want 409; body %s", view.State, rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("409 result response missing Retry-After")
	}
	// Clean up: cancel and wait out the job so it does not leak into
	// other tests' engine-drain assertions.
	doReq(t, srv, "DELETE", view.URL, "")
	pollJob(t, srv, view.URL)
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
}

// TestJobCancelMidRunDrainsEngine cancels a heavy job mid-computation
// over a real HTTP server and asserts the whole stack unwinds: the job
// turns canceled, its result answers 410, and the engine drains to
// zero in-flight jobs.
func TestJobCancelMidRunDrainsEngine(t *testing.T) {
	srv := testServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A multi-second campaign: progress appears within tens of
	// milliseconds, leaving seconds of runtime for the cancel to land
	// mid-computation.
	body := `{"kind":"campaign","campaign":{"cluster":"Vortex","days":3650,"plan":{"overhead_frac":0.05,"bench_seconds":600}}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var view jobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}

	// Wait until the job is computing, then cancel it.
	waitFor(t, func() bool {
		s, ok := srv.jobs.Get(view.ID)
		return ok && s.State == jobs.StateRunning && s.ShardsDone > 0
	})
	req, err := http.NewRequest("DELETE", ts.URL+view.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: %s", resp.Status)
	}

	final := pollJob(t, srv, view.URL)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
	if rr := doReq(t, srv, "GET", view.URL+"/result", ""); rr.Code != http.StatusGone {
		t.Fatalf("result of canceled job: status %d, want 410", rr.Code)
	}
	// The compute stack must fully unwind.
	waitFor(t, func() bool { return srv.CacheStats().InFlight == 0 })
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
	// And nothing about the canceled computation was cached.
	if s := srv.CacheStats(); s.Entries != 0 {
		t.Errorf("canceled job left %d cache entries", s.Entries)
	}
}

// TestJobSummitSweepProgress pins the acceptance scenario end to end
// over a real HTTP server: a Summit-scale variant sweep submitted as a
// job reports advancing per-shard progress while it runs — the
// variants' nested per-GPU jobs grow shards_total well past the
// variant count — and completes with done == total.
func TestJobSummitSweepProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("Summit-scale sweep is too heavy for -short")
	}
	srv := testServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"kind":"sweep","sweep":{"cluster":"Summit","iterations":6,"runs":2,"axis":"fraction","values":[0.1,0.2,0.3]}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var view jobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}

	sawPartial := false
	var lastDone, lastTotal int64
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("Summit sweep job did not finish within 60s")
		}
		resp, err := ts.Client().Get(ts.URL + view.URL)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		if view.ShardsDone < lastDone || view.ShardsTotal < lastTotal {
			t.Fatalf("progress went backwards: %d/%d after %d/%d",
				view.ShardsDone, view.ShardsTotal, lastDone, lastTotal)
		}
		lastDone, lastTotal = view.ShardsDone, view.ShardsTotal
		if view.State == jobs.StateRunning && view.ShardsDone > 0 && view.ShardsDone < view.ShardsTotal {
			sawPartial = true
		}
		if view.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if view.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s), want done", view.State, view.Error)
	}
	if !sawPartial {
		t.Error("never observed partial progress while the sweep ran")
	}
	// The two fraction variants fan out nested per-GPU jobs: total must
	// be far beyond the 2 top-level shards, and fully done.
	if view.ShardsTotal <= 2 || view.ShardsDone != view.ShardsTotal {
		t.Fatalf("final progress = %d/%d, want complete with nested shards counted",
			view.ShardsDone, view.ShardsTotal)
	}
	if rr := doReq(t, srv, "GET", view.URL+"/result", ""); rr.Code != 200 {
		t.Fatalf("result: status %d: %s", rr.Code, rr.Body.String())
	}
}

// TestJobDeleteTerminalForgets: DELETE on a finished job frees it, so
// its status and result answer 404 afterwards.
func TestJobDeleteTerminalForgets(t *testing.T) {
	srv := testServer()
	view := submitJob(t, srv,
		`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[230]}}`)
	final := pollJob(t, srv, view.URL)
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if rr := doReq(t, srv, "DELETE", view.URL, ""); rr.Code != 200 {
		t.Fatalf("delete: status %d", rr.Code)
	}
	if rr := doReq(t, srv, "GET", view.URL, ""); rr.Code != 404 {
		t.Fatalf("status after delete: %d, want 404", rr.Code)
	}
	if rr := doReq(t, srv, "GET", view.URL+"/result", ""); rr.Code != 404 {
		t.Fatalf("result after delete: %d, want 404", rr.Code)
	}
}

// TestJobListAndStats: submitted jobs show up in the listing and the
// stats counters.
func TestJobListAndStats(t *testing.T) {
	srv := testServer()
	view := submitJob(t, srv,
		`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[220]}}`)
	pollJob(t, srv, view.URL)

	rr := doReq(t, srv, "GET", "/v1/jobs", "")
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != view.ID {
		t.Fatalf("listing = %+v, want the submitted job", listing.Jobs)
	}

	var stats statsResponse
	if err := json.Unmarshal(doReq(t, srv, "GET", "/v1/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("job stats = %+v, want 1 submitted, 1 done", stats.Jobs)
	}
}
