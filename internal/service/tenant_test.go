package service

// Tests for the multi-tenant front door: client identity and request
// IDs, per-client fair queuing proven over real HTTP, replayable
// mid-run job streams, /v1/jobs pagination, and the /metrics
// exposition.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"gpuvar/internal/engine"
	"gpuvar/internal/figures"
	"gpuvar/internal/jobs"
)

// doReqH is doReq with request headers — the multi-tenant tests need
// X-API-Key and X-Request-ID on the wire.
func doReqH(t *testing.T, h http.Handler, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// decodeError unmarshals the JSON error envelope.
func decodeError(t *testing.T, body []byte) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return e
}

// TestRequestID: every response carries X-Request-ID — the client's own
// (echoed) when it sent a reasonable one, a generated one otherwise —
// including error and unknown-route responses.
func TestRequestID(t *testing.T) {
	srv := testServer()

	rr := doReqH(t, srv, "GET", "/v1/figures", "", map[string]string{"X-Request-ID": "req-abc-123"})
	if got := rr.Header().Get("X-Request-ID"); got != "req-abc-123" {
		t.Errorf("echoed request id = %q, want req-abc-123", got)
	}

	rr = doReq(t, srv, "GET", "/v1/figures", "")
	gen := rr.Header().Get("X-Request-ID")
	if gen == "" {
		t.Error("response without a client request id is missing a generated X-Request-ID")
	}

	// Unprintable and oversized ids are replaced, not echoed (header
	// injection and log-poisoning hygiene).
	rr = doReqH(t, srv, "GET", "/v1/figures", "", map[string]string{"X-Request-ID": "bad\x7fid"})
	if got := rr.Header().Get("X-Request-ID"); got == "bad\x7fid" || got == "" {
		t.Errorf("unprintable request id handled as %q, want a generated replacement", got)
	}

	// Error responses carry the id too.
	rr = doReq(t, srv, "GET", "/no/such/route", "")
	if rr.Code != 404 || rr.Header().Get("X-Request-ID") == "" {
		t.Errorf("unknown route: status %d, X-Request-ID %q; want 404 with an id",
			rr.Code, rr.Header().Get("X-Request-ID"))
	}
}

// TestErrorEnvelopeCodes: error responses are the uniform JSON envelope
// with a stable machine-readable code alongside the human message.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := testServer()
	for _, tt := range []struct {
		method, target, body string
		status               int
		code                 string
	}{
		{"GET", "/no/such/route", "", 404, "unknown_route"},
		{"DELETE", "/v1/figures/tab1", "", 405, "method_not_allowed"},
		{"GET", "/v1/figures/fig99", "", 404, "unknown_figure"},
		{"GET", "/v1/experiments/doom", "", 404, "not_found"},
		{"POST", "/v1/sweep", `{"values":[1],"axis":"warp"}`, 400, "bad_axis"},
		{"POST", "/v1/sweep", `{"bogus":1}`, 400, "bad_request"},
		{"GET", "/v1/jobs/nope", "", 404, "job_not_found"},
		{"GET", "/v1/jobs/nope/stream", "", 404, "job_not_found"},
		{"GET", "/v1/jobs?limit=0", "", 400, "bad_request"},
		{"GET", "/v1/jobs?page_token=%21%21", "", 400, "bad_page_token"},
	} {
		rr := doReq(t, srv, tt.method, tt.target, tt.body)
		if rr.Code != tt.status {
			t.Errorf("%s %s = %d, want %d; body %s", tt.method, tt.target, rr.Code, tt.status, rr.Body.String())
			continue
		}
		if e := decodeError(t, rr.Body.Bytes()); e.Code != tt.code || e.Error == "" {
			t.Errorf("%s %s envelope = %+v, want code %q with a message", tt.method, tt.target, e, tt.code)
		}
	}
}

// TestServiceFairnessTwoClients is the fairness acceptance test at the
// service layer, over a real HTTP server: a noisy tenant saturates its
// own per-client bound (429 scoped to the CLIENT, naming it), a quiet
// tenant still submits fine, and when capacity frees the quiet tenant's
// job is dispatched ahead of the noisy backlog. Counters account for
// both tenants.
func TestServiceFairnessTwoClients(t *testing.T) {
	gate := make(chan struct{}) // one token releases one job's gated shard
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := mustNew(Options{
		Figures:                figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		MaxRunningJobs:         1,
		MaxQueuedJobs:          8,
		MaxQueuedJobsPerClient: 2,
		ClientWeights:          map[string]int{"quiet": 4},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submit := func(apiKey string, seed int) (jobView, *http.Response, []byte) {
		t.Helper()
		// Distinct seeds keep the jobs from coalescing onto one cache
		// flight, so each consumes its own gate token.
		body := fmt.Sprintf(
			`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"seed":%d,"axis":"powercap","values":[300,250]}}`, seed)
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", apiKey)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var view jobView
		if resp.StatusCode == http.StatusAccepted {
			if err := json.Unmarshal(raw, &view); err != nil {
				t.Fatal(err)
			}
		}
		return view, resp, raw
	}

	// Noisy fills its slice: one running (blocked on the gate) plus its
	// full per-client queue allowance.
	var noisy []jobView
	for i := 0; i < 3; i++ {
		view, resp, raw := submit("noisy", 100+i)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("noisy submit %d: %s: %s", i, resp.Status, raw)
		}
		noisy = append(noisy, view)
	}

	// The next noisy submission trips the PER-CLIENT bound: 429, coded
	// and worded for the client scope, with a retry hint.
	_, resp, raw := submit("noisy", 103)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("noisy overflow: %s, want 429; body %s", resp.Status, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("per-client 429 is missing Retry-After")
	}
	e := decodeError(t, raw)
	if e.Code != "client_queue_full" || !strings.Contains(e.Error, "noisy") {
		t.Fatalf("per-client 429 envelope = %+v, want code client_queue_full naming the client", e)
	}

	// The quiet tenant is unaffected: the class queue has headroom and
	// its own per-client queue is empty.
	quiet, resp, raw := submit("quiet", 200)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet submit rejected alongside the noisy tenant: %s: %s", resp.Status, raw)
	}

	// Release exactly one job: noisy's running job finishes, freeing the
	// only slot. Fair scheduling hands it to quiet — one queued job,
	// higher weight, fresh pass — not to noisy's older backlog.
	gate <- struct{}{}
	waitFor(t, func() bool {
		s, ok := srv.jobs.Get(quiet.ID)
		return ok && s.State != jobs.StateQueued
	})
	for _, v := range noisy[1:] {
		if s, ok := srv.jobs.Get(v.ID); !ok || s.State != jobs.StateQueued {
			t.Fatalf("noisy job %s left the queue before the quiet tenant's job was served", v.ID)
		}
	}

	// The per-client filter sees each tenant's own jobs.
	rr := doReq(t, srv, "GET", "/v1/jobs?client=noisy", "")
	var listing jobListResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 3 {
		t.Errorf("client=noisy listing has %d jobs, want 3", len(listing.Jobs))
	}

	// Drain everything and check the per-client accounting.
	close(gate)
	for _, v := range append(noisy, quiet) {
		pollJob(t, srv, v.URL)
	}
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })

	stats := srv.jobs.Stats()
	if stats.Shed != 1 || stats.ShedClient != 1 {
		t.Errorf("shed counters = %d/%d (total/client), want 1/1", stats.Shed, stats.ShedClient)
	}
	byClient := map[string]jobs.ClientStats{}
	for _, c := range stats.Clients {
		byClient[c.Client] = c
	}
	if c := byClient["noisy"]; c.Served != 3 || c.Shed != 1 || c.Queued != 0 {
		t.Errorf("noisy stats = %+v, want 3 served, 1 shed, empty queue", c)
	}
	if c := byClient["quiet"]; c.Served != 1 || c.Shed != 0 || c.Weight != 4 {
		t.Errorf("quiet stats = %+v, want 1 served, 0 shed, weight 4", c)
	}
}

// TestServiceClassQueueStillSheds: the class-wide bound keeps its own
// 429 scope — a tenant with an empty per-client queue is still refused
// when the whole batch queue is full, and the envelope says so.
func TestServiceClassQueueStillSheds(t *testing.T) {
	gate := make(chan struct{})
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := mustNew(Options{
		Figures:        figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		MaxRunningJobs: 1,
		MaxQueuedJobs:  1,
	})
	body := func(seed int) string {
		return fmt.Sprintf(`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"seed":%d,"values":[300,250]}}`, seed)
	}
	a1 := submitJob(t, srv, body(1)) // runs, blocked on the gate
	a2 := submitJob(t, srv, body(2)) // fills the one-slot class queue

	rr := doReqH(t, srv, "POST", "/v1/jobs", body(3), map[string]string{"X-API-Key": "someone-else"})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("class overflow: %d, want 429; body %s", rr.Code, rr.Body.String())
	}
	if e := decodeError(t, rr.Body.Bytes()); e.Code != "queue_full" {
		t.Fatalf("class 429 envelope = %+v, want code queue_full (class scope)", e)
	}

	close(gate)
	pollJob(t, srv, a1.URL)
	pollJob(t, srv, a2.URL)
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
}

// TestJobStreamMidRunAttach is the replayable-stream acceptance test:
// attach to a running job's stream over real HTTP while a gated shard
// holds it mid-run, observe the replayed prefix (start + shard 0), let
// the job finish, and verify the concatenated payloads are
// byte-identical to the synchronous POST /v1/sweep body. A second
// attach after completion replays the identical stream.
func TestJobStreamMidRunAttach(t *testing.T) {
	gate := make(chan struct{})
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := testServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const sweepBody = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250,200]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sweep","sweep":`+sweepBody+`}`))
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
	if view.StreamURL != view.URL+"/stream" {
		t.Fatalf("stream_url = %q, want %q", view.StreamURL, view.URL+"/stream")
	}

	// Attach mid-run: shard 0 computes freely, shards 1 and 2 are gated,
	// so the job cannot be terminal while we read the prefix.
	stream, err := ts.Client().Get(ts.URL + view.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != 200 {
		t.Fatalf("stream attach: %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var streamBuf bytes.Buffer
	br := bufio.NewReader(io.TeeReader(stream.Body, &streamBuf))
	readLine := func() streamLine {
		t.Helper()
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading stream line: %v", err)
		}
		var l streamLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		return l
	}
	if l := readLine(); l.Kind != "start" || l.Shards != 3 || l.Payload == "" {
		t.Fatalf("first line = %+v, want the start line carrying the body prefix", l)
	}
	if l := readLine(); l.Kind != "shard" || l.Shard != 0 || l.Payload == "" {
		t.Fatalf("second line = %+v, want shard 0's chunk", l)
	}
	if snap, ok := srv.jobs.Get(view.ID); !ok || snap.State.Terminal() {
		t.Fatal("job already terminal while its later shards are gated — the attach was not mid-run")
	}

	// Let the job finish and drain the live tail.
	close(gate)
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}
	lines, payload := decodeStream(t, streamBuf.Bytes())
	if got := len(lines) - 2; got != 3 {
		t.Fatalf("stream has %d shard lines, want 3", got)
	}

	// Byte identity: the reassembled payload equals the synchronous body
	// for the same request, computed cold on a separate server.
	sync := doReq(t, testServer(), "POST", "/v1/sweep", sweepBody)
	if sync.Code != 200 {
		t.Fatalf("sync sweep: %d: %s", sync.Code, sync.Body.String())
	}
	if !bytes.Equal(payload, sync.Body.Bytes()) {
		t.Fatalf("mid-run attached stream payload diverges from the synchronous body:\nstream: %q\nsync:   %q",
			payload, sync.Body.Bytes())
	}

	// And the job's own result replays the same bytes.
	final := pollJob(t, srv, view.URL)
	res := doReq(t, srv, "GET", final.ResultURL, "")
	if !bytes.Equal(payload, res.Body.Bytes()) {
		t.Fatal("stream payload diverges from the job result body")
	}

	// A late attach — after completion — replays the whole identical
	// stream from the log.
	replay := doReq(t, srv, "GET", view.StreamURL, "")
	if replay.Code != 200 {
		t.Fatalf("replay attach: %d", replay.Code)
	}
	if !bytes.Equal(replay.Body.Bytes(), streamBuf.Bytes()) {
		t.Fatal("post-completion replay is not byte-identical to the mid-run attached stream")
	}
}

// TestJobStreamCanceled: a canceled job's stream terminates with an
// in-band error line, like the synchronous streaming endpoints.
func TestJobStreamCanceled(t *testing.T) {
	gate := make(chan struct{}) // never released; only cancel ends the job
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := testServer()
	view := submitJob(t, srv, `{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[300,250]}}`)
	waitFor(t, func() bool {
		s, ok := srv.jobs.Get(view.ID)
		return ok && s.State == jobs.StateRunning
	})
	doReq(t, srv, "DELETE", view.URL, "")
	pollJob(t, srv, view.URL)

	rr := doReq(t, srv, "GET", view.StreamURL, "")
	if rr.Code != 200 {
		t.Fatalf("stream of canceled job: %d", rr.Code)
	}
	lines, _ := decodeStream(t, rr.Body.Bytes())
	last := lines[len(lines)-1]
	if last.Kind != "error" || !strings.Contains(last.Error, "canceled") {
		t.Fatalf("terminal line = %+v, want an in-band cancel error", last)
	}
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
}

// TestJobListPagination: limit/page_token walk the listing in stable
// creation order without duplicates or gaps, filters compose, and the
// unpaginated listing is unchanged.
func TestJobListPagination(t *testing.T) {
	srv := testServer()
	var ids []string
	for i := 0; i < 5; i++ {
		key := "alpha"
		if i >= 3 {
			key = "beta"
		}
		rr := doReqH(t, srv, "POST", "/v1/jobs",
			fmt.Sprintf(`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[%d]}}`, 200+i),
			map[string]string{"X-API-Key": key})
		if rr.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, rr.Code, rr.Body.String())
		}
		var view jobView
		if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		pollJob(t, srv, view.URL)
		ids = append(ids, view.ID)
	}

	list := func(target string) jobListResponse {
		t.Helper()
		rr := doReq(t, srv, "GET", target, "")
		if rr.Code != 200 {
			t.Fatalf("GET %s: %d: %s", target, rr.Code, rr.Body.String())
		}
		var out jobListResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Unpaginated: all five, creation order, no token.
	full := list("/v1/jobs")
	if len(full.Jobs) != 5 || full.NextPageToken != "" {
		t.Fatalf("unpaginated listing = %d jobs, token %q; want 5 and none", len(full.Jobs), full.NextPageToken)
	}
	for i, v := range full.Jobs {
		if v.ID != ids[i] {
			t.Fatalf("listing order diverges from creation order at %d: %s != %s", i, v.ID, ids[i])
		}
	}

	// Paginated walk: 2 + 2 + 1, concatenating to the full listing.
	var walked []string
	token := ""
	pages := 0
	for {
		target := "/v1/jobs?limit=2"
		if token != "" {
			target += "&page_token=" + token
		}
		page := list(target)
		if len(page.Jobs) > 2 {
			t.Fatalf("page has %d jobs, limit was 2", len(page.Jobs))
		}
		for _, v := range page.Jobs {
			walked = append(walked, v.ID)
		}
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages != 3 || strings.Join(walked, ",") != strings.Join(ids, ",") {
		t.Fatalf("paginated walk = %d pages %v, want 3 pages reproducing %v", pages, walked, ids)
	}

	// Filters: per-client and per-state, composable with limit.
	if got := list("/v1/jobs?client=alpha"); len(got.Jobs) != 3 {
		t.Errorf("client=alpha listing has %d jobs, want 3", len(got.Jobs))
	}
	if got := list("/v1/jobs?state=done"); len(got.Jobs) != 5 {
		t.Errorf("state=done listing has %d jobs, want 5", len(got.Jobs))
	}
	if got := list("/v1/jobs?state=queued"); len(got.Jobs) != 0 {
		t.Errorf("state=queued listing has %d jobs, want 0", len(got.Jobs))
	}
	page := list("/v1/jobs?client=beta&limit=1")
	if len(page.Jobs) != 1 || page.NextPageToken == "" {
		t.Fatalf("client=beta&limit=1 = %d jobs, token %q; want 1 and a token", len(page.Jobs), page.NextPageToken)
	}
	rest := list("/v1/jobs?client=beta&limit=1&page_token=" + page.NextPageToken)
	if len(rest.Jobs) != 1 || rest.Jobs[0].ID == page.Jobs[0].ID {
		t.Fatalf("second beta page = %+v, want the other beta job", rest.Jobs)
	}

	// Malformed knobs fail loudly.
	for _, target := range []string{
		"/v1/jobs?limit=-3",
		"/v1/jobs?limit=x",
		"/v1/jobs?state=pending",
		"/v1/jobs?sort=asc",
		"/v1/jobs?page_token=@@@",
	} {
		if rr := doReq(t, srv, "GET", target, ""); rr.Code != 400 {
			t.Errorf("GET %s = %d, want 400", target, rr.Code)
		}
	}
}

// promSampleRe matches one exposition-format sample line.
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)

// TestMetricsExposition lints GET /metrics against the Prometheus text
// format: every sample belongs to a family announced by HELP and TYPE
// lines, counter families end in _total, and the multi-tenant series
// (per-client, per-class) are present after a job runs.
func TestMetricsExposition(t *testing.T) {
	srv := testServer()
	rr := doReqH(t, srv, "POST", "/v1/jobs",
		`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[240]}}`,
		map[string]string{"X-API-Key": "tenant-a"})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	var view jobView
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	pollJob(t, srv, view.URL)

	metrics := doReq(t, srv, "GET", "/metrics", "")
	if metrics.Code != 200 {
		t.Fatalf("/metrics: %d", metrics.Code)
	}
	if ct := metrics.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}

	types := map[string]string{} // family -> counter|gauge
	helped := map[string]bool{}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(metrics.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: HELP without text: %q", i+1, line)
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge") {
				t.Fatalf("line %d: bad TYPE line %q", i+1, line)
			}
			if !helped[f[2]] {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", i+1, f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not a valid sample: %q", i+1, line)
		}
		name := m[1]
		if !strings.HasPrefix(name, "gpuvar_") {
			t.Fatalf("line %d: family %s lacks the gpuvar_ prefix", i+1, name)
		}
		typ, ok := types[name]
		if !ok {
			t.Fatalf("line %d: sample %s has no preceding TYPE", i+1, name)
		}
		if strings.HasSuffix(name, "_total") != (typ == "counter") {
			t.Fatalf("line %d: family %s is a %s (counters and only counters end in _total)", i+1, name, typ)
		}
		samples[m[1]+m[2]] = 1
	}
	for _, want := range []string{
		`gpuvar_uptime_seconds`,
		`gpuvar_jobs_total{event="submitted"}`,
		`gpuvar_jobs_total{event="done"}`,
		`gpuvar_jobs_shed_total{scope="client"}`,
		`gpuvar_jobs_queued{class="batch"}`,
		`gpuvar_engine_budget_tokens{kind="capacity"}`,
		`gpuvar_client_served_total{client="tenant-a"}`,
		`gpuvar_client_weight{client="tenant-a"}`,
		`gpuvar_response_cache_events_total{kind="miss"}`,
		`gpuvar_fleet_cache_events_total{kind="hit"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("/metrics is missing the %s series", want)
		}
	}
}
