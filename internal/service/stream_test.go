package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
	"gpuvar/internal/testutil"
)

// decodeStream parses an NDJSON body into lines and the concatenated
// payload, verifying the framing invariants every stream must satisfy:
// a start line first, shard lines strictly ordered 0..shards-1, exactly
// one terminal line (summary or error) last, and a summary checksum
// that matches the reassembled payload.
func decodeStream(t *testing.T, body []byte) (lines []streamLine, payload []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // experiment summary payloads can be MBs
	var concat bytes.Buffer
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
		concat.WriteString(l.Payload)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want at least start + terminal", len(lines))
	}
	if lines[0].Kind != "start" {
		t.Fatalf("first line kind = %q, want start", lines[0].Kind)
	}
	last := lines[len(lines)-1]
	if last.Kind != "summary" && last.Kind != "error" {
		t.Fatalf("last line kind = %q, want summary or error", last.Kind)
	}
	next := 0
	for _, l := range lines[1 : len(lines)-1] {
		if l.Kind != "shard" || l.Shard != next {
			t.Fatalf("mid-stream line = %+v, want shard %d in order", l, next)
		}
		next++
	}
	if last.Kind == "summary" {
		if last.Bytes != concat.Len() {
			t.Fatalf("summary bytes = %d, payload reassembles to %d", last.Bytes, concat.Len())
		}
		sum := sha256.Sum256(concat.Bytes())
		if last.SHA256 != hex.EncodeToString(sum[:]) {
			t.Fatal("summary sha256 does not match the reassembled payload")
		}
	}
	return lines, concat.Bytes()
}

// TestStreamSweepByteIdentityAllAxes is the golden byte-identity
// contract of the streaming tentpole: for every variant axis, the
// concatenated stream payloads are byte-identical to the synchronous
// POST /v1/sweep response for the same request — computed on separate
// servers, so neither can replay the other's cache.
func TestStreamSweepByteIdentityAllAxes(t *testing.T) {
	cases := []struct {
		axis string
		sync string // POST /v1/sweep body
		qs   string // GET /v1/stream/sweep query
	}{
		{"powercap",
			`{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[250,200]}`,
			"cluster=CloudLab&iterations=2&axis=powercap&values=250,200"},
		{"seed",
			`{"cluster":"CloudLab","iterations":2,"axis":"seed","values":[7,8]}`,
			"cluster=CloudLab&iterations=2&axis=seed&values=7,8"},
		{"ambient",
			`{"cluster":"CloudLab","iterations":2,"axis":"ambient","values":[-2,0,2]}`,
			"cluster=CloudLab&iterations=2&axis=ambient&values=-2,0,2"},
		{"fraction",
			`{"cluster":"CloudLab","iterations":2,"axis":"fraction","values":[0.5,1]}`,
			"cluster=CloudLab&iterations=2&axis=fraction&values=0.5,1"},
	}
	for _, tt := range cases {
		t.Run(tt.axis, func(t *testing.T) {
			sync := doReq(t, testServer(), "POST", "/v1/sweep", tt.sync)
			if sync.Code != 200 {
				t.Fatalf("sync sweep: %d: %s", sync.Code, sync.Body.String())
			}
			stream := doReq(t, testServer(), "GET", "/v1/stream/sweep?"+tt.qs, "")
			if stream.Code != 200 {
				t.Fatalf("stream sweep: %d: %s", stream.Code, stream.Body.String())
			}
			if ct := stream.Header().Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("stream Content-Type = %q", ct)
			}
			lines, payload := decodeStream(t, stream.Body.Bytes())
			if !bytes.Equal(payload, sync.Body.Bytes()) {
				t.Fatalf("concatenated stream payloads diverge from the synchronous body:\nstream: %q\nsync:   %q",
					payload, sync.Body.Bytes())
			}
			wantShards := strings.Count(tt.qs[strings.Index(tt.qs, "values="):], ",") + 1
			if got := len(lines) - 2; got != wantShards {
				t.Fatalf("stream has %d shard lines, want %d (one per variant)", got, wantShards)
			}
			for i, l := range lines[1 : len(lines)-1] {
				if l.Value == nil || l.Shards != wantShards {
					t.Fatalf("shard line %d missing value/shards: %+v", i, l)
				}
			}
		})
	}
}

// TestStreamExperimentByteIdentity: both detail levels of the
// experiment endpoint stream payloads that reassemble into the
// synchronous GET body, with one ordered shard line per engine shard.
func TestStreamExperimentByteIdentity(t *testing.T) {
	for _, q := range []string{
		"cluster=CloudLab&iterations=2",
		"cluster=CloudLab&iterations=2&detail=gpus",
	} {
		t.Run(q, func(t *testing.T) {
			sync := doReq(t, testServer(), "GET", "/v1/experiments/sgemm?"+q, "")
			if sync.Code != 200 {
				t.Fatalf("sync experiment: %d: %s", sync.Code, sync.Body.String())
			}
			stream := doReq(t, testServer(), "GET", "/v1/stream/experiments/sgemm?"+q, "")
			if stream.Code != 200 {
				t.Fatalf("stream experiment: %d: %s", stream.Code, stream.Body.String())
			}
			lines, payload := decodeStream(t, stream.Body.Bytes())
			if !bytes.Equal(payload, sync.Body.Bytes()) {
				t.Fatal("concatenated stream payloads diverge from the synchronous body")
			}
			shards := len(lines) - 2
			if shards < 1 {
				t.Fatalf("stream has %d shard lines, want one per measurement job", shards)
			}
			for i, l := range lines[1 : len(lines)-1] {
				if l.GPUs < 1 || l.Shards != shards {
					t.Fatalf("shard line %d = %+v, want gpus >= 1 and shards = %d", i, l, shards)
				}
			}
		})
	}
}

// TestStreamPrimesResponseCache: a completed stream deposits the
// verified body, so the synchronous twin replays it as a cache hit with
// identical bytes — and vice-versa stays consistent.
func TestStreamPrimesResponseCache(t *testing.T) {
	srv := testServer()
	stream := doReq(t, srv, "GET", "/v1/stream/sweep?cluster=CloudLab&iterations=2&axis=powercap&values=230", "")
	if stream.Code != 200 {
		t.Fatalf("stream: %d", stream.Code)
	}
	_, payload := decodeStream(t, stream.Body.Bytes())
	sync := doReq(t, srv, "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[230]}`)
	if sync.Code != 200 || sync.Header().Get("X-Cache") != "hit" {
		t.Fatalf("sync after stream: %d, X-Cache %q; want a 200 hit", sync.Code, sync.Header().Get("X-Cache"))
	}
	if !bytes.Equal(payload, sync.Body.Bytes()) {
		t.Fatal("primed cache entry diverges from the streamed payload")
	}
}

// TestStreamBadRequests: normalization errors surface as real HTTP
// errors before any NDJSON is written.
func TestStreamBadRequests(t *testing.T) {
	srv := testServer()
	for _, tt := range []struct {
		target string
		status int
		wantIn string
	}{
		{"/v1/stream/sweep?axis=voltage&values=1", 400, "unknown sweep axis"},
		{"/v1/stream/sweep?values=250&iteration=12", 400, "unknown parameter"}, // typo must fail, like the POST body's DisallowUnknownFields
		{"/v1/stream/sweep?cluster=CloudLab", 400, "values is required"},
		{"/v1/stream/sweep?values=1,banana", 400, "not a number"},
		{"/v1/stream/sweep?cluster=Atlantis&values=250", 404, "unknown cluster"},
		{"/v1/stream/sweep?axis=fraction&values=2", 400, "bad fraction"},
		{"/v1/stream/sweep?seed=x&values=1", 400, "bad seed"},
		{"/v1/stream/sweep?fraction=NaN&values=250", 400, "bad fraction"}, // query strings can spell NaN; must be a 400, not a marshal 500
		{"/v1/stream/experiments/sgemm?cluster=CloudLab&fraction=NaN", 400, "bad fraction"},
		{"/v1/stream/experiments/doom", 404, "unknown workload"},
		{"/v1/stream/experiments/sgemm?cluster=CloudLab&runs=-1", 400, "bad runs"},
	} {
		rr := doReq(t, srv, "GET", tt.target, "")
		if rr.Code != tt.status || !strings.Contains(rr.Body.String(), tt.wantIn) {
			t.Errorf("GET %s = %d %q, want %d containing %q", tt.target, rr.Code, rr.Body.String(), tt.status, tt.wantIn)
		}
	}
}

// gatedSweepRun swaps the stream seam for an engine-backed fake whose
// shards past the first block on gate (or the context). It returns
// plausible variant points so the response renders normally.
func gatedSweepRun(t *testing.T, gate chan struct{}) (restore func()) {
	t.Helper()
	prev := streamSweepRun
	streamSweepRun = func(ctx context.Context, exp core.Experiment, axis core.VariantAxis, values []float64) ([]core.VariantPoint, error) {
		return engine.Map(ctx, len(values), 1, func(ctx context.Context, i int) (core.VariantPoint, error) {
			if i > 0 {
				select {
				case <-gate:
				case <-ctx.Done():
					return core.VariantPoint{}, ctx.Err()
				}
			}
			return core.VariantPoint{Axis: axis, Value: values[i], Result: &core.Result{}}, nil
		})
	}
	return func() { streamSweepRun = prev }
}

// TestStreamFirstLineBeforeCompletion is the gated-shard acceptance
// test: over a real HTTP server, the start line and shard 0's line are
// readable while shard 1 is still blocked mid-computation — the stream
// delivers results before the job completes, not after.
func TestStreamFirstLineBeforeCompletion(t *testing.T) {
	gate := make(chan struct{})
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := testServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/stream/sweep?cluster=CloudLab&iterations=2&axis=powercap&values=300,250,200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
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

	// Both lines arrive while shard 1 is still gated: the job cannot
	// have completed.
	if l := readLine(); l.Kind != "start" || l.Shards != 3 {
		t.Fatalf("first line = %+v, want the start line for 3 shards", l)
	}
	if l := readLine(); l.Kind != "shard" || l.Shard != 0 || l.Payload == "" {
		t.Fatalf("second line = %+v, want shard 0 with its body chunk", l)
	}

	close(gate)
	var rest []streamLine
	for {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var l streamLine
			if uerr := json.Unmarshal(raw, &l); uerr != nil {
				t.Fatalf("decoding %q: %v", raw, uerr)
			}
			rest = append(rest, l)
		}
		if err != nil {
			break
		}
	}
	if len(rest) != 3 || rest[0].Shard != 1 || rest[1].Shard != 2 || rest[2].Kind != "summary" {
		t.Fatalf("remaining lines = %+v, want shards 1, 2 and the summary", rest)
	}
}

// TestStreamClientDisconnectUnwinds: a client abandoning the stream
// mid-computation cancels the work — the engine drains and no
// goroutines leak (the leak assertion streaming handlers must satisfy).
func TestStreamClientDisconnectUnwinds(t *testing.T) {
	leak := testutil.LeakCheck(t, 2) // the http server's conn goroutine drains asynchronously
	gate := make(chan struct{})      // never closed: only the disconnect can release shard 1
	restore := gatedSweepRun(t, gate)
	defer restore()

	srv := testServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/stream/sweep?cluster=CloudLab&iterations=2&axis=powercap&values=300,250")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil { // start line
		t.Fatal(err)
	}
	if _, err := br.ReadBytes('\n'); err != nil { // shard 0
		t.Fatal(err)
	}
	// Disconnect mid-stream: shard 1 is blocked on the gate and must be
	// torn down by the request context, not the gate.
	resp.Body.Close()

	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
	ts.Close()
	leak()
}

// TestStreamErrorMidStream: a shard failure after lines have gone out
// terminates the stream with an in-band error line, and nothing is
// cached.
func TestStreamErrorMidStream(t *testing.T) {
	prev := streamSweepRun
	streamSweepRun = func(ctx context.Context, exp core.Experiment, axis core.VariantAxis, values []float64) ([]core.VariantPoint, error) {
		return engine.Map(ctx, len(values), 1, func(_ context.Context, i int) (core.VariantPoint, error) {
			if i == 1 {
				return core.VariantPoint{}, fmt.Errorf("variant %d exploded", i)
			}
			return core.VariantPoint{Axis: axis, Value: values[i], Result: &core.Result{}}, nil
		})
	}
	defer func() { streamSweepRun = prev }()

	srv := testServer()
	rr := doReq(t, srv, "GET", "/v1/stream/sweep?cluster=CloudLab&iterations=2&axis=powercap&values=300,250", "")
	if rr.Code != 200 { // status already committed when the failure hit
		t.Fatalf("status %d", rr.Code)
	}
	lines, _ := decodeStream(t, rr.Body.Bytes())
	last := lines[len(lines)-1]
	if last.Kind != "error" || !strings.Contains(last.Error, "variant 1 exploded") {
		t.Fatalf("terminal line = %+v, want the in-band error", last)
	}
	if s := srv.CacheStats(); s.Entries != 0 {
		t.Fatalf("failed stream left %d cache entries", s.Entries)
	}
}

// TestJobClassSheddingAndPriority pins the service-level scheduling
// acceptance scenario: with the single batch slot held and the batch
// queue full, a further batch submission answers 429 + Retry-After,
// while an interactive-class job completes end to end.
func TestJobClassSheddingAndPriority(t *testing.T) {
	srv := mustNew(Options{
		Figures:        testServer().opts.Figures,
		MaxRunningJobs: 1,
		MaxQueuedJobs:  1,
	})
	// Two slow batch campaigns: one takes the batch slot, one fills the
	// one-deep batch queue.
	heavy := `{"kind":"campaign","campaign":{"cluster":"Vortex","days":3650,"plan":{"overhead_frac":0.05,"bench_seconds":600}}}`
	running := submitJob(t, srv, heavy)
	waitFor(t, func() bool {
		s, ok := srv.jobs.Get(running.ID)
		return ok && s.State == "running"
	})
	queued := submitJob(t, srv, `{"kind":"campaign","campaign":{"cluster":"Vortex","days":3650,"seed":7,"plan":{"overhead_frac":0.05,"bench_seconds":600}}}`)
	if queued.Snapshot.Class != "batch" {
		t.Fatalf("default job class = %q, want batch", queued.Snapshot.Class)
	}

	// The batch queue is at its bound: the next batch submission sheds.
	shed := doReq(t, srv, "POST", "/v1/jobs",
		`{"kind":"campaign","campaign":{"cluster":"Vortex","days":3650,"seed":9,"plan":{"overhead_frac":0.05,"bench_seconds":600}}}`)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("submission past the batch bound: status %d, want 429; body %s", shed.Code, shed.Body.String())
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// An interactive-class job jumps the saturation and completes.
	inter := submitJob(t, srv, `{"kind":"sweep","class":"interactive","sweep":{"cluster":"CloudLab","iterations":2,"values":[260]}}`)
	if inter.Snapshot.Class != "interactive" {
		t.Fatalf("class = %q, want interactive", inter.Snapshot.Class)
	}
	final := pollJob(t, srv, inter.URL)
	if final.State != "done" {
		t.Fatalf("interactive job ended %s (%s), want done while batch was saturated", final.State, final.Error)
	}
	if rr := doReq(t, srv, "GET", final.ResultURL, ""); rr.Code != 200 {
		t.Fatalf("interactive result: %d", rr.Code)
	}

	// Saturation shows up in the observability surface — /v1/healthz
	// and /v1/stats carry the same counters.
	if body := doReq(t, srv, "GET", "/v1/healthz", "").Body.String(); !strings.Contains(body, `"queued_batch"`) ||
		!strings.Contains(body, `"in_use_batch"`) {
		t.Errorf("healthz missing per-class queue depth / budget occupancy:\n%s", body)
	}
	var stats statsResponse
	if err := json.Unmarshal(doReq(t, srv, "GET", "/v1/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Shed != 1 || stats.Jobs.QueuedBatch != 1 || stats.Jobs.RunningBatch != 1 {
		t.Fatalf("job stats = %+v, want shed=1, queued_batch=1, running_batch=1", stats.Jobs)
	}
	if stats.Engine.Budget.Capacity < 1 {
		t.Fatalf("engine budget missing from stats: %+v", stats.Engine.Budget)
	}

	// Unwind: cancel the heavy batch jobs and drain.
	doReq(t, srv, "DELETE", "/v1/jobs/"+running.ID, "")
	doReq(t, srv, "DELETE", "/v1/jobs/"+queued.ID, "")
	pollJob(t, srv, "/v1/jobs/"+running.ID)
	pollJob(t, srv, "/v1/jobs/"+queued.ID)
	waitFor(t, func() bool { return engine.Snapshot().InFlightJobs == 0 })
}

// TestJobListDeterministicOrder pins GET /v1/jobs's wire ordering:
// jobs appear in creation order (oldest first), stable across repeated
// listings.
func TestJobListDeterministicOrder(t *testing.T) {
	srv := testServer()
	var ids []string
	for _, cap := range []string{"300", "290", "280"} {
		view := submitJob(t, srv,
			`{"kind":"sweep","sweep":{"cluster":"CloudLab","iterations":2,"values":[`+cap+`]}}`)
		pollJob(t, srv, view.URL)
		ids = append(ids, view.ID)
	}
	for round := 0; round < 3; round++ {
		rr := doReq(t, srv, "GET", "/v1/jobs", "")
		var listing struct {
			Jobs []jobView `json:"jobs"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Jobs) != len(ids) {
			t.Fatalf("round %d: listed %d jobs, want %d", round, len(listing.Jobs), len(ids))
		}
		for i, id := range ids {
			if listing.Jobs[i].ID != id {
				t.Fatalf("round %d: jobs[%d] = %s, want %s (creation order)", round, i, listing.Jobs[i].ID, id)
			}
		}
	}
}
