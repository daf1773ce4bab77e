package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"gpuvar/internal/figures"
	"gpuvar/internal/traffic"
)

// TestRecordTraceCapturesReplayableTraffic drives a recording server
// through every surface class and checks the trace on disk: replayable
// requests land as records whose oracle hashes match the bytes the
// client actually received, observability requests are counted but not
// recorded, and the file decodes cleanly (no torn tail on a graceful
// close).
func TestRecordTraceCapturesReplayableTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.trace")
	srv, err := New(Options{
		Figures:     figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		RecordTrace: path,
	})
	if err != nil {
		t.Fatal(err)
	}

	fig := doReq(t, srv, "GET", "/v1/figures/fig2", "")
	if fig.Code != 200 {
		t.Fatalf("figure: status %d: %s", fig.Code, fig.Body)
	}
	sweep := doReq(t, srv, "POST", "/v1/sweep", `{"axis":"seed","values":[1,2]}`)
	if sweep.Code != 200 {
		t.Fatalf("sweep: status %d: %s", sweep.Code, sweep.Body)
	}
	if rr := doReq(t, srv, "GET", "/v1/stats", ""); rr.Code != 200 {
		t.Fatalf("stats: status %d", rr.Code)
	} else {
		var got statsResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Traffic == nil || got.Traffic.Recorded != 2 || got.Traffic.Skipped < 1 {
			t.Errorf("stats traffic snapshot = %+v, want 2 recorded and the stats call itself skipped", got.Traffic)
		}
	}
	// An unknown route is skipped too — nothing to replay.
	doReq(t, srv, "GET", "/v1/nope", "")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	tr, stats, err := traffic.DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedRecords != 0 || stats.TruncatedBytes != 0 {
		t.Errorf("graceful close left a torn tail: %+v", stats)
	}
	if tr.Header.Source != "recorded" {
		t.Errorf("header source = %q, want recorded", tr.Header.Source)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("trace has %d records, want 2: %+v", len(tr.Records), tr.Records)
	}
	figSum := sha256.Sum256(fig.Body.Bytes())
	sweepSum := sha256.Sum256(sweep.Body.Bytes())
	wants := []struct {
		kind, path, sha string
		status          int
	}{
		{traffic.KindFigures, "/v1/figures/fig2", hex.EncodeToString(figSum[:]), 200},
		{traffic.KindSweep, "/v1/sweep", hex.EncodeToString(sweepSum[:]), 200},
	}
	for i, want := range wants {
		rec := tr.Records[i]
		if rec.Kind != want.kind || rec.Path != want.path || rec.Status != want.status || rec.SHA256 != want.sha {
			t.Errorf("record %d = %+v, want kind %s path %s status %d sha %s", i, rec, want.kind, want.path, want.status, want.sha)
		}
		if rec.FP != traffic.Fingerprint(rec.Method, rec.Path, rec.Body) {
			t.Errorf("record %d fingerprint does not match its own fields", i)
		}
		if rec.OffsetUS < 0 {
			t.Errorf("record %d offset %d < 0", i, rec.OffsetUS)
		}
	}
	if tr.Records[1].Body != `{"axis":"seed","values":[1,2]}` {
		t.Errorf("sweep body = %q", tr.Records[1].Body)
	}
}

// TestRecordTraceJobsOmitOracle checks the async-submission special
// case: the 202 body carries a random job ID, so the record keeps the
// status but not a body hash — the replayer drives the job lifecycle
// and hashes the result instead.
func TestRecordTraceJobsOmitOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.trace")
	srv, err := New(Options{
		Figures:     figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		RecordTrace: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := doReq(t, srv, "POST", "/v1/jobs", `{"kind":"sweep","sweep":{"axis":"seed","values":[1]}}`)
	if rr.Code != 202 {
		t.Fatalf("job submit: status %d: %s", rr.Code, rr.Body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("job submit body = %s (err %v)", rr.Body, err)
	}
	// Poll requests embed the random ID; they must not be recorded.
	doReq(t, srv, "GET", "/v1/jobs/"+sub.ID, "")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	tr, _, err := traffic.DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("trace has %d records, want just the submission: %+v", len(tr.Records), tr.Records)
	}
	rec := tr.Records[0]
	if rec.Kind != traffic.KindJobs || rec.Status != 202 || rec.SHA256 != "" {
		t.Errorf("job record = %+v, want kind jobs, status 202, empty sha256", rec)
	}
}

// TestRecordTraceSkipsOversizedBody: a body longer than any handler
// reads is not buffered into the trace. The handler still sees the
// whole stream, so the response is the one a non-recording server
// gives, and no record is written.
func TestRecordTraceSkipsOversizedBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oversized.trace")
	srv, err := New(Options{
		Figures:     figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		RecordTrace: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"axis":"seed","values":[1]` + strings.Repeat(" ", maxRecordedBody) + `}`
	got := doReq(t, srv, "POST", "/v1/sweep", body)
	want := doReq(t, testServer(), "POST", "/v1/sweep", body)
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Errorf("recording server answered %d %s, non-recording server %d %s",
			got.Code, got.Body, want.Code, want.Body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	tr, _, err := traffic.DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 0 {
		t.Errorf("trace has %d records, want none for an oversized body", len(tr.Records))
	}
}
