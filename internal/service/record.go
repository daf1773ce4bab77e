package service

import (
	"bytes"
	"io"
	"net/http"

	"gpuvar/internal/traffic"
)

// maxRecordedBody bounds the request body the recorder buffers: the
// largest body any replayable handler reads.
const maxRecordedBody = max(maxSweepBody, maxJobBody, maxCampaignBody)

// serveRecorded wraps one request's dispatch with the traffic recorder:
// the request body is captured (and restored for the handler), the
// response flows through a hashing tap, and the finished exchange is
// appended to the trace as one record. Non-replayable routes —
// observability, job polls, the discovery document — are counted but
// not recorded: a trace must replay against a fresh server, and those
// routes' responses depend on run-specific state.
func (s *Server) serveRecorded(w http.ResponseWriter, r *http.Request) {
	kind, replayable := traffic.Classify(r.Method, r.URL.Path)
	if !replayable {
		s.recorder.Skip()
		s.serveRouted(w, r)
		return
	}
	offset := s.recorder.Offset(s.started)
	var body string
	if r.Body != nil {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxRecordedBody+1))
		if err != nil || len(b) > maxRecordedBody {
			// The body never fully arrived, or it is longer than any
			// handler reads: the exchange is not replayable, so skip the
			// record. The handler gets what was read followed by the
			// rest of the stream, so its own limit and error handling
			// decide the response, exactly as on a non-recording server.
			s.recorder.Skip()
			r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(b), r.Body))
			s.serveRouted(w, r)
			return
		}
		body = string(b)
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	tap := traffic.NewTap(w)
	s.serveRouted(tap, r)
	status, sha := tap.Result()
	rec := traffic.Record{
		OffsetUS: offset,
		Client:   requestClient(r.Context()),
		Kind:     kind,
		Method:   r.Method,
		Path:     r.URL.RequestURI(),
		Body:     body,
		Status:   status,
	}
	// The oracle hash only holds for deterministic 200 bodies. A job
	// submission's 202 carries a random job ID (the replayer drives the
	// async lifecycle and hashes the result instead), and error bodies
	// are not worth pinning — the replayer still verifies their status.
	if status == http.StatusOK && kind != traffic.KindJobs {
		rec.SHA256 = sha
	}
	s.recorder.Observe(rec)
}
