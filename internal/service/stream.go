package service

// Streaming per-shard results: instead of buffering a whole sweep or
// experiment and answering in one body, the streaming endpoints flush
// one NDJSON line per completed shard, first byte in milliseconds even
// for Summit-scale runs:
//
//	GET /v1/stream/sweep              the POST /v1/sweep body as query
//	                                  params (values comma-separated);
//	                                  one line per variant
//	GET /v1/stream/experiments/{name} the GET /v1/experiments/{name}
//	                                  query; one line per engine shard
//	                                  (a per-GPU measurement job)
//
// Each line is a JSON object with a "kind" ("start", "shard",
// "summary", or "error") and a "payload" string. The payload carries a
// chunk of the SYNCHRONOUS response body: concatenating every line's
// payload, in order, reproduces the synchronous endpoint's bytes
// exactly — the stream is a progressive encoding of the same response,
// not a second schema. The terminal summary line carries the closing
// chunk plus the body's total length and sha256, so a client can verify
// the reassembly; on failure an "error" line replaces it.
//
// Every stream — these two routes and GET /v1/jobs/{id}/stream — is a
// lineStream: the computation appends rendered lines to a bounded,
// replayable line log (jobs.Log) and the client follows it (serve).
// Engine workers never block on a slow client's socket; they hold
// worker-budget tokens, and a stalled reader pinning the process-wide
// budget would defeat the scheduler. A sweep's log is bounded by its
// variant count; an experiment's by the cluster's GPU count, since every
// measurement job holds at least one GPU.
//
// The shard lines ride the engine's ordered per-shard sink
// (engine.WithSink): the top-level job's shards — sweep variants,
// per-GPU measurement jobs — are emitted in shard order the moment each
// contiguous prefix completes, while nested jobs compute silently. A
// sweep shard's payload is its variant's JSON entry; an experiment
// shard's payload is empty (the summary section needs every
// measurement), so its lines serve as ordered progress beacons and the
// terminal line carries the body's remainder.
//
// A direct stream runs the synchronous endpoint's own computation
// (sweepComputation, experimentComputation) with the sink on its
// context, under the interactive scheduling class (a held connection
// with a client watching) but with the batch-length deadline
// (Options.JobTimeout): streaming exists precisely for computations
// that outlive RequestTimeout. A client disconnect cancels the
// computation mid-shard exactly like the synchronous path. Streams
// bypass the response cache on the way in (replaying a stored body
// would defeat per-shard liveness) but verify and deposit their
// assembled body on the way out, so a later synchronous request is a
// cache hit; the compute layers below (fleet cache, steady-point
// memoization, figure sessions) dedupe repeated streams.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
	"gpuvar/internal/jobs"
)

// streamSweepRun, adaptiveSweepRun and streamExperimentRun are the
// runs behind every sweep and experiment computation — synchronous,
// streamed, or async job. They are seams for the tests: the
// gated-shard and mid-stream-disconnect tests swap in engine-backed
// fakes to control shard timing deterministically.
var (
	streamSweepRun      = core.VariantSweepCtx
	adaptiveSweepRun    = core.AdaptiveSweepCtx
	streamExperimentRun = core.RunCtx
)

// streamLine is one NDJSON line of a streamed response.
type streamLine struct {
	// Kind is "start" (headers written, job submitted), "shard" (one
	// completed shard), "summary" (terminal, successful), or "error"
	// (terminal, failed).
	Kind string `json:"kind"`
	// Shards is the job's top-level shard count (0 on the start line of
	// an experiment stream, where the count is discovered at fan-out).
	Shards int `json:"shards"`
	// Shard is the completed shard's index (-1 on non-shard lines).
	Shard int `json:"shard"`
	// Value is the variant's axis value (sweep shard lines only).
	Value *float64 `json:"value,omitempty"`
	// GPUs is the number of GPUs the shard measured (experiment shard
	// lines only).
	GPUs int `json:"gpus,omitempty"`
	// Payload is this line's chunk of the synchronous response body.
	Payload string `json:"payload"`
	// Bytes and SHA256 describe the fully reassembled body (summary
	// lines only).
	Bytes  int    `json:"bytes,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
	// Error is the failure, when Kind is "error".
	Error string `json:"error,omitempty"`
}

// streamContext bounds a stream's computation: the client's context
// (disconnect cancels mid-shard) under the batch-length JobTimeout,
// carrying the replica dispatcher when one is configured — streamed
// sweeps dispatch shard-by-shard exactly like synchronous ones.
func (s *Server) streamContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := s.dispatchContext(r)
	if s.opts.JobTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.opts.JobTimeout)
}

// lineStream is one stream's recorded NDJSON lines: a bounded jobs.Log
// the producer appends to and any number of clients follow (serve).
// Direct streams and async jobs share it, so every stream route frames
// its lines, checks its body and verifies its summary in one place.
//
// The unsynchronized fields are written in happens-before order: the
// constructor (start line) → the engine's serialized sink calls → the
// terminal finish/fail, which runs after the computation returned.
// Followers read only the log (and job, set before any follower can
// find a job's stream).
type lineStream struct {
	shards int              // top-level shard count (discovered at fan-out for experiments)
	axis   core.VariantAxis // sweep only
	marked bool             // adaptive sweep: chunks carry source/bound
	job    string           // the job's ID; empty on direct streams
	log    *jobs.Log

	assembled bytes.Buffer // concatenation of every emitted payload
	broken    bool         // a line failed to render; the summary must not follow
}

// newLineStream starts a stream bounded to maxLines lines with its
// start line: the body prefix known before any shard completes.
func newLineStream(prefix string, shards, maxLines int) *lineStream {
	st := &lineStream{shards: shards, log: jobs.NewLog(maxLines)}
	st.emit(streamLine{Kind: "start", Shards: shards, Shard: -1, Payload: prefix})
	return st
}

// emit renders one line into the log and folds its payload into the
// assembled body.
func (st *lineStream) emit(l streamLine) {
	b, err := json.Marshal(l)
	if err != nil {
		st.broken = true
		return
	}
	st.log.Append(string(b))
	st.assembled.WriteString(l.Payload)
}

// sinkContext attaches the stream's shard sink to a computation's
// context. The engine serializes sink calls in shard order, so a sweep
// variant becomes its ordered body chunk and an experiment's per-GPU
// measurement job an ordered progress line (its summary section needs
// every measurement, so the body's remainder waits for finish).
func (st *lineStream) sinkContext(ctx context.Context) context.Context {
	return engine.WithSink(ctx, func(shard, total int, v any) {
		if st.broken {
			return // a lost chunk must not be followed by later shards
		}
		st.shards = total
		switch v := v.(type) {
		case core.VariantPoint:
			chunk, err := sweepVariantChunk(st.axis, st.marked, v, shard, total)
			if err != nil {
				st.broken = true
				return
			}
			val := v.Value
			st.emit(streamLine{Kind: "shard", Shards: total, Shard: shard, Value: &val, Payload: chunk})
		case []core.Measurement:
			st.emit(streamLine{Kind: "shard", Shards: total, Shard: shard, GPUs: len(v)})
		}
	})
}

// finish ends the stream with its summary: the part of body after the
// payloads already emitted, plus body's length and sha256. When those
// payloads are not a prefix of body, or the log lost a line, no
// byte-identical reassembly is possible and the stream ends with an
// in-band error instead; finish then reports false, and the body must
// not be cached as the stream's.
func (st *lineStream) finish(body []byte) bool {
	if st.broken || st.log.Truncated() || !bytes.HasPrefix(body, st.assembled.Bytes()) {
		msg := "internal: stream diverged from the synchronous body"
		if st.job != "" {
			msg = fmt.Sprintf("internal: stream diverged from the job result; fetch %s/result", jobURL(st.job))
		}
		st.fail(msg)
		return false
	}
	sum := sha256.Sum256(body)
	st.emit(streamLine{
		Kind:    "summary",
		Shards:  st.shards,
		Shard:   -1,
		Payload: string(body[st.assembled.Len():]),
		Bytes:   len(body),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	st.log.Close()
	return true
}

// fail ends the stream with an in-band error line (the HTTP status went
// out as 200 with the start line — NDJSON errors are in-band).
func (st *lineStream) fail(msg string) {
	st.emit(streamLine{Kind: "error", Shards: st.shards, Shard: -1, Error: msg})
	st.log.Close()
}

// serve writes the stream to a client: every line emitted so far, then
// each live append, flushed line by line, until the terminal line or
// the client's disconnect. The producer never blocks on this
// connection — it appends to the log, and only serve touches the wire.
func (st *lineStream) serve(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not re-buffer the stream
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	ctx := r.Context()
	for from := 0; ; {
		lines, done, more := st.log.Next(from)
		for _, ln := range lines {
			if _, err := io.WriteString(w, ln+"\n"); err != nil {
				return // client gone; the producer is unaffected
			}
		}
		if len(lines) > 0 {
			flush()
		}
		from += len(lines)
		if done {
			break
		}
		if more != nil {
			select {
			case <-more:
			case <-ctx.Done():
				return
			}
		}
	}
	if st.log.Truncated() {
		// The bound was exceeded and the buffered history dropped — no
		// byte-identical replay is possible. In-band error, like every
		// other mid-stream failure.
		msg := "stream history truncated; request the synchronous endpoint for the complete body"
		if st.job != "" {
			msg = fmt.Sprintf("stream history truncated; fetch %s/result for the complete body", jobURL(st.job))
		}
		_ = json.NewEncoder(w).Encode(streamLine{Kind: "error", Shards: st.shards, Shard: -1, Error: msg})
		flush()
	}
}

// serveStream runs a direct stream's computation — the synchronous
// endpoint's own compute closure, with the stream's sink on its
// context — while serve follows the lines it records. A completed,
// verified stream deposits its body in the response cache, so a later
// synchronous request is a hit.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, key string, st *lineStream, compute func(context.Context) (*cachedResponse, error)) {
	ctx, cancel := s.streamContext(r)
	defer cancel()
	var res *cachedResponse
	ok := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		if res, err = compute(st.sinkContext(ctx)); err != nil {
			st.fail(err.Error())
			return
		}
		ok = st.finish(res.body)
	}()
	st.serve(w, r)
	cancel() // a departed client stops the computation mid-shard
	<-done
	if ok {
		s.cache.prime(key, res)
	}
}

// requestPrefix is the request section of a synchronous body —
// everything known before the computation runs.
func requestPrefix(req any) (string, error) {
	reqJSON, err := json.MarshalIndent(req, "  ", "  ")
	return "{\n  \"request\": " + string(reqJSON) + ",\n", err
}

// sweepStreamPrefix is everything of the synchronous sweep body that
// precedes variant 0, so the start line carries real content
// immediately.
func sweepStreamPrefix(req sweepRequest) (string, error) {
	prefix, err := requestPrefix(req)
	return prefix + "  \"variants\": [\n", err
}

// sweepVariantChunk is variant i's slice of the synchronous body: its
// indented JSON entry plus the separator its position demands. marked
// mirrors renderSweep's: true on adaptive sweeps, where every variant
// carries its source.
func sweepVariantChunk(axis core.VariantAxis, marked bool, p core.VariantPoint, i, n int) (string, error) {
	vJSON, err := json.MarshalIndent(sweepVariantView(axis, marked, p), "    ", "  ")
	if err != nil {
		return "", err
	}
	sep := ","
	if i == n-1 {
		sep = ""
	}
	return "    " + string(vJSON) + sep + "\n", nil
}

// newSweepStream starts a NORMALIZED sweep request's stream, bounded by
// its variant count.
func newSweepStream(req sweepRequest) (*lineStream, error) {
	prefix, err := sweepStreamPrefix(req)
	if err != nil {
		return nil, err
	}
	axis, err := core.ParseVariantAxis(req.Axis)
	if err != nil {
		return nil, err
	}
	n := len(req.Values)
	st := newLineStream(prefix, n, jobStreamLogLines(n))
	st.axis, st.marked = axis, req.Adaptive
	return st, nil
}

func (s *Server) handleStreamSweep(w http.ResponseWriter, r *http.Request) {
	directive, err := parseRouteDirective(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	req, err := sweepRequestFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	key, compute, status, err := sweepComputation(&req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	if s.redirectAffinityMiss(w, directive, key) {
		return
	}
	st, err := newSweepStream(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.serveStream(w, r, key, st, compute)
}

func (s *Server) handleStreamExperiment(w http.ResponseWriter, r *http.Request) {
	req, exp, status, err := parseExperiment(r)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	prefix, err := requestPrefix(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	// The shard count is discovered at fan-out (it depends on fleet size
	// and coverage fraction); the shard lines carry it. Every
	// measurement job holds at least one GPU, so the fleet's GPU count
	// bounds the line log.
	st := newLineStream(prefix, 0, jobStreamLogLines(exp.Cluster.NumGPUs()))
	s.serveStream(w, r, experimentCacheKey(req), st, experimentComputation(req, exp))
}
