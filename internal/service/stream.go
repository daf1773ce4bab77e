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
// The shard lines ride the engine's ordered per-shard sink
// (engine.WithSink): the top-level job's shards — sweep variants,
// per-GPU measurement jobs — are emitted in shard order the moment each
// contiguous prefix completes, while nested jobs compute silently. A
// sweep shard's payload is its variant's JSON entry; an experiment
// shard's payload is empty (the summary section needs every
// measurement), so its lines serve as ordered progress beacons and the
// terminal line carries the body's remainder.
//
// Streams run under the interactive scheduling class (a held connection
// with a client watching) but get the batch-length deadline
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
	"net/http"
	"sync"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
)

// streamSweepRun and streamExperimentRun are seams for the streaming
// tests: the gated-shard and mid-stream-disconnect tests swap in
// engine-backed fakes to control shard timing deterministically.
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

// streamWriter emits NDJSON lines, flushing after each so shard results
// reach the client immediately, and accumulates the payload bytes for
// the terminal checksum and the cache deposit.
//
// Writes run on a dedicated pump goroutine (start/wait), fed through a
// queue: engine workers must never block on a slow client's socket —
// they hold worker-budget tokens, and a stalled reader pinning the
// process-wide budget would defeat the scheduler. queue() is a cheap
// mutex append; only the pump blocks on the wire. The queue is bounded
// in practice by the job's shard count (its contents are the very
// chunks the writer also accumulates in body).
type streamWriter struct {
	enc   *json.Encoder
	flush func()
	body  bytes.Buffer // concatenated payloads == the synchronous body

	mu     sync.Mutex
	cond   *sync.Cond
	lines  []streamLine
	closed bool
	done   chan struct{}
}

// newStreamWriter writes the stream headers and starts the write pump.
// Callers must end the stream with wait() (after queueing the terminal
// line) so the pump drains and the payload buffer is complete.
func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not re-buffer the stream
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{enc: json.NewEncoder(w), flush: func() {}, done: make(chan struct{})}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	sw.cond = sync.NewCond(&sw.mu)
	go sw.pump()
	return sw
}

// queue hands one line to the pump without ever blocking on the wire.
func (sw *streamWriter) queue(l streamLine) {
	sw.mu.Lock()
	sw.lines = append(sw.lines, l)
	sw.mu.Unlock()
	sw.cond.Signal()
}

// wait queues the terminal line, closes the queue, and blocks until the
// pump has written everything (or the connection died — write errors
// are ignored; the computation's context, not the write path, is what
// tears a stream down).
func (sw *streamWriter) wait(terminal streamLine) {
	sw.mu.Lock()
	sw.lines = append(sw.lines, terminal)
	sw.closed = true
	sw.mu.Unlock()
	sw.cond.Signal()
	<-sw.done
}

// pump drains the queue to the client, one flushed line at a time.
func (sw *streamWriter) pump() {
	defer close(sw.done)
	next := 0
	for {
		sw.mu.Lock()
		for next >= len(sw.lines) && !sw.closed {
			sw.cond.Wait()
		}
		if next >= len(sw.lines) {
			sw.mu.Unlock()
			return
		}
		l := sw.lines[next]
		next++
		sw.mu.Unlock()

		sw.body.WriteString(l.Payload)
		if l.Kind == "summary" {
			l.Bytes = sw.body.Len()
			sum := sha256.Sum256(sw.body.Bytes())
			l.SHA256 = hex.EncodeToString(sum[:])
		}
		_ = sw.enc.Encode(l)
		sw.flush()
	}
}

// fail terminates the stream with an error line carrying the failure
// (the HTTP status itself went out as 200 with the start line — NDJSON
// errors are in-band) and waits for the pump.
func (sw *streamWriter) fail(shards int, err error) {
	sw.wait(streamLine{Kind: "error", Shards: shards, Shard: -1, Error: err.Error()})
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

// marshalSection renders v as it appears nested one level deep in a
// jsonResponse body (MarshalIndent with two-space indent).
func marshalSection(v any) (string, error) {
	b, err := json.MarshalIndent(v, "  ", "  ")
	return string(b), err
}

// sweepStreamPrefix is everything of the synchronous sweep body that
// precedes variant 0 — known before any shard completes, so the start
// line carries real content immediately.
func sweepStreamPrefix(req sweepRequest) (string, error) {
	reqJSON, err := marshalSection(req)
	return "{\n  \"request\": " + reqJSON + ",\n  \"variants\": [\n", err
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

// sweepStreamSuffix closes the body (jsonResponse appends the trailing
// newline to the synchronous form; the stream must reproduce it).
const sweepStreamSuffix = "  ]\n}\n"

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
	exp, axis, status, err := normalizeSweep(&req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	if s.redirectAffinityMiss(w, directive, sweepCacheKey(req)) {
		return
	}
	n := len(req.Values)
	prefix, err := sweepStreamPrefix(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}

	ctx, cancel := s.streamContext(r)
	defer cancel()
	sw := newStreamWriter(w)
	sw.queue(streamLine{Kind: "start", Shards: n, Shard: -1, Payload: prefix})

	// chunkErr needs no lock: the engine serializes sink calls, and the
	// run's return happens-after the last of them.
	var chunkErr error
	sink := engine.ShardSink(func(shard, total int, v any) {
		if chunkErr != nil {
			return // a lost chunk must not be followed by later shards
		}
		p := v.(core.VariantPoint)
		chunk, err := sweepVariantChunk(axis, req.Adaptive, p, shard, total)
		if err != nil {
			chunkErr = err // surfaces after the run; rendering our own structs cannot fail
			return
		}
		val := p.Value
		sw.queue(streamLine{Kind: "shard", Shards: total, Shard: shard, Value: &val, Payload: chunk})
	})
	var points []core.VariantPoint
	if req.Adaptive {
		// The adaptive run streams through the same sink: estimated
		// shards land near-instantly, simulated ones as they finish (the
		// calibration's anchor runs are sink-stripped inside core).
		points, err = adaptiveSweepRun(engine.WithSink(ctx, sink), exp, axis, req.Values, req.Threshold)
	} else {
		points, err = dispatchedSweepRun(engine.WithSink(ctx, sink), exp, axis, &req)
	}
	if err == nil {
		err = chunkErr
	}
	if err != nil {
		sw.fail(n, err)
		return
	}
	sw.wait(streamLine{Kind: "summary", Shards: n, Shard: -1, Payload: sweepStreamSuffix})

	// Verify the progressive encoding against the synchronous renderer
	// before depositing it: the cache must only ever hold bytes the
	// synchronous endpoint would serve.
	if sync, err := renderSweep(req, axis, req.Adaptive, points); err == nil && bytes.Equal(sw.body.Bytes(), sync.body) {
		s.cache.prime(sweepCacheKey(req), sync)
	}
}

// experimentStreamPrefix is the request section of the synchronous
// experiment body — everything known before the fan-out.
func experimentStreamPrefix(req experimentRequest) (string, error) {
	reqJSON, err := marshalSection(req)
	return "{\n  \"request\": " + reqJSON + ",\n", err
}

func (s *Server) handleStreamExperiment(w http.ResponseWriter, r *http.Request) {
	req, exp, status, err := parseExperiment(r)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}
	prefix, err := experimentStreamPrefix(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}

	ctx, cancel := s.streamContext(r)
	defer cancel()
	sw := newStreamWriter(w)
	// Shard count is discovered at fan-out (it depends on fleet size
	// and coverage fraction); the shard lines carry it.
	sw.queue(streamLine{Kind: "start", Shards: 0, Shard: -1, Payload: prefix})

	shards := 0
	sink := engine.ShardSink(func(shard, total int, v any) {
		shards = total
		ms := v.([]core.Measurement)
		// The summary section aggregates every measurement, so no body
		// chunk is renderable yet: shard lines are ordered progress
		// beacons, and the terminal line carries the body's remainder.
		sw.queue(streamLine{Kind: "shard", Shards: total, Shard: shard, GPUs: len(ms)})
	})
	res, err := streamExperimentRun(engine.WithSink(ctx, sink), exp)
	if err != nil {
		sw.fail(shards, err)
		return
	}
	full, err := jsonResponse(renderExperiment(req, res))
	if err != nil {
		sw.fail(shards, err)
		return
	}
	if !bytes.HasPrefix(full.body, []byte(prefix)) {
		// Defensive: the prefix is derived from the same struct the
		// renderer marshals, so divergence means a schema bug — tell the
		// client rather than emit a corrupt reassembly.
		sw.fail(shards, fmt.Errorf("internal: streamed prefix diverged from the synchronous body"))
		return
	}
	sw.wait(streamLine{Kind: "summary", Shards: shards, Shard: -1, Payload: string(full.body[len(prefix):])})
	s.cache.prime(experimentCacheKey(req), full)
}
