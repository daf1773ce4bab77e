package service

// Replayable job streams: every async job records the NDJSON lines it
// would have streamed — the same lineStream as GET /v1/stream/sweep,
// with byte-identical payload chunks — and GET /v1/jobs/{id}/stream
// attaches at any point in the job's life: it first replays every
// previously emitted line, then follows live appends until the terminal
// summary/error line. Concatenating the payloads of a completed job
// stream reproduces the job's result body (and therefore the
// synchronous endpoint's body) byte for byte.
//
// Line production has three sources:
//
//   - Submit appends the start line (the body prefix — everything of
//     the response known before any shard completes), so a follower
//     attaching immediately after the 202 replays real content.
//   - A sweep job's computation runs with the stream's shard sink on
//     its context: each completed variant appends its ordered body
//     chunk. A job that COALESCES onto an in-flight identical
//     computation — or replays a cached result — emits no shard lines;
//     the shards belong to the flight that started first. Estimate and
//     campaign jobs have no top-level shards to stream.
//   - A finalizer goroutine wakes on the job's terminal transition and
//     finishes the stream: the summary carries whatever of the result
//     body the earlier lines did not, or an in-band error line ends a
//     failed or canceled job.
//
// Journal-replayed jobs predate their process and recorded no lines;
// their stream is built on attach as the two-line whole-body form.

import (
	"fmt"
	"net/http"

	"gpuvar/internal/jobs"
)

// jobStreamLogLines sizes one stream's line log: start + one line per
// top-level shard + terminal, with generous headroom. Adaptive sweeps
// can carry up to maxEstimateVariants shards, so the bound scales with
// the stream instead of assuming the plain-sweep cap. A producer
// exceeding it truncates the log (jobs.Log) and the stream falls back
// to an in-band error — it can no longer replay a byte-identical
// prefix.
func jobStreamLogLines(shards int) int {
	if n := 2*shards + 16; n > 4*maxSweepVariants {
		return n
	}
	return 4 * maxSweepVariants
}

// newJobStream starts the stream for a VALIDATED job request (the
// payloads are normalized in place by jobComputation). A nil return (a
// marshal failure — not reachable for our own structs) means the job
// runs streamless; its stream is then built like a replayed job's.
func (s *Server) newJobStream(req *jobRequest) *lineStream {
	var prefix string
	var err error
	switch req.Kind {
	case "sweep":
		st, err := newSweepStream(*req.Sweep)
		if err != nil {
			return nil
		}
		return st
	case "estimate":
		prefix, err = sweepStreamPrefix(*req.Estimate)
	case "campaign":
		prefix, err = requestPrefix(*req.Campaign)
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	return newLineStream(prefix, 0, jobStreamLogLines(0))
}

// registerJobStream publishes a job's stream for followers and starts
// its finalizer. Stale entries (jobs the manager has since evicted) are
// pruned once the table outgrows the retention bound.
func (s *Server) registerJobStream(id string, st *lineStream) {
	st.job = id
	s.streams.mu.Lock()
	if s.streams.byID == nil {
		s.streams.byID = make(map[string]*lineStream)
	}
	if len(s.streams.byID) > s.opts.MaxRetainedJobs {
		for old := range s.streams.byID {
			if _, ok := s.jobs.Get(old); !ok {
				delete(s.streams.byID, old)
			}
		}
	}
	s.streams.byID[id] = st
	s.streams.mu.Unlock()
	if done, ok := s.jobs.Done(id); ok {
		go func() {
			<-done
			s.finishJobStream(st)
		}()
	}
}

func (s *Server) jobStream(id string) *lineStream {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	return s.streams.byID[id]
}

// finishJobStream ends a terminal job's stream with its result body, or
// with an in-band error for a failed or canceled job. It reports false
// when the job's result is already gone.
func (s *Server) finishJobStream(st *lineStream) bool {
	res, snap, ok := s.jobs.Result(st.job)
	if !ok {
		st.fail(fmt.Sprintf("job %s was evicted before its stream completed; its result is gone", st.job))
		return false
	}
	switch snap.State {
	case jobs.StateDone:
		st.finish(res.body)
	case jobs.StateCanceled:
		st.fail(fmt.Sprintf("job %s was canceled", st.job))
	default: // failed
		st.fail(fmt.Sprintf("job %s failed: %s", st.job, snap.Error))
	}
	return true
}

// handleJobStream serves GET /v1/jobs/{id}/stream from the job's line
// log. A job without one — journal-replayed from a previous process —
// streams as an empty start line and a summary carrying the whole
// result body.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
		return
	}
	st := s.jobStream(id)
	if st == nil {
		done, ok := s.jobs.Done(id)
		if !ok {
			writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
			return
		}
		// Replayed jobs are terminal by construction, but the wait is
		// honored anyway.
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
		st = newLineStream("", 0, jobStreamLogLines(0))
		st.job = id
		if !s.finishJobStream(st) {
			writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
			return
		}
	}
	st.serve(w, r)
}
