package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/dispatch"
	"gpuvar/internal/engine"
	"gpuvar/internal/estimate"
	"gpuvar/internal/jobs"
	"gpuvar/internal/loadgen"
	"gpuvar/internal/service"
	"gpuvar/internal/traffic"
)

// clients is the closed loop's concurrency: one process, two clients,
// each with at most one connection per replica in use at a time.
const clients = 2

// replicaSet is one or more in-process gpuvard replicas, each serving a
// real loopback socket.
type replicaSet struct {
	bases []string
	srvs  []*service.Server
	https []*http.Server
	wg    sync.WaitGroup
	// trace, when set, records a span around every request a replica
	// handles (see handlerSpans).
	trace atomic.Pointer[tracer]
}

// bootReplicas starts n servers on loopback. Every server runs
// service.Options{}, what a flagless gpuvard boots; with n > 1 they are
// also wired as peers under the default (affinity) routing policy, and
// boot waits until each has admitted the others.
func bootReplicas(n int) (*replicaSet, error) {
	rs := &replicaSet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		rs.bases = append(rs.bases, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		var opts service.Options
		if n > 1 {
			opts.Peers, opts.SelfURL = rs.bases, rs.bases[i]
		}
		srv, err := service.New(opts)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			rs.close()
			return nil, err
		}
		hs := &http.Server{Handler: handlerSpans(srv, &rs.trace)}
		rs.srvs, rs.https = append(rs.srvs, srv), append(rs.https, hs)
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, base := range rs.bases {
		if err := waitReady(hc, base, n-1); err != nil {
			rs.close()
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	return rs, nil
}

// waitReady polls a replica until it answers /v1/healthz and, when it
// has peers, until /v1/replicas shows all of them healthy.
func waitReady(hc *http.Client, base string, peers int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var rep struct {
			Peers []struct {
				Healthy bool `json:"healthy"`
			} `json:"peers"`
		}
		err := getJSON(hc, base+"/v1/healthz", nil)
		if err == nil && peers > 0 {
			err = getJSON(hc, base+"/v1/replicas", &rep)
			healthy := 0
			for _, p := range rep.Peers {
				if p.Healthy {
					healthy++
				}
			}
			if err == nil && healthy < peers {
				err = fmt.Errorf("%d of %d peers admitted", healthy, peers)
			}
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (rs *replicaSet) close() {
	for _, hs := range rs.https {
		_ = hs.Close()
	}
	rs.wg.Wait()
	for _, s := range rs.srvs {
		_ = s.Close()
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// spanHeader carries the id of the client span a request belongs to, so
// that the span recorded around the server's handler can name it as its
// parent. The server ignores the header.
const spanHeader = "X-Perfbench-Span"

// handlerSpans wraps a replica's handler: while a tracer is set, each
// request it handles is recorded as a "service.handle" span, a child of
// the client span named in spanHeader. Everything the handler calls
// runs inside that span uninstrumented.
func handlerSpans(h http.Handler, slot *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := slot.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin("service.handle", parent)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// spanTransport sets spanHeader on every request of the client span
// current on its client (0: none).
type spanTransport struct {
	*http.Transport
	cur atomic.Int64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.cur.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.Transport.RoundTrip(r)
}

// setSpan makes span id the parent of the handler spans of c's next
// requests.
func setSpan(c *loadgen.Client, id int) {
	if st, ok := c.HTTP.Transport.(*spanTransport); ok {
		st.cur.Store(int64(id))
	}
}

// newClients returns the closed loop's clients, each on its own
// transport holding at most one connection per replica.
func newClients() []*loadgen.Client {
	out := make([]*loadgen.Client, clients)
	for i := range out {
		tr := &spanTransport{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		out[i] = &loadgen.Client{
			HTTP:         &http.Client{Transport: tr, Timeout: time.Minute},
			PollInterval: 2 * time.Millisecond,
			JobDeadline:  time.Minute,
		}
	}
	return out
}

func closeClients(cs []*loadgen.Client) {
	for _, c := range cs {
		c.HTTP.CloseIdleConnections()
	}
}

// outcome is one operation's result.
type outcome struct {
	Kind    string
	Latency time.Duration // send to last byte; jobs: submit to fetched result
	TTFL    time.Duration // streams only
	Err     error         // non-2xx, transport error, or oracle mismatch
}

// tally aggregates outcomes without keeping them.
type tally struct {
	n, failed int
	kinds     map[string]int
	errs      []string // the first few failures
}

func (t *tally) add(o outcome) {
	t.n++
	if t.kinds == nil {
		t.kinds = map[string]int{}
	}
	t.kinds[o.Kind]++
	if o.Err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, o.Err.Error())
		}
	}
}

func (t *tally) merge(u tally) {
	t.n += u.n
	t.failed += u.failed
	for k, v := range u.kinds {
		if t.kinds == nil {
			t.kinds = map[string]int{}
		}
		t.kinds[k] += v
	}
	for _, e := range u.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// latencyCap is how many latencies a run keeps at a time: 1 MiB of
// samples.
const latencyCap = 1 << 17

// latencies keeps a uniform sample of at most latencyCap successful
// operations' latencies (reservoir sampling), in a buffer allocated and
// written once up front. The benchmark's own memory is thus the same
// however many requests the server answers, and peak RSS does not grow
// with throughput. A timed part of serve-hot sends ~30k-45k requests
// and serve-cold's a few hundred, so each part's are all kept.
type latencies struct {
	mu   sync.Mutex
	n    int // latencies offered
	buf  []time.Duration
	pick *rand.Rand
}

func newLatencies() *latencies {
	buf := make([]time.Duration, latencyCap)
	for i := range buf {
		buf[i] = 1 // fault every page in now
	}
	return &latencies{buf: buf[:0], pick: rand.New(rand.NewPCG(1, 2))}
}

// cut returns how many latencies were offered since the last cut and
// the p50 and p99, in milliseconds, of those kept, and forgets them.
func (l *latencies) cut() (n int, p50, p99 float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := loadgen.SortDurations(l.buf)
	n, p50, p99 = l.n, float64(loadgen.Percentile(s, 0.50))/1e6, float64(loadgen.Percentile(s, 0.99))/1e6
	l.n, l.buf = 0, l.buf[:0]
	return n, p50, p99
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.buf) < latencyCap {
		l.buf = append(l.buf, d)
	} else if j := l.pick.IntN(l.n); j < latencyCap {
		l.buf[j] = d
	}
}

// errOracleMismatch marks an operation whose bytes differ from its
// pinned hash.
var errOracleMismatch = errors.New("oracle mismatch")

// checkOracle reports an observed hex sha256 that does not satisfy o's
// oracle as an errOracleMismatch.
func checkOracle(o op, sum string) error {
	if matches(sum, o.Oracle) {
		return nil
	}
	return fmt.Errorf("%w on %s %s %s: sha256 %s, pinned %s", errOracleMismatch, o.Method, o.Path, o.Body, sum, o.Oracle)
}

// execOp sends one operation and checks its bytes against the oracle.
func execOp(c *loadgen.Client, base string, o op, key string) outcome {
	out := outcome{Kind: o.Kind}
	var body []byte
	var sum string
	t0 := time.Now()
	switch o.Kind {
	case traffic.KindStream:
		sr, err := c.StreamFetch(base+o.Path, key)
		out.Latency, out.TTFL = time.Since(t0), sr.TTFL
		if err != nil {
			out.Err = err
			return out
		}
		sum = hex.EncodeToString(sr.PayloadSHA[:])
	case traffic.KindJobs:
		b, err := c.DoJob(base, loadgen.Target{Label: o.Kind, Method: loadgen.MethodJob, Path: o.Path, Body: o.Body}, key)
		out.Latency = time.Since(t0)
		if err != nil {
			out.Err = err
			return out
		}
		body = b
	default:
		status, b, _, err := c.Raw(base, o.Method, o.Path, o.Body, key)
		out.Latency = time.Since(t0)
		if err != nil {
			out.Err = err
			return out
		}
		if status != http.StatusOK {
			out.Err = fmt.Errorf("%s %s: status %d: %s", o.Method, o.Path, status, loadgen.FirstLine(b))
			return out
		}
		body = b
	}
	if sum == "" {
		sum = sha256Hex(body)
	}
	out.Err = checkOracle(o, sum)
	return out
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// loopResult is one closed-loop phase.
type loopResult struct {
	tally
	Elapsed time.Duration
	// Exhausted is set when a non-wrapping sequence ran out before the
	// time did; the run then measured less than asked.
	Exhausted bool
}

// closedLoop runs the clients for dur over ops starting at index from,
// against the server at base: each client sends its next request only
// after the previous one completed. With wrap the sequence repeats;
// otherwise the loop stops at its end. Successful operations' latencies
// go to lat, unless it is nil. Each operation is recorded as a span
// under parent when tr is non-nil.
func closedLoop(cs []*loadgen.Client, base string, ops []op, from int, wrap bool, dur time.Duration, lat *latencies, tr *tracer, parent int) loopResult {
	var next atomic.Int64
	next.Store(int64(from))
	var exhausted atomic.Bool
	results := make([]tally, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("perfbench-%d", ci)
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if !wrap && i >= len(ops) {
					exhausted.Store(true)
					return
				}
				o := ops[i%len(ops)]
				id := tr.begin("op."+o.Kind, parent)
				setSpan(c, id)
				res := execOp(c, base, o, key)
				tr.end(id)
				results[ci].add(res)
				if res.Err == nil && lat != nil {
					lat.add(res.Latency)
				}
			}
			setSpan(c, 0)
		}()
	}
	wg.Wait()
	lr := loopResult{Elapsed: time.Since(start), Exhausted: exhausted.Load()}
	for _, t := range results {
		lr.merge(t)
	}
	return lr
}

// serveStats is the part of /v1/stats the per-layer metrics read,
// summed over replicas, together with this process's counters.
type serveStats struct {
	Cache     service.CacheStats
	Jobs      jobs.Stats
	Dispatch  dispatch.Stats
	Ejections uint64 // peer ejections, summed over every replica's peers
	Fleet     cluster.FleetCacheStats
	Engine    engine.Stats
	Estimate  estimate.Stats
	Runtime   runtimeSample
}

// localStats reads this process's counters.
func localStats() serveStats {
	return serveStats{
		Fleet:    cluster.DefaultFleetCache.Stats(),
		Engine:   engine.Snapshot(),
		Estimate: estimate.Snapshot(),
		Runtime:  readRuntime(),
	}
}

// readServeStats reads this process's counters and the /v1/stats of
// the replicas it serves.
func readServeStats(rs *replicaSet) (serveStats, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	out := localStats()
	for _, base := range rs.bases {
		var st struct {
			Cache    service.CacheStats `json:"cache"`
			Jobs     jobs.Stats         `json:"jobs"`
			Dispatch *dispatch.Stats    `json:"dispatch"`
		}
		if err := getJSON(hc, base+"/v1/stats", &st); err != nil {
			return out, err
		}
		out.Cache.Hits += st.Cache.Hits
		out.Cache.Misses += st.Cache.Misses
		out.Cache.Coalesced += st.Cache.Coalesced
		out.Cache.StaleServed += st.Cache.StaleServed
		out.Jobs.Submitted += st.Jobs.Submitted
		out.Jobs.Shed += st.Jobs.Shed
		if d := st.Dispatch; d != nil {
			out.Dispatch.ShardsLocal += d.ShardsLocal
			out.Dispatch.ShardsRemote += d.ShardsRemote
			out.Dispatch.WarmShards += d.WarmShards
			out.Dispatch.ColdShards += d.ColdShards
			for _, p := range d.Peers {
				out.Ejections += p.Ejections
			}
		}
	}
	return out, nil
}
