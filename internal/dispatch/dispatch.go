// Package dispatch fans engine.Map shard batches out across gpuvard
// replicas. It is the seam between "fast process" and "scalable
// system": a sweep still runs as ONE engine job graph on the serving
// replica — ordered sinks, progress, budget classes, and cancellation
// all unchanged — but each variant shard asks a Dispatcher for a
// Backend, and the Backend either runs the shard in process
// (LocalBackend, today's goroutine pool) or on a peer replica over
// an internal HTTP route (HTTPBackend → POST /v1/internal/shards).
//
// Routing is affinity: each shard's fleet-cache fingerprint is
// rendezvous-hashed across the healthy members (self included), so
// repeat variants land on the replica whose fleet cache is already
// warm, and every replica agrees on the owner without coordination.
//
// Membership is static (gpuvard -peers) with health-probe-driven eject
// and readmit: a prober polls each peer's /v1/healthz; a failed probe
// (or a failed shard execution — passive ejection) removes the peer
// from the candidate set until a probe succeeds again. The local
// backend is always a member, so when every peer is down the
// dispatcher degrades gracefully to single-process serving — responses
// are byte-identical either way, because remote shards return the
// exact float64 summary fields the renderer consumes (Go's JSON float
// encoding is shortest-round-trip, hence bit-exact over the wire).
//
// Failure handling rides the engine's existing resilience machinery:
// a remote shard error is wrapped with engine.MarkTransient, so the
// per-shard retry policy re-invokes the shard function, which re-picks
// a backend — by then the failed peer is ejected, and the retry lands
// on a survivor or locally (retry-to-survivor).
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
)

// Backend executes one sweep shard somewhere — in process or on a peer
// replica. Exec reports the completed point plus whether the executing
// replica's fleet cache already held the shard's fleet (the warmth
// signal behind the gpuvar_dispatch_warm_shards_total metrics that let
// affinity routing prove its value).
type Backend interface {
	Exec(ctx context.Context, job Job, shard int) (core.VariantPoint, bool, error)
}

// Job is one distributable sweep: the normalized request in wire form
// (what a peer's /v1/internal/shards route decodes) plus the decoded
// experiment the local backend runs directly.
type Job struct {
	// Payload is the normalized sweep request as JSON — opaque to this
	// package; the peer re-normalizes it, which is idempotent by the
	// service's fingerprint-stability contract.
	Payload json.RawMessage
	Exp     core.Experiment
	Axis    core.VariantAxis
	Values  []float64
}

// ErrNoReplicas is returned (permanently — it must not be retried) when
// a remote-only request finds no healthy peer. The service maps it to
// 502 replica_unavailable.
var ErrNoReplicas = errors.New("dispatch: no healthy replica available")

// Options configures a Dispatcher.
type Options struct {
	// Self is this replica's advertised base URL. It names the local
	// member in the rendezvous hash, so set it identically in every
	// replica's -peers lists for fleet-wide affinity agreement. Empty
	// falls back to "local" (single-node affinity still works).
	Self string
	// Peers are the sibling replicas' base URLs (no trailing slash).
	Peers []string
	// ProbeInterval is the health-probe cadence (default 1s; negative
	// disables the prober — tests drive ProbeNow directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Client issues peer requests (default: a dedicated client; probes
	// apply ProbeTimeout per request).
	Client *http.Client
}

// member is one routing candidate: members[0] is always the local
// backend, the rest are peers.
type member struct {
	name    string // rendezvous identity: Options.Self for local, URL for peers
	url     string // "" for local
	backend Backend

	healthy atomic.Bool

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	dispatched    atomic.Uint64
	execErrors    atomic.Uint64
	ejections     atomic.Uint64
	readmissions  atomic.Uint64
}

// Dispatcher routes sweep shards across the member set. Create with
// New, start the prober with Start, release it with Close.
type Dispatcher struct {
	opts    Options
	members []*member

	shardsLocal    atomic.Uint64
	shardsRemote   atomic.Uint64
	remoteErrors   atomic.Uint64
	localFallbacks atomic.Uint64
	warmShards     atomic.Uint64
	coldShards     atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New assembles a dispatcher. Peers start unhealthy until the first
// successful probe — boot traffic serves locally rather than timing
// out against peers that are still starting.
func New(opts Options) *Dispatcher {
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	selfName := opts.Self
	if selfName == "" {
		selfName = "local"
	}
	d := &Dispatcher{opts: opts, stop: make(chan struct{})}
	self := &member{name: selfName, backend: LocalBackend{}}
	self.healthy.Store(true)
	d.members = append(d.members, self)
	for _, u := range opts.Peers {
		if u == "" || u == opts.Self {
			continue // a replica listing itself must not dial itself
		}
		d.members = append(d.members, &member{
			name:    u,
			url:     u,
			backend: NewHTTPBackend(u, opts.Client),
		})
	}
	return d
}

// Start launches the background health prober (no-op when the probe
// interval is negative or there are no peers).
func (d *Dispatcher) Start() {
	if d.opts.ProbeInterval < 0 || len(d.members) == 1 {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.opts.ProbeInterval)
		defer t.Stop()
		for {
			d.ProbeNow(context.Background())
			select {
			case <-d.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Close stops the prober and waits for it.
func (d *Dispatcher) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Sweep runs the job as one engine job graph, one shard per value,
// each shard executed by the backend of its key's rendezvous owner. It is a
// drop-in for core.VariantSweepCtx: same ordering, same sink/progress
// semantics, byte-identical points.
func (d *Dispatcher) Sweep(ctx context.Context, job Job) ([]core.VariantPoint, error) {
	keys := make([]string, len(job.Values))
	for i, v := range job.Values {
		keys[i] = AffinityKey(job.Exp, job.Axis, v)
	}
	remoteOnly := RemoteOnly(ctx)
	if len(d.members) > 1 {
		if rp := engine.RetryFrom(ctx); rp.MaxAttempts <= 1 {
			// Failover floor: a dispatched shard must get at least one
			// re-pick after a peer failure (retry-to-survivor), even when
			// the operator disabled engine retries for local work. Local
			// shard errors stay permanent — only remote failures are
			// marked transient.
			ctx = engine.WithRetry(ctx, engine.RetryPolicy{MaxAttempts: 2})
		}
	}
	return engine.Map(ctx, len(job.Values), 0, func(ctx context.Context, i int) (core.VariantPoint, error) {
		m := d.pick(keys[i], remoteOnly)
		if m == nil {
			return core.VariantPoint{}, fmt.Errorf("%w (request demanded remote execution; %d peers configured, none healthy)",
				ErrNoReplicas, len(d.members)-1)
		}
		p, warm, err := m.backend.Exec(ctx, job, i)
		if err != nil {
			if m.url != "" {
				// Remote failure: eject the peer and hand the shard back
				// to the engine as transient — the retry policy re-invokes
				// this function, the re-pick sees the ejection, and the
				// attempt lands on a survivor (or locally).
				d.suspect(m)
				d.remoteErrors.Add(1)
				m.execErrors.Add(1)
				return core.VariantPoint{}, engine.MarkTransient(fmt.Errorf("dispatch: replica %s: %w", m.url, err))
			}
			return core.VariantPoint{}, err
		}
		m.dispatched.Add(1)
		if m.url == "" {
			d.shardsLocal.Add(1)
		} else {
			d.shardsRemote.Add(1)
		}
		if warm {
			d.warmShards.Add(1)
		} else {
			d.coldShards.Add(1)
		}
		return p, nil
	})
}

// pick selects the member for a shard: the rendezvous owner of its
// key. remoteOnly restricts candidates to healthy peers and returns nil
// when there are none; otherwise the local member is always a
// candidate, so pick never fails — all peers down degrades to local
// execution (counted as a fallback).
func (d *Dispatcher) pick(key string, remoteOnly bool) *member {
	m, n := d.owner(key, remoteOnly)
	if !remoteOnly && n == 1 && len(d.members) > 1 {
		d.localFallbacks.Add(1) // peers configured, all ejected
	}
	return m
}

// owner returns key's rendezvous owner among the routing candidates —
// every healthy peer, plus the local member unless remoteOnly — and
// the number of candidates. The owner is nil only when there are none.
func (d *Dispatcher) owner(key string, remoteOnly bool) (*member, int) {
	cands := make([]*member, 0, len(d.members))
	names := make([]string, 0, len(d.members))
	for i, m := range d.members {
		if (i == 0 && !remoteOnly) || (i > 0 && m.healthy.Load()) {
			cands = append(cands, m)
			names = append(names, m.name)
		}
	}
	winner := RendezvousOwner(key, names)
	for _, m := range cands {
		if m.name == winner {
			return m, len(cands)
		}
	}
	return nil, 0
}

// Owner reports where key is placed across the currently healthy
// membership: the owning replica's URL and whether that is this
// replica. The service's strict-affinity check (421 wrong_replica) is
// built on it.
func (d *Dispatcher) Owner(key string) (url string, self bool) {
	m, _ := d.owner(key, false)
	return m.url, m.url == ""
}

// suspect passively ejects a peer after a failed shard execution; the
// prober readmits it on its next successful probe.
func (d *Dispatcher) suspect(m *member) {
	if m.healthy.CompareAndSwap(true, false) {
		m.ejections.Add(1)
	}
}

// AffinityKey is the per-shard routing fingerprint: the fleet-cache key
// (cluster spec fingerprint + effective instantiation seed) plus the
// axis setting, so repeat variants rendezvous onto the replica that has
// already instantiated — and cached — their fleet.
func AffinityKey(exp core.Experiment, axis core.VariantAxis, v float64) string {
	return fmt.Sprintf("%s|seed=%d|%s=%v", exp.Cluster.Fingerprint(), core.FleetSeed(exp, axis, v), axis, v)
}

// dispatcherKey/remoteOnlyKey thread the dispatcher and the
// remote-only directive through request contexts: the service attaches
// them at the front door, and the sweep computation — which may run on
// a detached singleflight or async-job context that preserves values —
// reads them back out.
type (
	dispatcherKey struct{}
	remoteOnlyKey struct{}
)

// NewContext returns ctx carrying d.
func NewContext(ctx context.Context, d *Dispatcher) context.Context {
	return context.WithValue(ctx, dispatcherKey{}, d)
}

// FromContext returns the context's dispatcher, or nil.
func FromContext(ctx context.Context) *Dispatcher {
	d, _ := ctx.Value(dispatcherKey{}).(*Dispatcher)
	return d
}

// WithRemoteOnly marks ctx as remote-only: every shard must execute on
// a peer, and ErrNoReplicas surfaces when none is healthy.
func WithRemoteOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, remoteOnlyKey{}, true)
}

// RemoteOnly reports the context's remote-only directive.
func RemoteOnly(ctx context.Context) bool {
	b, _ := ctx.Value(remoteOnlyKey{}).(bool)
	return b
}

// PeerStats is one member's routing-facing state.
type PeerStats struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Dispatched    uint64 `json:"dispatched"`
	Errors        uint64 `json:"errors"`
	Ejections     uint64 `json:"ejections"`
	Readmissions  uint64 `json:"readmissions"`
}

// Stats is a point-in-time snapshot of the dispatch counters, exported
// on /v1/stats, /v1/replicas, and as gpuvar_dispatch_* metrics.
type Stats struct {
	Self string `json:"self,omitempty"`
	// ShardsLocal/ShardsRemote count completed shard executions by
	// where they ran; RemoteErrors counts failed remote attempts (each
	// also ejects its peer); LocalFallbacks counts picks forced local
	// because every peer was ejected.
	ShardsLocal    uint64 `json:"shards_local"`
	ShardsRemote   uint64 `json:"shards_remote"`
	RemoteErrors   uint64 `json:"remote_errors"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// WarmShards counts shards whose executing replica already held the
	// variant's fleet in cache — affinity routing's scoreboard.
	WarmShards uint64      `json:"warm_shards"`
	ColdShards uint64      `json:"cold_shards"`
	Peers      []PeerStats `json:"peers"`
}

// Stats snapshots the counters.
func (d *Dispatcher) Stats() Stats {
	s := Stats{
		Self:           d.opts.Self,
		ShardsLocal:    d.shardsLocal.Load(),
		ShardsRemote:   d.shardsRemote.Load(),
		RemoteErrors:   d.remoteErrors.Load(),
		LocalFallbacks: d.localFallbacks.Load(),
		WarmShards:     d.warmShards.Load(),
		ColdShards:     d.coldShards.Load(),
	}
	for _, m := range d.members[1:] {
		s.Peers = append(s.Peers, PeerStats{
			URL:           m.url,
			Healthy:       m.healthy.Load(),
			Probes:        m.probes.Load(),
			ProbeFailures: m.probeFailures.Load(),
			Dispatched:    m.dispatched.Load(),
			Errors:        m.execErrors.Load(),
			Ejections:     m.ejections.Load(),
			Readmissions:  m.readmissions.Load(),
		})
	}
	return s
}
