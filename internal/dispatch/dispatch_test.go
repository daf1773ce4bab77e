package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/workload"
)

// testExperiment is a small real experiment (CloudLab, short sgemm) so
// shard executions exercise the true simulation path without costing
// the test suite real time.
func testExperiment(t *testing.T) core.Experiment {
	t.Helper()
	spec, ok := cluster.ByName("CloudLab")
	if !ok {
		t.Fatal("CloudLab cluster missing")
	}
	wl, err := workload.ByName("sgemm", spec.SKU())
	if err != nil {
		t.Fatal(err)
	}
	wl.Iterations = 2
	return core.Experiment{Cluster: spec, Workload: wl, Seed: 2022, Fraction: 1, Runs: 1}
}

// newTestDispatcher builds a prober-less dispatcher and force-sets peer
// health, so routing decisions are deterministic.
func newTestDispatcher(t *testing.T, opts Options, healthy ...bool) *Dispatcher {
	t.Helper()
	opts.ProbeInterval = -1
	d := New(opts)
	t.Cleanup(d.Close)
	if len(healthy) != len(d.members)-1 {
		t.Fatalf("got %d health bits for %d peers", len(healthy), len(d.members)-1)
	}
	for i, h := range healthy {
		d.members[i+1].healthy.Store(h)
	}
	return d
}

func TestNewSkipsSelfAndEmptyPeers(t *testing.T) {
	d := newTestDispatcher(t, Options{
		Self:  "http://a:8080",
		Peers: []string{"", "http://a:8080", "http://b:8080"},
	}, true)
	if len(d.members) != 2 {
		t.Fatalf("got %d members, want 2 (self + one real peer)", len(d.members))
	}
	if d.members[1].url != "http://b:8080" {
		t.Fatalf("peer = %q, want the non-self entry", d.members[1].url)
	}
}

func TestPickAffinityMatchesRendezvous(t *testing.T) {
	d := newTestDispatcher(t, Options{
		Self:  "http://a:8080",
		Peers: []string{"http://b:8080", "http://c:8080"},
	}, true, true)
	names := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	for _, k := range testKeys(64) {
		if got, want := d.pick(k, false).name, RendezvousOwner(k, names); got != want {
			t.Fatalf("key %q routed to %s, want rendezvous owner %s", k, got, want)
		}
	}
	// Ejecting a member restricts the hash to survivors.
	d.members[2].healthy.Store(false)
	for _, k := range testKeys(64) {
		if got, want := d.pick(k, false).name, RendezvousOwner(k, names[:2]); got != want {
			t.Fatalf("key %q routed to %s after ejection, want %s", k, got, want)
		}
	}
}

func TestPickLocalFallbackWhenAllPeersDown(t *testing.T) {
	d := newTestDispatcher(t, Options{
		Self:  "http://a:8080",
		Peers: []string{"http://b:8080"},
	}, false)
	m := d.pick("k", false)
	if m != d.members[0] {
		t.Fatalf("picked %s, want the local member", m.name)
	}
	if got := d.localFallbacks.Load(); got != 1 {
		t.Fatalf("localFallbacks = %d, want 1", got)
	}
	if d.pick("k", true) != nil {
		t.Fatal("remote-only pick with no healthy peer must return nil")
	}
}

func TestOwner(t *testing.T) {
	d := newTestDispatcher(t, Options{
		Self:  "http://a:8080",
		Peers: []string{"http://b:8080"},
	}, true)
	names := []string{"http://a:8080", "http://b:8080"}
	sawPeer := false
	for _, k := range testKeys(64) {
		url, self := d.Owner(k)
		want := RendezvousOwner(k, names)
		if self != (want == "http://a:8080") {
			t.Fatalf("key %q: self = %v, rendezvous owner %s", k, self, want)
		}
		if !self {
			sawPeer = true
			if url != want {
				t.Fatalf("key %q: owner URL %q, want %q", k, url, want)
			}
		}
	}
	if !sawPeer {
		t.Fatal("no key owned by the peer — test keys too few")
	}
}

func TestSweepRemoteOnlyNoPeers(t *testing.T) {
	d := newTestDispatcher(t, Options{Self: "http://a:8080", Peers: []string{"http://b:8080"}}, false)
	exp := testExperiment(t)
	ctx := WithRemoteOnly(context.Background())
	_, err := d.Sweep(ctx, Job{Exp: exp, Axis: core.AxisPowerCap, Values: []float64{250}})
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
}

func TestSweepLocalMatchesDirectRun(t *testing.T) {
	d := newTestDispatcher(t, Options{Self: "http://a:8080", Peers: []string{"http://b:8080"}}, false)
	exp := testExperiment(t)
	values := []float64{300, 250, 200}

	got, err := d.Sweep(context.Background(), Job{Exp: exp, Axis: core.AxisPowerCap, Values: values})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.VariantSweepCtx(context.Background(), exp, core.AxisPowerCap, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := d.Stats()
	if st.ShardsLocal != uint64(len(values)) || st.ShardsRemote != 0 {
		t.Fatalf("shards local/remote = %d/%d, want %d/0", st.ShardsLocal, st.ShardsRemote, len(values))
	}
}

// samePoint compares the fields the sweep renderer consumes (the full
// struct also carries an internal Result pointer, which is identity,
// not value — and deliberately not shipped over the wire).
func samePoint(a, b core.VariantPoint) bool {
	return a.Axis == b.Axis && a.Value == b.Value && a.GPUs == b.GPUs &&
		a.MedianMs == b.MedianMs && a.PerfVar == b.PerfVar && a.NOutliers == b.NOutliers
}

// shardPeer is a test replica: it executes ShardsRequest batches with
// the local backend against a fixed experiment (the payload carries
// only values in these tests).
func shardPeer(t *testing.T, exp core.Experiment, axis core.VariantAxis) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ShardsPath {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get(InternalHeader) == "" {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		var sreq ShardsRequest
		if err := json.NewDecoder(r.Body).Decode(&sreq); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		var payload struct {
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(sreq.Sweep, &payload); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		job := Job{Exp: exp, Axis: axis, Values: payload.Values}
		var out ShardsResponse
		for _, idx := range sreq.Indices {
			p, warm, err := (LocalBackend{}).Exec(r.Context(), job, idx)
			if err != nil {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			out.Points = append(out.Points, NewShardPoint(idx, p, warm))
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestSweepRemoteMatchesDirectRun(t *testing.T) {
	exp := testExperiment(t)
	values := []float64{300, 250}
	peer := shardPeer(t, exp, core.AxisPowerCap)

	d := newTestDispatcher(t, Options{Self: "http://a:8080", Peers: []string{peer.URL}}, true)
	payload, err := json.Marshal(struct {
		Values []float64 `json:"values"`
	}{values})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithRemoteOnly(context.Background())
	got, err := d.Sweep(ctx, Job{Payload: payload, Exp: exp, Axis: core.AxisPowerCap, Values: values})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.VariantSweepCtx(context.Background(), exp, core.AxisPowerCap, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("remote point %d = %+v, want %+v (float64s must survive the wire bit-exactly)", i, got[i], want[i])
		}
	}
	st := d.Stats()
	if st.ShardsRemote != uint64(len(values)) || st.ShardsLocal != 0 {
		t.Fatalf("shards local/remote = %d/%d, want 0/%d", st.ShardsLocal, st.ShardsRemote, len(values))
	}
}

// TestSweepRetryToSurvivor: a peer that fails every shard is ejected on
// its first failure, and the engine's transient-retry machinery re-picks
// — so the whole sweep completes locally with zero client-visible
// errors.
func TestSweepRetryToSurvivor(t *testing.T) {
	var hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer dead.Close()

	exp := testExperiment(t)
	// The dead peer's URL carries a random port, so pick the power caps
	// it owns under rendezvous hashing: affinity must route them to it.
	var values []float64
	names := []string{"http://a:8080", dead.URL}
	for v := 300.0; v >= 100 && len(values) < 4; v-- {
		if RendezvousOwner(AffinityKey(exp, core.AxisPowerCap, v), names) == dead.URL {
			values = append(values, v)
		}
	}
	if len(values) < 4 {
		t.Fatalf("only %d of 201 power caps are owned by the dead peer", len(values))
	}
	d := newTestDispatcher(t, Options{
		Self:  "http://a:8080",
		Peers: []string{dead.URL},
	}, true)

	got, err := d.Sweep(context.Background(), Job{Exp: exp, Axis: core.AxisPowerCap, Values: values})
	if err != nil {
		t.Fatalf("sweep must survive a dying peer, got %v", err)
	}
	want, err := core.VariantSweepCtx(context.Background(), exp, core.AxisPowerCap, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if hits.Load() == 0 {
		t.Fatal("the dead peer was never tried — affinity should have routed to it")
	}
	st := d.Stats()
	if st.RemoteErrors == 0 {
		t.Fatalf("remote_errors = 0, want > 0; stats %+v", st)
	}
	if st.Peers[0].Healthy {
		t.Fatal("the failing peer must be ejected")
	}
	if st.Peers[0].Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", st.Peers[0].Ejections)
	}
	if st.ShardsLocal != uint64(len(values)) {
		t.Fatalf("shards_local = %d, want all %d shards to land locally", st.ShardsLocal, len(values))
	}
}

func TestProbeEjectReadmit(t *testing.T) {
	var ok atomic.Bool
	ok.Store(true)
	healthz := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		if !ok.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer healthz.Close()

	d := New(Options{
		Self:          "http://a:8080",
		Peers:         []string{healthz.URL},
		ProbeInterval: -1,
		ProbeTimeout:  time.Second,
	})
	defer d.Close()

	if d.HealthyPeers() != 0 {
		t.Fatal("peers must start unhealthy until the first successful probe")
	}
	d.ProbeNow(context.Background())
	if d.HealthyPeers() != 1 {
		t.Fatal("peer must be admitted after a successful probe")
	}

	ok.Store(false)
	d.ProbeNow(context.Background())
	if d.HealthyPeers() != 0 {
		t.Fatal("peer must be ejected after a failed probe")
	}

	ok.Store(true)
	d.ProbeNow(context.Background())
	if d.HealthyPeers() != 1 {
		t.Fatal("peer must be readmitted after the next successful probe")
	}
	st := d.Stats()
	if st.Peers[0].Ejections != 1 || st.Peers[0].Readmissions != 2 {
		t.Fatalf("ejections/readmissions = %d/%d, want 1/2 (initial admission counts)", st.Peers[0].Ejections, st.Peers[0].Readmissions)
	}
}

func TestAffinityKeyDistinguishesSeedAxis(t *testing.T) {
	exp := testExperiment(t)
	// On the seed axis the value IS the fleet seed, so two values must
	// produce different fleet-cache fingerprints.
	k1 := AffinityKey(exp, core.AxisSeed, 1)
	k2 := AffinityKey(exp, core.AxisSeed, 2)
	if k1 == k2 {
		t.Fatal("seed-axis affinity keys must differ per value")
	}
	// On the powercap axis the fleet (spec+seed) is shared; keys still
	// differ per value so the axis setting spreads across replicas.
	p1 := AffinityKey(exp, core.AxisPowerCap, 300)
	p2 := AffinityKey(exp, core.AxisPowerCap, 250)
	if p1 == p2 {
		t.Fatal("powercap affinity keys must differ per value")
	}
}
