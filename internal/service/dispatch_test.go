package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpuvar/internal/figures"
)

// newReplicaPair boots a peer replica (a real Server behind httptest)
// and a front replica dispatching to it, with the prober disabled and
// one synchronous probe run so membership is deterministic.
func newReplicaPair(t *testing.T, policy string) (front *Server, peerURL string) {
	t.Helper()
	peer := testServer()
	ts := httptest.NewServer(peer)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { peer.Close() })

	front = mustNew(Options{
		Figures:           figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		Peers:             []string{ts.URL},
		RoutePolicy:       policy,
		SelfURL:           "http://front.test:8080",
		PeerProbeInterval: -1,
	})
	t.Cleanup(func() { front.Close() })
	front.dispatcher.ProbeNow(context.Background())
	if front.dispatcher.HealthyPeers() != 1 {
		t.Fatal("peer replica did not pass its health probe")
	}
	return front, ts.URL
}

const dispatchSweepBody = `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250,200]}`

// TestDispatchedSweepByteIdentity is the golden test of the PR: the
// same sweep served single-process and served with every shard executed
// on a peer replica must produce byte-identical bodies.
func TestDispatchedSweepByteIdentity(t *testing.T) {
	single := testServer()
	defer single.Close()
	want := doReq(t, single, "POST", "/v1/sweep", dispatchSweepBody)
	if want.Code != 200 {
		t.Fatalf("single-process sweep: %d %s", want.Code, want.Body)
	}

	front, _ := newReplicaPair(t, "roundrobin")
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(dispatchSweepBody))
	req.Header.Set(routeDirectiveHeader, routeRemote) // force every shard onto the peer
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("dispatched sweep: %d %s", rr.Code, rr.Body)
	}
	if rr.Body.String() != want.Body.String() {
		t.Fatalf("dispatched body diverges from single-process body:\n%s\nvs\n%s", rr.Body, want.Body)
	}
	st := front.dispatcher.Stats()
	if st.ShardsRemote != 3 || st.ShardsLocal != 0 {
		t.Fatalf("shards local/remote = %d/%d, want 0/3 under the remote directive", st.ShardsLocal, st.ShardsRemote)
	}
}

// TestDispatchedStreamByteIdentity: the streamed spelling dispatches
// shard-by-shard and still reassembles to the synchronous bytes.
func TestDispatchedStreamByteIdentity(t *testing.T) {
	single := testServer()
	defer single.Close()
	want := doReq(t, single, "POST", "/v1/sweep", dispatchSweepBody)
	if want.Code != 200 {
		t.Fatalf("single-process sweep: %d %s", want.Code, want.Body)
	}

	front, _ := newReplicaPair(t, "affinity")
	req := httptest.NewRequest("GET", "/v1/stream/sweep?cluster=CloudLab&iterations=2&axis=powercap&values=300,250,200", nil)
	req.Header.Set(routeDirectiveHeader, routeRemote)
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("stream: %d %s", rr.Code, rr.Body)
	}
	var body strings.Builder
	dec := json.NewDecoder(rr.Body)
	for dec.More() {
		var line struct {
			Kind    string `json:"kind"`
			Payload string `json:"payload"`
			Error   string `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Kind == "error" {
			t.Fatalf("stream failed in-band: %s", line.Error)
		}
		body.WriteString(line.Payload)
	}
	if body.String() != want.Body.String() {
		t.Fatalf("reassembled dispatched stream diverges from single-process body")
	}
	if st := front.dispatcher.Stats(); st.ShardsRemote != 3 {
		t.Fatalf("shards_remote = %d, want 3", st.ShardsRemote)
	}
}

// TestDispatchedJobByteIdentity: the async job path re-attaches the
// dispatcher under the manager's context, so jobs fan out too.
func TestDispatchedJobByteIdentity(t *testing.T) {
	jobSweep := `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[280,230]}`
	single := testServer()
	defer single.Close()
	want := doReq(t, single, "POST", "/v1/sweep", jobSweep)
	if want.Code != 200 {
		t.Fatalf("single-process sweep: %d %s", want.Code, want.Body)
	}

	front, _ := newReplicaPair(t, "roundrobin")
	rr := doReq(t, front, "POST", "/v1/jobs", `{"kind":"sweep","class":"interactive","sweep":`+jobSweep+`}`)
	if rr.Code != 202 {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body)
	}
	loc := rr.Header().Get("Location")
	deadline := time.Now().Add(30 * time.Second)
	for {
		res := doReq(t, front, "GET", loc+"/result", "")
		if res.Code == 200 {
			if res.Body.String() != want.Body.String() {
				t.Fatalf("job result diverges from single-process body")
			}
			break
		}
		if res.Code != 409 {
			t.Fatalf("result: %d %s", res.Code, res.Body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := front.dispatcher.Stats()
	if st.ShardsLocal+st.ShardsRemote != 2 {
		t.Fatalf("dispatched %d+%d shards, want 2 total", st.ShardsLocal, st.ShardsRemote)
	}
}

func TestRemoteOnlyAllPeersDownAnswers502(t *testing.T) {
	front := mustNew(Options{
		Figures:           figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
		Peers:             []string{"http://127.0.0.1:9"}, // never probed, never healthy
		SelfURL:           "http://front.test:8080",
		PeerProbeInterval: -1,
	})
	defer front.Close()

	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(dispatchSweepBody))
	req.Header.Set(routeDirectiveHeader, routeRemote)
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 502 {
		t.Fatalf("status = %d, want 502; body %s", rr.Code, rr.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "replica_unavailable" {
		t.Fatalf("code = %q, want replica_unavailable", eb.Code)
	}
	// Without the remote directive the same request degrades gracefully
	// to local execution instead.
	rr2 := doReq(t, front, "POST", "/v1/sweep", dispatchSweepBody)
	if rr2.Code != 200 {
		t.Fatalf("local fallback: %d %s", rr2.Code, rr2.Body)
	}
	if st := front.dispatcher.Stats(); st.LocalFallbacks == 0 {
		t.Fatal("local fallbacks not counted")
	}
}

func TestStrictAffinityWrongReplica(t *testing.T) {
	front, peerURL := newReplicaPair(t, "affinity")

	// Scan seeds until we find one sweep the peer owns and one this
	// replica owns — rendezvous hashing guarantees both exist nearby.
	ownedBySelf, ownedByPeer := "", ""
	for seed := 1; seed <= 64 && (ownedBySelf == "" || ownedByPeer == ""); seed++ {
		body := fmt.Sprintf(`{"cluster":"CloudLab","iterations":2,"seed":%d,"axis":"powercap","values":[300]}`, seed)
		req := sweepRequest{}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		key, _, _, err := sweepComputation(&req)
		if err != nil {
			t.Fatal(err)
		}
		if _, self := front.dispatcher.Owner(key); self {
			ownedBySelf = body
		} else {
			ownedByPeer = body
		}
	}
	if ownedBySelf == "" || ownedByPeer == "" {
		t.Fatal("could not find both placements in 64 seeds")
	}

	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(ownedByPeer))
	req.Header.Set(routeDirectiveHeader, routeStrictAffinity)
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 421 {
		t.Fatalf("peer-owned strict request: %d, want 421; body %s", rr.Code, rr.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "wrong_replica" {
		t.Fatalf("code = %q, want wrong_replica", eb.Code)
	}
	if got := rr.Header().Get(ownerHeader); got != peerURL {
		t.Fatalf("%s = %q, want the owner %q", ownerHeader, got, peerURL)
	}

	req = httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(ownedBySelf))
	req.Header.Set(routeDirectiveHeader, routeStrictAffinity)
	rr = httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("self-owned strict request: %d, want 200; body %s", rr.Code, rr.Body)
	}
}

func TestBadRouteDirective(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(dispatchSweepBody))
	req.Header.Set(routeDirectiveHeader, "everywhere")
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 400 || !strings.Contains(rr.Body.String(), routeDirectiveHeader) {
		t.Fatalf("bad directive: %d %s, want 400 naming the header", rr.Code, rr.Body)
	}
}

func TestInternalRouteRefusesExternalClients(t *testing.T) {
	srv := testServer()
	defer srv.Close()

	// No dispatch marker: refused.
	rr := doReq(t, srv, "POST", "/v1/internal/shards", `{"sweep":{"values":[300]},"indices":[0]}`)
	if rr.Code != 403 {
		t.Fatalf("unmarked request: %d, want 403; body %s", rr.Code, rr.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "forbidden" {
		t.Fatalf("code = %q, want forbidden", eb.Code)
	}

	// Marker plus an external client identity: still refused — tenants
	// are not peers.
	req := httptest.NewRequest("POST", "/v1/internal/shards",
		strings.NewReader(`{"sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300]},"indices":[0]}`))
	req.Header.Set("X-GPUVar-Internal", "dispatch")
	req.Header.Set("X-API-Key", "tenant-a")
	rr2 := httptest.NewRecorder()
	srv.ServeHTTP(rr2, req)
	if rr2.Code != 403 {
		t.Fatalf("client-identified request: %d, want 403; body %s", rr2.Code, rr2.Body)
	}
}

func TestInternalRouteExecutesShards(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	req := httptest.NewRequest("POST", "/v1/internal/shards",
		strings.NewReader(`{"sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,250,200]},"indices":[2,0]}`))
	req.Header.Set("X-GPUVar-Internal", "dispatch")
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("shards: %d %s", rr.Code, rr.Body)
	}
	var out struct {
		Points []struct {
			Index    int     `json:"index"`
			Value    float64 `json:"value"`
			MedianMs float64 `json:"median_ms"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 2 || out.Points[0].Index != 2 || out.Points[1].Index != 0 {
		t.Fatalf("points = %+v, want indices [2 0] in request order", out.Points)
	}
	if out.Points[0].Value != 200 || out.Points[1].Value != 300 {
		t.Fatalf("points carry wrong values: %+v", out.Points)
	}

	// Adaptive sweeps never dispatch, so the internal route rejects them.
	req = httptest.NewRequest("POST", "/v1/internal/shards",
		strings.NewReader(`{"sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300],"adaptive":true,"threshold":0.5},"indices":[0]}`))
	req.Header.Set("X-GPUVar-Internal", "dispatch")
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 400 || !strings.Contains(rr.Body.String(), "adaptive") {
		t.Fatalf("adaptive shard request: %d %s, want 400", rr.Code, rr.Body)
	}

	// Out-of-range indices are the dispatcher's bug, not a panic.
	req = httptest.NewRequest("POST", "/v1/internal/shards",
		strings.NewReader(`{"sweep":{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300]},"indices":[3]}`))
	req.Header.Set("X-GPUVar-Internal", "dispatch")
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != 400 || !strings.Contains(rr.Body.String(), "out of range") {
		t.Fatalf("bad index: %d %s, want 400 out of range", rr.Code, rr.Body)
	}
}

func TestDiscoveryDocument(t *testing.T) {
	srv := testServer()
	defer srv.Close()
	rr := doReq(t, srv, "GET", "/v1/", "")
	if rr.Code != 200 {
		t.Fatalf("discovery: %d %s", rr.Code, rr.Body)
	}
	var doc struct {
		Service string `json:"service"`
		API     string `json:"api_version"`
		Routes  []struct {
			Method    string `json:"method"`
			Path      string `json:"path"`
			Stability string `json:"stability"`
		} `json:"routes"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Service != "gpuvard" || doc.API != "v1" {
		t.Fatalf("doc header = %s/%s", doc.Service, doc.API)
	}
	byRoute := map[string]string{}
	for _, rt := range doc.Routes {
		if rt.Stability != "stable" && rt.Stability != "internal" {
			t.Errorf("%s %s has stability %q, want stable or internal", rt.Method, rt.Path, rt.Stability)
		}
		byRoute[rt.Method+" "+rt.Path] = rt.Stability
	}
	for route, want := range map[string]string{
		"GET /v1/":                   "stable",
		"POST /v1/sweep":             "stable",
		"GET /v1/healthz":            "stable",
		"POST /v1/internal/shards":   "internal",
		"GET /v1/replicas":           "stable",
		"GET /v1/jobs/{id}/stream":   "stable",
		"DELETE /v1/jobs/{id}":       "stable",
		"GET /v1/stream/sweep":       "stable",
		"GET /metrics":               "stable",
		"GET /v1/experiments/{name}": "stable",
	} {
		got, ok := byRoute[route]
		if !ok {
			t.Fatalf("discovery document is missing %s", route)
		}
		if got != want {
			t.Fatalf("%s stability = %q, want %q", route, got, want)
		}
	}
	// The exact-match registration must not shadow unrouted /v1/* paths.
	if rr := doReq(t, srv, "GET", "/v1/nonsense", ""); rr.Code != 404 {
		t.Fatalf("GET /v1/nonsense = %d, want 404", rr.Code)
	}
}

func TestReplicasEndpoint(t *testing.T) {
	single := testServer()
	defer single.Close()
	rr := doReq(t, single, "GET", "/v1/replicas", "")
	if rr.Code != 200 {
		t.Fatalf("replicas: %d %s", rr.Code, rr.Body)
	}
	var solo struct {
		Distributed bool `json:"distributed"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &solo); err != nil {
		t.Fatal(err)
	}
	if solo.Distributed {
		t.Fatal("single-process server must report distributed: false")
	}

	front, peerURL := newReplicaPair(t, "affinity")
	rr = doReq(t, front, "GET", "/v1/replicas", "")
	var dist struct {
		Distributed bool   `json:"distributed"`
		Policy      string `json:"policy"`
		Peers       []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dist); err != nil {
		t.Fatal(err)
	}
	if !dist.Distributed || dist.Policy != "affinity" {
		t.Fatalf("replicas = %+v, want distributed affinity", dist)
	}
	if len(dist.Peers) != 1 || dist.Peers[0].URL != peerURL || !dist.Peers[0].Healthy {
		t.Fatalf("peers = %+v, want the healthy probed peer", dist.Peers)
	}
}

func TestDispatchMetricsExposed(t *testing.T) {
	front, _ := newReplicaPair(t, "roundrobin")
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(dispatchSweepBody))
	req.Header.Set(routeDirectiveHeader, routeRemote)
	rr := httptest.NewRecorder()
	front.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("sweep: %d %s", rr.Code, rr.Body)
	}

	metrics := doReq(t, front, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`gpuvar_dispatch_shards_total{target="remote"} 3`,
		"gpuvar_dispatch_warm_shards_total",
		`gpuvar_dispatch_peer_healthy{peer="`,
		"gpuvar_dispatch_local_fallbacks_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}

	// Single-process servers omit the whole family.
	single := testServer()
	defer single.Close()
	if m := doReq(t, single, "GET", "/metrics", "").Body.String(); strings.Contains(m, "gpuvar_dispatch_") {
		t.Fatal("single-process metrics must omit gpuvar_dispatch_* families")
	}
}

func TestNewRejectsBadRoutePolicy(t *testing.T) {
	_, err := New(Options{Peers: []string{"http://b:8080"}, RoutePolicy: "fastest"})
	if err == nil || !strings.Contains(err.Error(), "fastest") {
		t.Fatalf("err = %v, want unknown-policy error naming the input", err)
	}
}

// TestDispatchWarmShardAccounting: the seed axis gives every shard its
// own fleet (spec+seed), so a first pass is all cold and a re-sweep of
// the same seeds (under a different response key) is all warm. The
// affinity-vs-roundrobin warm-ratio comparison lives in the 3-process
// smoke stage — in-process replicas share one fleet cache, which erases
// the placement signal this counter exists to surface.
func TestDispatchWarmShardAccounting(t *testing.T) {
	front, _ := newReplicaPair(t, "affinity")
	pass1 := `{"cluster":"CloudLab","iterations":2,"axis":"seed","values":[9911,9912,9913,9914,9915,9916]}`
	pass2 := `{"cluster":"CloudLab","iterations":2,"runs":2,"axis":"seed","values":[9911,9912,9913,9914,9915,9916]}`
	for _, body := range []string{pass1, pass2} {
		rr := doReq(t, front, "POST", "/v1/sweep", body)
		if rr.Code != 200 {
			t.Fatalf("sweep: %d %s", rr.Code, rr.Body)
		}
	}
	st := front.dispatcher.Stats()
	if st.ColdShards != 6 || st.WarmShards != 6 {
		t.Fatalf("cold/warm = %d/%d, want 6/6 (pass 1 cold, pass 2 warm)", st.ColdShards, st.WarmShards)
	}
}
