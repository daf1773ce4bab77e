package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpuvar/internal/figures"
)

// testServer returns a server with cheap settings: tiny iteration
// counts and minimal Summit coverage keep every handler affordable in
// unit tests while exercising the full pipeline.
func testServer() *Server {
	return mustNew(Options{
		Figures: figures.Config{Iterations: 2, MLIterations: 2, Runs: 2, SummitFraction: 0.01},
	})
}

// mustNew wraps New for tests whose options cannot fail (no data dir).
func mustNew(opts Options) *Server {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// campaignBody is a small, fast campaign request (CloudLab has 6 nodes).
const campaignBody = `{"cluster":"CloudLab","days":3,"plan":{"overhead_frac":0.05,"bench_seconds":600},"injection":{"day":1,"node_id":"cl0-n01","kind":"power-brake"}}`

func doReq(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestRoutes(t *testing.T) {
	srv := testServer()
	tests := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantIn     string // substring the response body must contain
	}{
		{"figure list", "GET", "/v1/figures", "", 200, `"tab1"`},
		{"figure list wrong method", "POST", "/v1/figures", "", 405, ""},
		{"figure ok", "GET", "/v1/figures/tab1", "", 200, "Table I"},
		{"figure with config", "GET", "/v1/figures/tab2?seed=7", "", 200, "Table II"},
		{"figure unknown id", "GET", "/v1/figures/fig99", "", 404, "unknown figure id"},
		{"figure bad seed", "GET", "/v1/figures/tab1?seed=x", "", 400, "bad seed"},
		{"figure bad fraction", "GET", "/v1/figures/tab1?summit_fraction=2", "", 400, "summit_fraction"},
		{"figure NaN fraction", "GET", "/v1/figures/tab1?summit_fraction=NaN", "", 400, "summit_fraction"},
		{"figure wrong method", "DELETE", "/v1/figures/tab1", "", 405, ""},
		{"experiment ok", "GET", "/v1/experiments/sgemm?cluster=CloudLab&iterations=2", "", 200, `"summary"`},
		{"experiment groups", "GET", "/v1/experiments/sgemm?cluster=CloudLab&iterations=2&detail=groups", "", 200, `"groups"`},
		{"experiment gpus", "GET", "/v1/experiments/sgemm?cluster=CloudLab&iterations=2&detail=gpus", "", 200, `"gpu_id"`},
		{"experiment unknown workload", "GET", "/v1/experiments/doom", "", 404, "unknown workload"},
		{"experiment unknown cluster", "GET", "/v1/experiments/sgemm?cluster=Atlantis", "", 404, "unknown cluster"},
		{"experiment bad fraction", "GET", "/v1/experiments/sgemm?cluster=CloudLab&fraction=0", "", 400, "bad fraction"},
		{"experiment bad runs", "GET", "/v1/experiments/sgemm?cluster=CloudLab&runs=-1", "", 400, "bad runs"},
		{"experiment NaN cap", "GET", "/v1/experiments/sgemm?cluster=CloudLab&cap=NaN", "", 400, `"code":"bad_request"`},
		{"experiment Inf cap", "GET", "/v1/experiments/sgemm?cluster=CloudLab&cap=Inf", "", 400, "bad cap"},
		{"experiment bad detail", "GET", "/v1/experiments/sgemm?cluster=CloudLab&detail=everything", "", 400, "bad detail"},
		{"experiment wrong method", "POST", "/v1/experiments/sgemm", "", 405, ""},
		{"campaign ok", "POST", "/v1/campaign", campaignBody, 200, `"detection_day"`},
		{"campaign defaults", "POST", "/v1/campaign", `{"cluster":"CloudLab","days":2}`, 200, `"coverage_period_days"`},
		{"campaign bad json", "POST", "/v1/campaign", `{"cluster":`, 400, "decoding body"},
		{"campaign unknown field", "POST", "/v1/campaign", `{"clutser":"CloudLab"}`, 400, "decoding body"},
		{"campaign unknown cluster", "POST", "/v1/campaign", `{"cluster":"Atlantis"}`, 404, "unknown cluster"},
		{"campaign unknown kind", "POST", "/v1/campaign", `{"cluster":"CloudLab","days":2,"injection":{"kind":"rust"}}`, 400, "unknown defect kind"},
		{"campaign unknown node", "POST", "/v1/campaign", `{"cluster":"CloudLab","days":2,"injection":{"day":1,"node_id":"nope-n99","kind":"stall"}}`, 400, "unknown injection node"},
		{"campaign wrong method", "GET", "/v1/campaign", "", 405, ""},
		{"sweep ok", "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[300,200]}`, 200, `"variants"`},
		{"sweep defaults", "POST", "/v1/sweep", `{"values":[250]}`, 200, `"value"`},
		{"sweep missing values", "POST", "/v1/sweep", `{"cluster":"CloudLab"}`, 400, "values is required"},
		{"sweep too many values", "POST", "/v1/sweep", `{"axis":"powercap","values":[` + strings.Repeat("100,", 33) + `100]}`, 400, "max 32"},
		{"sweep negative cap", "POST", "/v1/sweep", `{"axis":"powercap","values":[-5]}`, 400, "bad powercap"},
		{"sweep unknown cluster", "POST", "/v1/sweep", `{"cluster":"Atlantis","axis":"powercap","values":[250]}`, 404, "unknown cluster"},
		{"sweep unknown workload", "POST", "/v1/sweep", `{"workload":"doom","axis":"powercap","values":[250]}`, 404, "unknown workload"},
		{"sweep bad json", "POST", "/v1/sweep", `{"values":`, 400, "decoding body"},
		{"sweep wrong method", "GET", "/v1/sweep", "", 405, ""},
		{"sweep axis seed", "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"seed","values":[7,8]}`, 200, `"variants"`},
		{"sweep axis ambient", "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"ambient","values":[-2,0,2]}`, 200, `"variants"`},
		{"sweep axis fraction", "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"fraction","values":[0.5,1]}`, 200, `"variants"`},
		{"sweep unknown axis", "POST", "/v1/sweep", `{"axis":"voltage","values":[1]}`, 400, "unknown sweep axis"},
		{"sweep fractional seed", "POST", "/v1/sweep", `{"axis":"seed","values":[1.5]}`, 400, "bad seed"},
		{"sweep bad fraction value", "POST", "/v1/sweep", `{"axis":"fraction","values":[2]}`, 400, "bad fraction"},
		{"sweep bad ambient value", "POST", "/v1/sweep", `{"axis":"ambient","values":[40]}`, 400, "bad ambient"},
		{"sweep caps_w retired", "POST", "/v1/sweep", `{"caps_w":[250]}`, 400, "unknown field"},
		{"sweep caps_w with other axis", "POST", "/v1/sweep", `{"axis":"seed","caps_w":[250]}`, 400, "unknown field"},
		{"sweep caps_w and values", "POST", "/v1/sweep", `{"caps_w":[250],"values":[250]}`, 400, "unknown field"},
		{"jobs caps_w retired", "POST", "/v1/jobs", `{"kind":"sweep","sweep":{"caps_w":[250]}}`, 400, "unknown field"},
		{"stream caps_w retired", "GET", "/v1/stream/sweep?caps_w=250", "", 400, "unknown parameter"},
		{"estimate caps_w retired", "GET", "/v1/estimate?caps_w=250", "", 400, "unknown parameter"},
		{"jobs bad kind", "POST", "/v1/jobs", `{"kind":"mine-bitcoin"}`, 400, "bad kind"},
		{"jobs missing payload", "POST", "/v1/jobs", `{"kind":"sweep"}`, 400, `payload (the POST /v1/sweep body)`},
		{"jobs invalid payload", "POST", "/v1/jobs", `{"kind":"sweep","sweep":{"cluster":"Atlantis","values":[1]}}`, 404, "unknown cluster"},
		{"jobs bad json", "POST", "/v1/jobs", `{"kind":`, 400, "decoding body"},
		{"jobs unknown id", "GET", "/v1/jobs/nope", "", 404, "unknown job"},
		{"jobs unknown result", "GET", "/v1/jobs/nope/result", "", 404, "unknown job"},
		{"jobs unknown delete", "DELETE", "/v1/jobs/nope", "", 404, "unknown job"},
		{"jobs list", "GET", "/v1/jobs", "", 200, `"jobs"`},
		{"stats job counters", "GET", "/v1/stats", "", 200, `"jobs"`},
		{"health fleet cache", "GET", "/v1/healthz", "", 200, `"admission_skips"`},
		{"stats", "GET", "/v1/stats", "", 200, `"cache"`},
		{"stats engine counters", "GET", "/v1/stats", "", 200, `"in_flight_jobs"`},
		{"health legacy path retired", "GET", "/healthz", "", 404, ""},
		{"health", "GET", "/v1/healthz", "", 200, `"ok"`},
		{"health v1", "GET", "/v1/healthz", "", 200, `"in_flight_jobs"`},
		{"unknown route", "GET", "/v1/nope", "", 404, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rr := doReq(t, srv, tt.method, tt.target, tt.body)
			if rr.Code != tt.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", rr.Code, tt.wantStatus, rr.Body.String())
			}
			if tt.wantIn != "" && !strings.Contains(rr.Body.String(), tt.wantIn) {
				t.Errorf("body does not contain %q:\n%s", tt.wantIn, rr.Body.String())
			}
		})
	}
}

// TestSweepLegacyCapWField pins the pre-generalization response schema:
// powercap sweeps still carry cap_w per variant (old clients parse it),
// other axes do not.
func TestSweepLegacyCapWField(t *testing.T) {
	srv := testServer()
	pc := doReq(t, srv, "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"powercap","values":[250]}`)
	if pc.Code != 200 || !strings.Contains(pc.Body.String(), `"cap_w": 250`) {
		t.Fatalf("powercap sweep lost the legacy cap_w field: %d %s", pc.Code, pc.Body.String())
	}
	fr := doReq(t, srv, "POST", "/v1/sweep", `{"cluster":"CloudLab","iterations":2,"axis":"fraction","values":[1]}`)
	if fr.Code != 200 || strings.Contains(fr.Body.String(), `"cap_w"`) {
		t.Fatalf("non-powercap sweep emitted cap_w: %d %s", fr.Code, fr.Body.String())
	}
}

// TestCacheHitMissAndByteIdentity pins the caching contract: the first
// request computes (X-Cache: miss), the repeat replays (X-Cache: hit),
// and the bodies are byte-identical. A config change misses again.
func TestCacheHitMissAndByteIdentity(t *testing.T) {
	srv := testServer()
	const target = "/v1/experiments/sgemm?cluster=CloudLab&iterations=2&runs=2"

	first := doReq(t, srv, "GET", target, "")
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q; want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	second := doReq(t, srv, "GET", target, "")
	if second.Code != 200 || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: status %d, X-Cache %q; want 200 hit", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit returned different bytes than the original computation")
	}
	third := doReq(t, srv, "GET", target+"&seed=7", "")
	if third.Code != 200 || third.Header().Get("X-Cache") != "miss" {
		t.Fatalf("changed-config request: status %d, X-Cache %q; want 200 miss", third.Code, third.Header().Get("X-Cache"))
	}
	if bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("different seed produced identical measurements — fingerprint too coarse")
	}

	s := srv.CacheStats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses and 1 hit", s)
	}
}

// TestCampaignFingerprintNormalization: two spellings of the same
// campaign (explicit defaults vs omitted) must share one cache entry.
func TestCampaignFingerprintNormalization(t *testing.T) {
	srv := testServer()
	explicit := `{"cluster":"CloudLab","seed":2022,"days":2,"plan":{"overhead_frac":0.02,"bench_seconds":600,"day_seconds":86400},"monitor":{"alpha":0.3,"drift_frac":0.05,"confirmations":1}}`
	omitted := `{"cluster":"CloudLab","days":2}`

	first := doReq(t, srv, "POST", "/v1/campaign", explicit)
	if first.Code != 200 {
		t.Fatalf("explicit: status %d: %s", first.Code, first.Body.String())
	}
	second := doReq(t, srv, "POST", "/v1/campaign", omitted)
	if second.Code != 200 {
		t.Fatalf("omitted: status %d: %s", second.Code, second.Body.String())
	}
	if second.Header().Get("X-Cache") != "hit" {
		t.Errorf("equivalent campaign request did not hit the cache (X-Cache %q)", second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("equivalent campaign spellings returned different bytes")
	}
}

// TestCoalescing launches a wave of identical concurrent requests and
// asserts the singleflight contract: exactly one computation, identical
// bytes for every waiter, and every non-leader either coalesced onto
// the in-flight call or hit the stored result.
func TestCoalescing(t *testing.T) {
	srv := testServer()
	const workers = 16
	const target = "/v1/experiments/sgemm?cluster=CloudLab&iterations=2&runs=3"

	bodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := doReq(t, srv, "GET", target, "")
			if rr.Code != 200 {
				t.Errorf("worker %d: status %d: %s", i, rr.Code, rr.Body.String())
				return
			}
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 1; i < workers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("worker %d received different bytes than worker 0", i)
		}
	}
	s := srv.CacheStats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 computation for %d identical requests", s.Misses, workers)
	}
	if s.Hits+s.Coalesced != workers-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d", s.Hits, s.Coalesced, s.Hits+s.Coalesced, workers-1)
	}
}

// TestConcurrentCatalog drives a representative slice of the catalog —
// figures, experiments, campaigns, stats — through the server from many
// goroutines at once. Its real assertion is go test -race: it proves the
// whole stack (response cache, session pool, figures singleflight, fleet
// cache, per-job devices) is data-race-free under concurrent traffic.
func TestConcurrentCatalog(t *testing.T) {
	srv := testServer()
	paths := []string{
		"/v1/figures",
		"/v1/figures/tab1",
		"/v1/figures/tab2",
		"/v1/figures/fig2",
		"/v1/figures/fig3", // shares fig2's experiment through the session singleflight
		"/v1/experiments/sgemm?cluster=CloudLab&iterations=2",
		"/v1/experiments/sgemm?cluster=CloudLab&iterations=2&detail=gpus",
		"/v1/stats",
	}
	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				rr := doReq(t, srv, "GET", p, "")
				if rr.Code != 200 {
					t.Errorf("GET %s: status %d: %s", p, rr.Code, rr.Body.String())
				}
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := doReq(t, srv, "POST", "/v1/campaign", campaignBody)
			if rr.Code != 200 {
				t.Errorf("POST /v1/campaign: status %d: %s", rr.Code, rr.Body.String())
			}
		}()
	}
	wg.Wait()
}

// TestStatsEndpoint sanity-checks the observability schema.
func TestStatsEndpoint(t *testing.T) {
	srv := testServer()
	doReq(t, srv, "GET", "/v1/figures/tab1", "")
	doReq(t, srv, "GET", "/v1/figures/tab1", "")
	rr := doReq(t, srv, "GET", "/v1/stats", "")
	var got statsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("stats unmarshal: %v", err)
	}
	if got.Cache.Misses != 1 || got.Cache.Hits != 1 || got.Sessions != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 session", got)
	}
}

// TestResultCacheLRU pins the eviction policy: capacity 2, three keys,
// the least recently used entry is evicted and recomputed on return.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	var mu sync.Mutex
	computes := map[string]int{}
	get := func(key string) {
		t.Helper()
		res, _, err := c.do(context.Background(), key, func(context.Context) (*cachedResponse, error) {
			mu.Lock()
			computes[key]++
			mu.Unlock()
			return &cachedResponse{status: 200, body: []byte(key)}, nil
		})
		if err != nil || string(res.body) != key {
			t.Fatalf("do(%q) = %q, %v", key, res.body, err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a; b is now LRU
	get("c") // evicts b
	get("a") // still cached
	get("b") // recomputed
	if computes["a"] != 1 || computes["b"] != 2 || computes["c"] != 1 {
		t.Errorf("computes = %v, want a:1 b:2 c:1", computes)
	}
	s := c.Stats()
	if s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (b then a or c)", s.Evictions)
	}
}

// TestResultCacheErrorNotCached: failed computations must be retried,
// not replayed.
func TestResultCacheErrorNotCached(t *testing.T) {
	c := newResultCache(4)
	var calls atomic.Int64
	fail := func(context.Context) (*cachedResponse, error) {
		return nil, fmt.Errorf("boom %d", calls.Add(1))
	}
	if _, _, err := c.do(context.Background(), "k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := c.do(context.Background(), "k", fail); err == nil || !strings.Contains(err.Error(), "boom 2") {
		t.Fatalf("second call err = %v, want fresh boom 2", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (errors not cached)", calls.Load())
	}
}
