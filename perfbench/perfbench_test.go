package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gpuvar/internal/service"
	"gpuvar/internal/traffic"
)

// TestMain lets the test binary stand in for the benchmark's child
// processes, which spawn starts by re-executing os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSequencesAreDeterministic(t *testing.T) {
	pool, err := loadColdPool()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotOracles()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(uint64) ([]op, error){
		"serve-hot":  func(s uint64) ([]op, error) { return hotSequence(s, hot) },
		"serve-cold": func(s uint64) ([]op, error) { return coldSequence(s, pool) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if sequenceDigest(a) != sequenceDigest(b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if sequenceDigest(a) == sequenceDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		for _, o := range a {
			if len(o.Oracle) < 32 {
				t.Fatalf("%s: %s %s has no oracle", name, o.Method, o.Path)
			}
		}
	}
	if d := distinct(must(t)(hotSequence(7, hot))); len(d) != 11 {
		t.Errorf("serve-hot has %d distinct requests, want 11", len(d))
	}
}

// TestColdSequenceRarelyRepeats pins the property serve-cold exists
// for: within a run's worth of requests, almost none repeat.
func TestColdSequenceRarelyRepeats(t *testing.T) {
	pool, err := loadColdPool()
	if err != nil {
		t.Fatal(err)
	}
	ops := must(t)(coldSequence(1, pool))[:1500]
	if d := len(distinct(ops)); d < 1200 {
		t.Errorf("%d distinct requests in the first 1500, want >= 1200", d)
	}
}

// must fails the test on a generator error: must(t)(coldSequence(...)).
func must(t *testing.T) func([]op, error) []op {
	return func(ops []op, err error) []op {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
}

// TestFlippedByteIsDetected serves every kind of operation through a
// proxy that flips one bit of the bytes the oracle covers: a plain
// response body, a job's fetched result, or a stream payload (whose
// summary hash the proxy rewrites to match, so that the stream stays
// well-formed). Each must fail its oracle check, and pass without the
// flip.
func TestFlippedByteIsDetected(t *testing.T) {
	srv, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	flip := false
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		switch {
		case !flip || rec.Code != http.StatusOK:
		case strings.HasPrefix(r.URL.Path, "/v1/stream/"):
			body = flipStreamPayload(t, body)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs"):
			if strings.HasSuffix(r.URL.Path, "/result") {
				body[len(body)/2] ^= 0x01
			}
		default:
			body[len(body)/2] ^= 0x01
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer proxy.Close()

	pool, err := loadColdPool()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotOracles()
	if err != nil {
		t.Fatal(err)
	}
	ops := distinct(must(t)(hotSequence(1, hot)))[:3]
	var sweep poolEntry
	for _, e := range pool.sweeps {
		if e.cluster == "CloudLab" {
			sweep = e
			break
		}
	}
	ops = append(ops, sweep.as(traffic.KindStream), sweep.as(traffic.KindJobs))
	c := newClients()[0]
	for _, f := range []bool{false, true} {
		flip = f
		for _, o := range ops {
			res := execOp(c, proxy.URL, o, "")
			if f && !errors.Is(res.Err, errOracleMismatch) {
				t.Errorf("flipped byte in %s %s: got error %v, want an oracle mismatch", o.Method, o.Path, res.Err)
			}
			if !f && res.Err != nil {
				t.Errorf("%s %s: %v", o.Method, o.Path, res.Err)
			}
		}
	}
}

// flipStreamPayload flips one bit of the first non-empty payload of an
// NDJSON stream and rewrites the summary line's sha256 to the hash of
// the changed payload, so only the oracle can tell.
func flipStreamPayload(t *testing.T, body []byte) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	frames := make([]map[string]any, len(lines))
	payload := sha256.New()
	flipped := false
	for i, l := range lines {
		d := json.NewDecoder(bytes.NewReader(l))
		d.UseNumber()
		if err := d.Decode(&frames[i]); err != nil {
			t.Fatalf("stream line %d: %v", i, err)
		}
		p, _ := frames[i]["payload"].(string)
		if !flipped && p != "" {
			b := []byte(p)
			b[len(b)/2] ^= 0x01 // payloads are ASCII JSON, so this stays valid text
			p, flipped = string(b), true
			frames[i]["payload"] = p
		}
		payload.Write([]byte(p))
	}
	if !flipped {
		t.Fatal("stream has no payload to flip")
	}
	last := frames[len(frames)-1]
	if last["kind"] != "summary" {
		t.Fatalf("stream ends on %v, want a summary line", last["kind"])
	}
	last["sha256"] = hex.EncodeToString(payload.Sum(nil))
	var out bytes.Buffer
	for _, f := range frames {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestMetricNamesMatchBenchmarkJSON checks the declared metric lists
// against BENCHMARK.json, and that a real (short) run prints exactly the
// declared end-to-end metrics with their units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s #%d: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}

	out, err := runServe(runConfig{workload: "serve-hot", seed: 1, seconds: time.Second}, hotWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.report["errors"])
	}
	for _, m := range endToEnd {
		got, ok := out.metrics[m[0]]
		if !ok || got.Unit != m[1] {
			t.Errorf("run printed %s as %+v, want unit %s", m[0], got, m[1])
		}
	}
	if len(out.metrics) != len(endToEnd) {
		t.Errorf("run printed %v", names(out.metrics))
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "service.a", ID: 1, Start: 0, End: 100},
		{Name: "sim.b", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "sim.c", ID: 3, Parent: 1, Start: 30, End: 50}, // overlaps b
		{Name: "core.d", ID: 4, Parent: 1, Start: 70, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"service": 100 - 40 - 10, "sim": 30 + 20, "core": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self time %d, want %d", k, got[k], v)
		}
	}
}
