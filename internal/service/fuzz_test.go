package service

// Native Go fuzz targets for the service's request-normalization
// surface — the code every untrusted byte hits first. Both targets are
// pure validation (no simulation runs), so the seed corpus executes in
// microseconds under plain `go test` and the fuzzing engine can explore
// deeply under `make fuzz` (scripts/verify.sh runs a short -fuzz smoke
// of each on every verify).
//
// The invariants fuzzed:
//   - normalization never panics, whatever the bytes;
//   - an error is always classified with a 4xx client status;
//   - a success leaves the request in canonical form: axis parsed,
//     every value valid for its axis, all defaults filled;
//   - normalization is idempotent — re-normalizing a normalized request
//     is a fixed point with a stable cache fingerprint (the property
//     the response cache's coalescing correctness rests on).

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpuvar/internal/core"
)

// decodeStrict mirrors the handlers' decoding: DisallowUnknownFields
// over the raw body.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzSweepRequest fuzzes POST /v1/sweep's body through the same
// decode + normalize path the handler uses, including the variant-axis
// parsing and per-axis value validation.
func FuzzSweepRequest(f *testing.F) {
	// Seed corpus: every axis, defaulted fields, and representative
	// malformed shapes (bad axis, out-of-range values, truncated JSON).
	for _, seed := range []string{
		`{"cluster":"CloudLab","axis":"powercap","values":[300,250,200]}`,
		`{"axis":"seed","values":[1,2,3]}`,
		`{"axis":"ambient","values":[-2,0,2]}`,
		`{"axis":"fraction","values":[0.25,0.5,1]}`,
		`{"values":[250]}`,
		`{"workload":"resnet","cluster":"Summit","seed":7,"fraction":0.1,"runs":2,"iterations":4,"axis":"powercap","values":[0]}`,
		`{"axis":"voltage","values":[1]}`,
		`{"axis":"seed","values":[250]}`,
		`{"axis":"powercap","values":[250,250]}`,
		`{"axis":"seed","values":[1.5]}`,
		`{"axis":"fraction","values":[2]}`,
		`{"axis":"ambient","values":[40]}`,
		`{"values":[]}`,
		`{"iterations":-1,"values":[250]}`,
		`{"cluster":"Atlantis","values":[250]}`,
		`{"workload":"doom","values":[250]}`,
		`{"values":`,
		`{"unknown_field":1,"values":[250]}`,
		`{"values":[250,200],"adaptive":true,"threshold":0.05}`,
		`{"values":[250],"adaptive":true,"threshold":0}`,
		`{"values":[250],"threshold":0.1}`,
		`{"values":[250],"adaptive":true,"threshold":1.5}`,
		`{"values":[250],"adaptive":true,"threshold":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req sweepRequest
		if decodeStrict(body, &req) != nil {
			return // handler answers 400 before normalization
		}
		_, axis, status, err := normalizeSweep(&req)
		if err != nil {
			if status < 400 || status > 499 {
				t.Errorf("normalizeSweep error %v carries status %d, want a 4xx client error", err, status)
			}
			return
		}
		// Canonical-form invariants on success.
		if req.Axis != string(axis) {
			t.Errorf("normalized axis field %q does not match parsed axis %q", req.Axis, axis)
		}
		limit := maxSweepVariants
		if req.Adaptive {
			limit = maxEstimateVariants
		}
		if len(req.Values) == 0 || len(req.Values) > limit {
			t.Errorf("normalized values length %d outside (0, %d]", len(req.Values), limit)
		}
		// Knob canonicalization: adaptive implies a usable tolerance
		// (threshold 0 folds back to the plain sweep), and a threshold
		// never survives without adaptive.
		if req.Adaptive && !(req.Threshold > 0 && req.Threshold <= 1) {
			t.Errorf("adaptive request normalized with threshold %v outside (0, 1]", req.Threshold)
		}
		if !req.Adaptive && req.Threshold != 0 {
			t.Errorf("threshold %v survived normalization without adaptive", req.Threshold)
		}
		for _, v := range req.Values {
			if verr := axis.Validate(v); verr != nil {
				t.Errorf("normalized value %v fails its own axis validation: %v", v, verr)
			}
		}
		if req.Runs < 1 || req.Fraction <= 0 || req.Fraction > 1 || req.Iterations < 1 || req.Seed == 0 {
			t.Errorf("defaults not canonical after normalization: %+v", req)
		}
		// Idempotence: the normalized form is a fixed point with a
		// stable fingerprint.
		again := req
		if _, axis2, _, err2 := normalizeSweep(&again); err2 != nil || axis2 != axis {
			t.Errorf("re-normalizing the normalized request failed: axis %q, %v", axis2, err2)
		}
		if sweepCacheKey(again) != sweepCacheKey(req) {
			t.Errorf("fingerprint unstable across re-normalization:\n%s\n%s", sweepCacheKey(req), sweepCacheKey(again))
		}
	})
}

// FuzzJobEnvelope fuzzes POST /v1/jobs' envelope — kind and class
// routing plus the nested payload normalization — through the exact
// helper the submit handler uses.
func FuzzJobEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"sweep","sweep":{"cluster":"CloudLab","axis":"powercap","values":[250]}}`,
		`{"kind":"sweep","class":"interactive","sweep":{"axis":"seed","values":[7]}}`,
		`{"kind":"sweep","class":"batch","sweep":{"values":[300,200]}}`,
		`{"kind":"campaign","campaign":{"cluster":"CloudLab","days":3}}`,
		`{"kind":"campaign","campaign":{"cluster":"Vortex","injection":{"day":4,"node_id":"v003-n01","kind":"power-brake"}}}`,
		`{"kind":"mine-bitcoin"}`,
		`{"kind":"sweep"}`,
		`{"kind":"campaign"}`,
		`{"kind":"sweep","class":"realtime","sweep":{"values":[250]}}`,
		`{"kind":"sweep","sweep":{"cluster":"Atlantis","values":[1]}}`,
		`{"kind":"campaign","campaign":{"days":-4}}`,
		`{"kind":"campaign","campaign":{"cluster":"CloudLab","days":9999}}`,
		`{"kind":"estimate","estimate":{"cluster":"CloudLab","axis":"powercap","values":[100,200,300]}}`,
		`{"kind":"estimate","estimate":{"values":[250],"adaptive":true,"threshold":0.1}}`,
		`{"kind":"estimate"}`,
		`{"kind":"sweep","sweep":{"values":[250,200],"adaptive":true,"threshold":0.05}}`,
		`{"kind":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if decodeStrict(body, &req) != nil {
			return
		}
		key, class, compute, status, err := jobComputation(&req)
		if err != nil {
			if status < 400 || status > 499 {
				t.Errorf("jobComputation error %v carries status %d, want a 4xx client error", err, status)
			}
			return
		}
		if key == "" || compute == nil {
			t.Error("successful jobComputation returned an empty key or nil computation")
		}
		if s := class.String(); s != "interactive" && s != "batch" {
			t.Errorf("successful jobComputation returned unprintable class %v", class)
		}
		// The payload reached canonical form: its fingerprint is stable
		// under a second pass.
		switch req.Kind {
		case "sweep":
			again := *req.Sweep
			key2, _, _, err2 := sweepComputation(&again)
			if err2 != nil || key2 != key {
				t.Errorf("sweep payload fingerprint unstable: %q vs %q (%v)", key, key2, err2)
			}
		case "estimate":
			again := *req.Estimate
			key2, _, _, err2 := estimateComputation(&again)
			if err2 != nil || key2 != key {
				t.Errorf("estimate payload fingerprint unstable: %q vs %q (%v)", key, key2, err2)
			}
		case "campaign":
			again := *req.Campaign
			key2, _, _, err2 := campaignComputation(&again)
			if err2 != nil || key2 != key {
				t.Errorf("campaign payload fingerprint unstable: %q vs %q (%v)", key, key2, err2)
			}
		}
	})
}

// TestFuzzSeedsAreValidJSONCoverage sanity-checks that the "valid"
// seeds actually exercise the success path (a broken seed corpus would
// silently fuzz only the error path).
func TestFuzzSeedsAreValidJSONCoverage(t *testing.T) {
	var req sweepRequest
	if err := decodeStrict([]byte(`{"cluster":"CloudLab","axis":"powercap","values":[300,250,200]}`), &req); err != nil {
		t.Fatal(err)
	}
	if _, axis, _, err := normalizeSweep(&req); err != nil || axis != core.AxisPowerCap {
		t.Fatalf("canonical seed fails normalization: %v", err)
	}
	var env jobRequest
	if err := decodeStrict([]byte(`{"kind":"sweep","class":"interactive","sweep":{"axis":"seed","values":[7]}}`), &env); err != nil {
		t.Fatal(err)
	}
	if _, class, _, _, err := jobComputation(&env); err != nil || class.String() != "interactive" {
		t.Fatalf("canonical envelope seed fails: class %v, %v", class, err)
	}
}
