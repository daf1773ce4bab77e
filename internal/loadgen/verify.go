package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// adaptiveVariant is the per-variant subset VerifyAdaptive checks,
// decoded with json.Number so numeric literals compare as the exact
// bytes the server sent, not as post-rounding floats.
type adaptiveVariant struct {
	Value    json.Number `json:"value"`
	MedianMs json.Number `json:"median_ms"`
	PerfVar  json.Number `json:"perf_variation"`
	GPUs     json.Number `json:"gpus"`
	Outliers json.Number `json:"outliers"`
	Source   string      `json:"source"`
	Bound    json.Number `json:"bound"`
}

func decodeAdaptiveVariants(body []byte) ([]adaptiveVariant, error) {
	var resp struct {
		Variants []json.RawMessage `json:"variants"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding sweep response: %v", err)
	}
	out := make([]adaptiveVariant, len(resp.Variants))
	for i, raw := range resp.Variants {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		if err := dec.Decode(&out[i]); err != nil {
			return nil, fmt.Errorf("decoding variant %d: %v", i, err)
		}
	}
	return out, nil
}

// VerifyAdaptive checks the pre-screened sweep's contract on the warm
// adaptive response: every variant declares its source, estimated
// points carry an error bound, full simulation stays under the 32-value
// clamp (and under half the axis once it is 64+ values wide), and a
// plain /v1/sweep of exactly the simulated values agrees with the
// adaptive response literal-for-literal.
func (c *Client) VerifyAdaptive(base, sweepBody, adaptiveBody, key string) (simulated, estimated int, err error) {
	status, body, _, err := c.Raw(base, "POST", "/v1/sweep", adaptiveBody, key)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("re-fetching the adaptive response: status=%d err=%v", status, err)
	}
	variants, err := decodeAdaptiveVariants(body)
	if err != nil {
		return 0, 0, err
	}
	var simVals []string
	byValue := make(map[string]adaptiveVariant, len(variants))
	for i, v := range variants {
		switch v.Source {
		case "simulated":
			simulated++
			simVals = append(simVals, v.Value.String())
			byValue[v.Value.String()] = v
		case "estimated":
			if v.Bound == "" {
				return 0, 0, fmt.Errorf("variant %d (value %s) is estimated but has no bound", i, v.Value)
			}
			estimated++
		default:
			return 0, 0, fmt.Errorf("variant %d (value %s) has source %q", i, v.Value, v.Source)
		}
	}
	if simulated == 0 {
		return 0, 0, fmt.Errorf("no simulated variants — the calibration anchors must always simulate")
	}
	if simulated > 32 {
		return 0, 0, fmt.Errorf("%d variants full-simulated, over the 32-value clamp", simulated)
	}
	if len(variants) >= 64 && (simulated*2 > len(variants) || estimated == 0) {
		return 0, 0, fmt.Errorf("a %d-value axis simulated %d values (want ≤ half, with an estimated remainder)", len(variants), simulated)
	}

	// Replay exactly the simulated values as a plain sweep; the adaptive
	// path runs the identical shard body, so each point must reproduce
	// its numeric literals.
	var m map[string]any
	if err := json.Unmarshal([]byte(sweepBody), &m); err != nil {
		return 0, 0, fmt.Errorf("parsing -sweep body: %v", err)
	}
	m["values"] = json.RawMessage("[" + strings.Join(simVals, ",") + "]")
	subset, err := json.Marshal(m)
	if err != nil {
		return 0, 0, err
	}
	status, plainBody, _, err := c.Raw(base, "POST", "/v1/sweep", string(subset), key)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("plain sweep of the simulated values: status=%d err=%v", status, err)
	}
	plain, err := decodeAdaptiveVariants(plainBody)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range plain {
		a, ok := byValue[p.Value.String()]
		if !ok {
			return 0, 0, fmt.Errorf("plain sweep returned value %s that the adaptive response did not simulate", p.Value)
		}
		if a.MedianMs != p.MedianMs || a.PerfVar != p.PerfVar || a.GPUs != p.GPUs || a.Outliers != p.Outliers {
			return 0, 0, fmt.Errorf("value %s: adaptive simulated point diverged from the plain sweep (%+v vs %+v)", p.Value, a, p)
		}
	}
	return simulated, estimated, nil
}
