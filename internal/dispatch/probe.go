package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The health prober drives membership: each peer's /v1/healthz is
// polled on Options.ProbeInterval; a probe that fails (transport
// error, non-200, ok=false) ejects the peer from the routing candidate
// set, and the next success readmits it.

// probeReply is the slice of a peer's healthz body the prober reads.
type probeReply struct {
	OK bool `json:"ok"`
}

// ProbeNow probes every peer once, synchronously — the prober's tick
// body, also callable directly (tests, and gpuvard's boot wait).
func (d *Dispatcher) ProbeNow(ctx context.Context) {
	for _, m := range d.members[1:] {
		d.probe(ctx, m)
	}
}

func (d *Dispatcher) probe(ctx context.Context, m *member) {
	m.probes.Add(1)
	reply, err := d.probeOne(ctx, m.url)
	if err != nil || !reply.OK {
		m.probeFailures.Add(1)
		if m.healthy.CompareAndSwap(true, false) {
			m.ejections.Add(1)
		}
		return
	}
	if m.healthy.CompareAndSwap(false, true) {
		m.readmissions.Add(1)
	}
}

func (d *Dispatcher) probeOne(ctx context.Context, base string) (probeReply, error) {
	var reply probeReply
	ctx, cancel := context.WithTimeout(ctx, d.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return reply, err
	}
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return reply, err
	}
	return reply, nil
}

// HealthyPeers reports how many peers are currently routing candidates.
func (d *Dispatcher) HealthyPeers() int {
	n := 0
	for _, m := range d.members[1:] {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}
