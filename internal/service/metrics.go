package service

// GET /metrics renders the /v1/stats snapshot in the Prometheus text
// exposition format (version 0.0.4) — hand-rolled, no client library.
// Counters that only ever grow are exported as `counter` families with
// the conventional _total suffix; instantaneous depths and occupancies
// are `gauge`s. Per-class, per-client, and per-site series carry
// labels, so one scrape shows which tenant is queuing, which class is
// saturated, and which fault sites are firing. Families appear in a
// fixed order and label values are escaped per the format, so the
// output is deterministic for a given snapshot and lintable by
// exposition-format checkers.

import (
	"fmt"
	"net/http"
	"strings"

	"gpuvar/internal/dispatch"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	var b strings.Builder

	family := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	sample := func(name, labels string, v float64) {
		if labels != "" {
			labels = "{" + labels + "}"
		}
		// %g, but integers (the overwhelming majority) print without an
		// exponent; Prometheus parses either.
		fmt.Fprintf(&b, "%s%s %g\n", name, labels, v)
	}
	label := func(k, v string) string { return k + `="` + promEscape(v) + `"` }

	family("gpuvar_uptime_seconds", "gauge", "Seconds since the server started.")
	sample("gpuvar_uptime_seconds", "", snap.UptimeSeconds)

	family("gpuvar_sessions", "gauge", "Live figure sessions held by the session LRU.")
	sample("gpuvar_sessions", "", float64(snap.Sessions))

	family("gpuvar_degraded_serves_total", "counter", "Responses served stale from the degraded store after a compute failure.")
	sample("gpuvar_degraded_serves_total", "", float64(snap.DegradedServes))

	// Response cache.
	c := snap.Cache
	family("gpuvar_response_cache_entries", "gauge", "Rendered responses held by the response LRU.")
	sample("gpuvar_response_cache_entries", "", float64(c.Entries))
	family("gpuvar_response_cache_in_flight", "gauge", "Response computations currently in flight.")
	sample("gpuvar_response_cache_in_flight", "", float64(c.InFlight))
	family("gpuvar_response_cache_stale_entries", "gauge", "Evicted responses retained for degraded serving.")
	sample("gpuvar_response_cache_stale_entries", "", float64(c.StaleEntries))
	family("gpuvar_response_cache_events_total", "counter", "Response cache events by kind.")
	for _, kv := range []struct {
		kind string
		v    uint64
	}{
		{"hit", c.Hits}, {"miss", c.Misses}, {"coalesced", c.Coalesced},
		{"aborted", c.Aborted}, {"eviction", c.Evictions}, {"stale_served", c.StaleServed},
	} {
		sample("gpuvar_response_cache_events_total", label("kind", kv.kind), float64(kv.v))
	}

	// Execution engine.
	e := snap.Engine
	family("gpuvar_engine_jobs_total", "counter", "Engine jobs by terminal state (started counts launches).")
	for _, kv := range []struct {
		state string
		v     uint64
	}{
		{"started", e.JobsStarted}, {"completed", e.JobsCompleted},
		{"canceled", e.JobsCanceled}, {"failed", e.JobsFailed},
	} {
		sample("gpuvar_engine_jobs_total", label("state", kv.state), float64(kv.v))
	}
	family("gpuvar_engine_in_flight_jobs", "gauge", "Engine jobs currently executing.")
	sample("gpuvar_engine_in_flight_jobs", "", float64(e.InFlightJobs))
	family("gpuvar_engine_shards_completed_total", "counter", "Engine shards completed.")
	sample("gpuvar_engine_shards_completed_total", "", float64(e.ShardsCompleted))
	family("gpuvar_engine_transient_shard_errors_total", "counter", "Shard attempts that failed with a retryable error.")
	sample("gpuvar_engine_transient_shard_errors_total", "", float64(e.TransientShardErrors))
	family("gpuvar_engine_retries_total", "counter", "Shard re-executions spent by the retry policy.")
	sample("gpuvar_engine_retries_total", "", float64(e.Retries))
	family("gpuvar_engine_budget_tokens", "gauge", "Worker-budget capacity and per-class occupancy.")
	sample("gpuvar_engine_budget_tokens", label("kind", "capacity"), float64(e.Budget.Capacity))
	sample("gpuvar_engine_budget_tokens", label("kind", "batch_cap"), float64(e.Budget.BatchCap))
	sample("gpuvar_engine_budget_tokens", label("kind", "in_use_interactive"), float64(e.Budget.InUseInteractive))
	sample("gpuvar_engine_budget_tokens", label("kind", "in_use_batch"), float64(e.Budget.InUseBatch))

	// Async job manager.
	j := snap.Jobs
	family("gpuvar_jobs_total", "counter", "Async jobs by lifecycle event.")
	for _, kv := range []struct {
		event string
		v     uint64
	}{
		{"submitted", j.Submitted}, {"done", j.Done}, {"failed", j.Failed},
		{"canceled", j.Canceled}, {"evicted", j.Evicted},
	} {
		sample("gpuvar_jobs_total", label("event", kv.event), float64(kv.v))
	}
	family("gpuvar_jobs_shed_total", "counter", "Async submissions rejected at an admission bound, by scope.")
	// Shed counts both scopes; export disjoint series so they sum.
	sample("gpuvar_jobs_shed_total", label("scope", "class"), float64(j.Shed-j.ShedClient))
	sample("gpuvar_jobs_shed_total", label("scope", "client"), float64(j.ShedClient))
	family("gpuvar_jobs_queued", "gauge", "Async jobs waiting to run, by class.")
	sample("gpuvar_jobs_queued", label("class", "interactive"), float64(j.QueuedInteractive))
	sample("gpuvar_jobs_queued", label("class", "batch"), float64(j.QueuedBatch))
	family("gpuvar_jobs_running", "gauge", "Async jobs currently running, by class.")
	sample("gpuvar_jobs_running", label("class", "interactive"), float64(j.RunningInteractive))
	sample("gpuvar_jobs_running", label("class", "batch"), float64(j.RunningBatch))
	family("gpuvar_jobs_retained", "gauge", "Terminal jobs retained for polling.")
	sample("gpuvar_jobs_retained", "", float64(j.Retained))

	// Per-client fairness accounting (jobs.Stats sorts by client ID, so
	// series order is stable across scrapes).
	family("gpuvar_client_weight", "gauge", "Configured fair-share weight per client.")
	family("gpuvar_client_queued", "gauge", "Queued async jobs per client.")
	family("gpuvar_client_running", "gauge", "Running async jobs per client.")
	family("gpuvar_client_shed_total", "counter", "Rejected submissions per client (both scopes).")
	family("gpuvar_client_served_total", "counter", "Jobs finished in state done per client.")
	for _, cl := range j.Clients {
		l := label("client", cl.Client)
		sample("gpuvar_client_weight", l, float64(cl.Weight))
		sample("gpuvar_client_queued", l, float64(cl.Queued))
		sample("gpuvar_client_running", l, float64(cl.Running))
		sample("gpuvar_client_shed_total", l, float64(cl.Shed))
		sample("gpuvar_client_served_total", l, float64(cl.Served))
	}

	// Job journal (absent when persistence is off).
	if j.Journal != nil {
		jn := j.Journal
		family("gpuvar_journal_appended_total", "counter", "Journal records written this process lifetime.")
		sample("gpuvar_journal_appended_total", "", float64(jn.Appended))
		family("gpuvar_journal_write_errors_total", "counter", "Journal appends that failed.")
		sample("gpuvar_journal_write_errors_total", "", float64(jn.WriteErrors))
		family("gpuvar_journal_recovered_total", "counter", "Jobs recovered from the journal on boot, by disposition.")
		sample("gpuvar_journal_recovered_total", label("disposition", "terminal"), float64(jn.RecoveredTerminal))
		sample("gpuvar_journal_recovered_total", label("disposition", "interrupted"), float64(jn.RecoveredInterrupted))
		family("gpuvar_journal_skipped_records_total", "counter", "Corrupt journal records dropped during recovery.")
		sample("gpuvar_journal_skipped_records_total", "", float64(jn.SkippedRecords))
		family("gpuvar_journal_truncated_bytes_total", "counter", "Bytes cut from the journal tail during recovery.")
		sample("gpuvar_journal_truncated_bytes_total", "", float64(jn.TruncatedBytes))
	}

	// Fleet cache.
	f := snap.FleetCache
	family("gpuvar_fleet_cache_entries", "gauge", "Cached fleets plus in-flight instantiations.")
	sample("gpuvar_fleet_cache_entries", "", float64(f.Entries))
	family("gpuvar_fleet_cache_in_flight", "gauge", "Fleet instantiations currently in flight.")
	sample("gpuvar_fleet_cache_in_flight", "", float64(f.InFlight))
	family("gpuvar_fleet_cache_events_total", "counter", "Fleet cache events by kind.")
	for _, kv := range []struct {
		kind string
		v    uint64
	}{
		{"hit", f.Hits}, {"miss", f.Misses},
		{"eviction", f.Evictions}, {"admission_skip", f.AdmissionSkips},
	} {
		sample("gpuvar_fleet_cache_events_total", label("kind", kv.kind), float64(kv.v))
	}

	// Analytical estimator.
	est := snap.Estimate
	family("gpuvar_estimate_calls_total", "counter", "Closed-form estimator point evaluations (no simulation).")
	sample("gpuvar_estimate_calls_total", "", float64(est.Calls))
	family("gpuvar_estimate_calibrations_total", "counter", "Estimator calibrations fitted from full-simulation anchor runs.")
	sample("gpuvar_estimate_calibrations_total", "", float64(est.Calibrations))
	family("gpuvar_estimate_screened_out_total", "counter", "Adaptive-sweep variants answered analytically instead of simulated.")
	sample("gpuvar_estimate_screened_out_total", "", float64(est.ScreenedOut))
	family("gpuvar_estimate_full_sim_total", "counter", "Adaptive-sweep variants that fell back to full simulation.")
	sample("gpuvar_estimate_full_sim_total", "", float64(est.FullSim))
	family("gpuvar_estimate_max_calibration_residual", "gauge", "Largest relative anchor residual any calibration has observed.")
	sample("gpuvar_estimate_max_calibration_residual", "", est.MaxResidual)

	// Replica dispatch (absent in single-process serving). The warm/cold
	// split is affinity routing's scoreboard: warm shards landed on a
	// replica whose fleet cache already held their fleet.
	if d := snap.Dispatch; d != nil {
		family("gpuvar_dispatch_shards_total", "counter", "Dispatched sweep shards by where they executed.")
		sample("gpuvar_dispatch_shards_total", label("target", "local"), float64(d.ShardsLocal))
		sample("gpuvar_dispatch_shards_total", label("target", "remote"), float64(d.ShardsRemote))
		family("gpuvar_dispatch_warm_shards_total", "counter", "Shards executed where the fleet cache was already warm, by warmth.")
		sample("gpuvar_dispatch_warm_shards_total", label("warmth", "warm"), float64(d.WarmShards))
		sample("gpuvar_dispatch_warm_shards_total", label("warmth", "cold"), float64(d.ColdShards))
		family("gpuvar_dispatch_remote_errors_total", "counter", "Remote shard executions that failed (each ejects its peer).")
		sample("gpuvar_dispatch_remote_errors_total", "", float64(d.RemoteErrors))
		family("gpuvar_dispatch_local_fallbacks_total", "counter", "Shard picks forced local because every peer was ejected.")
		sample("gpuvar_dispatch_local_fallbacks_total", "", float64(d.LocalFallbacks))
		// Each per-peer family emits its header and then all its samples:
		// the exposition format keeps a metric's lines in one group.
		perPeer := func(name, typ, help string, v func(dispatch.PeerStats) float64) {
			family(name, typ, help)
			for _, p := range d.Peers {
				sample(name, label("peer", p.URL), v(p))
			}
		}
		perPeer("gpuvar_dispatch_peer_healthy", "gauge", "Peer health (1 = routing candidate) by peer URL.", func(p dispatch.PeerStats) float64 {
			if p.Healthy {
				return 1
			}
			return 0
		})
		perPeer("gpuvar_dispatch_peer_dispatched_total", "counter", "Shards dispatched per peer.", func(p dispatch.PeerStats) float64 { return float64(p.Dispatched) })
		perPeer("gpuvar_dispatch_peer_probe_failures_total", "counter", "Failed health probes per peer.", func(p dispatch.PeerStats) float64 { return float64(p.ProbeFailures) })
		perPeer("gpuvar_dispatch_peer_ejections_total", "counter", "Times each peer left the routing candidate set.", func(p dispatch.PeerStats) float64 { return float64(p.Ejections) })
		perPeer("gpuvar_dispatch_peer_readmissions_total", "counter", "Times each peer rejoined the routing candidate set.", func(p dispatch.PeerStats) float64 { return float64(p.Readmissions) })
	}

	// Fault-injection sites (absent in normal serving; faults.Snapshot
	// sorts by site name).
	if len(snap.Faults) > 0 {
		family("gpuvar_fault_checks_total", "counter", "Times an armed fault site was evaluated.")
		family("gpuvar_fault_injected_total", "counter", "Times an armed fault site fired.")
		for _, site := range snap.Faults {
			l := label("site", site.Site) + "," + label("behavior", site.Behavior)
			sample("gpuvar_fault_checks_total", l, float64(site.Checks))
			sample("gpuvar_fault_injected_total", l, float64(site.Injected))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// promEscape escapes a label value per the exposition format: backslash,
// double quote, and newline.
func promEscape(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}
