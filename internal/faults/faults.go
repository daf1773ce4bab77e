// Package faults is the process-wide fault-injection registry: named
// sites in the serving stack call Inject at the points where real
// deployments misbehave (a shard execution, a fleet-cache fill, a
// journal write), and an operator or test arms behaviors at those sites
// to rehearse the failure instead of waiting for it in production.
//
// A fault spec is a comma-separated list of site=behavior clauses:
//
//	engine.shard.pre=error:0.3              30% of shard attempts fail
//	cache.fleet.get=slow:0.5:20ms           half the fleet fills add 20ms
//	jobs.persist=error:0.1,engine.shard.pre=panic:0.01
//
// Behaviors:
//
//	error:<p>         fail with an injected *Error (transient — the
//	                  engine's retry policy applies to it)
//	panic:<p>         panic (contained by the engine's per-shard
//	                  recover; exercises the permanent-failure path)
//	stall:<p>         block until the call's context ends (exercises
//	                  deadlines and cancellation)
//	slow:<p>:<dur>    sleep dur, then proceed normally (straggler
//	                  emulation without failure)
//
// where <p> is the per-check trigger probability in (0, 1].
//
// Chaos runs are deterministic: every site draws from its own RNG,
// seeded from the registry seed and the site name, so the same spec +
// seed + request sequence injects the same faults. gpuvard arms the
// registry from -faults / $GPUVARD_FAULTS, and the armed sites with
// their trigger counts are queryable on /v1/healthz and /v1/stats.
//
// Inject at a disarmed registry is one atomic load — the resilience
// layer's cost in production is indistinguishable from zero.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The registered sites. A spec naming any other site is rejected at
// parse time, so a typoed chaos flag fails the boot instead of silently
// injecting nothing.
const (
	// SiteShardPre fires before each engine shard attempt (retries
	// included) — the canonical transient-compute fault.
	SiteShardPre = "engine.shard.pre"
	// SiteShardPost fires after a shard attempt succeeds, discarding its
	// result — a fault in the result path rather than the computation.
	SiteShardPost = "engine.shard.post"
	// SiteFleetGet fires inside cluster.FleetCache.Get, before the
	// cached (or in-flight) fleet is returned.
	SiteFleetGet = "cache.fleet.get"
	// SiteJobsPersist fires on every job-journal append — a failing or
	// wedged data directory.
	SiteJobsPersist = "jobs.persist"
)

// Sites lists every registered site, sorted.
func Sites() []string {
	return []string{SiteFleetGet, SiteShardPost, SiteShardPre, SiteJobsPersist}
}

func knownSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// Kind is an armed behavior.
type Kind uint8

const (
	KindError Kind = iota
	KindPanic
	KindStall
	KindSlow
)

// String returns the spec spelling.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindSlow:
		return "slow"
	}
	return fmt.Sprintf("kind(%d)", k)
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "stall":
		return KindStall, nil
	case "slow":
		return KindSlow, nil
	}
	return 0, fmt.Errorf("unknown behavior %q (want error, panic, stall, or slow)", s)
}

// Error is the injected failure of an error-behavior site. It is
// transient by construction: an injected fault models a misbehaving
// machine, and the whole point of the resilience layer is that retrying
// such failures succeeds — engine.ClassifyError sees IsTransient and
// the per-shard retry policy applies.
type Error struct {
	// Site is the site that fired.
	Site string
}

func (e *Error) Error() string { return "faults: injected error at " + e.Site }

// IsTransient marks the injected error retryable (the engine's
// transient-marker interface, satisfied without an import cycle).
func (e *Error) IsTransient() bool { return true }

// site is one armed site's configuration and counters.
type site struct {
	name  string
	kind  Kind
	prob  float64
	delay time.Duration // KindSlow only

	mu       sync.Mutex // guards rng
	rng      *rand.Rand
	checks   atomic.Uint64
	injected atomic.Uint64
}

// SiteStats is one armed site's snapshot, exposed on /v1/healthz and
// /v1/stats.
type SiteStats struct {
	Site        string  `json:"site"`
	Behavior    string  `json:"behavior"`
	Probability float64 `json:"probability"`
	DelayMs     float64 `json:"delay_ms,omitempty"`
	// Checks counts Inject calls at the site; Injected counts the ones
	// that fired.
	Checks   uint64 `json:"checks"`
	Injected uint64 `json:"injected"`
}

// registry state. sites is replaced wholesale on Arm/Reset and read
// through an atomic pointer, so the armed-path site lookup is lock-free;
// armed short-circuits the disarmed path to a single atomic load.
var (
	armed    atomic.Bool
	sitesPtr atomic.Pointer[map[string]*site]
	seedMu   sync.Mutex
	seed     uint64 = 1
)

// SetSeed fixes the registry seed future Arm calls derive per-site RNG
// streams from. Same seed + same spec + same call sequence = same
// injections — the determinism chaos tests rely on.
func SetSeed(s uint64) {
	seedMu.Lock()
	seed = s
	seedMu.Unlock()
}

// siteSeed derives a site's RNG seed from the registry seed and the
// site name, so distinct sites draw independent but reproducible
// streams.
func siteSeed(name string) int64 {
	seedMu.Lock()
	s := seed
	seedMu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(s ^ h.Sum64())
}

// Arm parses spec and arms the named sites, replacing any previously
// armed configuration wholesale (Arm("") is Reset). Every clause is
// validated before anything is armed: a bad spec leaves the registry
// untouched.
func Arm(spec string) error {
	next := map[string]*site{}
	spec = strings.TrimSpace(spec)
	if spec != "" {
		for _, clause := range strings.Split(spec, ",") {
			s, err := parseClause(strings.TrimSpace(clause))
			if err != nil {
				return err
			}
			next[s.name] = s
		}
	}
	sitesPtr.Store(&next)
	armed.Store(len(next) > 0)
	return nil
}

// parseClause parses one site=behavior[:args] clause.
func parseClause(clause string) (*site, error) {
	name, behavior, ok := strings.Cut(clause, "=")
	if !ok {
		return nil, fmt.Errorf("faults: bad clause %q: want site=behavior:probability", clause)
	}
	if !knownSite(name) {
		return nil, fmt.Errorf("faults: unknown site %q (known: %v)", name, Sites())
	}
	parts := strings.Split(behavior, ":")
	kind, err := parseKind(parts[0])
	if err != nil {
		return nil, fmt.Errorf("faults: site %s: %v", name, err)
	}
	if len(parts) < 2 {
		return nil, fmt.Errorf("faults: site %s: behavior %q needs a probability (e.g. %s:0.3)", name, parts[0], parts[0])
	}
	prob, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(prob > 0 && prob <= 1) {
		return nil, fmt.Errorf("faults: site %s: bad probability %q: want 0 < p <= 1", name, parts[1])
	}
	s := &site{name: name, kind: kind, prob: prob, rng: rand.New(rand.NewSource(siteSeed(name)))}
	switch {
	case kind == KindSlow:
		if len(parts) != 3 {
			return nil, fmt.Errorf("faults: site %s: slow needs a duration (e.g. slow:0.5:20ms)", name)
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("faults: site %s: bad slow duration %q", name, parts[2])
		}
		s.delay = d
	case len(parts) != 2:
		return nil, fmt.Errorf("faults: site %s: behavior %q takes only a probability", name, parts[0])
	}
	return s, nil
}

// Reset disarms every site.
func Reset() {
	sitesPtr.Store(nil)
	armed.Store(false)
}

// Armed reports whether any site is armed — the service's healthz folds
// this into its ok|degraded status, since an armed registry is by
// definition not normal serving.
func Armed() bool { return armed.Load() }

// Snapshot returns the armed sites with their trigger counters, sorted
// by site name.
func Snapshot() []SiteStats {
	p := sitesPtr.Load()
	if p == nil {
		return nil
	}
	out := make([]SiteStats, 0, len(*p))
	for _, s := range *p {
		st := SiteStats{
			Site:        s.name,
			Behavior:    s.kind.String(),
			Probability: s.prob,
			Checks:      s.checks.Load(),
			Injected:    s.injected.Load(),
		}
		if s.delay > 0 {
			st.DelayMs = float64(s.delay.Microseconds()) / 1000
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Inject consults the registry at a named site: nil when the site is
// disarmed or its probability roll misses; otherwise the armed behavior
// runs — an *Error return, a panic, a context-bounded stall, or a
// sleep-then-nil. Disarmed cost is one atomic load.
func Inject(ctx context.Context, name string) error {
	if !armed.Load() {
		return nil
	}
	p := sitesPtr.Load()
	if p == nil {
		return nil
	}
	s, ok := (*p)[name]
	if !ok {
		return nil
	}
	s.checks.Add(1)
	s.mu.Lock()
	fire := s.rng.Float64() < s.prob
	s.mu.Unlock()
	if !fire {
		return nil
	}
	s.injected.Add(1)
	switch s.kind {
	case KindError:
		return &Error{Site: name}
	case KindPanic:
		panic("faults: injected panic at " + name)
	case KindStall:
		<-ctx.Done()
		return ctx.Err()
	case KindSlow:
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
