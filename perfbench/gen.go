package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpuvar/internal/rng"
	"gpuvar/internal/traffic"
)

// op is one client operation: a request plus the sha256 (or a prefix of
// it, at least 32 hex digits) its response body must hash to. For
// streams the body is the reassembled payload; for jobs it is the
// fetched result.
type op struct {
	Kind, Method, Path, Body string
	Oracle                   string
}

// genDuration is the virtual length of every generated trace. At the
// generator's default 40 req/s it yields ~24k records: more than a
// serve-cold run can send, so it never wraps around its sequence and
// repeats requests.
const genDuration = 10 * time.Minute

// hotSequence is serve-hot's request sequence: traffic.Generate's
// arrival order and Zipf-weighted template choice with the mix limited
// to the three cacheable kinds, which gives 11 distinct requests.
// Runs cycle through it, since every request after the warm-up pass is
// a cache hit anyway. With nil oracles (minting) no hash is attached.
func hotSequence(seed uint64, oracles map[string]string) ([]op, error) {
	tr, err := traffic.Generate(traffic.GenSpec{
		Seed:     seed,
		Duration: genDuration,
		Mix: []traffic.MixEntry{
			{Kind: traffic.KindFigures, Weight: 8},
			{Kind: traffic.KindSweep, Weight: 4},
			{Kind: traffic.KindEstimate, Weight: 2},
		},
	})
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(tr.Records))
	for i, r := range tr.Records {
		sum, ok := oracles[r.FP]
		if !ok && oracles != nil {
			return nil, fmt.Errorf("serve-hot: no pinned oracle for %s %s %s", r.Method, r.Path, r.Body)
		}
		ops[i] = op{Kind: r.Kind, Method: r.Method, Path: r.Path, Body: r.Body, Oracle: sum}
	}
	return ops, nil
}

// distinct returns the first occurrence of each request in ops, in
// order: serve-hot's warm-up pass.
func distinct(ops []op) []op {
	seen := map[string]bool{}
	var out []op
	for _, o := range ops {
		k := o.Method + " " + o.Path + " " + o.Body
		if !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// coldSequence is serve-cold's request sequence. traffic.Generate gives
// the arrival order and the five-kind mix; each record's parameters are
// then redrawn from the seed over the cold pool, so almost no request
// repeats within a run. Streams and jobs draw sweep entries: their
// bytes must equal the synchronous sweep's.
//
// The redraw is stratified: the n-th request of each kind takes its
// stratum (figure id; or cluster, axis and, for sweeps, value count)
// from a fixed cycle and only the entry within it from the seed. Every
// seed thus carries the same share of Longhorn requests, of each figure
// and of each sweep size, so runs with different seeds do comparable
// work.
func coldSequence(seed uint64, pool *coldPool) ([]op, error) {
	tr, err := traffic.Generate(traffic.GenSpec{Seed: seed, Duration: genDuration})
	if err != nil {
		return nil, err
	}
	strata := pool.strata()
	root := rng.New(seed).Split("perfbench-cold")
	nth := map[string]int{}
	ops := make([]op, len(tr.Records))
	for i, r := range tr.Records {
		j := nth[r.Kind]
		nth[r.Kind]++
		set := strata[stratumOf(r.Kind, j)]
		ops[i] = set[root.SplitIndex("record", i).Intn(len(set))].as(r.Kind)
	}
	return ops, nil
}

// Strata cycles: one request in four is on Longhorn, and the axes and
// figure ids take turns.
var (
	sweepAxes    = []string{"powercap", "ambient", "seed"}
	estimateAxes = []string{"powercap", "ambient"}
)

// stratumOf names the stratum of the j-th request of a kind.
func stratumOf(kind string, j int) string {
	cluster := "CloudLab"
	if j%4 == 3 {
		cluster = "Longhorn"
	}
	switch kind {
	case traffic.KindFigures:
		return poolFigureIDs[j%len(poolFigureIDs)]
	case traffic.KindEstimate:
		return "estimate/" + cluster + "/" + estimateAxes[(j/4)%len(estimateAxes)]
	default:
		axis := sweepAxes[(j/4)%len(sweepAxes)]
		n := 2 + (j/12)%2
		if axis == "seed" {
			n--
		}
		return fmt.Sprintf("sweep/%s/%s/%d", cluster, axis, n)
	}
}

// sequenceDigest is the sha256 of a sequence's canonical encoding; the
// same seed must always give the same digest.
func sequenceDigest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\n", o.Kind, o.Method, o.Path, o.Body, o.Oracle)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// poolEntry is one distinct request of the cold pool. Sweep entries
// keep their parameters so they can be sent as a stream or a job too.
type poolEntry struct {
	kind    string // figures, sweep or estimate
	stratum string // see stratumOf
	path    string // figures only
	cluster string
	axis    string
	values  []int
	oracle  string
}

func (e poolEntry) sweepBody() string {
	vs := make([]string, len(e.values))
	for i, v := range e.values {
		vs[i] = strconv.Itoa(v)
	}
	return `{"cluster":"` + e.cluster + `","axis":"` + e.axis + `","values":[` + strings.Join(vs, ",") + `]}`
}

// as renders the entry as a request of the given kind.
func (e poolEntry) as(kind string) op {
	o := op{Kind: kind, Oracle: e.oracle}
	switch kind {
	case traffic.KindFigures:
		o.Method, o.Path = "GET", e.path
	case traffic.KindEstimate:
		o.Method, o.Path, o.Body = "POST", "/v1/estimate", e.sweepBody()
	case traffic.KindSweep:
		o.Method, o.Path, o.Body = "POST", "/v1/sweep", e.sweepBody()
	case traffic.KindStream:
		vs := make([]string, len(e.values))
		for i, v := range e.values {
			vs[i] = strconv.Itoa(v)
		}
		q := url.Values{"cluster": {e.cluster}, "axis": {e.axis}, "values": {strings.Join(vs, ",")}}
		o.Method, o.Path = "GET", "/v1/stream/sweep?"+q.Encode()
	case traffic.KindJobs:
		o.Method, o.Path, o.Body = "POST", "/v1/jobs", `{"kind":"sweep","sweep":`+e.sweepBody()+`}`
	}
	return o
}

// coldPool is the fixed set of distinct requests serve-cold draws
// from, on CloudLab and Longhorn. It does not
// depend on the workload seed, so one pinned table of response hashes
// (oracles/cold.txt) covers every seed.
type coldPool struct {
	figures, sweeps, estimates []poolEntry
}

// Pool sizes. A run sends ~1,500 requests, so draws from pools this size
// rarely repeat and almost every request misses the response cache.
const (
	poolFigureSeeds = 256
	poolSweeps      = 2048
	poolEstimates   = 512
)

// poolFigureIDs are the figures whose experiments run on Longhorn or
// CloudLab; the Summit-scale ones take seconds per new seed.
var poolFigureIDs = []string{"fig2", "fig3", "fig14", "fig16", "fig18", "fig19", "fig22"}

func newColdPool() *coldPool {
	p := &coldPool{}
	for s := 1; s <= poolFigureSeeds; s++ {
		for _, id := range poolFigureIDs {
			p.figures = append(p.figures, poolEntry{kind: traffic.KindFigures, stratum: id, path: fmt.Sprintf("/v1/figures/%s?seed=%d", id, s)})
		}
	}
	root := rng.New(2022).Split("perfbench-cold-pool")
	p.sweeps = drawEntries(root.Split("sweep"), traffic.KindSweep, poolSweeps, sweepAxes, 2, 3)
	for i := range p.sweeps {
		p.sweeps[i].stratum += "/" + strconv.Itoa(len(p.sweeps[i].values))
	}
	p.estimates = drawEntries(root.Split("estimate"), traffic.KindEstimate, poolEstimates, estimateAxes, 3, 9)
	return p
}

// drawEntries draws n distinct parameter sets: three in four on
// CloudLab, the rest on Longhorn, with minVals..maxVals distinct values
// per request (seed sweeps take at most two fleets).
func drawEntries(src *rng.Source, kind string, n int, axes []string, minVals, maxVals int) []poolEntry {
	grids := map[string][]int{
		"powercap": intRange(100, 300, 5),
		"ambient":  intRange(-10, 10, 1),
		"seed":     intRange(1, 256, 1),
	}
	seen := map[string]bool{}
	var out []poolEntry
	for len(out) < n {
		e := poolEntry{kind: kind, cluster: "CloudLab", axis: axes[src.Intn(len(axes))]}
		if src.Intn(4) == 0 {
			e.cluster = "Longhorn"
		}
		k := minVals + src.Intn(maxVals-minVals+1)
		if e.axis == "seed" {
			k = 1 + src.Intn(2)
		}
		grid := grids[e.axis]
		for _, j := range src.Perm(len(grid))[:k] {
			e.values = append(e.values, grid[j])
		}
		sort.Sort(sort.Reverse(sort.IntSlice(e.values)))
		e.stratum = kind + "/" + e.cluster + "/" + e.axis
		if key := e.sweepBody(); !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

func intRange(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// strata groups the pool's entries by stratum.
func (p *coldPool) strata() map[string][]poolEntry {
	out := map[string][]poolEntry{}
	for _, e := range p.entries() {
		out[e.stratum] = append(out[e.stratum], *e)
	}
	return out
}

// entries lists the pool in the order of oracles/cold.txt.
func (p *coldPool) entries() []*poolEntry {
	var out []*poolEntry
	for _, set := range [][]poolEntry{p.figures, p.sweeps, p.estimates} {
		for i := range set {
			out = append(out, &set[i])
		}
	}
	return out
}

// digest fingerprints the pool's requests, so a table minted for a
// different pool is refused instead of failing every request.
func (p *coldPool) digest() string {
	h := sha256.New()
	for _, e := range p.entries() {
		o := e.as(e.kind)
		fmt.Fprintf(h, "%s %s %s\n", o.Method, o.Path, o.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
