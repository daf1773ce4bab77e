package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (nothing inside the program is instrumented).
// The layer is the name's prefix before the first dot.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	run   string
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span and returns its id, to pass to end and to children.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now, Run: t.run})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// adopt appends spans recorded by another process of the same run,
// renumbering them after this tracer's own and hanging their roots
// under parent.
func (t *tracer) adopt(spans []span, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its children cover (their union, since children of one
// span may overlap).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes the run's spans as JSON under dir and returns the
// file's path.
func writeSpans(dir, run string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, run+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
