package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into the program (never inside it).
// Spans of one call share its Call id; Parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int64  `json:"call,omitempty"`
}

// maxSpans bounds the in-memory trace (≈ 30 MB); spans past it are
// counted as dropped rather than grown into.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, parent int, call int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Call: call})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once). It is what a layer spent itself, not in the layers it
// called.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			if c.hi > edge {
				covered += c.hi - max(c.lo, edge)
				edge = c.hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time and counts per span name — the per-layer
// roll-up the trace file leads with.
func selfByName(spans []span) map[string]spanTotal {
	out := map[string]spanTotal{}
	for i, self := range selfTimes(spans) {
		t := out[spans[i].Name]
		t.Count++
		t.SelfNs += self
		t.TotalNs += spans[i].End - spans[i].Start
		out[spans[i].Name] = t
	}
	return out
}

type spanTotal struct {
	Count   int   `json:"count"`
	SelfNs  int64 `json:"self_ns"`
	TotalNs int64 `json:"total_ns"`
}

// write dumps the trace as JSON: the per-name roll-up, then every span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int                  `json:"spans_dropped"`
		ByName  map[string]spanTotal `json:"self_time_by_name"`
		Spans   []span               `json:"spans"`
	}{t.dropped, selfByName(t.spans), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
