// Package wan is a deterministic discrete-event simulator of a
// geo-replicated deployment: a virtual clock, an event queue, and a
// configurable inter-datacenter latency model. It stands in for the
// paper's three-region Amazon EC2 testbed (§5.2.1), reproducing the
// latency ratios that drive the evaluation — local commits cost
// microseconds while cross-region round trips cost tens to hundreds of
// simulated milliseconds.
package wan

import (
	"container/heap"
	"math/rand"
	"strconv"

	"ipa/internal/clock"
)

// Time is virtual time in microseconds.
type Time int64

// Convenient units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// Ms converts a float of milliseconds to Time.
func Ms(f float64) Time { return Time(f * float64(Millisecond)) }

// Millis converts a Time to float milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for determinism
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator. Events scheduled for
// the same instant run in scheduling order. Not safe for concurrent use.
type Sim struct {
	now Time
	pq  eventHeap
	seq uint64
	rng *rand.Rand

	// Executed counts processed events (diagnostics).
	Executed uint64
}

// NewSim creates a simulator with a seeded deterministic PRNG.
func NewSim(seed int64) *Sim {
	return NewSimFromRand(rand.New(rand.NewSource(seed)))
}

// NewSimFromRand creates a simulator that draws all its randomness from
// the given PRNG. Injecting the generator lets a harness share one seeded
// source across the simulator and its own decisions, so an entire run is
// reproducible from a single seed.
func NewSimFromRand(rng *rand.Rand) *Sim {
	return &Sim{rng: rng}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's PRNG (deterministic per seed).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current time.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step executes the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(event)
	s.now = e.at
	s.Executed++
	e.fn()
	return true
}

// Run drains the event queue.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.pq) > 0 && s.pq[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.pq) }

// Latency models one-way message delays between sites, with optional
// uniform jitter expressed as a fraction of the base delay.
type Latency struct {
	base   map[[2]string]Time
	scale  map[[2]string]float64 // fault-injected delay multipliers
	def    Time
	Jitter float64
	// Partitioned links drop into the blocked set managed by the store;
	// the latency model only answers "how long".
}

// NewLatency creates a latency model with the given default one-way delay.
func NewLatency(def Time) *Latency {
	return &Latency{base: map[[2]string]Time{}, scale: map[[2]string]float64{}, def: def}
}

// SetOneWay sets the one-way delay in both directions between two sites.
func (l *Latency) SetOneWay(a, b string, d Time) {
	l.base[[2]string{a, b}] = d
	l.base[[2]string{b, a}] = d
}

// SetScale installs a delay multiplier on the link between two sites (both
// directions) — the fault-injection hook for congestion and delay spikes.
// A factor of 1 (or less than or equal to zero) clears the spike. Scales
// affect OneWay only; RTT keeps reporting the base topology, so
// coordination cost models are not silently distorted by injected faults.
func (l *Latency) SetScale(a, b string, factor float64) {
	if factor <= 0 {
		factor = 1
	}
	for _, key := range [][2]string{{a, b}, {b, a}} {
		if factor == 1 {
			delete(l.scale, key)
		} else {
			l.scale[key] = factor
		}
	}
}

// ClearScale removes the delay multiplier between two sites.
func (l *Latency) ClearScale(a, b string) { l.SetScale(a, b, 1) }

// OneWay returns the one-way delay from a to b, with any injected delay
// scale and jitter applied.
func (l *Latency) OneWay(a, b string, rng *rand.Rand) Time {
	d, ok := l.base[[2]string{a, b}]
	if !ok {
		d = l.def
	}
	if f, ok := l.scale[[2]string{a, b}]; ok {
		d = Time(float64(d) * f)
	}
	if l.Jitter > 0 && rng != nil {
		span := float64(d) * l.Jitter
		d += Time((rng.Float64()*2 - 1) * span)
		if d < 0 {
			d = 0
		}
	}
	return d
}

// RTT returns the base round-trip time between two sites (no jitter).
func (l *Latency) RTT(a, b string) Time {
	return l.baseOf(a, b) + l.baseOf(b, a)
}

func (l *Latency) baseOf(a, b string) Time {
	if d, ok := l.base[[2]string{a, b}]; ok {
		return d
	}
	return l.def
}

// Paper deployment site names (§5.2.1).
const (
	USEast = "us-east"
	USWest = "us-west"
	EUWest = "eu-west"
)

// PaperTopology returns the paper's three-region latency model: ~80 ms
// RTT between us-east and each of us-west/eu-west, ~160 ms RTT between
// eu-west and us-west (one-way delays are half the RTT), with mild jitter.
func PaperTopology() *Latency {
	l := NewLatency(Ms(40))
	l.SetOneWay(USEast, USWest, Ms(40))
	l.SetOneWay(USEast, EUWest, Ms(40))
	l.SetOneWay(USWest, EUWest, Ms(80))
	l.SetOneWay(USEast, USEast, Ms(0.25))
	l.SetOneWay(USWest, USWest, Ms(0.25))
	l.SetOneWay(EUWest, EUWest, Ms(0.25))
	l.Jitter = 0.05
	return l
}

// Sites returns the paper's replica site names.
func Sites() []string { return []string{USEast, USWest, EUWest} }

// SiteIDs names n replica sites: the paper's three first, then site-3,
// site-4, … for larger clusters.
func SiteIDs(n int) []clock.ReplicaID {
	base := Sites()
	ids := make([]clock.ReplicaID, n)
	for i := range ids {
		if i < len(base) {
			ids[i] = clock.ReplicaID(base[i])
		} else {
			ids[i] = clock.ReplicaID("site-" + strconv.Itoa(i))
		}
	}
	return ids
}
