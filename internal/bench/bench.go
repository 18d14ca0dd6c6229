// Package bench is the evaluation harness: it re-creates every table and
// figure of the paper's §5 on top of the simulated geo-replicated
// deployment. Each experiment returns an Experiment value whose Render
// output is the series the paper plots; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Latency accounting: a transaction's service time follows a simple cost
// model (per-transaction overhead, per-key storage access, per-update
// processing) calibrated against the paper's Fig. 8 microbenchmarks
// (~28x IPA/Strong speed-up for one-update operations, ~40 ms for 2048
// updates on one key, IPA/Strong crossover near 64 updated keys). Wide
// area costs come from the wan package's paper topology. Absolute
// throughput numbers therefore differ from the paper's testbed, but the
// relative shapes — who wins, by what factor, where curves cross — are
// reproduced.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ipa/internal/wan"
)

// CostModel gives the local service time of one transaction.
type CostModel struct {
	// Base is the fixed per-transaction overhead.
	Base wan.Time
	// PerKey is the storage cost of each distinct key read or written.
	PerKey wan.Time
	// PerUpdate is the processing cost of one update on an open object.
	PerUpdate wan.Time
}

// DefaultCostModel returns the calibration used throughout the
// reproduction (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{Base: wan.Ms(1.0), PerKey: wan.Ms(0.85), PerUpdate: wan.Ms(0.02)}
}

// Service returns the service time of a transaction touching the given
// number of distinct keys (reads + written keys) with the given number of
// updates.
func (m CostModel) Service(keys, updates int) wan.Time {
	return m.Base + wan.Time(keys)*m.PerKey + wan.Time(updates)*m.PerUpdate
}

// Config is a deployment configuration of the evaluation (§5.2.1).
type Config int

// Configurations.
const (
	// Causal: unmodified application on causal consistency.
	Causal Config = iota
	// IPA: the application patched by the analysis, on causal consistency.
	IPA
	// Strong: update operations forwarded to a single primary replica.
	Strong
	// Indigo: conflicting operations guarded by reservations.
	Indigo
)

func (c Config) String() string {
	switch c {
	case Causal:
		return "Causal"
	case IPA:
		return "IPA"
	case Strong:
		return "Strong"
	case Indigo:
		return "Indigo"
	}
	return "?"
}

// Recorder accumulates latency samples per label. It is backed by
// mergeable log-bucketed histograms (Hist) instead of raw sample slices:
// memory stays constant however long a run is, and percentiles carry a
// bounded ~0.8% relative error (p0/p100 stay exact via tracked
// extremes). Means and standard deviations come from exact running
// sums, not the buckets.
type Recorder struct {
	byLabel map[string]*labelStats
	order   []string
}

// labelStats is one label's accumulation: the histogram in microseconds
// (the repo's wan.Time unit) plus exact moment sums in milliseconds.
type labelStats struct {
	hist  Hist
	sumMs float64
	sumSq float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{byLabel: map[string]*labelStats{}} }

func (r *Recorder) stats(label string) *labelStats {
	s, ok := r.byLabel[label]
	if !ok {
		s = &labelStats{}
		r.byLabel[label] = s
		r.order = append(r.order, label)
	}
	return s
}

// Add records one latency sample under the label.
func (r *Recorder) Add(label string, d wan.Time) {
	s := r.stats(label)
	s.hist.Record(int64(d))
	ms := d.Millis()
	s.sumMs += ms
	s.sumSq += ms * ms
}

// Labels returns the labels in first-seen order.
func (r *Recorder) Labels() []string { return r.order }

// Count returns the number of samples for the label ("" for all).
func (r *Recorder) Count(label string) int {
	if label != "" {
		if s, ok := r.byLabel[label]; ok {
			return int(s.hist.Count())
		}
		return 0
	}
	n := int64(0)
	for _, s := range r.byLabel {
		n += s.hist.Count()
	}
	return int(n)
}

// all folds every label into one aggregate ("" queries).
func (r *Recorder) all(label string) labelStats {
	if label != "" {
		if s, ok := r.byLabel[label]; ok {
			return *s
		}
		return labelStats{}
	}
	var agg labelStats
	for _, l := range r.order {
		s := r.byLabel[l]
		agg.hist.Merge(&s.hist)
		agg.sumMs += s.sumMs
		agg.sumSq += s.sumSq
	}
	return agg
}

// Mean returns the mean latency in milliseconds ("" for all labels).
func (r *Recorder) Mean(label string) float64 {
	s := r.all(label)
	n := s.hist.Count()
	if n == 0 {
		return 0
	}
	return s.sumMs / float64(n)
}

// Stddev returns the sample standard deviation in milliseconds.
func (r *Recorder) Stddev(label string) float64 {
	s := r.all(label)
	n := float64(s.hist.Count())
	if n < 2 {
		return 0
	}
	m := s.sumMs / n
	v := (s.sumSq - n*m*m) / (n - 1)
	if v < 0 { // floating-point cancellation on near-constant samples
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (0..100) in milliseconds.
func (r *Recorder) Percentile(label string, p float64) float64 {
	s := r.all(label)
	if s.hist.Count() == 0 {
		return 0
	}
	return float64(s.hist.Quantile(p)) / 1000
}

// Point is one data point of a series.
type Point struct {
	X float64
	Y float64
	// Aux carries extra measures (stddev, violations, ...).
	Aux map[string]float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Experiment is a reproduced table or figure.
type Experiment struct {
	ID     string // e.g. "fig4"
	Title  string
	XLabel string
	YLabel string
	// XTicks optionally names the X positions (per-operation figures).
	XTicks []string
	Series []Series
	Notes  []string
	// Text carries pre-rendered content for table-style experiments.
	Text string
}

// Render prints the experiment as aligned text, one block per series.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if e.Text != "" {
		b.WriteString(e.Text)
		if !strings.HasSuffix(e.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, s := range e.Series {
		fmt.Fprintf(&b, "-- %s --\n", s.Name)
		auxKeys := auxKeysOf(s)
		fmt.Fprintf(&b, "%16s %16s", e.XLabel, e.YLabel)
		for _, k := range auxKeys {
			fmt.Fprintf(&b, " %16s", k)
		}
		b.WriteByte('\n')
		for _, p := range s.Points {
			x := fmt.Sprintf("%16.2f", p.X)
			if int(p.X) >= 0 && int(p.X) < len(e.XTicks) && float64(int(p.X)) == p.X {
				x = fmt.Sprintf("%16s", e.XTicks[int(p.X)])
			}
			fmt.Fprintf(&b, "%s %16.2f", x, p.Y)
			for _, k := range auxKeys {
				fmt.Fprintf(&b, " %16.2f", p.Aux[k])
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func auxKeysOf(s Series) []string {
	set := map[string]bool{}
	for _, p := range s.Points {
		for k := range p.Aux {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FindSeries returns the series with the given name.
func (e *Experiment) FindSeries(name string) (Series, bool) {
	for _, s := range e.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}
