package bench

import (
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the sorted-slice reference: the same nearest-rank
// convention Hist.Quantile approximates.
func exactQuantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(p/100*float64(len(sorted)-1))]
}

func TestHistSmallValuesExact(t *testing.T) {
	// Values below subBuckets land in unit buckets: every quantile is
	// exact, not just p0/p100.
	var h Hist
	vals := []int64{1, 2, 2, 3, 5, 8, 13, 21, 34, 55}
	for _, v := range vals {
		h.Record(v)
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		if got, want := h.Quantile(p), exactQuantile(sorted, p); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", p, got, want)
		}
	}
	if h.Count() != 10 || h.min != 1 || h.max != 55 {
		t.Errorf("count/min/max = %d/%d/%d", h.Count(), h.min, h.max)
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(50) != 0 || h.Quantile(0) != 0 || h.Quantile(100) != 0 || h.Count() != 0 {
		t.Errorf("empty histogram not all-zero")
	}
	var o Hist
	o.Merge(&h) // merging an empty histogram is a no-op
	if o.Count() != 0 {
		t.Errorf("merge of empty grew count")
	}
}

func TestHistExtremesExact(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(7))
	min, max := int64(1<<62), int64(0)
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(50_000_000)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		h.Record(v)
	}
	if h.Quantile(0) != min {
		t.Errorf("p0 = %d, want exact min %d", h.Quantile(0), min)
	}
	if h.Quantile(100) != max {
		t.Errorf("p100 = %d, want exact max %d", h.Quantile(100), max)
	}
}

// TestHistQuantileErrorBound pins the layout's accuracy claim: the
// bucket midpoint is within half a bucket width of the true sample, and
// a bucket's width is at most its lower bound / 2^subBits — so any
// quantile is within exact/2^(subBits+1) (+1 for integer rounding).
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		var h Hist
		var vals []int64
		n := 200 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(3) {
			case 0:
				v = rng.Int63n(1000) // sub-millisecond latencies
			case 1:
				v = rng.Int63n(100_000) // tens of ms
			default:
				v = rng.Int63n(60_000_000) // outliers up to a minute
			}
			vals = append(vals, v)
			h.Record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{1, 10, 50, 90, 95, 99, 99.9} {
			got, want := h.Quantile(p), exactQuantile(vals, p)
			bound := want/(2*subBuckets) + 1
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if diff > bound {
				t.Errorf("trial %d: Quantile(%v) = %d, exact %d, |diff| %d > bound %d",
					trial, p, got, want, diff, bound)
			}
		}
	}
}

// TestHistMergeEqualsSingle pins the merge property: recording samples
// sharded across k histograms and merging gives exactly the histogram
// of recording them all into one.
func TestHistMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var single Hist
	shards := make([]Hist, 4)
	for i := 0; i < 20_000; i++ {
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		single.Record(v)
		shards[rng.Intn(len(shards))].Record(v)
	}
	var merged Hist
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged.Count() != single.Count() || merged.min != single.min || merged.max != single.max {
		t.Fatalf("merged count/min/max %d/%d/%d != single %d/%d/%d",
			merged.Count(), merged.min, merged.max, single.Count(), single.min, single.max)
	}
	for i := range single.counts {
		if merged.counts[i] != single.counts[i] {
			t.Fatalf("bucket %d: merged %d != single %d", i, merged.counts[i], single.counts[i])
		}
	}
	for p := 0.0; p <= 100; p += 0.5 {
		if merged.Quantile(p) != single.Quantile(p) {
			t.Fatalf("Quantile(%v): merged %d != single %d", p, merged.Quantile(p), single.Quantile(p))
		}
	}
}
