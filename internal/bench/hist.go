package bench

import "math/bits"

// Histogram bucket layout: values are non-negative integers
// (microseconds throughout this repository). Values below 2^subBits
// get exact unit buckets; above that, each power-of-two octave splits
// into 2^subBits linear sub-buckets, so a bucket's width is at most
// its lower bound / 2^subBits — recording at the bucket midpoint keeps
// the relative error of any quantile under 1/2^(subBits+1) (~0.8%).
// The layout is value-indexed and fixed, which is what makes two
// histograms mergeable by plain bucket-wise addition: the merged
// histogram is exactly the histogram of the union of the samples.
const (
	subBits    = 6
	subBuckets = 1 << subBits                    // 64
	numBuckets = subBuckets * (64 - subBits + 1) // covers all of int64
)

// Hist is a mergeable log-bucketed latency histogram. The zero value
// is ready to use. It is not goroutine-safe; record into per-goroutine
// histograms and Merge.
type Hist struct {
	counts []int64
	count  int64
	min    int64
	max    int64
}

// bucketIdx maps a value to its bucket.
func bucketIdx(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	s := bits.Len64(uint64(v)) - subBits - 1
	return subBuckets*s + int(v>>uint(s))
}

// bucketMid returns the representative value (midpoint) of a bucket.
func bucketMid(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	s := idx/subBuckets - 1
	low := int64(subBuckets+idx%subBuckets) << uint(s)
	return low + (int64(1)<<uint(s))/2
}

// Record adds one sample. Negative values clamp to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	h.counts[bucketIdx(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.count }

// Merge folds another histogram into this one. Because the bucket
// layout is fixed, merge-then-quantile equals quantile-over-the-union:
// the property test pins it.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
}

// Quantile returns the p-th percentile (0..100) as a value in the
// recorded unit, clamped to the exact [min, max] — so Quantile(0) and
// Quantile(100) are exact, and interior quantiles carry the bucket
// midpoint's bounded relative error.
func (h *Hist) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	// Nearest-rank on the same index convention as a sorted slice:
	// rank = p/100 * (n-1), take the sample at that (floor) index.
	rank := int64(p / 100 * float64(h.count-1))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
