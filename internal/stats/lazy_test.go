package stats

import (
	"math"
	"math/rand"
	"testing"
)

// fullHistogram is the reference for the lazily sized Histogram: the same
// type with its whole counts array allocated up front.
func fullHistogram() *Histogram {
	h := NewHistogram()
	h.counts = make([]uint64, h.numBuckets)
	return h
}

type bucket struct {
	lo, hi int64
	count  uint64
}

func buckets(h *Histogram) []bucket {
	var out []bucket
	h.ForEachBucket(func(lo, hi int64, count uint64) bool {
		out = append(out, bucket{lo, hi, count})
		return true
	})
	return out
}

// sameHistogram fails t unless lazy answers every query exactly as ref
// does, and its counts array is a whole number of octaves no longer than
// the full array.
func sameHistogram(t *testing.T, what string, lazy, ref *Histogram) {
	t.Helper()
	if lazy.Count() != ref.Count() || lazy.Mean() != ref.Mean() || lazy.Min() != ref.Min() || lazy.Max() != ref.Max() {
		t.Fatalf("%s: count/mean/min/max %d/%v/%d/%d, reference %d/%v/%d/%d", what,
			lazy.Count(), lazy.Mean(), lazy.Min(), lazy.Max(), ref.Count(), ref.Mean(), ref.Min(), ref.Max())
	}
	for i := 0; i <= 1000; i++ {
		q := float64(i) / 1000
		if got, want := lazy.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, reference %d", what, q, got, want)
		}
	}
	for _, q := range []float64{-1, 0.9999, 0.99999, 2} {
		if got, want := lazy.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, reference %d", what, q, got, want)
		}
	}
	lb, rb := buckets(lazy), buckets(ref)
	if len(lb) != len(rb) {
		t.Fatalf("%s: %d non-empty buckets, reference %d", what, len(lb), len(rb))
	}
	for i := range rb {
		if lb[i] != rb[i] {
			t.Fatalf("%s: bucket %d = %+v, reference %+v", what, i, lb[i], rb[i])
		}
	}
	if n := len(lazy.counts); n%lazy.subCount != 0 || n > lazy.numBuckets {
		t.Fatalf("%s: counts length %d is not whole octaves within %d", what, n, lazy.numBuckets)
	}
}

// sample draws from one of several ranges so sequences cover the dense
// range, ordinary latencies, values of 2^62 and above (the top octave)
// and negatives.
func sample(rng *rand.Rand, maxExp float64) int64 {
	switch rng.Intn(10) {
	case 0:
		return int64(rng.Intn(64))
	case 1:
		return -int64(rng.Intn(1000))
	case 2:
		if maxExp >= 62 {
			return math.MaxInt64 - rng.Int63n(1<<61)
		}
	}
	return int64(math.Exp2(rng.Float64() * maxExp))
}

func TestLazyHistogramMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Short histograms stay in low octaves; long ones reach the top.
		short, shortRef := NewHistogram(), fullHistogram()
		long, longRef := NewHistogram(), fullHistogram()
		n := 1 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			v, c := sample(rng, 20), uint64(1+rng.Intn(4))
			if rng.Intn(3) == 0 {
				short.RecordN(v, c)
				shortRef.RecordN(v, c)
			} else {
				short.Record(v)
				shortRef.Record(v)
			}
			w := sample(rng, 63)
			long.Record(w)
			longRef.Record(w)
		}
		sameHistogram(t, "short", short, shortRef)
		sameHistogram(t, "long", long, longRef)
		if len(short.counts) >= len(long.counts) {
			t.Fatalf("seed %d: short histogram (%d buckets) not shorter than long (%d)",
				seed, len(short.counts), len(long.counts))
		}

		// Merge both ways between a short and a long histogram.
		a, aRef := NewHistogram(), fullHistogram()
		a.Merge(short)
		aRef.Merge(shortRef)
		a.Merge(long)
		aRef.Merge(longRef)
		sameHistogram(t, "short<-long", a, aRef)
		if len(a.counts) != len(long.counts) {
			t.Fatalf("seed %d: merge receiver has %d buckets, source %d", seed, len(a.counts), len(long.counts))
		}
		long.Merge(short)
		longRef.Merge(shortRef)
		sameHistogram(t, "long<-short", long, longRef)

		// Reset, then reuse with a different range.
		short.Reset()
		shortRef.Reset()
		sameHistogram(t, "reset", short, shortRef)
		for i := 0; i < 100; i++ {
			v := sample(rng, 63)
			short.Record(v)
			shortRef.Record(v)
		}
		sameHistogram(t, "reuse", short, shortRef)
	}
}

// TestLazyHistogramTopOctave records only values >= 2^62, the highest
// bucket any int64 reaches, so counts must grow straight to cover it.
func TestLazyHistogramTopOctave(t *testing.T) {
	h, ref := NewHistogram(), fullHistogram()
	for _, v := range []int64{1 << 62, 1<<62 + 12345, math.MaxInt64} {
		h.Record(v)
		ref.Record(v)
	}
	sameHistogram(t, "top octave", h, ref)
	if top := h.bucketIndex(math.MaxInt64); len(h.counts) <= top || len(h.counts) > h.numBuckets {
		t.Fatalf("values >= 2^62 grew counts to %d, want (%d, %d]", len(h.counts), top, h.numBuckets)
	}
}

func TestLazyHistogramStartsEmpty(t *testing.T) {
	h := NewHistogram()
	if len(h.counts) != 0 {
		t.Fatalf("new histogram holds %d buckets", len(h.counts))
	}
	h.Record(1000) // [512, 1024) is bucket octave 4
	if got := len(h.counts); got != 5*h.subCount {
		t.Fatalf("after one record: %d buckets, want %d", got, 5*h.subCount)
	}
	h.Record(600) // same octave: no growth
	if got := len(h.counts); got != 5*h.subCount {
		t.Fatalf("same-octave record regrew counts to %d", got)
	}
	h.Record(1100) // octave 5: doubling beats one more octave
	if got := len(h.counts); got != 10*h.subCount {
		t.Fatalf("after growth: %d buckets, want %d", got, 10*h.subCount)
	}
}
