package service

import (
	"math"
	"sync"
	"testing"
	"time"

	"perm"
)

func TestHistogramEmpty(t *testing.T) {
	var h histogram
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.quantile(q); got != 0 {
			t.Errorf("quantile(%v) of empty histogram = %v, want 0", q, got)
		}
	}
	if got := h.mean(); got != 0 {
		t.Errorf("mean of empty histogram = %v, want 0", got)
	}
	j := h.json(true)
	if j.P50 != 0 || j.P99 != 0 || j.Max != 0 || j.Mean != 0 {
		t.Errorf("json of empty histogram = %+v, want zeros", j)
	}
	if len(j.Buckets) != 0 {
		t.Errorf("empty histogram has buckets %v", j.Buckets)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h histogram
	h.observe(800 * time.Microsecond)
	j := h.json(true)
	if j.Max != 0.8 {
		t.Errorf("Max = %v, want 0.8", j.Max)
	}
	if j.Mean != 0.8 {
		t.Errorf("Mean = %v, want 0.8", j.Mean)
	}
	// With one observation every quantile is capped by the observed max.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.quantile(q); got > 0.8 || got <= 0 {
			t.Errorf("quantile(%v) = %v, want in (0, 0.8]", q, got)
		}
	}
	// 0.8ms lands in the (0.5, 1] bucket.
	if c := j.Buckets["le_1ms"]; c != 1 {
		t.Errorf("le_1ms bucket = %d, want 1 (buckets %v)", c, j.Buckets)
	}
}

func TestHistogramBucketBoundary(t *testing.T) {
	var h histogram
	// Exactly on an upper bound: 1ms is ≤ 1, so it belongs to le_1ms, not
	// the (1, 2] bucket.
	h.observe(1 * time.Millisecond)
	j := h.json(true)
	if c := j.Buckets["le_1ms"]; c != 1 {
		t.Errorf("le_1ms bucket = %d, want 1 (buckets %v)", c, j.Buckets)
	}
	if c := j.Buckets["le_2ms"]; c != 0 {
		t.Errorf("le_2ms bucket = %d, want 0", c)
	}
	// Just past the bound rolls over.
	h.observe(1*time.Millisecond + time.Microsecond)
	if c := h.json(true).Buckets["le_2ms"]; c != 1 {
		t.Errorf("le_2ms bucket after 1.001ms = %d, want 1", c)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h histogram
	// 100 observations of 0.8ms fill the (0.5, 1] bucket. The median rank
	// is 50, half way into the bucket: lower 0.5 + 0.5·(1−0.5) = 0.75,
	// under the 0.8 max cap.
	for range 100 {
		h.observe(800 * time.Microsecond)
	}
	if got := h.quantile(0.5); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("p50 = %v, want 0.75", got)
	}
	// p99: rank 99 → 0.5 + 0.99·0.5 = 0.995, capped at the observed 0.8.
	if got := h.quantile(0.99); got != 0.8 {
		t.Errorf("p99 = %v, want capped at max 0.8", got)
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	var h histogram
	// 50 fast (0.3ms → le_500us) and 50 slow (8ms → le_10ms): the median
	// sits exactly at the first bucket's cumulative count, so it resolves
	// inside the first bucket at its upper edge.
	for range 50 {
		h.observe(300 * time.Microsecond)
	}
	for range 50 {
		h.observe(8 * time.Millisecond)
	}
	if got := h.quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5 (upper edge of the first bucket)", got)
	}
	// p90: rank 90 → 40 into the slow bucket of 50 → frac 0.8 of (5, 8],
	// using the observed max as the open upper edge... the slow bucket is
	// (5, 10] with max 8 < 10, so upper stays the bucket bound 10 and the
	// cap keeps the estimate at 8.
	if got := h.quantile(0.9); got > 8.0 || got <= 5.0 {
		t.Errorf("p90 = %v, want in (5, 8]", got)
	}
}

func TestHistogramOpenBucketUsesMax(t *testing.T) {
	var h histogram
	// Beyond the last finite bound (10s): the +Inf bucket interpolates
	// between the last finite bound and the observed maximum, so estimates
	// stay finite and capped at the max.
	h.observe(12 * time.Second)
	h.observe(15 * time.Second)
	if got := h.quantile(0.99); got <= 10000 || got > 15000 {
		t.Errorf("p99 = %v, want in (10000, 15000]", got)
	}
	if got := h.quantile(0.5); got <= 10000 || got > 15000 {
		t.Errorf("p50 = %v, want in (10000, 15000]", got)
	}
	if c := h.json(true).Buckets["le_+inf"]; c != 2 {
		t.Errorf("+inf bucket = %d, want 2", c)
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h histogram
	const writers = 4
	const perWriter = 1000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Readers snapshot while writers record; the race detector checks the
	// lock-free paths.
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				j := h.json(true)
				if j.Max < 0 || j.P99 < 0 {
					t.Error("negative snapshot values")
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				h.observe(time.Duration(w*perWriter+i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := h.count.Load(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	var bucketSum int64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != writers*perWriter {
		t.Errorf("bucket sum = %d, want %d", bucketSum, writers*perWriter)
	}
}

func TestEndpointStatsObserve(t *testing.T) {
	var s endpointStats
	s.observe(time.Millisecond, false, &perm.Result{PeakRows: 10, IndexBuilds: 2, Generated: 40})
	s.observe(2*time.Millisecond, true, nil)
	s.observe(time.Millisecond, false, &perm.Result{PeakRows: 30, IndexBuilds: 1, Generated: 2})
	j := s.json()
	if j.Count != 3 || j.Errors != 1 {
		t.Errorf("count/errors = %d/%d, want 3/1", j.Count, j.Errors)
	}
	if j.PeakRows != 30 {
		t.Errorf("PeakRows = %d, want the maximum 30", j.PeakRows)
	}
	if j.IndexBuilds != 3 {
		t.Errorf("IndexBuilds = %d, want the sum 3", j.IndexBuilds)
	}
	if j.Generated != 42 {
		t.Errorf("Generated = %d, want the sum 42", j.Generated)
	}
}

func TestFormatBucket(t *testing.T) {
	if got := formatBucket(0.5); got != "500us" {
		t.Errorf("formatBucket(0.5) = %q, want 500us", got)
	}
	if got := formatBucket(1); got != "1ms" {
		t.Errorf("formatBucket(1) = %q, want 1ms", got)
	}
	if got := formatBucket(10000); got != "10000ms" {
		t.Errorf("formatBucket(10000) = %q, want 10000ms", got)
	}
}
