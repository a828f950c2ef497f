package service

import (
	"math"
	"sync/atomic"
	"time"

	"perm"
)

// latencyBucketsMS are the histogram upper bounds, in milliseconds. The
// final implicit bucket is +Inf.
var latencyBucketsMS = [numBuckets - 1]float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// numBuckets is len(latencyBucketsMS) plus the open-ended +Inf bucket.
const numBuckets = 15

// histogram is a fixed-bucket latency histogram with lock-free recording.
type histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64 // total microseconds
	maxUS  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	us := d.Microseconds()
	h.sumUS.Add(us)
	for {
		old := h.maxUS.Load()
		if us <= old || h.maxUS.CompareAndSwap(old, us) {
			break
		}
	}
}

// quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// interpolating linearly within the winning bucket. The open-ended last
// bucket reports the observed maximum.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	maxMS := float64(h.maxUS.Load()) / 1000
	var cum int64
	lower := 0.0
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			if i < len(latencyBucketsMS) {
				lower = latencyBucketsMS[i]
			}
			continue
		}
		if float64(cum)+float64(c) >= rank {
			upper := maxMS
			if i < len(latencyBucketsMS) {
				upper = latencyBucketsMS[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			// The estimate interpolates within the bucket; the observed
			// maximum is a hard upper bound on any quantile.
			return math.Min(lower+frac*(upper-lower), maxMS)
		}
		cum += c
		if i < len(latencyBucketsMS) {
			lower = latencyBucketsMS[i]
		}
	}
	return maxMS
}

func (h *histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUS.Load()) / float64(n) / 1000
}

// LatencyJSON is the serialized view of one histogram (milliseconds).
type LatencyJSON struct {
	P50     float64          `json:"p50_ms"`
	P90     float64          `json:"p90_ms"`
	P99     float64          `json:"p99_ms"`
	Max     float64          `json:"max_ms"`
	Mean    float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histogram) json(withBuckets bool) LatencyJSON {
	out := LatencyJSON{
		P50:  round3(h.quantile(0.50)),
		P90:  round3(h.quantile(0.90)),
		P99:  round3(h.quantile(0.99)),
		Max:  round3(float64(h.maxUS.Load()) / 1000),
		Mean: round3(h.mean()),
	}
	if withBuckets {
		out.Buckets = map[string]int64{}
		for i := range h.counts {
			if c := h.counts[i].Load(); c > 0 {
				label := "+inf"
				if i < len(latencyBucketsMS) {
					label = formatBucket(latencyBucketsMS[i])
				}
				out.Buckets["le_"+label] = c
			}
		}
	}
	return out
}

func formatBucket(ms float64) string {
	if ms == math.Trunc(ms) {
		return itoa(int64(ms)) + "ms"
	}
	return itoa(int64(ms*1000)) + "us"
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// endpointStats aggregates one endpoint's counters.
type endpointStats struct {
	count       atomic.Int64
	errors      atomic.Int64
	inFlight    atomic.Int64
	peakRows    atomic.Int64 // max Result.PeakRows observed
	indexBuilds atomic.Int64 // sum of Result.IndexBuilds
	generated   atomic.Int64 // sum of Result.Generated
	hist        histogram
}

// EndpointJSON is the serialized view of one endpoint's stats.
type EndpointJSON struct {
	Count    int64 `json:"count"`
	Errors   int64 `json:"errors"`
	InFlight int64 `json:"in_flight"`
	PeakRows int64 `json:"peak_rows_max,omitempty"`
	// IndexBuilds sums the correlated-selection indexes the endpoint's
	// statements built. An index over a base table outlives the statement,
	// so a repeated query leaves it flat.
	IndexBuilds int64 `json:"index_builds"`
	// Generated sums the input rows the endpoint's statements answered by
	// generating Gen's CrossBase witnesses instead of enumerating them.
	Generated int64       `json:"generated"`
	Latency   LatencyJSON `json:"latency"`
}

func (s *endpointStats) json() EndpointJSON {
	return EndpointJSON{
		Count:       s.count.Load(),
		Errors:      s.errors.Load(),
		InFlight:    s.inFlight.Load(),
		PeakRows:    s.peakRows.Load(),
		IndexBuilds: s.indexBuilds.Load(),
		Generated:   s.generated.Load(),
		Latency:     s.hist.json(true),
	}
}

// observe records one finished request and the executor counters of its
// result, nil for a request that failed or returned none.
func (s *endpointStats) observe(d time.Duration, failed bool, res *perm.Result) {
	s.count.Add(1)
	if failed {
		s.errors.Add(1)
	}
	s.hist.observe(d)
	if res == nil {
		return
	}
	s.indexBuilds.Add(res.IndexBuilds)
	s.generated.Add(res.Generated)
	for {
		old := s.peakRows.Load()
		if res.PeakRows <= old || s.peakRows.CompareAndSwap(old, res.PeakRows) {
			break
		}
	}
}
