// Package metrics provides lightweight, allocation-free instrumentation
// primitives shared by every BG3 subsystem: atomic counters and fixed-bucket
// latency histograms.
//
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. Negative n is permitted so that callers can
// account for reclaimed resources, but most counters only grow.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store overwrites the value. Intended for test setup and resets.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Gauge is a settable atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max updates the gauge to n if n is larger than the current value.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// numHistBuckets is len(histBuckets); kept as a constant so the bucket
// array can live inline in the Histogram struct.
const numHistBuckets = 18

// histBuckets are the upper bounds, in microseconds, of the latency
// histogram buckets. The last bucket is unbounded.
var histBuckets = [numHistBuckets]int64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
}

// Histogram records durations into fixed logarithmic buckets and supports
// approximate quantile queries. The zero value is ready to use.
type Histogram struct {
	buckets [numHistBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	max     Gauge
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	idx := sort.Search(len(histBuckets), func(i int) bool { return us <= histBuckets[i] })
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	h.max.Max(us)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load()) * time.Microsecond
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1) using
// linear interpolation inside the winning bucket. The result never exceeds
// Max: interpolating to a bucket's upper bound would otherwise report
// values larger than anything observed (a single 1µs sample must not read
// as p50=10µs).
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if cum+c >= target {
			lo := int64(0)
			if i > 0 {
				lo = histBuckets[i-1]
			}
			hi := h.max.Load()
			if i < len(histBuckets) {
				hi = histBuckets[i]
			}
			v := float64(hi)
			if c > 0 {
				frac := float64(target-cum) / float64(c)
				v = float64(lo) + frac*float64(hi-lo)
			}
			if mx := h.max.Load(); v > float64(mx) {
				v = float64(mx)
			}
			return time.Duration(v) * time.Microsecond
		}
		cum += c
	}
	return h.Max()
}

// Merge adds o's observations to h, as if each had been observed on h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.max.Max(o.max.Load())
}

// Snapshot returns a human-readable one-line summary.
func (h *Histogram) Snapshot() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}

// HistogramSnapshot is the JSON-stable summary of a latency histogram, in
// microseconds.
type HistogramSnapshot struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// Summary returns the histogram's JSON-stable summary.
func (h *Histogram) Summary() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
		MaxUS:  h.Max().Microseconds(),
	}
}

// intHistCap is the largest exactly-tracked IntHistogram value; larger
// observations land in a shared overflow bucket.
const intHistCap = 16

// IntHistogram records small non-negative integer values (per-read storage
// fan-out, batch sizes) into exact buckets 0..intHistCap plus one overflow
// bucket. Quantiles are exact within the tracked range; the overflow bucket
// reports the observed maximum. The zero value is ready to use.
type IntHistogram struct {
	buckets [intHistCap + 2]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

// Observe records one value (negative values clamp to zero).
func (h *IntHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := v
	if idx > intHistCap {
		idx = intHistCap + 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.Max(v)
}

// Merge adds o's observations to h, as if each had been observed on h.
func (h *IntHistogram) Merge(o *IntHistogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.max.Max(o.max.Load())
}

// Count returns the number of observations.
func (h *IntHistogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed value.
func (h *IntHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observed value.
func (h *IntHistogram) Max() int64 { return h.max.Load() }

// Quantile returns the q-quantile (0 < q <= 1); exact for values within
// the tracked range, the observed maximum for overflow observations.
func (h *IntHistogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i > intHistCap {
				return h.max.Load()
			}
			return int64(i)
		}
	}
	return h.max.Load()
}

// IntHistogramSnapshot is the JSON-stable summary of an IntHistogram.
type IntHistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summary returns the histogram's JSON-stable summary.
func (h *IntHistogram) Summary() IntHistogramSnapshot {
	return IntHistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// FaultCounters aggregates the fault-injection and resilience accounting
// shared across subsystems: faults injected by the storage fault plan,
// bounded retries spent by the WAL and flush paths absorbing them, and
// successful recoveries (crash recovery, follower resync).
type FaultCounters struct {
	FaultsInjected Counter
	Retries        Counter
	Recoveries     Counter
}

// Snapshot returns a one-line summary.
func (c *FaultCounters) Snapshot() string {
	return fmt.Sprintf("faults_injected=%d retries=%d recoveries=%d",
		c.FaultsInjected.Load(), c.Retries.Load(), c.Recoveries.Load())
}

// Faults is the process-wide fault accounting instance. Counters are
// monotonic, so concurrent tests sharing it stay correct.
var Faults FaultCounters
