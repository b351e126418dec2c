package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if got := c.Load(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Add(-2)
	if got := c.Load(); got != 3 {
		t.Fatalf("counter after negative add = %d, want 3", got)
	}
	c.Store(0)
	if got := c.Load(); got != 0 {
		t.Fatalf("counter after store = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(10)
	g.Max(5)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Max(20)
	if got := g.Load(); got != 20 {
		t.Fatalf("gauge = %d, want 20", got)
	}
	g.Set(3)
	g.Add(4)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			g.Max(n)
		}(int64(i))
	}
	wg.Wait()
	if got := g.Load(); got != 100 {
		t.Fatalf("gauge = %d, want 100", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should report zeros: %s", h.Snapshot())
	}
}

func TestHistogramMeanAndMax(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.Mean(); got != 200*time.Microsecond {
		t.Fatalf("mean = %v, want 200µs", got)
	}
	if got := h.Max(); got != 300*time.Microsecond {
		t.Fatalf("max = %v, want 300µs", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// p50 of a uniform 1..1000µs distribution should be near 500µs
	// (bucket interpolation makes it approximate).
	if p50 < 250*time.Microsecond || p50 > 750*time.Microsecond {
		t.Fatalf("p50 = %v, want roughly 500µs", p50)
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if got := h.Quantile(-1); got <= 0 {
		t.Fatalf("Quantile(-1) = %v, want > 0", got)
	}
	if got := h.Quantile(2); got <= 0 {
		t.Fatalf("Quantile(2) = %v, want > 0", got)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
	}{
		{"empty", nil},
		{"single-1us", []time.Duration{1 * time.Microsecond}},
		{"single-sub-bucket", []time.Duration{3 * time.Microsecond}},
		{"single-mid-bucket", []time.Duration{60 * time.Microsecond}},
		{"two-samples", []time.Duration{1 * time.Microsecond, 7 * time.Microsecond}},
		{"overflow-bucket", []time.Duration{10 * time.Second}},
		{"mixed-with-overflow", []time.Duration{5 * time.Microsecond, 20 * time.Second}},
	}
	qs := []float64{0.01, 0.5, 0.9, 0.99, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, d := range tc.samples {
				h.Observe(d)
			}
			for _, q := range qs {
				if got := h.Quantile(q); got > h.Max() {
					t.Fatalf("Quantile(%v) = %v exceeds Max() = %v", q, got, h.Max())
				}
			}
		})
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	// The pre-fix interpolation reported p50=10µs for a single 1µs sample
	// (the first bucket's upper bound).
	var h Histogram
	h.Observe(1 * time.Microsecond)
	if got := h.Quantile(0.5); got != 1*time.Microsecond {
		t.Fatalf("p50 of single 1µs sample = %v, want 1µs", got)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Second) // beyond the last bounded bucket (5s)
	if got := h.Quantile(0.99); got != 10*time.Second {
		t.Fatalf("p99 of single overflow sample = %v, want 10s", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	s := h.Summary()
	if s.Count != 2 || s.MeanUS != 200 || s.MaxUS != 300 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50US > s.P99US || s.P99US > s.MaxUS {
		t.Fatalf("summary quantiles not monotone: %+v", s)
	}
}

func TestIntHistogram(t *testing.T) {
	var h IntHistogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatalf("empty int histogram should report zeros")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("p99 = %d, want 2", got)
	}
	if got := h.Max(); got != 2 {
		t.Fatalf("max = %d, want 2", got)
	}
	if got := h.Mean(); got != 1.1 {
		t.Fatalf("mean = %f, want 1.1", got)
	}
}

// TestMergeIsObservingOnOne: a merged histogram summarizes exactly like one
// that saw every observation of its parts.
func TestMergeIsObservingOnOne(t *testing.T) {
	var a, b, all, merged Histogram
	var ia, ib, iall, imerged IntHistogram
	for i := 1; i <= 300; i++ {
		d, v := time.Duration(i*i)*time.Microsecond, int64(i%23)
		all.Observe(d)
		iall.Observe(v)
		if i%3 == 0 {
			a.Observe(d)
			ia.Observe(v)
		} else {
			b.Observe(d)
			ib.Observe(v)
		}
	}
	merged.Merge(&a)
	merged.Merge(&b)
	imerged.Merge(&ia)
	imerged.Merge(&ib)
	if merged.Summary() != all.Summary() || imerged.Summary() != iall.Summary() {
		t.Fatalf("merged %+v %+v, observed on one %+v %+v", merged.Summary(), imerged.Summary(), all.Summary(), iall.Summary())
	}
}

func TestIntHistogramOverflow(t *testing.T) {
	var h IntHistogram
	h.Observe(1000) // far past the exact range
	if got := h.Quantile(0.5); got != 1000 {
		t.Fatalf("p50 of overflow sample = %d, want 1000", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("max = %d, want 1000", got)
	}
	h.Observe(-5) // clamps to zero
	if got := h.Quantile(0.01); got != 0 {
		t.Fatalf("low quantile = %d, want 0", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	c.Add(7)
	g := r.Gauge("test.gauge")
	g.Set(42)
	h := r.Histogram("test.latency")
	h.Observe(100 * time.Microsecond)
	ih := r.IntHistogram("test.fanout")
	ih.Observe(2)
	r.RatioFunc("test.ratio", func() float64 { return 0.5 })
	r.CounterFunc("test.counter_fn", func() int64 { return 11 })
	r.GaugeFunc("test.gauge_fn", func() int64 { return -3 })

	snap := r.Snapshot()
	if v := snap["test.counter"]; v.Kind != KindCounter || v.Value != 7 {
		t.Fatalf("counter value = %+v", v)
	}
	if v := snap["test.gauge"]; v.Kind != KindGauge || v.Value != 42 {
		t.Fatalf("gauge value = %+v", v)
	}
	if v := snap["test.latency"]; v.Kind != KindHistogram || v.Histogram == nil || v.Histogram.Count != 1 {
		t.Fatalf("histogram value = %+v", v)
	}
	if v := snap["test.fanout"]; v.Kind != KindIntHistogram || v.IntHistogram == nil || v.IntHistogram.P50 != 2 {
		t.Fatalf("int histogram value = %+v", v)
	}
	if v := snap["test.ratio"]; v.Kind != KindRatio || v.Ratio != 0.5 {
		t.Fatalf("ratio value = %+v", v)
	}
	if v := snap["test.counter_fn"]; v.Value != 11 {
		t.Fatalf("counter fn value = %+v", v)
	}
	if v := snap["test.gauge_fn"]; v.Value != -3 {
		t.Fatalf("gauge fn value = %+v", v)
	}

	data, err := snap.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded map[string]Value
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(decoded) != len(snap) {
		t.Fatalf("round-trip lost keys: %d != %d", len(decoded), len(snap))
	}

	text := snap.Text()
	for _, name := range r.Names() {
		if !strings.Contains(text, name) {
			t.Fatalf("Text() missing %q:\n%s", name, text)
		}
	}
}

func TestRegistryFaultCounters(t *testing.T) {
	r := NewRegistry()
	var fc FaultCounters
	fc.Register(r)
	fc.FaultsInjected.Inc()
	fc.Retries.Add(3)
	snap := r.Snapshot()
	if v := snap["faults.injected"]; v.Value != 1 {
		t.Fatalf("faults.injected = %+v", v)
	}
	if v := snap["faults.retries"]; v.Value != 3 {
		t.Fatalf("faults.retries = %+v", v)
	}
	if v := snap["faults.recoveries"]; v.Value != 0 {
		t.Fatalf("faults.recoveries = %+v", v)
	}
}
