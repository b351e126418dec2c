package metrics

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates the payload of a snapshot Value.
type Kind string

const (
	KindCounter      Kind = "counter"
	KindGauge        Kind = "gauge"
	KindRatio        Kind = "ratio"
	KindHistogram    Kind = "histogram"
	KindIntHistogram Kind = "int_histogram"
)

// Value is one instrument's reading inside a Snapshot. Exactly one of the
// payload fields is meaningful, selected by Kind; the others marshal away.
type Value struct {
	Kind         Kind                  `json:"kind"`
	Value        int64                 `json:"value,omitempty"`
	Ratio        float64               `json:"ratio,omitempty"`
	Histogram    *HistogramSnapshot    `json:"histogram,omitempty"`
	IntHistogram *IntHistogramSnapshot `json:"int_histogram,omitempty"`
}

// Snapshot is a point-in-time reading of every registered instrument,
// keyed by dotted instrument name (e.g. "storage.read_ops").
type Snapshot map[string]Value

// JSON renders the snapshot as stable, indented JSON. Map keys are emitted
// in sorted order by encoding/json, so output is byte-stable for a given
// set of readings.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot as sorted "name value" lines for terminals.
func (s Snapshot) Text() string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		v := s[name]
		switch v.Kind {
		case KindRatio:
			fmt.Fprintf(&b, "%-40s %.4f\n", name, v.Ratio)
		case KindHistogram:
			h := v.Histogram
			fmt.Fprintf(&b, "%-40s n=%d mean=%dus p50=%dus p99=%dus max=%dus\n",
				name, h.Count, h.MeanUS, h.P50US, h.P99US, h.MaxUS)
		case KindIntHistogram:
			h := v.IntHistogram
			fmt.Fprintf(&b, "%-40s n=%d mean=%.2f p50=%d p99=%d max=%d\n",
				name, h.Count, h.Mean, h.P50, h.P99, h.Max)
		default:
			fmt.Fprintf(&b, "%-40s %d\n", name, v.Value)
		}
	}
	return b.String()
}

// Registry is the system-wide instrument directory. Subsystems register
// their counters, gauges and histograms (or probe functions over state they
// already maintain) under dotted names; Snapshot reads everything at once,
// and Fold reads several registries as one.
//
// Registration is cheap and typically happens once at startup; reads of the
// underlying instruments stay lock-free.
type Registry struct {
	mu     sync.RWMutex
	probes map[string]probe
}

// probe is one registered instrument: a histogram by reference, so a fold
// can merge its buckets, anything else by the function that reads it.
type probe struct {
	kind  Kind
	value func() int64   // KindCounter, KindGauge
	ratio func() float64 // KindRatio
	hist  *Histogram     // KindHistogram
	ints  *IntHistogram  // KindIntHistogram
	group *gaugeGroup    // a KindGauge of a GaugesFunc, and
	at    int            // its index in the group's read
}

// gaugeGroup is the one read behind the gauges of a GaugesFunc.
type gaugeGroup struct{ read func() []int64 }

// reading is one pass over probes — a Snapshot, a Fold, a Read — in which
// each gauge group is read once, whatever number of its gauges the pass
// reads. A nil reading reads every group afresh.
type reading map[*gaugeGroup][]int64

// read returns the probe's reading.
func (rd reading) read(p probe) Value {
	switch p.kind {
	case KindRatio:
		return Value{Kind: KindRatio, Ratio: p.ratio()}
	case KindHistogram:
		s := p.hist.Summary()
		return Value{Kind: KindHistogram, Histogram: &s}
	case KindIntHistogram:
		s := p.ints.Summary()
		return Value{Kind: KindIntHistogram, IntHistogram: &s}
	}
	return Value{Kind: p.kind, Value: rd.value(p)}
}

// value returns a counter's or a gauge's reading.
func (rd reading) value(p probe) int64 {
	if p.group == nil {
		return p.value()
	}
	vals, ok := rd[p.group]
	if !ok {
		vals = p.group.read()
		if rd != nil {
			rd[p.group] = vals
		}
	}
	return vals[p.at]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{probes: make(map[string]probe)}
}

// register installs a probe, replacing any previous probe with that name.
func (r *Registry) register(name string, p probe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.probes == nil {
		r.probes = make(map[string]probe)
	}
	r.probes[name] = p
}

// Counter creates, registers and returns a counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, c)
	return c
}

// RegisterCounter adopts an existing counter.
func (r *Registry) RegisterCounter(name string, c *Counter) { r.CounterFunc(name, c.Load) }

// Gauge creates, registers and returns a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, g)
	return g
}

// RegisterGauge adopts an existing gauge.
func (r *Registry) RegisterGauge(name string, g *Gauge) { r.GaugeFunc(name, g.Load) }

// Histogram creates, registers and returns a latency histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, h)
	return h
}

// RegisterHistogram adopts an existing latency histogram.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.register(name, probe{kind: KindHistogram, hist: h})
}

// IntHistogram creates, registers and returns an integer histogram.
func (r *Registry) IntHistogram(name string) *IntHistogram {
	h := &IntHistogram{}
	r.RegisterIntHistogram(name, h)
	return h
}

// RegisterIntHistogram adopts an existing integer histogram.
func (r *Registry) RegisterIntHistogram(name string, h *IntHistogram) {
	r.register(name, probe{kind: KindIntHistogram, ints: h})
}

// CounterFunc registers a counter backed by a read function, for subsystems
// that already maintain their own accounting.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.register(name, probe{kind: KindCounter, value: fn})
}

// GaugeFunc registers a gauge backed by a read function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.register(name, probe{kind: KindGauge, value: fn})
}

// GaugesFunc registers a gauge under each of names, all fed by one call of
// fn, which returns their values in the order of names: state that takes one
// walk to read is walked once per Snapshot or Fold, not once per gauge.
func (r *Registry) GaugesFunc(names []string, fn func() []int64) {
	g := &gaugeGroup{read: fn}
	for i, name := range names {
		r.register(name, probe{kind: KindGauge, group: g, at: i})
	}
}

// RatioFunc registers a derived ratio (hit rates, write amplification)
// backed by a read function.
func (r *Registry) RatioFunc(name string, fn func() float64) {
	r.register(name, probe{kind: KindRatio, ratio: fn})
}

// probesCopy returns the registered probes, read under the lock.
func (r *Registry) probesCopy() map[string]probe {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return maps.Clone(r.probes)
}

// Snapshot reads every registered instrument. Instruments are read without
// a global pause, so the snapshot is per-instrument atomic rather than
// globally consistent — fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	probes := r.probesCopy()
	out := make(Snapshot, len(probes))
	rd := reading{}
	for name, p := range probes {
		out[name] = rd.read(p)
	}
	return out
}

// Read returns the reading of the instrument registered as name, the zero
// Value when there is none.
func (r *Registry) Read(name string) Value {
	r.mu.RLock()
	p, ok := r.probes[name]
	r.mu.RUnlock()
	if !ok {
		return Value{}
	}
	return reading(nil).read(p)
}

// Fold reads regs as one registry: where several register a name, their
// counters and gauges add up and their histograms merge bucket-wise, as if
// every observation had been made on one. A ratio does not add, so Fold
// leaves ratios out; divide the folded counts instead.
func Fold(regs ...*Registry) Snapshot {
	out := make(Snapshot)
	hists := make(map[string]*Histogram)
	ints := make(map[string]*IntHistogram)
	rd := reading{}
	for _, r := range regs {
		for name, p := range r.probesCopy() {
			switch p.kind {
			case KindRatio:
			case KindHistogram:
				if hists[name] == nil {
					hists[name] = new(Histogram)
				}
				hists[name].Merge(p.hist)
			case KindIntHistogram:
				if ints[name] == nil {
					ints[name] = new(IntHistogram)
				}
				ints[name].Merge(p.ints)
			default:
				v := out[name]
				out[name] = Value{Kind: p.kind, Value: v.Value + rd.value(p)}
			}
		}
	}
	for name, h := range hists {
		out[name] = rd.read(probe{kind: KindHistogram, hist: h})
	}
	for name, h := range ints {
		out[name] = rd.read(probe{kind: KindIntHistogram, ints: h})
	}
	return out
}

// Names returns the sorted instrument names currently registered.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.probes))
	for name := range r.probes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
