// Package workload reproduces the three production workloads of Table 1
// at laptop scale: Douyin Follow (99% one-hop reads, 1% edge inserts),
// Financial Risk Control (50/50 read-write with multi-hop reads and TTL
// ingest), and Douyin Recommendation (read-only multi-hop: 70% 1-hop,
// 20% 2-hop, 10% 3-hop). Vertex popularity follows a power-law (Zipf)
// distribution, as the paper's micro-benchmarks do ("we used Douyin
// follow data and simulated realistic access patterns with a power-law
// benchmark").
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/graph"
	"bg3/internal/metrics"
)

// OpKind discriminates generated operations.
type OpKind int

// Operation kinds.
const (
	OpAddEdge OpKind = iota
	OpNeighbors
	OpKHop
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Src  graph.VertexID
	Dst  graph.VertexID
	Type graph.EdgeType
	Hops int
	// Limit bounds result size for read ops.
	Limit int
}

// Generator produces a stream of operations. Implementations must be safe
// to call from a single goroutine per Generator instance; the Runner gives
// each worker its own clone.
type Generator interface {
	// Name identifies the workload in output.
	Name() string
	// Next produces the next operation.
	Next() Op
	// Clone returns an independent generator with the given seed.
	Clone(seed int64) Generator
}

// zipfSource draws power-law-distributed vertex IDs in [0, n).
type zipfSource struct {
	z *rand.Zipf
}

func newZipfSource(rng *rand.Rand, n int, s float64) zipfSource {
	if s <= 1 {
		s = 1.2
	}
	return zipfSource{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

func (z zipfSource) draw() graph.VertexID { return graph.VertexID(z.z.Uint64()) }

// DouyinFollow is the follow-graph serving workload: 99% one-hop neighbor
// queries, 1% single-edge inserts.
type DouyinFollow struct {
	rng      *rand.Rand
	users    int
	zipf     zipfSource
	writePct int // percent of ops that are writes (default 1)
}

// NewDouyinFollow creates the workload over a universe of users.
func NewDouyinFollow(users int, seed int64) *DouyinFollow {
	rng := rand.New(rand.NewSource(seed))
	return &DouyinFollow{rng: rng, users: users, zipf: newZipfSource(rng, users, 1.2), writePct: 1}
}

// Name implements Generator.
func (w *DouyinFollow) Name() string { return "douyin-follow" }

// Clone implements Generator.
func (w *DouyinFollow) Clone(seed int64) Generator {
	c := NewDouyinFollow(w.users, seed)
	c.writePct = w.writePct
	return c
}

// Next implements Generator.
func (w *DouyinFollow) Next() Op {
	if w.rng.Intn(100) < w.writePct {
		return Op{Kind: OpAddEdge, Src: w.zipf.draw(), Dst: graph.VertexID(w.rng.Intn(w.users)), Type: graph.ETypeFollow}
	}
	return Op{Kind: OpNeighbors, Src: w.zipf.draw(), Type: graph.ETypeFollow, Limit: 128}
}

// RiskControl is the financial risk-control workload: a strict 1:1 mix of
// transfer-edge inserts and bounded multi-hop reads (5–10 hops, ~100
// edges), over a TTL-managed graph.
type RiskControl struct {
	rng      *rand.Rand
	accounts int
	zipf     zipfSource
	flip     bool
}

// NewRiskControl creates the workload over a universe of accounts.
func NewRiskControl(accounts int, seed int64) *RiskControl {
	rng := rand.New(rand.NewSource(seed))
	return &RiskControl{rng: rng, accounts: accounts, zipf: newZipfSource(rng, accounts, 1.2)}
}

// Name implements Generator.
func (w *RiskControl) Name() string { return "financial-risk-control" }

// Clone implements Generator.
func (w *RiskControl) Clone(seed int64) Generator { return NewRiskControl(w.accounts, seed) }

// Next implements Generator: alternate write and read for the strict 1:1
// ratio of Table 1.
func (w *RiskControl) Next() Op {
	w.flip = !w.flip
	if w.flip {
		return Op{Kind: OpAddEdge, Src: w.zipf.draw(), Dst: graph.VertexID(w.rng.Intn(w.accounts)), Type: graph.ETypeTransfer}
	}
	return Op{
		Kind: OpKHop, Src: w.zipf.draw(), Type: graph.ETypeTransfer,
		Hops: 5 + w.rng.Intn(6), Limit: 100,
	}
}

// Recommendation is the read-only multi-hop workload: 70% 1-hop, 20%
// 2-hop, 10% 3-hop neighbor queries.
type Recommendation struct {
	rng   *rand.Rand
	users int
	zipf  zipfSource
}

// NewRecommendation creates the workload over a universe of users.
func NewRecommendation(users int, seed int64) *Recommendation {
	rng := rand.New(rand.NewSource(seed))
	return &Recommendation{rng: rng, users: users, zipf: newZipfSource(rng, users, 1.2)}
}

// Name implements Generator.
func (w *Recommendation) Name() string { return "douyin-recommendation" }

// Clone implements Generator.
func (w *Recommendation) Clone(seed int64) Generator { return NewRecommendation(w.users, seed) }

// Next implements Generator.
func (w *Recommendation) Next() Op {
	hops := 1
	switch p := w.rng.Intn(100); {
	case p < 70:
		hops = 1
	case p < 90:
		hops = 2
	default:
		hops = 3
	}
	return Op{Kind: OpKHop, Src: w.zipf.draw(), Type: graph.ETypeFollow, Hops: hops, Limit: 32}
}

// PreloadSpec describes the initial graph built before measurement.
type PreloadSpec struct {
	Vertices int
	Edges    int
	Type     graph.EdgeType
	ZipfS    float64 // skew of source popularity (default 1.2)
	Seed     int64
}

// Preload populates store with a power-law graph.
func Preload(store graph.Store, spec PreloadSpec) error {
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := newZipfSource(rng, spec.Vertices, spec.ZipfS)
	ts := make([]byte, 8)
	for i := 0; i < spec.Edges; i++ {
		src := zipf.draw()
		dst := graph.VertexID(rng.Intn(spec.Vertices))
		if err := store.AddEdge(graph.Edge{
			Src: src, Dst: dst, Type: spec.Type,
			Props: graph.Properties{{Name: "ts", Value: ts}},
		}); err != nil {
			return fmt.Errorf("workload: preload edge %d: %w", i, err)
		}
	}
	return nil
}

// Result summarizes one workload run.
type Result struct {
	Workload   string
	Ops        int64
	Errors     int64
	Duration   time.Duration
	Throughput float64 // ops per second
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// Apply executes one operation against a store.
func Apply(store graph.Store, op Op) error {
	switch op.Kind {
	case OpAddEdge:
		return store.AddEdge(graph.Edge{Src: op.Src, Dst: op.Dst, Type: op.Type,
			Props: graph.Properties{{Name: "ts", Value: []byte{0, 0, 0, 0}}}})
	case OpNeighbors:
		return store.Neighbors(op.Src, op.Type, op.Limit, func(graph.VertexID, graph.Properties) bool { return true })
	case OpKHop:
		// Limit acts as the total neighborhood budget; per-vertex fan-out
		// stays bounded so deep probes touch a thin path, not the graph.
		_, err := graph.KHopBudget(store, op.Src, op.Type, op.Hops, 16, op.Limit)
		return err
	default:
		return fmt.Errorf("workload: unknown op kind %d", op.Kind)
	}
}

// Run drives the workload with `workers` concurrent clients, each issuing
// opsPerWorker operations, and reports aggregate throughput.
func Run(store graph.Store, gen Generator, workers, opsPerWorker int, seed int64) Result {
	var wg sync.WaitGroup
	var errs atomic.Int64
	var hist metrics.Histogram
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gen.Clone(seed + int64(w))
			for i := 0; i < opsPerWorker; i++ {
				opStart := time.Now()
				if err := Apply(store, g.Next()); err != nil {
					errs.Add(1)
				}
				hist.Observe(time.Since(opStart))
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	total := int64(workers) * int64(opsPerWorker)
	return Result{
		Workload:   gen.Name(),
		Ops:        total,
		Errors:     errs.Load(),
		Duration:   d,
		Throughput: float64(total) / d.Seconds(),
		LatencyP50: hist.Quantile(0.50),
		LatencyP99: hist.Quantile(0.99),
	}
}

// RunFor drives the workload for a fixed duration instead of a fixed op
// count, returning the measured throughput.
func RunFor(store graph.Store, gen Generator, workers int, d time.Duration, seed int64) Result {
	var wg sync.WaitGroup
	var ops, errs atomic.Int64
	var hist metrics.Histogram
	deadline := time.Now().Add(d)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gen.Clone(seed + int64(w))
			for time.Now().Before(deadline) {
				opStart := time.Now()
				if err := Apply(store, g.Next()); err != nil {
					errs.Add(1)
				}
				hist.Observe(time.Since(opStart))
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return Result{
		Workload:   gen.Name(),
		Ops:        ops.Load(),
		Errors:     errs.Load(),
		Duration:   elapsed,
		Throughput: float64(ops.Load()) / elapsed.Seconds(),
		LatencyP50: hist.Quantile(0.50),
		LatencyP99: hist.Quantile(0.99),
	}
}

// PreloadParallel populates store with a power-law graph using concurrent
// loaders — needed when the store simulates per-operation I/O latency, so
// load time reflects pipelined ingestion rather than serial round trips.
func PreloadParallel(store graph.Store, spec PreloadSpec, workers int) error {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var firstErr atomic.Value
	per := spec.Edges / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.Seed + int64(w)))
			zipf := newZipfSource(rng, spec.Vertices, spec.ZipfS)
			ts := make([]byte, 8)
			for i := 0; i < per; i++ {
				src := zipf.draw()
				dst := graph.VertexID(rng.Intn(spec.Vertices))
				if err := store.AddEdge(graph.Edge{
					Src: src, Dst: dst, Type: spec.Type,
					Props: graph.Properties{{Name: "ts", Value: ts}},
				}); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}
