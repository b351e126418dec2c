package main

import (
	"bg3"
	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

// api is what a client calls. The root handles implement it directly; the
// trace's lower rungs are adapters that enter the stack further down.
type api interface {
	AddEdge(bg3.Edge) error
	ApplyBatch([]bg3.Mutation) error
	GetEdge(src bg3.VertexID, typ bg3.EdgeType, dst bg3.VertexID) (bg3.Edge, bool, error)
	Neighbors(src bg3.VertexID, typ bg3.EdgeType, limit int, fn func(bg3.VertexID, bg3.Properties) bool) error
	Degree(src bg3.VertexID, typ bg3.EdgeType) (int, error)
	KHop(start bg3.VertexID, typ bg3.EdgeType, hops, perVertexLimit int) (map[bg3.VertexID]struct{}, error)
	RunGC(batch int) (int64, error)
}

// stack is one opened deployment and every handle into it the harness can
// reach from outside.
type stack struct {
	api   api
	db    *bg3.DB        // unsharded root API
	sdb   *bg3.ShardedDB // sharded root API
	eng   *core.Engine   // engine-level instance (trace rungs below the root)
	close func()
}

// shardedRoot adds the one call ShardedDB lacks.
type shardedRoot struct{ *bg3.ShardedDB }

func (s shardedRoot) RunGC(batch int) (int64, error) {
	var total int64
	g := s.Group()
	for i := 0; i < g.Shards(); i++ {
		n, err := g.Leader(i).Engine().RunGC(batch)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// openRoot opens the deployment the workload names, through the root API.
func openRoot(sp *spec, o bg3.Options) (*stack, error) {
	if sp.sharded {
		sdb, err := bg3.OpenSharded(&o)
		if err != nil {
			return nil, err
		}
		return &stack{api: shardedRoot{sdb}, sdb: sdb, close: sdb.Close}, nil
	}
	db, err := bg3.Open(&o)
	if err != nil {
		return nil, err
	}
	return &stack{api: db, db: db, close: db.Close}, nil
}

// openEngine builds the engine bg3.Open would build for o, directly, so
// the trace can enter below the root API of an unsharded stack. It mirrors
// Options.coreOptions for the fields the workloads set.
func openEngine(o bg3.Options) (*stack, error) {
	blockMin := o.EdgeBlockThreshold
	if blockMin == 0 {
		blockMin = 1024
	}
	eng, err := core.New(core.Options{
		Storage: &storage.Options{ExtentSize: o.ExtentSize},
		Tree: bwtree.Config{
			ConsolidateNum:      o.ConsolidateNum,
			MaxPageEntries:      o.MaxPageEntries,
			CacheCapacity:       o.CacheCapacity,
			CacheShards:         o.CacheShards,
			EdgeBlockMinEntries: blockMin,
		},
		SplitThreshold: o.ForestSplitThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &stack{api: engineRung{eng}, eng: eng, close: eng.Close}, nil
}

// engines lists the engines reachable from outside: every shard leader's,
// or the directly built one. The unsharded root API exposes none.
func (s *stack) engines() []*core.Engine {
	switch {
	case s.sdb != nil:
		g := s.sdb.Group()
		out := make([]*core.Engine, g.Shards())
		for i := range out {
			out[i] = g.Leader(i).Engine()
		}
		return out
	case s.eng != nil:
		return []*core.Engine{s.eng}
	}
	return nil
}

func (s *stack) registries() []*metrics.Registry {
	switch {
	case s.sdb != nil:
		regs := []*metrics.Registry{s.sdb.Metrics()}
		for _, e := range s.engines() {
			regs = append(regs, e.Metrics())
		}
		return regs
	case s.db != nil:
		return []*metrics.Registry{s.db.Metrics()}
	}
	return []*metrics.Registry{s.eng.Metrics()}
}

// counters is the sum over every registry of the stack of each counter and
// gauge, plus count-weighted histogram summaries.
type counters struct {
	v    map[string]float64
	hist map[string]metrics.HistogramSnapshot
	ints map[string]metrics.IntHistogramSnapshot
}

func (s *stack) counters() counters {
	c := counters{v: map[string]float64{}, hist: map[string]metrics.HistogramSnapshot{}, ints: map[string]metrics.IntHistogramSnapshot{}}
	for _, reg := range s.registries() {
		for name, val := range reg.Snapshot() {
			switch val.Kind {
			case metrics.KindHistogram:
				h, n := c.hist[name], val.Histogram
				if tot := h.Count + n.Count; tot > 0 {
					h.P50US = (h.P50US*h.Count + n.P50US*n.Count) / tot
					h.MeanUS = (h.MeanUS*h.Count + n.MeanUS*n.Count) / tot
					h.P99US = max(h.P99US, n.P99US)
					h.Count = tot
				}
				c.hist[name] = h
			case metrics.KindIntHistogram:
				h, n := c.ints[name], val.IntHistogram
				if tot := h.Count + n.Count; tot > 0 {
					h.Mean = (h.Mean*float64(h.Count) + n.Mean*float64(n.Count)) / float64(tot)
					h.P99 = max(h.P99, n.P99)
					h.Count = tot
				}
				c.ints[name] = h
			case metrics.KindRatio:
				c.v[name] += val.Ratio
			default:
				c.v[name] += float64(val.Value)
			}
		}
	}
	// Not in any registry: the reclaimers' block-pinned count, and the
	// per-tree structure counters (only where an engine is reachable).
	if s.db != nil {
		c.v["gc.block_pinned"] = float64(s.db.Stats().GC.BlockPinned)
	}
	for _, e := range s.engines() {
		c.v["gc.block_pinned"] += float64(e.GCStats().BlockPinned)
		e.Forest().Trees(func(t *bwtree.Tree) bool {
			ts := t.Stats()
			c.v["bwtree.consolidations"] += float64(ts.Consolidations)
			c.v["bwtree.splits"] += float64(ts.Splits)
			return true
		})
	}
	if s.sdb != nil {
		g := s.sdb.Group()
		for i := 0; i < g.Shards(); i++ {
			for _, u := range g.Store(i).Usage(storage.StreamWAL) {
				c.v["wal.bytes"] += float64(u.ValidBytes)
			}
		}
	}
	return c
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 { return after.v[name] - before.v[name] }

// Rungs: the same api entered one layer further down each time. A rung
// embeds the rung above it, so a call with no lower entry point (a
// two-shard batch below the group, GC below the engine) stays where it was.

// groupRung enters at shard.Group, below the ShardedDB forwarder.
type groupRung struct{ shardedRoot }

func (r groupRung) AddEdge(e bg3.Edge) error          { return r.Group().AddEdge(e) }
func (r groupRung) ApplyBatch(m []bg3.Mutation) error { return r.Group().ApplyBatch(m) }
func (r groupRung) GetEdge(src bg3.VertexID, typ bg3.EdgeType, dst bg3.VertexID) (bg3.Edge, bool, error) {
	return r.Group().GetEdge(src, typ, dst)
}

// leaderRung enters at the owning shard's replication.RWNode.
type leaderRung struct{ groupRung }

func (r leaderRung) leader(src bg3.VertexID) *replication.RWNode {
	g := r.Group()
	return g.Leader(g.Router().Owner(src))
}
func (r leaderRung) AddEdge(e bg3.Edge) error { return r.leader(e.Src).AddEdge(e) }
func (r leaderRung) GetEdge(src bg3.VertexID, typ bg3.EdgeType, dst bg3.VertexID) (bg3.Edge, bool, error) {
	return r.leader(src).GetEdge(src, typ, dst)
}

// shardEngineRung enters at the owning shard's core.Engine, below the RW
// node's apply barrier.
type shardEngineRung struct{ leaderRung }

func (r shardEngineRung) AddEdge(e bg3.Edge) error { return r.leader(e.Src).Engine().AddEdge(e) }
func (r shardEngineRung) GetEdge(src bg3.VertexID, typ bg3.EdgeType, dst bg3.VertexID) (bg3.Edge, bool, error) {
	return r.leader(src).Engine().GetEdge(src, typ, dst)
}

// engineRung enters an unsharded stack at core.Engine.
type engineRung struct{ *core.Engine }

func (r engineRung) KHop(start bg3.VertexID, typ bg3.EdgeType, hops, limit int) (map[bg3.VertexID]struct{}, error) {
	v := r.View()
	defer v.Close()
	return graph.KHop(v, start, typ, hops, limit)
}

// preparer is implemented by a rung that wants an edge's arguments built
// before the span starts, because building them is the rung above's work.
type preparer interface{ prepare(e bg3.Edge) }

// forestRung enters at forest.Forest with raw keys and values: no property
// encode or decode, no snapshot pin. The embedded api is the engine-level
// rung of the same stack.
type forestRung struct {
	api
	pick func(src bg3.VertexID) *forest.Forest

	f        *forest.Forest
	key, val []byte
}

func (r *forestRung) prepare(e bg3.Edge) {
	r.f, r.key, r.val = r.pick(e.Src), graph.EdgeKey(e.Type, e.Dst), graph.EncodeProps(e.Props)
}

func (r *forestRung) AddEdge(e bg3.Edge) error { return r.f.Put(forest.OwnerID(e.Src), r.key, r.val) }

func (r *forestRung) GetEdge(src bg3.VertexID, typ bg3.EdgeType, dst bg3.VertexID) (bg3.Edge, bool, error) {
	_, ok, err := r.pick(src).Get(forest.OwnerID(src), graph.EdgeKey(typ, dst))
	return bg3.Edge{Src: src, Dst: dst, Type: typ}, ok, err
}

func (r *forestRung) Neighbors(src bg3.VertexID, typ bg3.EdgeType, limit int, fn func(bg3.VertexID, bg3.Properties) bool) error {
	lo, hi := graph.EdgeTypeBounds(typ)
	return r.pick(src).Scan(forest.OwnerID(src), lo, hi, limit, func(k, _ []byte) bool {
		_, dst, err := graph.DecodeEdgeKey(k)
		if err != nil {
			return true
		}
		return fn(dst, nil)
	})
}

func (r *forestRung) Degree(src bg3.VertexID, typ bg3.EdgeType) (int, error) {
	n := 0
	err := r.Neighbors(src, typ, 0, func(bg3.VertexID, bg3.Properties) bool { n++; return true })
	return n, err
}

func (r *forestRung) KHop(start bg3.VertexID, typ bg3.EdgeType, hops, limit int) (map[bg3.VertexID]struct{}, error) {
	return graph.KHop(r, start, typ, hops, limit)
}

func (r *forestRung) GetVertex(bg3.VertexID, bg3.VertexType) (bg3.Vertex, bool, error) {
	return bg3.Vertex{}, false, nil
}
