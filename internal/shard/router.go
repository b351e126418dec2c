// Package shard partitions the vertex space across N shard groups, each
// with its own WAL stream, group committer, MVCC epoch clock, and
// leader/follower set (BG3 §3.1 multi-RW deployments). A Router maps
// every vertex to exactly one shard; a Group owns the per-shard leaders
// and stores, fans batched writes out as per-shard commit groups and
// fails shards over one at a time; a Snapshot pins one released read
// epoch per shard (a consistent cut) that every graph.Reader traversal
// runs over. There is no sharded traversal: the routed reader under Group
// and Snapshot implements graph.FrontierReader, so each hop of the one
// graph.KHop splits its frontier by owner, reads the touched shards in
// parallel (perVertexLimit pushed down into each shard's batched read) and
// merges — scatter-gather is a property of the reader.
package shard

import (
	"slices"
	"sync"

	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/metrics"
)

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64 / φ, odd).
// Router is the only vertex → shard hash: shard groups and the Fig. 8
// simulation cluster (internal/cluster) both route through it.
const fibMul = 0x9E3779B97F4A7C15

// Router maps vertices to shards by Fibonacci hashing. Routing is total
// (every VertexID has exactly one owner) and stable (a pure function of
// the ID and the shard count). The zero value routes everything to shard
// 0; use NewRouter.
type Router struct {
	n int

	// Scatter accounting of the routed readers over this router: frontier
	// reads split by owner, and the per-shard reads they issued.
	scatterHops metrics.Counter
	shardReads  metrics.Counter
}

// NewRouter returns a router over n shards (n < 1 is clamped to 1).
func NewRouter(n int) *Router {
	if n < 1 {
		n = 1
	}
	return &Router{n: n}
}

// Shards returns the shard count.
func (r *Router) Shards() int {
	if r.n < 1 {
		return 1
	}
	return r.n
}

// Owner returns the shard owning id.
func (r *Router) Owner(id graph.VertexID) int {
	return int((uint64(id) * fibMul) % uint64(r.Shards()))
}

// routed is graph.Reader over a sharded vertex space: every read runs on
// the reader of the shard owning the vertex it is keyed by (an edge lives
// with its source). at is consulted per read, so a reader replaced behind
// it — a promoted leader, a resynced follower — is picked up at once.
type routed struct {
	router *Router
	at     func(shard int) graph.Reader
}

// Reader returns the owner-routed graph.Reader over one reader per shard.
func (r *Router) Reader(at func(shard int) graph.Reader) graph.Reader { return routed{r, at} }

func (r routed) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	return r.at(r.router.Owner(id)).GetVertex(id, typ)
}

func (r routed) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	return r.at(r.router.Owner(src)).GetEdge(src, typ, dst)
}

// Neighbors keeps the shard reader's callback-scoped Properties validity.
func (r routed) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	return r.at(r.router.Owner(src)).Neighbors(src, typ, limit, fn)
}

func (r routed) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	return r.at(r.router.Owner(src)).Degree(src, typ)
}

// NeighborsMany implements graph.FrontierReader — the scatter-gather hop.
// The frontier is split by owner and every touched shard expands its part
// through its own reader's batched read (graph.NeighborsMany), in parallel
// when more than one shard is touched; the per-shard edge lists are then
// handed to fn shard by shard. A frontier on one shard streams straight
// through. The parts and edge lists are pooled scratch.
func (r routed) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	r.router.scatterHops.Inc()
	sc := scatterPool.Get().(*scatter)
	defer sc.release()
	sc.parts = r.router.SplitFrontier(srcs, sc.parts)
	touched, last := 0, 0
	for i, part := range sc.parts {
		if len(part) > 0 {
			touched, last = touched+1, i
		}
	}
	r.router.shardReads.Add(int64(touched))
	if touched == 1 {
		return graph.NeighborsMany(r.at(last), sc.parts[last], typ, limit, fn)
	}
	sc.results = slices.Grow(sc.results[:0], len(sc.parts))[:len(sc.parts)]
	var wg sync.WaitGroup
	for i, part := range sc.parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(res *shardEdges, reader graph.Reader, part []graph.VertexID) {
			defer wg.Done()
			res.err = graph.NeighborsMany(reader, part, typ, limit, func(src, dst graph.VertexID) bool {
				res.edges = append(res.edges, [2]graph.VertexID{src, dst})
				return true
			})
		}(&sc.results[i], r.at(i), part)
	}
	wg.Wait()
	for _, res := range sc.results {
		if res.err != nil {
			return res.err
		}
		for _, e := range res.edges {
			if !fn(e[0], e[1]) {
				return nil
			}
		}
	}
	return nil
}

// scatter is one scatter hop's scratch: the frontier split by owner and
// each shard's gathered edges, kept across hops in scatterPool. It holds
// vertex IDs only; release drops the errors and keeps the capacity.
type scatter struct {
	parts   [][]graph.VertexID
	results []shardEdges
}

type shardEdges struct {
	edges [][2]graph.VertexID // src, dst
	err   error
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

func (sc *scatter) release() {
	for i := range sc.results {
		sc.results[i] = shardEdges{edges: sc.results[i].edges[:0]}
	}
	scatterPool.Put(sc)
}

// SplitBatch splits a batch's writes (core.Encode) into per-shard parts by
// the shard owning each write's owner — an edge is written under its source,
// so it lives with that vertex — index-aligned with the shard order; shards
// the batch does not touch get a nil part. Relative order within each part is
// the input order, and the concatenation of the parts is a permutation of the
// input: no write is duplicated or dropped (the router property test pins
// this down). A batch that touches one shard is passed through as it is.
// Group.ApplyBatch commits the parts as one group-commit on a single shard,
// or as one 2PC transaction over several (txn.go): all or nothing.
func (r *Router) SplitBatch(ws []forest.Write) [][]forest.Write {
	parts := make([][]forest.Write, r.Shards())
	if len(ws) == 0 {
		return parts
	}
	first := r.Owner(graph.VertexID(ws[0].Owner))
	single := true
	for _, w := range ws[1:] {
		if r.Owner(graph.VertexID(w.Owner)) != first {
			single = false
			break
		}
	}
	if single {
		parts[first] = ws
		return parts
	}
	for _, w := range ws {
		s := r.Owner(graph.VertexID(w.Owner))
		parts[s] = append(parts[s], w)
	}
	return parts
}

// Coordinator elects the coordinator shard for a split batch: the
// lowest-index touched shard. The election is deterministic — any node
// replaying the same split picks the same coordinator — and the
// coordinator is always a participant, so its commit decision rides the
// same stream as its own part.
func (r *Router) Coordinator(parts [][]forest.Write) int {
	for i, part := range parts {
		if len(part) > 0 {
			return i
		}
	}
	return 0
}

// SplitFrontier groups a traversal frontier by owning shard, preserving
// the input order within each group — the scatter half of one hop. It
// fills parts, reusing its groups' storage (nil: allocate), and returns
// it with one group per shard, empty where the frontier has no vertex.
func (r *Router) SplitFrontier(ids []graph.VertexID, parts [][]graph.VertexID) [][]graph.VertexID {
	parts = slices.Grow(parts[:0], r.Shards())[:r.Shards()]
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for _, id := range ids {
		s := r.Owner(id)
		parts[s] = append(parts[s], id)
	}
	return parts
}
