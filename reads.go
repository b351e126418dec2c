package bg3

import (
	"time"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/pattern"
	"bg3/internal/replication"
	"bg3/internal/shard"
	"bg3/internal/storage"
)

// reads is the read surface every read-only handle shares: point and
// adjacency reads forward to the graph.Reader, traversals run the one
// graph.KHop / pattern.Match / pattern.FindCycles over it. Snapshot,
// Replica, ReadView and ShardSnapshot embed it; what differs between
// them is only the Reader they hand in (a pinned view, a follower set, a
// cross-shard cut).
type reads struct{ r graph.Reader }

// GetVertex fetches a vertex.
func (s reads) GetVertex(id VertexID, typ VertexType) (Vertex, bool, error) {
	return s.r.GetVertex(id, typ)
}

// GetEdge fetches one edge.
func (s reads) GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error) {
	return s.r.GetEdge(src, typ, dst)
}

// Neighbors streams src's out-neighbors like DB.Neighbors, with the same
// callback-scoped Properties validity.
func (s reads) Neighbors(src VertexID, typ EdgeType, limit int, fn func(VertexID, Properties) bool) error {
	return s.r.Neighbors(src, typ, limit, fn)
}

// Degree returns src's out-degree for the given edge type.
func (s reads) Degree(src VertexID, typ EdgeType) (int, error) {
	return s.r.Degree(src, typ)
}

// KHop expands hops levels of out-neighbors from start, like DB.KHop.
func (s reads) KHop(start VertexID, typ EdgeType, hops, perVertexLimit int) (map[VertexID]struct{}, error) {
	return graph.KHop(s.r, start, typ, hops, perVertexLimit)
}

// MatchPattern finds up to maxMatches embeddings of p anchored at the
// seeds, like DB.MatchPattern.
func (s reads) MatchPattern(p Pattern, seeds []VertexID, maxMatches int) ([][]VertexID, error) {
	return pattern.Match(s.r, p, seeds, maxMatches)
}

// FindCycles returns simple cycles through start of length 2..maxLen,
// like DB.FindCycles.
func (s reads) FindCycles(start VertexID, typ EdgeType, maxLen, maxCycles int) ([][]VertexID, error) {
	return pattern.FindCycles(s.r, start, typ, maxLen, maxCycles)
}

// followers is a graph.Reader over one read-only node per shard, routed
// by the shard router; a DB's Replica is the one-shard case. Each read
// re-fetches the owning node's replica, because a resync (WAL trim,
// failover) replaces it wholesale.
type followers struct {
	router *shard.Router
	ros    []*replication.RONode
}

// openFollowers attaches one follower to each store, bootstrapped from
// the store's latest snapshot when one exists (full WAL replay otherwise).
func openFollowers(router *shard.Router, stores []*storage.Store, o Options) (*followers, error) {
	interval := o.ReplicaPollInterval
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	f := &followers{router: router}
	for _, st := range stores {
		ro, err := replication.NewRONodeFromSnapshot(st, interval, o.ReplicaCacheCapacity)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.ros = append(f.ros, ro)
	}
	return f, nil
}

func (f *followers) stop() {
	for _, ro := range f.ros {
		ro.Stop()
	}
}

// sync drains every shard's WAL so subsequent reads observe everything
// acknowledged so far.
func (f *followers) sync() error {
	for _, ro := range f.ros {
		if err := ro.Poll(); err != nil {
			return err
		}
	}
	return nil
}

func (f *followers) replica(id VertexID) *core.Replica {
	return f.ros[f.router.Owner(id)].Replica()
}

func (f *followers) GetVertex(id VertexID, typ VertexType) (Vertex, bool, error) {
	return f.replica(id).GetVertex(id, typ)
}

func (f *followers) GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error) {
	return f.replica(src).GetEdge(src, typ, dst)
}

func (f *followers) Neighbors(src VertexID, typ EdgeType, limit int, fn func(VertexID, Properties) bool) error {
	return f.replica(src).Neighbors(src, typ, limit, fn)
}

func (f *followers) Degree(src VertexID, typ EdgeType) (int, error) {
	return f.replica(src).Degree(src, typ)
}
