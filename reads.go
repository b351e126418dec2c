package bg3

import (
	"bg3/internal/graph"
	"bg3/internal/pattern"
)

// reads is the read surface every root handle shares: point and
// adjacency reads forward to the graph.Reader, traversals run the one
// graph.KHop / pattern.Match / pattern.FindCycles over it. Snapshot and
// Replica embed it whole; DB embeds it for latest-state point and adjacency
// reads and overrides the traversals to pin a snapshot first. What differs
// between them is only the Reader they hand in (an engine or the shard
// group, a pinned view or cut, the followers).
type reads struct{ r graph.Reader }

// GetVertex fetches a vertex.
func (s reads) GetVertex(id VertexID, typ VertexType) (Vertex, bool, error) {
	return s.r.GetVertex(id, typ)
}

// GetEdge fetches one edge.
func (s reads) GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error) {
	return s.r.GetEdge(src, typ, dst)
}

// Neighbors streams src's out-neighbors of the given edge type in
// destination order until fn returns false or limit edges are delivered
// (limit <= 0: unlimited). The Properties passed to fn are only valid for
// the duration of the callback; copy values to retain them. Their memory is
// recycled: once the callback returns, the scan's next record, or a later
// read on any goroutine, may decode into it. A callback may read again, Neighbors included: those reads
// decode into memory of their own and leave its Properties intact.
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
