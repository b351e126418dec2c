// Package cluster simulates BG3's multi-node deployment for the Fig. 8
// scaling experiments: write requests are distributed across nodes by
// hashing the source vertex (the paper's "distribute write requests across
// distinct RW nodes using hashing"), and each node's compute is modelled
// as a bounded worker pool standing in for its vCPU allocation.
package cluster

import (
	"bg3/internal/graph"
	"bg3/internal/shard"
)

// Cluster shards a graph across member stores by source-vertex hash. It
// implements graph.Store, so workloads run unchanged against 1..N nodes.
type Cluster struct {
	nodes  []graph.Store
	router *shard.Router
}

// New builds a cluster over the given member stores.
func New(nodes ...graph.Store) *Cluster {
	if len(nodes) == 0 {
		panic("cluster: need at least one node")
	}
	return &Cluster{nodes: nodes, router: shard.NewRouter(len(nodes))}
}

// route picks the node owning a vertex — the same Fibonacci-hash router
// the sharded engine uses, so the simulation places vertices exactly
// where a real shard group would.
func (c *Cluster) route(id graph.VertexID) graph.Store {
	return c.nodes[c.router.Owner(id)]
}

// AddVertex implements graph.Store.
func (c *Cluster) AddVertex(v graph.Vertex) error { return c.route(v.ID).AddVertex(v) }

// GetVertex implements graph.Store.
func (c *Cluster) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	return c.route(id).GetVertex(id, typ)
}

// AddEdge implements graph.Store: edges live with their source vertex.
func (c *Cluster) AddEdge(e graph.Edge) error { return c.route(e.Src).AddEdge(e) }

// GetEdge implements graph.Store.
func (c *Cluster) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	return c.route(src).GetEdge(src, typ, dst)
}

// DeleteEdge implements graph.Store.
func (c *Cluster) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	return c.route(src).DeleteEdge(src, typ, dst)
}

// Neighbors implements graph.Store.
func (c *Cluster) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	return c.route(src).Neighbors(src, typ, limit, fn)
}

// Degree implements graph.Store.
func (c *Cluster) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	return c.route(src).Degree(src, typ)
}

var _ graph.Store = (*Cluster)(nil)

// Limited wraps a store with a vCPU-style concurrency cap: at most n
// operations execute inside the store simultaneously; excess callers
// queue. Fig. 8's vertical scaling varies this cap from 4 to 16.
type Limited struct {
	inner graph.Store
	sem   chan struct{}
}

// Limit wraps store with a concurrency cap of n.
func Limit(store graph.Store, n int) *Limited {
	if n < 1 {
		n = 1
	}
	return &Limited{inner: store, sem: make(chan struct{}, n)}
}

func (l *Limited) acquire() func() {
	l.sem <- struct{}{}
	return func() { <-l.sem }
}

// AddVertex implements graph.Store.
func (l *Limited) AddVertex(v graph.Vertex) error {
	defer l.acquire()()
	return l.inner.AddVertex(v)
}

// GetVertex implements graph.Store.
func (l *Limited) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	defer l.acquire()()
	return l.inner.GetVertex(id, typ)
}

// AddEdge implements graph.Store.
func (l *Limited) AddEdge(e graph.Edge) error {
	defer l.acquire()()
	return l.inner.AddEdge(e)
}

// GetEdge implements graph.Store.
func (l *Limited) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	defer l.acquire()()
	return l.inner.GetEdge(src, typ, dst)
}

// DeleteEdge implements graph.Store.
func (l *Limited) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	defer l.acquire()()
	return l.inner.DeleteEdge(src, typ, dst)
}

// Neighbors implements graph.Store.
func (l *Limited) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	defer l.acquire()()
	return l.inner.Neighbors(src, typ, limit, fn)
}

// Degree implements graph.Store.
func (l *Limited) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	defer l.acquire()()
	return l.inner.Degree(src, typ)
}

var _ graph.Store = (*Limited)(nil)
