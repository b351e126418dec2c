package core

import (
	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a BG3 engine (§3.4): a forest in the applier
// role — the leader's page table, cache and read path, written by the WAL
// records the replication layer ships — plus the graph read API over it. A
// read sees exactly the commit groups applied in full when it began.
type Replica struct {
	forest  *forest.Forest
	mapping *bwtree.Mapping
}

// NewReplica creates an empty replica reading pages from the shared store,
// to be fed the log from its beginning. capacity bounds the pages with
// resident content (0 = unlimited).
func NewReplica(st *storage.Store, capacity int) *Replica {
	m := bwtree.NewApplierMapping(capacity)
	return &Replica{forest: forest.NewApplier(m, st), mapping: m}
}

// NewReplicaFromSnapshot creates a replica holding the snapshot's durable
// shape — every tree's leaf directory and the owner assignments, no page
// read — to be fed the log beyond horizon, the WAL LSN the snapshot reflects.
func NewReplicaFromSnapshot(st *storage.Store, capacity int, state SnapshotState, horizon wal.LSN) (*Replica, error) {
	m := bwtree.NewApplierMapping(capacity)
	f, err := rebuildForest(m, st, forest.Config{}, state)
	if err != nil {
		return nil, err
	}
	f.Publish(horizon)
	return &Replica{forest: f, mapping: m}, nil
}

// Apply incorporates one WAL record.
func (r *Replica) Apply(rec *wal.Record) error { return r.forest.ApplyGroup([]*wal.Record{rec}) }

// ApplyAll incorporates records in order, each visible once it is in.
func (r *Replica) ApplyAll(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGroup incorporates one commit group as a unit: none of it is visible
// to a read until all of it is in (forest.Forest.ApplyGroup).
func (r *Replica) ApplyGroup(recs []*wal.Record) error { return r.forest.ApplyGroup(recs) }

// HighLSN reports the applied LSN: the end of the newest commit group
// incorporated, and the horizon reads run at.
func (r *Replica) HighLSN() wal.LSN { return r.forest.AppliedLSN() }

// BufferedRecords reports the lazy-replay backlog: the applied records no
// checkpoint has covered yet.
func (r *Replica) BufferedRecords() int { return r.mapping.OverlayOps() }

// RegisterMetrics exposes the replica's page-table accounting — the leader's
// own bwtree.* read metrics, measured on this node.
func (r *Replica) RegisterMetrics(reg *metrics.Registry) { r.mapping.RegisterMetrics(reg) }

// at is the read handle of this instant: the forest as of the applied LSN.
func (r *Replica) at() graphReads { return graphReads{forest: r.forest, horizon: r.HighLSN()} }

// GetVertex implements graph.Reader.
func (r *Replica) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	return r.at().GetVertex(id, typ)
}

// GetEdge implements graph.Reader.
func (r *Replica) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	return r.at().GetEdge(src, typ, dst)
}

// Neighbors implements graph.Reader.
func (r *Replica) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	return r.at().Neighbors(src, typ, limit, fn)
}

// NeighborsMany implements graph.FrontierReader: a follower batches a hop
// like the leader does.
func (r *Replica) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	return r.at().NeighborsMany(srcs, typ, limit, fn)
}

// Degree implements graph.Reader.
func (r *Replica) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	return r.at().Degree(src, typ)
}

var (
	_ graph.Reader         = (*Replica)(nil)
	_ graph.FrontierReader = (*Replica)(nil)
)
