package core

import (
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a BG3 engine: the forest replica plus the
// graph read API. It consumes WAL records (shipped by the replication
// layer) and serves strongly consistent reads.
type Replica struct {
	rep *forest.Replica
}

// NewReplica creates an empty replica reading pages from the shared store.
// capacity bounds its page cache (0 = unlimited).
func NewReplica(st *storage.Store, capacity int) *Replica {
	return &Replica{rep: forest.NewReplica(st, capacity)}
}

// Apply incorporates one WAL record.
func (r *Replica) Apply(rec *wal.Record) error { return r.rep.Apply(rec) }

// ApplyAll incorporates records in order.
func (r *Replica) ApplyAll(recs []*wal.Record) error { return r.rep.ApplyAll(recs) }

// ApplyGroup incorporates one commit group as a unit: the published high
// LSN advances only after every record in the group is in.
func (r *Replica) ApplyGroup(recs []*wal.Record) error { return r.rep.ApplyGroup(recs) }

// HighLSN reports the newest WAL LSN incorporated.
func (r *Replica) HighLSN() wal.LSN { return r.rep.HighLSN() }

// BufferedRecords reports the lazy-replay backlog.
func (r *Replica) BufferedRecords() int { return r.rep.BufferedRecords() }

// GetVertex mirrors Engine.GetVertex.
func (r *Replica) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	val, ok, err := r.rep.Get(forest.OwnerID(id), vertexKey(typ))
	if err != nil || !ok {
		return graph.Vertex{}, false, err
	}
	props, err := graph.DecodeProps(val)
	if err != nil {
		return graph.Vertex{}, false, err
	}
	return graph.Vertex{ID: id, Type: typ, Props: props}, true, nil
}

// GetEdge mirrors Engine.GetEdge.
func (r *Replica) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	val, ok, err := r.rep.Get(forest.OwnerID(src), graph.EdgeKey(typ, dst))
	if err != nil || !ok {
		return graph.Edge{}, false, err
	}
	props, err := graph.DecodeProps(val)
	if err != nil {
		return graph.Edge{}, false, err
	}
	return graph.Edge{Src: src, Dst: dst, Type: typ, Props: props}, true, nil
}

// Neighbors mirrors Engine.Neighbors, including its callback-scoped
// Properties validity.
func (r *Replica) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	lo, hi := graph.EdgeTypeBounds(typ)
	var dec graph.PropDecoder
	return r.rep.Scan(forest.OwnerID(src), lo, hi, limit, func(k, v []byte) bool {
		_, dst, err := graph.DecodeEdgeKey(k)
		if err != nil {
			return true
		}
		props, err := dec.Decode(v)
		if err != nil {
			return true
		}
		return fn(dst, props)
	})
}

// Degree mirrors Engine.Degree.
func (r *Replica) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	n := 0
	err := r.Neighbors(src, typ, 0, func(graph.VertexID, graph.Properties) bool { n++; return true })
	return n, err
}

var _ graph.Reader = (*Replica)(nil)
