package core

import (
	"cmp"
	"fmt"

	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
	"bg3/internal/wal"
)

// latest is the horizon of an unpinned read: every committed op is visible.
const latest = wal.LSN(mvcc.HorizonAll)

// graphReads is graph.Reader decoded once, over the forest as of a horizon:
// Engine reads at horizon ∞, ReadView at its pin, Replica at its forest's
// applied LSN. It is a struct rather than an interface so the calls below
// stay static — keys, scan bounds and the property decoder never escape to
// the heap. It is built with its holder; a read allocates nothing for it.
type graphReads struct {
	forest  *forest.Forest
	horizon wal.LSN
}

func (g graphReads) get(owner graph.VertexID, key []byte) ([]byte, bool, error) {
	return g.forest.GetAt(forest.OwnerID(owner), key, g.horizon)
}

func (g graphReads) scan(owner graph.VertexID, from, to []byte, limit int, fn func(key, value []byte) bool) error {
	return g.forest.ScanAt(forest.OwnerID(owner), from, to, limit, g.horizon, fn)
}

// props fetches and decodes the property record stored under owner/key. The
// forest returns a copy of the record, so the values alias it: the answer is
// that copy, the property slice and the names.
func (g graphReads) props(owner graph.VertexID, key []byte) (graph.Properties, bool, error) {
	val, ok, err := g.get(owner, key)
	if err != nil || !ok {
		return nil, false, err
	}
	props, err := graph.DecodeOwnedProps(val)
	return props, err == nil, err
}

// GetVertex implements graph.Reader.
func (g graphReads) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	var buf [vertexKeyLen]byte
	props, ok, err := g.props(id, appendVertexKey(buf[:0], typ))
	if !ok {
		return graph.Vertex{}, false, err
	}
	return graph.Vertex{ID: id, Type: typ, Props: props}, true, nil
}

// GetEdge implements graph.Reader. The reserved type is rejected rather
// than looked up: its keyspace holds vertex records, not edges.
func (g graphReads) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	if typ == vertexPrefix {
		return graph.Edge{}, false, errReservedEdgeType
	}
	var buf [graph.EdgeKeyLen]byte
	props, ok, err := g.props(src, graph.AppendEdgeKey(buf[:0], typ, dst))
	if !ok {
		return graph.Edge{}, false, err
	}
	return graph.Edge{Src: src, Dst: dst, Type: typ, Props: props}, true, nil
}

// Neighbors implements graph.Reader. The Properties passed to fn are valid
// only for the duration of the callback: the scan decodes every record into
// one decoder borrowed from graph's free list, and the next holder of that
// decoder, on any goroutine, overwrites them once the scan returns it. Copy
// values to retain them. A callback may read again: its reads borrow decoders
// of their own. An entry that does not decode ends the scan with its error: a
// scan reports what a point read would, and hides nothing.
func (g graphReads) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	if typ == vertexPrefix {
		return errReservedEdgeType
	}
	lo, hi := graph.EdgeTypeBounds(typ)
	dec := graph.TakeDecoder()
	defer dec.Release()
	var bad error
	err := g.scan(src, lo, hi, limit, func(k, v []byte) bool {
		var dst graph.VertexID
		var props graph.Properties
		if _, dst, bad = graph.DecodeEdgeKey(k); bad == nil {
			props, bad = dec.Decode(v)
		}
		return bad == nil && fn(dst, props)
	})
	return cmp.Or(err, bad)
}

// NeighborsMany implements graph.FrontierReader: the whole frontier is one
// ScanManyAt — every cold leaf it starts on is fetched in one storage round.
// The frontier's vertex IDs are its owners as they are. The walk decodes edge
// keys only; one that does not decode ends it with its error.
func (g graphReads) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	if typ == vertexPrefix {
		return errReservedEdgeType
	}
	lo, hi := graph.EdgeTypeBounds(typ)
	var bad error
	err := forest.ScanManyAt(g.forest, srcs, lo, hi, limit, g.horizon, func(src graph.VertexID, k, _ []byte) bool {
		var dst graph.VertexID
		_, dst, bad = graph.DecodeEdgeKey(k)
		return bad == nil && fn(src, dst)
	})
	return cmp.Or(err, bad)
}

// Degree implements graph.Reader. It decodes what Neighbors does, so a
// record that does not decode fails it too.
func (g graphReads) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	n := 0
	err := g.Neighbors(src, typ, 0, func(graph.VertexID, graph.Properties) bool { n++; return true })
	return n, err
}

// errReservedEdgeType rejects the edge type whose keyspace holds vertex
// records.
var errReservedEdgeType = fmt.Errorf("core: edge type %d is reserved", uint16(vertexPrefix))
