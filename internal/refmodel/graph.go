package refmodel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"bg3/internal/graph"
)

// Key addresses one record of the graph in its owner's keyspace, in the
// engine's layout: an edge under graph.EdgeKey, a vertex under the reserved
// edge type 0xffff followed by its vertex type.
type Key struct {
	Owner graph.VertexID
	Key   string
}

// EdgeKey is the record of the edge src -[typ]-> dst.
func EdgeKey(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) Key {
	return Key{src, string(graph.EdgeKey(typ, dst))}
}

// VertexKey is the record of vertex id of type typ.
func VertexKey(id graph.VertexID, typ graph.VertexType) Key {
	return Key{id, string(binary.BigEndian.AppendUint16([]byte{0xff, 0xff}, uint16(typ)))}
}

// IsVertex reports whether k is a vertex record.
func (k Key) IsVertex() bool { return len(k.Key) == 4 }

func (k Key) String() string {
	if typ, dst, err := graph.DecodeEdgeKey([]byte(k.Key)); err == nil {
		return fmt.Sprintf("%d-[%d]->%d", k.Owner, typ, dst)
	}
	return fmt.Sprintf("vertex %d", k.Owner)
}

// Value is a record's value in a Graph: its properties, encoded.
func Value(ps graph.Properties) string { return string(graph.EncodeProps(ps)) }

// show renders a record's value for a failure message.
func show(v string) string {
	ps, err := graph.DecodeProps([]byte(v))
	if err != nil {
		return fmt.Sprintf("%q", v)
	}
	s := make([]string, len(ps))
	for i, p := range ps {
		s[i] = fmt.Sprintf("%s=%q", p.Name, p.Value)
	}
	return "{" + strings.Join(s, " ") + "}"
}

// Graph is a graph state: owner → in-owner key → the record's Value. It is a
// graph.Store and a graph.FrontierReader, so the traversals and matchers of
// the product run on it unchanged; wrap it in a plain graph.Reader to have
// them expand one vertex at a time.
type Graph map[graph.VertexID]map[string]string

// Put sets k's record to v.
func (g Graph) Put(k Key, v string) {
	if g[k.Owner] == nil {
		g[k.Owner] = map[string]string{}
	}
	g[k.Owner][k.Key] = v
}

// Get is k's record.
func (g Graph) Get(k Key) (string, bool) {
	v, ok := g[k.Owner][k.Key]
	return v, ok
}

func (g Graph) AddVertex(v graph.Vertex) error {
	g.Put(VertexKey(v.ID, v.Type), Value(v.Props))
	return nil
}

func (g Graph) AddEdge(e graph.Edge) error {
	g.Put(EdgeKey(e.Src, e.Type, e.Dst), Value(e.Props))
	return nil
}

func (g Graph) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	delete(g[src], EdgeKey(src, typ, dst).Key)
	return nil
}

func (g Graph) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	v, ok := g.Get(VertexKey(id, typ))
	if !ok {
		return graph.Vertex{}, false, nil
	}
	ps, err := graph.DecodeProps([]byte(v))
	return graph.Vertex{ID: id, Type: typ, Props: ps}, true, err
}

func (g Graph) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	v, ok := g.Get(EdgeKey(src, typ, dst))
	if !ok {
		return graph.Edge{}, false, nil
	}
	ps, err := graph.DecodeProps([]byte(v))
	return graph.Edge{Src: src, Dst: dst, Type: typ, Props: ps}, true, err
}

// edges lists src's edge records of type typ in key order, which is
// destination order.
func (g Graph) edges(src graph.VertexID, typ graph.EdgeType) []string {
	prefix := EdgeKey(src, typ, 0).Key[:2]
	var keys []string
	for k := range g[src] {
		if len(k) == 10 && k[:2] == prefix {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func (g Graph) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	for i, k := range g.edges(src, typ) {
		if limit > 0 && i >= limit {
			break
		}
		_, dst, _ := graph.DecodeEdgeKey([]byte(k))
		ps, err := graph.DecodeProps([]byte(g[src][k]))
		if err != nil {
			return err
		}
		if !fn(dst, ps) {
			break
		}
	}
	return nil
}

func (g Graph) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	return len(g.edges(src, typ)), nil
}

func (g Graph) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	return graph.NeighborsEach(g, srcs, typ, limit, fn)
}

// Read is k's record as r serves it to a point read ("" when absent).
func Read(r graph.Reader, k Key) (string, bool, error) {
	var ps graph.Properties
	ok, err := false, error(nil)
	if typ, dst, derr := graph.DecodeEdgeKey([]byte(k.Key)); derr == nil {
		var e graph.Edge
		e, ok, err = r.GetEdge(k.Owner, typ, dst)
		ps = e.Props
	} else {
		var v graph.Vertex
		v, ok, err = r.GetVertex(k.Owner, graph.VertexType(binary.BigEndian.Uint16([]byte(k.Key[2:]))))
		ps = v.Props
	}
	if !ok || err != nil {
		return "", false, err
	}
	return Value(ps), true, nil
}

// Observe reads every record of owners through r: each one's user vertex and
// its adjacency of every type in types.
func Observe(r graph.Reader, owners []graph.VertexID, types []graph.EdgeType) (Graph, error) {
	got := Graph{}
	for _, o := range owners {
		if v, ok, err := r.GetVertex(o, graph.VTypeUser); err != nil {
			return nil, fmt.Errorf("vertex %d: %w", o, err)
		} else if ok {
			got.Put(VertexKey(o, graph.VTypeUser), Value(v.Props))
		}
		for _, typ := range types {
			if err := r.Neighbors(o, typ, 0, func(dst graph.VertexID, ps graph.Properties) bool {
				got.Put(EdgeKey(o, typ, dst), Value(ps))
				return true
			}); err != nil {
				return nil, fmt.Errorf("neighbors %d/%d: %w", o, typ, err)
			}
		}
	}
	return got, nil
}

// Diff returns the first record got and want disagree on.
func Diff(got, want Graph) error {
	for owner, m := range want {
		for key, v := range m {
			if g, ok := got[owner][key]; !ok || g != v {
				return fmt.Errorf("%v: read %s (present %v), want %s", Key{owner, key}, show(g), ok, show(v))
			}
		}
	}
	for owner, m := range got {
		for key, v := range m {
			if _, ok := want[owner][key]; !ok {
				return fmt.Errorf("%v: read %s, want absent", Key{owner, key}, show(v))
			}
		}
	}
	return nil
}

// Apply applies muts through s one call at a time, in order: the reference
// a batch is checked against, and how a stream of mutations reaches a Graph.
func Apply(s graph.Store, muts []graph.Mutation) error {
	for i, m := range muts {
		var err error
		switch m.Kind {
		case graph.MutAddVertex:
			err = s.AddVertex(m.Vertex)
		case graph.MutAddEdge:
			err = s.AddEdge(m.Edge)
		case graph.MutDeleteEdge:
			err = s.DeleteEdge(m.Edge.Src, m.Edge.Type, m.Edge.Dst)
		default:
			err = fmt.Errorf("mutation %d: unknown kind %d", i, m.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
