package graph

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPropsRoundTrip(t *testing.T) {
	in := Properties{
		{Name: "ts", Value: []byte{1, 2, 3, 4}},
		{Name: "weight", Value: []byte("0.5")},
		{Name: "empty", Value: nil},
	}
	out, err := DecodeProps(EncodeProps(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Name != "ts" || !bytes.Equal(out[1].Value, []byte("0.5")) {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestPropsEmpty(t *testing.T) {
	out, err := DecodeProps(EncodeProps(nil))
	if err != nil || out != nil {
		t.Fatalf("empty round trip = %+v, %v", out, err)
	}
}

func TestPropsCorrupt(t *testing.T) {
	for _, buf := range [][]byte{nil, {1}, {1, 0, 5}} {
		if _, err := DecodeProps(buf); err == nil {
			t.Fatalf("corrupt input %v decoded", buf)
		}
	}
}

func TestPropertyEncodeDecodeQuick(t *testing.T) {
	f := func(names []string, values [][]byte) bool {
		var ps Properties
		for i, n := range names {
			if len(n) > 255 {
				n = n[:255]
			}
			var v []byte
			if i < len(values) {
				v = values[i]
			}
			ps = append(ps, Property{Name: n, Value: v})
		}
		out, err := DecodeProps(EncodeProps(ps))
		if err != nil {
			return false
		}
		if len(out) != len(ps) {
			return false
		}
		for i := range ps {
			if out[i].Name != ps[i].Name || !bytes.Equal(out[i].Value, ps[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropsGet(t *testing.T) {
	ps := Properties{{Name: "a", Value: []byte("1")}}
	if v, ok := ps.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if _, ok := ps.Get("b"); ok {
		t.Fatal("found missing property")
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(typ uint16, dst uint64) bool {
		key := EdgeKey(EdgeType(typ), VertexID(dst))
		gt, gd, err := DecodeEdgeKey(key)
		return err == nil && gt == EdgeType(typ) && gd == VertexID(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeEdgeKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("short edge key decoded")
	}
}

func TestEdgeKeyOrdering(t *testing.T) {
	// Edges of one type sort together, ordered by destination.
	k1 := EdgeKey(1, 100)
	k2 := EdgeKey(1, 200)
	k3 := EdgeKey(2, 0)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("edge key ordering broken")
	}
	lo, hi := EdgeTypeBounds(1)
	if bytes.Compare(lo, k1) > 0 || bytes.Compare(k2, hi) >= 0 || bytes.Compare(k3, hi) < 0 {
		t.Fatal("type bounds do not bracket the type's edges")
	}
	if _, hi := EdgeTypeBounds(^EdgeType(0)); hi != nil {
		t.Fatal("max edge type upper bound should be nil")
	}
}

// memStore is a trivial in-memory Store used to test the traversal
// helpers independent of any engine.
type memStore struct {
	vertices map[VertexID]Vertex
	adj      map[VertexID]map[EdgeType][]Edge
}

func newMemStore() *memStore {
	return &memStore{
		vertices: map[VertexID]Vertex{},
		adj:      map[VertexID]map[EdgeType][]Edge{},
	}
}

func (m *memStore) AddVertex(v Vertex) error { m.vertices[v.ID] = v; return nil }

func (m *memStore) GetVertex(id VertexID, typ VertexType) (Vertex, bool, error) {
	v, ok := m.vertices[id]
	return v, ok, nil
}

func (m *memStore) AddEdge(e Edge) error {
	if m.adj[e.Src] == nil {
		m.adj[e.Src] = map[EdgeType][]Edge{}
	}
	m.adj[e.Src][e.Type] = append(m.adj[e.Src][e.Type], e)
	sort.Slice(m.adj[e.Src][e.Type], func(i, j int) bool {
		return m.adj[e.Src][e.Type][i].Dst < m.adj[e.Src][e.Type][j].Dst
	})
	return nil
}

func (m *memStore) GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error) {
	for _, e := range m.adj[src][typ] {
		if e.Dst == dst {
			return e, true, nil
		}
	}
	return Edge{}, false, nil
}

func (m *memStore) DeleteEdge(src VertexID, typ EdgeType, dst VertexID) error {
	edges := m.adj[src][typ]
	for i, e := range edges {
		if e.Dst == dst {
			m.adj[src][typ] = append(edges[:i], edges[i+1:]...)
			return nil
		}
	}
	return nil
}

func (m *memStore) Neighbors(src VertexID, typ EdgeType, limit int, fn func(VertexID, Properties) bool) error {
	for i, e := range m.adj[src][typ] {
		if limit > 0 && i >= limit {
			return nil
		}
		if !fn(e.Dst, e.Props) {
			return nil
		}
	}
	return nil
}

func (m *memStore) Degree(src VertexID, typ EdgeType) (int, error) {
	return len(m.adj[src][typ]), nil
}

func TestKHop(t *testing.T) {
	s := newMemStore()
	// 1 -> 2 -> 3 -> 4, plus 1 -> 3 shortcut.
	for _, e := range []Edge{{Src: 1, Dst: 2, Type: 1}, {Src: 2, Dst: 3, Type: 1}, {Src: 3, Dst: 4, Type: 1}, {Src: 1, Dst: 3, Type: 1}} {
		if err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	reached, err := KHop(s, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(reached), []VertexID{2, 3}) {
		t.Fatalf("1-hop = %v", keys(reached))
	}
	reached, _ = KHop(s, 1, 1, 2, 0)
	if !reflect.DeepEqual(keys(reached), []VertexID{2, 3, 4}) {
		t.Fatalf("2-hop = %v", keys(reached))
	}
	reached, _ = KHop(s, 1, 1, 3, 0)
	if !reflect.DeepEqual(keys(reached), []VertexID{2, 3, 4}) {
		t.Fatalf("3-hop should not revisit: %v", keys(reached))
	}
	// Per-vertex limit caps fan-out.
	reached, _ = KHop(s, 1, 1, 1, 1)
	if len(reached) != 1 {
		t.Fatalf("limited 1-hop = %v", keys(reached))
	}
}

func keys(m map[VertexID]struct{}) []VertexID {
	out := make([]VertexID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestKHopBudget(t *testing.T) {
	s := newMemStore()
	// Star: 1 -> 2..21, then chains onward.
	for i := 2; i <= 21; i++ {
		if err := s.AddEdge(Edge{Src: 1, Dst: VertexID(i), Type: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(Edge{Src: VertexID(i), Dst: VertexID(i + 100), Type: 1}); err != nil {
			t.Fatal(err)
		}
	}
	reached, err := KHopBudget(s, 1, 1, 10, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 7 {
		t.Fatalf("budgeted khop reached %d, want 7", len(reached))
	}
	// Budget 0 = unlimited: 20 + 20 chain tails.
	reached, err = KHopBudget(s, 1, 1, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 40 {
		t.Fatalf("unbudgeted khop reached %d, want 40", len(reached))
	}
}

// TestKHopCycleBackToStart: the result is the vertices reached excluding
// start, also when a cycle (or a self-loop) leads back to it — start is
// visited, never reached, and is not expanded a second time.
func TestKHopCycleBackToStart(t *testing.T) {
	s := newMemStore()
	for _, e := range [][2]VertexID{{1, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}} {
		if err := s.AddEdge(Edge{Src: e[0], Dst: e[1], Type: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []Reader{s, &frontierStore{memStore: s}} {
		for _, budget := range []int{0, 3} {
			reached, err := KHopBudget(r, 1, 1, 10, 0, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := keys(reached); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
				t.Fatalf("budget %d: reached %v, want [2 3 4]", budget, got)
			}
		}
	}
	fs := &frontierStore{memStore: s}
	if _, err := KHopBudget(fs, 1, 1, 10, 0, 0); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1}; !reflect.DeepEqual(fs.frontiers, want) {
		t.Fatalf("frontiers %v, want %v: start was expanded again", fs.frontiers, want)
	}
}

// frontierStore is memStore with the FrontierReader capability, recording
// the size of every frontier it is handed.
type frontierStore struct {
	*memStore
	frontiers []int
}

func (f *frontierStore) NeighborsMany(srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error {
	f.frontiers = append(f.frontiers, len(srcs))
	return NeighborsEach(f.memStore, srcs, typ, limit, fn)
}

// TestKHopBudgetFeedsFrontierReaderInBudgetSlices: over a FrontierReader
// every hop is a NeighborsMany call, a budgeted hop is fed in slices no
// larger than the budget still open, nothing is requested once the budget
// is spent, and the reached set is the per-vertex expansion's.
func TestKHopBudgetFeedsFrontierReaderInBudgetSlices(t *testing.T) {
	mem := newMemStore()
	for i := 2; i <= 21; i++ { // star 1 -> 2..21, each with a two-edge tail
		for _, e := range []Edge{{Src: 1, Dst: VertexID(i), Type: 1}, {Src: VertexID(i), Dst: VertexID(i + 100), Type: 1}, {Src: VertexID(i + 100), Dst: VertexID(i + 200), Type: 1}} {
			if err := mem.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		budget    int
		frontiers []int
	}{
		{0, []int{1, 20, 20, 20}}, // unbudgeted: the whole frontier per hop, the last hop finds nothing
		{7, []int{1}},             // spent inside the first hop
		{30, []int{1, 10}},        // 20 reached, 10 open: half the second frontier
		{45, []int{1, 20, 5}},     // 40 reached after two hops, 5 open
	} {
		fs := &frontierStore{memStore: mem}
		got, err := KHopBudget(fs, 1, 1, 4, 0, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := KHopBudget(mem, 1, 1, 4, 0, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || (tc.budget > 0 && len(got) != tc.budget) {
			t.Fatalf("budget %d: reached %d vertices over the FrontierReader, %d per vertex", tc.budget, len(got), len(want))
		}
		if !reflect.DeepEqual(fs.frontiers, tc.frontiers) {
			t.Fatalf("budget %d: NeighborsMany saw frontiers %v, want %v", tc.budget, fs.frontiers, tc.frontiers)
		}
	}
}
