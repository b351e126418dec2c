package graph_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"bg3/internal/graph"
	"bg3/internal/refmodel"
)

// graphOf is the reference graph holding edges.
func graphOf(t *testing.T, edges ...graph.Edge) refmodel.Graph {
	t.Helper()
	g := refmodel.Graph{}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// perVertex hides the reference graph's FrontierReader capability, so a
// traversal expands it one Neighbors call per frontier vertex.
type perVertex struct{ graph.Reader }

func TestKHop(t *testing.T) {
	// 1 -> 2 -> 3 -> 4, plus 1 -> 3 shortcut.
	s := perVertex{graphOf(t, graph.Edge{Src: 1, Dst: 2, Type: 1}, graph.Edge{Src: 2, Dst: 3, Type: 1}, graph.Edge{Src: 3, Dst: 4, Type: 1}, graph.Edge{Src: 1, Dst: 3, Type: 1})}
	reached, err := graph.KHop(s, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(reached), []graph.VertexID{2, 3}) {
		t.Fatalf("1-hop = %v", keys(reached))
	}
	reached, _ = graph.KHop(s, 1, 1, 2, 0)
	if !reflect.DeepEqual(keys(reached), []graph.VertexID{2, 3, 4}) {
		t.Fatalf("2-hop = %v", keys(reached))
	}
	reached, _ = graph.KHop(s, 1, 1, 3, 0)
	if !reflect.DeepEqual(keys(reached), []graph.VertexID{2, 3, 4}) {
		t.Fatalf("3-hop should not revisit: %v", keys(reached))
	}
	// Per-vertex limit caps fan-out.
	reached, _ = graph.KHop(s, 1, 1, 1, 1)
	if len(reached) != 1 {
		t.Fatalf("limited 1-hop = %v", keys(reached))
	}
}

func keys(m map[graph.VertexID]struct{}) []graph.VertexID { return slices.Sorted(maps.Keys(m)) }

// star is 1 -> 2..21, each with a tail of tail edges onward.
func star(t *testing.T, tail int) refmodel.Graph {
	var edges []graph.Edge
	for i := 2; i <= 21; i++ {
		edges = append(edges, graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: 1})
		for j := 0; j < tail; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i + 100*j), Dst: graph.VertexID(i + 100*(j+1)), Type: 1})
		}
	}
	return graphOf(t, edges...)
}

func TestKHopBudget(t *testing.T) {
	s := perVertex{star(t, 1)}
	reached, err := graph.KHopBudget(s, 1, 1, 10, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 7 {
		t.Fatalf("budgeted khop reached %d, want 7", len(reached))
	}
	// Budget 0 = unlimited: 20 + 20 chain tails.
	reached, err = graph.KHopBudget(s, 1, 1, 10, 0, 0)
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
	var edges []graph.Edge
	for _, e := range [][2]graph.VertexID{{1, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}} {
		edges = append(edges, graph.Edge{Src: e[0], Dst: e[1], Type: 1})
	}
	g := graphOf(t, edges...)
	for _, r := range []graph.Reader{perVertex{g}, &frontierStore{Reader: g}} {
		for _, budget := range []int{0, 3} {
			reached, err := graph.KHopBudget(r, 1, 1, 10, 0, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := keys(reached); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
				t.Fatalf("budget %d: reached %v, want [2 3 4]", budget, got)
			}
		}
	}
	fs := &frontierStore{Reader: g}
	if _, err := graph.KHopBudget(fs, 1, 1, 10, 0, 0); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1}; !reflect.DeepEqual(fs.frontiers, want) {
		t.Fatalf("frontiers %v, want %v: start was expanded again", fs.frontiers, want)
	}
}

// frontierStore is a reader with the FrontierReader capability, recording
// the size of every frontier it is handed.
type frontierStore struct {
	graph.Reader
	frontiers []int
}

func (f *frontierStore) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	f.frontiers = append(f.frontiers, len(srcs))
	return graph.NeighborsEach(f.Reader, srcs, typ, limit, fn)
}

// TestKHopBudgetFeedsFrontierReaderInBudgetSlices: over a FrontierReader
// every hop is a NeighborsMany call, a budgeted hop is fed in slices no
// larger than the budget still open, nothing is requested once the budget
// is spent, and the reached set is the per-vertex expansion's.
func TestKHopBudgetFeedsFrontierReaderInBudgetSlices(t *testing.T) {
	mem := perVertex{star(t, 2)}
	for _, tc := range []struct {
		budget    int
		frontiers []int
	}{
		{0, []int{1, 20, 20, 20}}, // unbudgeted: the whole frontier per hop, the last hop finds nothing
		{7, []int{1}},             // spent inside the first hop
		{30, []int{1, 10}},        // 20 reached, 10 open: half the second frontier
		{45, []int{1, 20, 5}},     // 40 reached after two hops, 5 open
	} {
		fs := &frontierStore{Reader: mem}
		got, err := graph.KHopBudget(fs, 1, 1, 4, 0, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := graph.KHopBudget(mem, 1, 1, 4, 0, tc.budget)
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
