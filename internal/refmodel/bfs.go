package refmodel

import (
	"fmt"

	"bg3/internal/graph"
)

// KHop is the reference traversal: level by level, each frontier vertex in
// order expanding its first limit neighbors in order (limit <= 0: all),
// stopping once budget vertices are reached (<= 0: unlimited). It returns
// each reached vertex's level; start is not reached.
func KHop(g Graph, start graph.VertexID, typ graph.EdgeType, hops, limit, budget int) map[graph.VertexID]int {
	level := map[graph.VertexID]int{}
	frontier := []graph.VertexID{start}
	for h := 1; h <= hops; h++ {
		var next []graph.VertexID
		for _, src := range frontier {
			for i, k := range g.edges(src, typ) {
				if limit > 0 && i >= limit {
					break
				}
				_, dst, _ := graph.DecodeEdgeKey([]byte(k))
				if _, seen := level[dst]; seen || dst == start {
					continue
				}
				if budget > 0 && len(level) == budget {
					return level
				}
				level[dst] = h
				next = append(next, dst)
			}
		}
		frontier = next
	}
	return level
}

// CheckKHop checks got, a k-hop traversal of g, against KHop: the same set
// when the reader expands in order or no budget applies, else a budget-sized
// set made of every level before the deepest one it reaches and part of
// that level (a reader whose cross-source order is unspecified may take any
// part of it).
func CheckKHop(g Graph, got map[graph.VertexID]struct{}, start graph.VertexID, typ graph.EdgeType, hops, limit, budget int, inOrder bool) error {
	if inOrder || budget <= 0 {
		want := KHop(g, start, typ, hops, limit, budget)
		if len(got) != len(want) {
			return fmt.Errorf("reached %d vertices, naive BFS %d", len(got), len(want))
		}
		for v := range got {
			if _, ok := want[v]; !ok {
				return fmt.Errorf("reached %d, which naive BFS does not", v)
			}
		}
		return nil
	}
	full := KHop(g, start, typ, hops, limit, 0)
	if len(got) != min(budget, len(full)) {
		return fmt.Errorf("reached %d vertices, want min(budget, %d)", len(got), len(full))
	}
	deepest := 0
	for v := range got {
		l, ok := full[v]
		if !ok {
			return fmt.Errorf("reached %d, which naive BFS does not", v)
		}
		deepest = max(deepest, l)
	}
	for v, l := range full {
		if _, ok := got[v]; !ok && l < deepest {
			return fmt.Errorf("missed %d at level %d, short of the deepest level reached, %d", v, l, deepest)
		}
	}
	return nil
}
