package shard

import (
	"sync"

	"bg3/internal/graph"
)

// ScatterStats accumulates scatter-gather observations for one
// traversal: hop rounds expanded and parallel per-shard reads issued.
type ScatterStats struct {
	Hops       int // frontier rounds expanded
	ShardReads int // parallel per-shard batched reads issued
}

// KHopScatter runs breadth-first expansion over the cut, the one
// traversal whose parallelism follows the shards: each hop splits the
// frontier by owner, issues one batched per-shard read per owner in
// parallel (ReadView.NeighborsMany, perVertexLimit pushed down into each
// shard's scan), and merges the per-shard edge lists into the next
// frontier. When stats is non-nil it accumulates the hop rounds and
// per-shard reads the expansion issued.
//
// The reached set is exactly graph.KHop's over the Snapshot as a plain
// graph.Reader: it depends only on the frontier *sets* and each vertex's
// first perVertexLimit neighbors (delivered in key order by the forest
// scan), not on frontier iteration order — dedup against `visited` only
// skips re-adding a vertex, it never consumes limit. Pattern matching
// and cycle enumeration have no per-shard structure to exploit and run
// pattern.Match / pattern.FindCycles over the Snapshot directly.
func (s *Snapshot) KHopScatter(start graph.VertexID, typ graph.EdgeType, hops, perVertexLimit int, stats *ScatterStats) (map[graph.VertexID]struct{}, error) {
	visited := map[graph.VertexID]struct{}{start: {}}
	frontier := []graph.VertexID{start}
	reached := make(map[graph.VertexID]struct{})

	type shardEdges struct {
		dsts []graph.VertexID
		err  error
	}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		if stats != nil {
			stats.Hops++
		}
		parts := s.router.SplitFrontier(frontier)
		results := make([]shardEdges, len(parts))
		var wg sync.WaitGroup
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			if stats != nil {
				stats.ShardReads++
			}
			wg.Add(1)
			go func(i int, part []graph.VertexID) {
				defer wg.Done()
				res := &results[i]
				res.err = s.views[i].NeighborsMany(part, typ, perVertexLimit,
					func(_, dst graph.VertexID, _ graph.Properties) bool {
						res.dsts = append(res.dsts, dst)
						return true
					})
			}(i, part)
		}
		wg.Wait()
		var next []graph.VertexID
		for i := range results {
			if results[i].err != nil {
				return reached, results[i].err
			}
			for _, dst := range results[i].dsts {
				if _, seen := visited[dst]; !seen {
					visited[dst] = struct{}{}
					reached[dst] = struct{}{}
					next = append(next, dst)
				}
			}
		}
		frontier = next
	}
	return reached, nil
}
