package replication

import (
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
)

// TestStressFlushCyclesDoNotOverlap is the regression for a synced replica
// missing acked edges: with an aggressive background flusher, a manual
// Checkpoint used to start while the flusher's cycle held pages it had
// already taken out of the dirty set, sample a later horizon, and publish
// it without those pages' new locations — a follower applying that record
// dropped its buffered writes and materialized the pages from stale
// locations. Flush cycles now run one at a time (RWNode.flushCycle).
func TestStressFlushCyclesDoNotOverlap(t *testing.T) {
	// At the parent of the fix ~2% of rounds lost edges: 60 rounds failed
	// three runs in four, 240 fail practically always.
	const edges = 440
	rounds := 240
	if testing.Short() {
		rounds = 60
	}
	for round := 0; round < rounds; round++ {
		rw, ro, _ := newPair(t, RWOptions{
			Engine:        core.Options{Tree: bwtree.Config{MaxPageEntries: 8}},
			FlushInterval: time.Millisecond,
		}, 5*time.Millisecond)
		for i := 0; i < edges; i++ {
			if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i%40 + 1), Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ro.Poll(); err != nil {
			t.Fatal(err)
		}
		missing := 0
		for i := 0; i < edges; i++ {
			_, ok, err := ro.Replica().GetEdge(graph.VertexID(i%40+1), graph.ETypeFollow, graph.VertexID(i))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				missing++
			}
		}
		if missing > 0 {
			t.Fatalf("round %d: synced replica misses %d of %d acked edges", round, missing, edges)
		}
		ro.Stop()
		rw.Stop()
	}
}
