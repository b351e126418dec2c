package shard

import (
	"fmt"
	"testing"

	"bg3/internal/graph"
	"bg3/internal/replication"
)

// TestTxnAppendsPerShard counts what a batch costs in storage appends with
// the flusher idle and nothing else writing: a cross-shard transaction over N
// shards is a prepare on every participant but the coordinator, the
// coordinator's commit wave (the decision carrying its part, the part, its
// applied marker) and one apply wave on every other participant — 2N−1 — and
// a single-shard batch stays one append. Every batch rewrites the same edges,
// so no leaf splits and no owner migrates: what is counted is the protocol.
// The bounds leave a tenth of an append per batch for a wave the committer
// cut in two.
func TestTxnAppendsPerShard(t *testing.T) {
	g, err := Open(4, nil, replication.RWOptions{PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srcs := make([]graph.VertexID, g.Shards()) // one vertex owned by each shard
	for v, found := graph.VertexID(1), 0; found < len(srcs); v++ {
		if i := g.Router().Owner(v); srcs[i] == 0 {
			srcs[i], found = v, found+1
		}
	}
	appends := func() (n int64) {
		for i := 0; i < g.Shards(); i++ {
			n += g.Store(i).Stats().WriteOps
		}
		return n
	}
	// perBatch runs n batches of 8 edges over shards and returns the mean
	// appends per batch, after one batch that creates the edges.
	perBatch := func(shards []int, n int) float64 {
		t.Helper()
		var before int64
		for k := -1; k < n; k++ {
			if k == 0 {
				before = appends()
			}
			muts := make([]graph.Mutation, 8)
			for j := range muts {
				muts[j] = graph.AddEdgeMut(graph.Edge{
					Src: srcs[shards[j%len(shards)]], Dst: graph.VertexID(100 + j), Type: graph.ETypeFollow,
					Props: graph.Properties{{Name: "k", Value: []byte(fmt.Sprint(k))}},
				})
			}
			if err := g.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
		}
		return float64(appends()-before) / float64(n)
	}
	for _, tc := range []struct {
		shards []int
		n      int
		max    float64
	}{
		{[]int{3}, 200, 1.0},
		{[]int{0, 1}, 500, 3.1},
		{[]int{0, 1, 2}, 500, 5.1},
	} {
		got := perBatch(tc.shards, tc.n)
		t.Logf("%d shard(s): %.2f appends per batch", len(tc.shards), got)
		if got > tc.max {
			t.Errorf("a batch over %d shard(s) costs %.2f appends, want <= %.1f", len(tc.shards), got, tc.max)
		}
	}
}
