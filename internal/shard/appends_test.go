package shard

import (
	"fmt"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
)

// TestTxnAppendsPerShard counts what a batch costs in storage appends with
// the flusher idle and nothing else writing: a cross-shard transaction over N
// shards is a prepare on every participant but the coordinator, the
// coordinator's commit wave (the decision carrying its part, the part, its
// applied marker) and one apply wave on every other participant — 2N−1 — and
// a single-shard batch stays one append. In the "rewrite" case every batch
// rewrites the same edges, so no leaf splits and no owner migrates: what is
// counted is the protocol. In the "growing" case every batch writes fresh
// edges into 8-entry leaves under a 40-key split threshold, so batches split
// leaves and migrate owners: those records ride the waves of the batch that
// caused them and cost no append of their own. The bounds leave a tenth of an
// append per batch for a wave the committer cut in two.
func TestTxnAppendsPerShard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine core.Options
		grow   bool
		max    []float64 // by the number of shards a batch spans
	}{
		{"rewrite", core.Options{}, false, []float64{1.0, 3.1, 5.1}},
		{"growing", core.Options{Tree: bwtree.Config{MaxPageEntries: 8}, SplitThreshold: 40}, true, []float64{1.1, 3.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Open(4, nil, replication.RWOptions{Engine: tc.engine, PipelineDepth: 8})
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
			// perBatch runs n batches of 8 edges over shards and returns the
			// mean appends per batch, after one batch that creates the edges.
			dst := graph.VertexID(100)
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
							Src: srcs[shards[j%len(shards)]], Dst: dst + graph.VertexID(j), Type: graph.ETypeFollow,
							Props: graph.Properties{{Name: "k", Value: []byte(fmt.Sprint(k))}},
						})
					}
					if tc.grow {
						dst += graph.VertexID(len(muts))
					}
					if err := g.ApplyBatch(muts); err != nil {
						t.Fatal(err)
					}
				}
				return float64(appends()-before) / float64(n)
			}
			for i, max := range tc.max {
				shards := []int{3}
				if i > 0 {
					shards = []int{0, 1, 2}[:i+1]
				}
				got := perBatch(shards, []int{200, 500, 500}[i])
				t.Logf("%d shard(s): %.2f appends per batch", len(shards), got)
				if got > max {
					t.Errorf("a batch over %d shard(s) costs %.2f appends, want <= %.1f", len(shards), got, max)
				}
			}
		})
	}
}
