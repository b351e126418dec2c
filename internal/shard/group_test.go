package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

func openTestGroup(t *testing.T, shards int) *Group {
	t.Helper()
	g, err := Open(shards,
		&storage.Options{ExtentSize: 32 << 10},
		replication.RWOptions{
			Engine: core.Options{
				Tree: bwtree.Config{
					Policy:         bwtree.ReadOptimized,
					MaxPageEntries: 16,
					ConsolidateNum: 4,
				},
				SplitThreshold: 0,
			},
			CommitWindow: 50 * time.Microsecond,
			MaxBatch:     16,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// seedRandomGraph writes a deterministic pseudo-random graph through the
// group's batched path and returns the edge set.
func seedRandomGraph(t *testing.T, g *Group, seed int64, vertices, edges int) map[[2]graph.VertexID]struct{} {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	present := make(map[[2]graph.VertexID]struct{})
	var muts []graph.Mutation
	for len(present) < edges {
		src := graph.VertexID(1 + rng.Intn(vertices))
		dst := graph.VertexID(1 + rng.Intn(vertices))
		if src == dst {
			continue
		}
		if _, dup := present[[2]graph.VertexID{src, dst}]; dup {
			continue
		}
		present[[2]graph.VertexID{src, dst}] = struct{}{}
		muts = append(muts, graph.AddEdgeMut(graph.Edge{
			Src: src, Dst: dst, Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "v", Value: []byte(fmt.Sprint(len(present)))}},
		}))
		if len(muts) == 32 {
			if err := g.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
			muts = muts[:0]
		}
	}
	if len(muts) > 0 {
		if err := g.ApplyBatch(muts); err != nil {
			t.Fatal(err)
		}
	}
	return present
}

// TestGroupFanOutAndRoutedReads proves the write fan-out: a multi-shard
// batch decomposes into per-shard commit groups whose union is exactly
// the input, and every edge is readable back through routed reads, the
// snapshot, and each shard's own leader.
func TestGroupFanOutAndRoutedReads(t *testing.T) {
	g := openTestGroup(t, 4)
	edges := seedRandomGraph(t, g, 42, 64, 300)

	snap := g.Snapshot()
	defer snap.Close()
	for e := range edges {
		if _, ok, err := g.GetEdge(e[0], graph.ETypeFollow, e[1]); err != nil || !ok {
			t.Fatalf("routed GetEdge(%d->%d) = %v, %v", e[0], e[1], ok, err)
		}
		if _, ok, err := snap.GetEdge(e[0], graph.ETypeFollow, e[1]); err != nil || !ok {
			t.Fatalf("snapshot GetEdge(%d->%d) = %v, %v", e[0], e[1], ok, err)
		}
		// The owning leader holds the edge; every other shard must not.
		owner := g.Router().Owner(e[0])
		for i := 0; i < g.Shards(); i++ {
			_, ok, err := g.Leader(i).GetEdge(e[0], graph.ETypeFollow, e[1])
			if err != nil {
				t.Fatal(err)
			}
			if ok != (i == owner) {
				t.Fatalf("edge %d->%d visible on shard %d, owner is %d", e[0], e[1], i, owner)
			}
		}
	}

	st := g.Metrics().Snapshot()
	if st["shard.batches_routed"].Value == 0 {
		t.Fatal("no batches counted")
	}
	if h := st["shard.batch_fanout"].IntHistogram; h == nil || h.Max < 2 {
		t.Fatalf("expected multi-shard fan-out, histogram: %+v", h)
	}
}

// TestSnapshotCutIgnoresLaterWrites: a cut's 3-hop KHop is the one
// computed before later writes landed, its epochs stay put, and no shard
// holds a pin once the snapshot closed.
func TestSnapshotCutIgnoresLaterWrites(t *testing.T) {
	g := openTestGroup(t, 4)
	seedRandomGraph(t, g, 3, 32, 120)

	cut := g.Snapshot()
	defer cut.Close()
	vec := cut.Epochs()
	starts := []graph.VertexID{1, 9, 30}
	want := make([]map[graph.VertexID]struct{}, len(starts))
	for i, start := range starts {
		r, err := graph.KHop(cut, start, graph.ETypeFollow, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	// Writer moves on: the cut must still read its old boundaries.
	seedRandomGraph(t, g, 4, 32, 60)

	if !reflect.DeepEqual(cut.Epochs(), vec) {
		t.Fatalf("cut epochs moved from %v to %v", vec, cut.Epochs())
	}
	for i, start := range starts {
		got, err := graph.KHop(cut, start, graph.ETypeFollow, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("cut's 3-hop from %d changed under later writes", start)
		}
	}
	cut.Close()

	for i := 0; i < g.Shards(); i++ {
		if n := g.Leader(i).Engine().Epochs().PinnedCount(); n != 0 {
			t.Fatalf("shard %d leaked %d pins", i, n)
		}
	}
}
