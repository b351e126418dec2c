package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
	"bg3/internal/pattern"
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
			CommitWindow:  50 * time.Microsecond,
			MaxBatch:      16,
			PipelineDepth: 4,
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

// refGraph is the trivially correct model traversals are checked
// against: the seeded ETypeFollow edge set as sorted adjacency lists.
type refGraph map[graph.VertexID][]graph.VertexID

func newRefGraph(edges map[[2]graph.VertexID]struct{}) refGraph {
	ref := refGraph{}
	for e := range edges {
		ref[e[0]] = append(ref[e[0]], e[1])
	}
	for _, dsts := range ref {
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	}
	return ref
}

func (r refGraph) GetVertex(graph.VertexID, graph.VertexType) (graph.Vertex, bool, error) {
	return graph.Vertex{}, false, nil
}

func (r refGraph) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	dsts := r[src]
	i := sort.Search(len(dsts), func(i int) bool { return dsts[i] >= dst })
	if typ != graph.ETypeFollow || i == len(dsts) || dsts[i] != dst {
		return graph.Edge{}, false, nil
	}
	return graph.Edge{Src: src, Dst: dst, Type: typ}, true, nil
}

func (r refGraph) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	if typ != graph.ETypeFollow {
		return nil
	}
	for i, dst := range r[src] {
		if (limit > 0 && i >= limit) || !fn(dst, nil) {
			break
		}
	}
	return nil
}

func (r refGraph) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	if typ != graph.ETypeFollow {
		return 0, nil
	}
	return len(r[src]), nil
}

// followerView attaches one read-only node per shard, drained to the
// leaders' acked state, behind the group's router — what the root
// package's read views are made of.
func followerView(t *testing.T, g *Group) graph.Reader {
	t.Helper()
	ros := make([]*replication.RONode, g.Shards())
	for i := range ros {
		var err error
		if ros[i], err = replication.NewRONode(g.Store(i), time.Hour, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ros[i].Stop)
		if err := ros[i].Poll(); err != nil {
			t.Fatal(err)
		}
	}
	return g.Router().Reader(func(i int) graph.Reader { return ros[i].Replica() })
}

// TestTraversalsMatchReferenceModel is the traversal-equivalence oracle:
// the one graph.KHop over the cut, over the group's leaders and over a
// follower view (each hop a routed.NeighborsMany scatter), and
// pattern.Match / pattern.FindCycles over the cut as a plain graph.Reader,
// must return exactly what the same helpers return over the reference
// model — shard count must be unobservable.
func TestTraversalsMatchReferenceModel(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		g := openTestGroup(t, shards)
		ref := newRefGraph(seedRandomGraph(t, g, 7, 48, 400))

		snap := g.Snapshot()
		readers := map[string]graph.Reader{"snapshot": snap, "group": g, "followers": followerView(t, g)}
		before := g.Metrics().Snapshot()
		for _, start := range []graph.VertexID{1, 7, 23, 48} {
			for _, hops := range []int{1, 2, 3, 5} {
				for _, limit := range []int{0, 3} {
					want, err := graph.KHop(ref, start, graph.ETypeFollow, hops, limit)
					if err != nil {
						t.Fatal(err)
					}
					for name, r := range readers {
						got, err := graph.KHop(r, start, graph.ETypeFollow, hops, limit)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d KHop(%d,%d,%d) over %s: %d vertices, reference %d",
								shards, start, hops, limit, name, len(got), len(want))
						}
					}
				}
			}
		}
		after := g.Metrics().Snapshot()
		hopsIssued := after["shard.scatter_hops"].Value - before["shard.scatter_hops"].Value
		shardReads := after["shard.scatter_shard_reads"].Value - before["shard.scatter_shard_reads"].Value
		if hopsIssued == 0 || shardReads < hopsIssued {
			t.Fatalf("shards=%d: scatter_hops moved %d, scatter_shard_reads %d", shards, hopsIssued, shardReads)
		}
		if shards > 1 && shardReads == hopsIssued {
			t.Fatalf("shards=%d: no hop touched more than one shard (%d hops, %d shard reads)", shards, hopsIssued, shardReads)
		}

		p := pattern.Pattern{N: 3, Edges: []pattern.PEdge{
			{From: 0, To: 1, Type: graph.ETypeFollow},
			{From: 1, To: 2, Type: graph.ETypeFollow},
		}}
		seeds := make([]graph.VertexID, 0, 48)
		for v := graph.VertexID(1); v <= 48; v++ {
			seeds = append(seeds, v)
		}
		for _, max := range []int{0, 1, 17} {
			want, err := pattern.Match(ref, p, seeds, max)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pattern.Match(snap, p, seeds, max)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d Match(max=%d): cut %d, reference %d", shards, max, len(got), len(want))
			}
		}

		for _, start := range []graph.VertexID{1, 23} {
			for _, max := range []int{0, 5} {
				want, err := pattern.FindCycles(ref, start, graph.ETypeFollow, 4, max)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pattern.FindCycles(snap, start, graph.ETypeFollow, 4, max)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d FindCycles(%d,max=%d): cut %d, reference %d",
						shards, start, max, len(got), len(want))
				}
			}
		}
		snap.Close()
		g.Close()
	}
}

// TestSnapshotVectorRoundTrip covers the consistent-cut transfer path:
// a sampled vector re-pins the identical cut while the original is open,
// and every failure mode rejects fail-closed with no pins leaked.
func TestSnapshotVectorRoundTrip(t *testing.T) {
	g := openTestGroup(t, 4)
	seedRandomGraph(t, g, 3, 32, 120)

	orig := g.Snapshot()
	defer orig.Close()
	vec := orig.Epochs()

	// Writer moves on: the cut must still pin the old boundary vector.
	seedRandomGraph(t, g, 4, 32, 60)

	buf := vec.Encode()
	decoded, err := DecodeVector(buf)
	if err != nil {
		t.Fatalf("decode round-trip: %v", err)
	}
	if !reflect.DeepEqual(decoded, vec) {
		t.Fatalf("decode(encode(v)) = %v, want %v", decoded, vec)
	}

	re, err := g.SnapshotAt(decoded)
	if err != nil {
		t.Fatalf("SnapshotAt: %v", err)
	}
	if !reflect.DeepEqual(re.Epochs(), vec) {
		t.Fatalf("re-attached epochs %v, want %v", re.Epochs(), vec)
	}
	// The re-attached cut and the original see the same graph even though
	// later writes landed.
	for _, start := range []graph.VertexID{1, 9, 30} {
		want, err := graph.KHop(orig, start, graph.ETypeFollow, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := graph.KHop(re, start, graph.ETypeFollow, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-attached cut diverges from original at %d", start)
		}
	}
	re.Close()

	// Future component: ahead of the released horizon → rejected.
	future := append(Vector(nil), vec...)
	future[2] += 1 << 40
	if _, err := g.SnapshotAt(future); !errors.Is(err, ErrBadVector) {
		t.Fatalf("future vector err = %v, want ErrBadVector", err)
	}

	// Wrong shard count → rejected.
	if _, err := g.SnapshotAt(vec[:3]); !errors.Is(err, ErrBadVector) {
		t.Fatalf("short vector err = %v, want ErrBadVector", err)
	}

	// Mid-group LSN: released but not a boundary → mvcc.ErrNotBoundary
	// (or retired if the floor moved past it). Probe a few offsets; at
	// least one non-boundary LSN must exist below the current epochs.
	cur := g.ReadEpochs()
	rejected := false
	for delta := mvcc.Epoch(1); delta < 8 && !rejected; delta++ {
		if cur[0] < delta {
			break
		}
		mid := append(Vector(nil), cur...)
		mid[0] = cur[0] - delta
		snap, err := g.SnapshotAt(mid)
		if err == nil {
			snap.Close() // happened to hit a boundary; keep probing
			continue
		}
		rejected = true
		if !errors.Is(err, mvcc.ErrNotBoundary) && !errors.Is(err, mvcc.ErrRetiredEpoch) {
			t.Fatalf("mid-group vector err = %v", err)
		}
	}

	// Stale vector: after the original cut closes and the floor advances,
	// the old epochs retire and re-attach fails closed.
	orig.Close()
	if _, err := g.SnapshotAt(vec); err == nil {
		t.Fatal("re-attach after release should fail (epochs retired)")
	} else if !errors.Is(err, mvcc.ErrRetiredEpoch) && !errors.Is(err, mvcc.ErrNotBoundary) {
		t.Fatalf("stale vector err = %v", err)
	}

	// No pins may leak from any rejection above.
	for i := 0; i < g.Shards(); i++ {
		if n := g.Leader(i).Engine().Epochs().PinnedCount(); n != 0 {
			t.Fatalf("shard %d leaked %d pins", i, n)
		}
	}
}

// TestVectorDecodeFailsClosed hand-corrupts SSV1 buffers: every
// structural defect must reject.
func TestVectorDecodeFailsClosed(t *testing.T) {
	valid := Vector{10, 20, 30, 40}.Encode()
	if _, err := DecodeVector(valid); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}

	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)-5],
		"trailing":  append(append([]byte(nil), valid...), 0),
		"bad-magic": func() []byte { b := append([]byte(nil), valid...); b[0] ^= 0xFF; return b }(),
		"bad-version": func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 9
			return reseal(b)
		}(),
		"bad-crc": func() []byte { b := append([]byte(nil), valid...); b[len(b)-1] ^= 0xFF; return b }(),
		"zero-count": func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(b[5:], 0)
			return reseal(b)
		}(),
		"count-mismatch": func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(b[5:], 3)
			return reseal(b)
		}(),
		"duplicate-shard": func() []byte {
			b := append([]byte(nil), valid...)
			// Second entry claims shard 0 again.
			binary.LittleEndian.PutUint16(b[7+10:], 0)
			return reseal(b)
		}(),
		"shard-out-of-range": func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint16(b[7:], 7)
			return reseal(b)
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeVector(buf); !errors.Is(err, ErrBadVector) {
			t.Errorf("%s: err = %v, want ErrBadVector", name, err)
		}
	}
}
