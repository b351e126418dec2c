package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
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
