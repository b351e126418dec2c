package shard

import (
	"math/rand"
	"testing"

	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/graph"
)

// writeKey is a comparable identity for the test's writes (none carry
// properties, so owner, key and the delete flag identify one).
type writeKey struct {
	owner forest.OwnerID
	key   string
	del   bool
}

func keyOf(w forest.Write) writeKey { return writeKey{w.Owner, string(w.Key), w.Delete} }

// encodeBatch is core.Encode of a batch the test knows to be well formed.
func encodeBatch(tb testing.TB, muts []graph.Mutation) []forest.Write {
	tb.Helper()
	ws, err := core.Encode(muts)
	if err != nil {
		tb.Fatal(err)
	}
	return ws
}

// TestRouterProperties is the ISSUE 9 router property test: for random
// vertex sets and shard counts, routing is total, stable under re-route,
// and every multi-shard batch decomposes into per-shard groups whose
// union is exactly the input — no duplicate, no drop.
func TestRouterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed9))
	var fparts [][]graph.VertexID // reused across rounds of every shard count
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(32)
		r := NewRouter(n)
		if r.Shards() != n {
			t.Fatalf("Shards() = %d, want %d", r.Shards(), n)
		}

		ids := make([]graph.VertexID, 1+rng.Intn(512))
		for i := range ids {
			// Mix small sequential IDs with arbitrary 64-bit ones.
			if rng.Intn(2) == 0 {
				ids[i] = graph.VertexID(rng.Intn(1000))
			} else {
				ids[i] = graph.VertexID(rng.Uint64())
			}
		}

		// Total + stable: every vertex gets exactly one in-range owner and
		// re-routing gives the same answer, including via a fresh router.
		r2 := NewRouter(n)
		for _, id := range ids {
			s := r.Owner(id)
			if s < 0 || s >= n {
				t.Fatalf("Owner(%d) = %d out of range [0,%d)", id, s, n)
			}
			if again := r.Owner(id); again != s {
				t.Fatalf("Owner(%d) unstable: %d then %d", id, s, again)
			}
			if other := r2.Owner(id); other != s {
				t.Fatalf("Owner(%d) differs across routers: %d vs %d", id, s, other)
			}
		}

		// Batch decomposition: union of the per-shard groups == input.
		muts := make([]graph.Mutation, len(ids))
		for i, id := range ids {
			switch rng.Intn(3) {
			case 0:
				muts[i] = graph.AddVertexMut(graph.Vertex{ID: id, Type: graph.VTypeUser})
			case 1:
				muts[i] = graph.AddEdgeMut(graph.Edge{Src: id, Dst: graph.VertexID(rng.Uint64()), Type: graph.ETypeFollow})
			default:
				muts[i] = graph.DeleteEdgeMut(id, graph.ETypeFollow, graph.VertexID(rng.Uint64()))
			}
		}
		ws := encodeBatch(t, muts)
		parts := r.SplitBatch(ws)
		if len(parts) != n {
			t.Fatalf("SplitBatch returned %d groups, want %d", len(parts), n)
		}
		total := 0
		seen := make(map[writeKey][]int) // write -> input indexes (multiset)
		for i, w := range ws {
			k := keyOf(w)
			seen[k] = append(seen[k], i)
		}
		for s, part := range parts {
			prev := -1
			for _, w := range part {
				if owner := r.Owner(graph.VertexID(w.Owner)); owner != s {
					t.Fatalf("shard %d group holds a write owned by %d", s, owner)
				}
				k := keyOf(w)
				idxs := seen[k]
				if len(idxs) == 0 {
					t.Fatalf("shard %d delivered a write not in the input (duplicate or fabricated): %+v", s, w)
				}
				// Relative input order is preserved within a shard group:
				// consume the earliest remaining index and require ascent.
				if idxs[0] < prev {
					t.Fatalf("shard %d group out of input order", s)
				}
				prev = idxs[0]
				seen[k] = idxs[1:]
				total++
			}
		}
		if total != len(ws) {
			t.Fatalf("groups deliver %d writes, input had %d", total, len(ws))
		}
		for k, idxs := range seen {
			if len(idxs) != 0 {
				t.Fatalf("write dropped by SplitBatch: %+v", k)
			}
		}

		// Frontier split mirrors the same properties for plain vertex sets.
		fparts = r.SplitFrontier(ids, fparts)
		if len(fparts) != n {
			t.Fatalf("SplitFrontier returned %d groups, want %d", len(fparts), n)
		}
		count := 0
		for s, part := range fparts {
			for _, id := range part {
				if r.Owner(id) != s {
					t.Fatalf("frontier shard %d holds vertex owned by %d", s, r.Owner(id))
				}
				count++
			}
		}
		if count != len(ids) {
			t.Fatalf("frontier split delivers %d vertices, input had %d", count, len(ids))
		}
	}
}

// TestRouterSingleShardFastPath pins the no-copy fast path: a batch that
// routes entirely to one shard is passed through as the identical slice.
func TestRouterSingleShardFastPath(t *testing.T) {
	r := NewRouter(4)
	// Find three vertices on the same shard.
	var ids []graph.VertexID
	want := -1
	for id := graph.VertexID(1); len(ids) < 3; id++ {
		s := r.Owner(id)
		if want == -1 {
			want = s
		}
		if s == want {
			ids = append(ids, id)
		}
	}
	muts := []graph.Mutation{
		graph.AddVertexMut(graph.Vertex{ID: ids[0], Type: graph.VTypeUser}),
		graph.AddEdgeMut(graph.Edge{Src: ids[1], Dst: 999, Type: graph.ETypeFollow}),
		graph.DeleteEdgeMut(ids[2], graph.ETypeFollow, 999),
	}
	ws := encodeBatch(t, muts)
	parts := r.SplitBatch(ws)
	for s, part := range parts {
		if s == want {
			if len(part) != len(ws) || &part[0] != &ws[0] {
				t.Fatalf("single-shard batch not passed through as-is")
			}
			continue
		}
		if len(part) != 0 {
			t.Fatalf("shard %d unexpectedly received %d writes", s, len(part))
		}
	}
}
