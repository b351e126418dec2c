package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// batchStream is a seeded, shuffled mutation stream for owners [first,
// first+owners): upserts of the same edge with different properties, deletes
// of edges that were never added, add-then-delete pairs and vertex records,
// with every key's mutations scattered across the stream. The first three
// owners end far above the forest split threshold whatever the order, the
// rest never come near it at any prefix, so which owners migrate does not
// depend on how the stream is cut into batches.
func batchStream(seed int64, first, owners int) []graph.Mutation {
	rng := rand.New(rand.NewSource(seed))
	var muts []graph.Mutation
	edge := func(src, dst graph.VertexID, gen int) graph.Edge {
		return graph.Edge{Src: src, Dst: dst, Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "gen", Value: []byte(fmt.Sprintf("%d/%d", gen, rng.Intn(1000)))}}}
	}
	for o := 0; o < owners; o++ {
		src := graph.VertexID(first + o)
		muts = append(muts, graph.AddVertexMut(graph.Vertex{ID: src, Type: graph.VTypeUser}))
		dsts := 6 + rng.Intn(14)
		if o < 3 {
			dsts = 150
		}
		for d := 0; d < dsts; d++ {
			dst := graph.VertexID(rng.Intn(1 << 20))
			muts = append(muts, graph.AddEdgeMut(edge(src, dst, 0)))
			switch rng.Intn(8) {
			case 0, 1: // upsert: the same key again
				muts = append(muts, graph.AddEdgeMut(edge(src, dst, 1)))
			case 2: // the pair, and what is left depends on the order they land in
				muts = append(muts, graph.DeleteEdgeMut(src, graph.ETypeFollow, dst))
			case 3: // add, delete, add
				muts = append(muts, graph.DeleteEdgeMut(src, graph.ETypeFollow, dst), graph.AddEdgeMut(edge(src, dst, 2)))
			case 4: // a delete of a key nobody adds
				muts = append(muts, graph.DeleteEdgeMut(src, graph.ETypeLike, dst))
			}
		}
	}
	rng.Shuffle(len(muts), func(i, j int) { muts[i], muts[j] = muts[j], muts[i] })
	return muts
}

// forestImage is everything the forest can be asked about a set of owners:
// every key and value, the size accounting and who migrated.
type forestImage struct {
	Scans    map[forest.OwnerID][]string
	Counts   map[forest.OwnerID]int
	InitKeys int
	Migrated []forest.OwnerID
}

func imageOf(t *testing.T, e *Engine, owners int) forestImage {
	t.Helper()
	img := forestImage{Scans: map[forest.OwnerID][]string{}, Counts: map[forest.OwnerID]int{}}
	f := e.Forest()
	for o := forest.OwnerID(1); o <= forest.OwnerID(owners); o++ {
		if err := f.Scan(o, nil, nil, 0, func(k, v []byte) bool {
			img.Scans[o] = append(img.Scans[o], fmt.Sprintf("%x=%x", k, v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		img.Counts[o] = f.OwnerCount(o)
		if img.Counts[o] != len(img.Scans[o]) {
			t.Fatalf("owner %d: count %d, %d keys scanned", o, img.Counts[o], len(img.Scans[o]))
		}
	}
	img.InitKeys = f.Stats().InitKeys
	for _, a := range f.OwnerAssignments() {
		img.Migrated = append(img.Migrated, a.Owner)
	}
	sort.Slice(img.Migrated, func(i, j int) bool { return img.Migrated[i] < img.Migrated[j] })
	return img
}

// diff names the first thing two forest images disagree on, "" when nothing.
func (got forestImage) diff(want forestImage) string {
	for o, w := range want.Scans {
		g := got.Scans[o]
		for i := 0; i < max(len(g), len(w)); i++ {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				return fmt.Sprintf("owner %d: %d keys, want %d; first difference at key %d: %q vs %q",
					o, len(g), len(w), i, append(g, "<none>")[i], append(w, "<none>")[i])
			}
		}
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) || got.InitKeys != want.InitKeys || !reflect.DeepEqual(got.Migrated, want.Migrated) {
		return fmt.Sprintf("counts %v init %d migrated %v, want %v / %d / %v",
			got.Counts, got.InitKeys, got.Migrated, want.Counts, want.InitKeys, want.Migrated)
	}
	return ""
}

// TestApplyBatchEqualsSingleWrites is the contract of the leaf run: a batch
// is its mutations applied one by one. Two writers, each owning half the
// owners, push the same stream through ApplyBatch in uneven batches — one
// mutation, a handful, hundreds; leaves of 16 entries, so runs cross leaf
// boundaries, are cut by splits and cross the forest split threshold midway —
// and through the single-write calls; every owner's full scan, every owner
// count, the INIT count and the migrated set must agree. On a sync engine, on
// an async engine logging to a group-committed WAL, and on a replica that
// replayed that WAL. Run with -race: the writers share the INIT tree's leaves.
func TestApplyBatchEqualsSingleWrites(t *testing.T) {
	const owners = 12
	streams := [2][]graph.Mutation{batchStream(1, 1, owners/2), batchStream(2, 1+owners/2, owners/2)}
	load := func(t *testing.T, e *Engine, batched bool) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(streams))
		for i, muts := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for size := 1; len(muts) > 0 && errs[i] == nil; size = size*5 + 2 {
					n := min(size, len(muts))
					if batched {
						errs[i] = e.ApplyBatch(muts[:n])
					} else {
						errs[i] = graph.ApplyMutations(struct{ graph.Store }{e}, muts[:n])
					}
					muts = muts[n:]
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := bwtree.Config{MaxPageEntries: 16, ConsolidateNum: 4}

	t.Run("sync", func(t *testing.T) {
		single := newEngine(t, Options{Tree: cfg, SplitThreshold: 32})
		batch := newEngine(t, Options{Tree: cfg, SplitThreshold: 32})
		load(t, single, false)
		load(t, batch, true)
		want, got := imageOf(t, single, owners), imageOf(t, batch, owners)
		if len(want.Migrated) != 6 {
			t.Fatalf("migrated owners %v, want the three heavy ones of each stream", want.Migrated)
		}
		if d := got.diff(want); d != "" {
			t.Fatalf("batched load differs from single writes: %s", d)
		}
	})

	t.Run("async+wal+replica", func(t *testing.T) {
		single := newEngine(t, Options{Tree: cfg, SplitThreshold: 32})
		load(t, single, false)
		want := imageOf(t, single, owners)

		cfg := cfg
		st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
		defer st.Close()
		gc := wal.NewGroupCommitter(wal.NewWriter(st), wal.GroupCommitterOptions{})
		defer gc.Stop()
		batch, err := NewWithStore(st, Options{Tree: cfg, SplitThreshold: 32, Logger: gc})
		if err != nil {
			t.Fatal(err)
		}
		defer batch.Close()
		load(t, batch, true)
		if d := imageOf(t, batch, owners).diff(want); d != "" {
			t.Fatalf("batched async load differs from single writes: %s", d)
		}
		if _, err := batch.FlushDirty(); err != nil {
			t.Fatal(err)
		}
		if d := imageOf(t, batch, owners).diff(want); d != "" {
			t.Fatalf("flushed batched load differs from single writes: %s", d)
		}

		// The replica sees only the WAL: per-key record order is all it has.
		rep := NewReplica(st, 0)
		recs, err := wal.NewReader(st).Poll()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyAll(recs); err != nil {
			t.Fatal(err)
		}
		for o := graph.VertexID(1); o <= owners; o++ {
			for _, r := range []graph.Reader{single, rep} {
				if _, ok, err := r.GetVertex(o, graph.VTypeUser); err != nil || !ok {
					t.Fatalf("vertex %d: %v %v", o, ok, err)
				}
			}
			for _, typ := range []graph.EdgeType{graph.ETypeFollow, graph.ETypeLike} {
				var got, want []string
				for r, out := range map[graph.Reader]*[]string{rep: &got, single: &want} {
					if err := r.Neighbors(o, typ, 0, func(dst graph.VertexID, ps graph.Properties) bool {
						gen, _ := ps.Get("gen")
						*out = append(*out, fmt.Sprintf("%d:%s", dst, gen))
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replica neighbors of %d/%d differ:\n got %v\nwant %v", o, typ, got, want)
				}
			}
		}
	})
}
