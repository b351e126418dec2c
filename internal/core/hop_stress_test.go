package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/storage"
)

// TestStressHopBatchesRaceGCAndWriters races batched traversal hops against
// writers overwriting the edges they read and a GC loop relocating and
// reclaiming extents under them, on an unreplicated engine (no log: a
// reclaimed extent is released at once) with an 8-page cache. The
// edge set never changes — only property values do — so every traversal
// must equal the reference BFS, and a relocation that invalidates part of a
// hop's batch must never surface as an error. Run with -race.
func TestStressHopBatchesRaceGCAndWriters(t *testing.T) {
	snap := raceHops(t, true)
	if snap["storage.extents_reclaimed"].Value == 0 {
		t.Fatal("GC reclaimed no extent: the race was not exercised")
	}
}

// TestStressHopBatchesRaceCompactingWriters is the same race with no GC loop:
// the writers themselves relocate the extents their overwrites leave nearly
// empty (Engine.Compact, after each write), under hops loading pages in
// unlatched batches from the locations they moved.
func TestStressHopBatchesRaceCompactingWriters(t *testing.T) {
	snap := raceHops(t, false)
	n := snap["storage.extents_compacted"].Value
	if n == 0 {
		t.Fatal("the writers compacted no extent: the race was not exercised")
	}
	t.Logf("the writers compacted %d extents", n)
}

// raceHops runs two readers' batched KHops against two overwriting writers
// and, with gc, a loop of GC cycles, until the race the caller checks for has
// happened or 30 s passed, checks every traversal against the reference BFS
// and returns the engine's metrics.
func raceHops(t *testing.T, gc bool) metrics.Snapshot {
	e := newEngine(t, Options{
		Storage:        &storage.Options{ExtentSize: 8 << 10},
		Tree:           bwtree.Config{MaxPageEntries: 16, ConsolidateNum: 4, CacheCapacity: 8},
		SplitThreshold: 24,
	})
	const vertices = 96
	rng := rand.New(rand.NewSource(5))
	adj := make(map[graph.VertexID][]graph.VertexID)
	var edges [][2]graph.VertexID
	for v := graph.VertexID(1); v <= vertices; v++ {
		seen := map[graph.VertexID]bool{}
		for n := 2 + rng.Intn(38); len(seen) < n; { // half the sources cross the split threshold
			dst := graph.VertexID(1 + rng.Intn(vertices))
			if !seen[dst] {
				seen[dst] = true
				adj[v] = append(adj[v], dst)
				edges = append(edges, [2]graph.VertexID{v, dst})
			}
		}
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	write := func(ed [2]graph.VertexID, gen int) error {
		return e.AddEdge(graph.Edge{Src: ed[0], Dst: ed[1], Type: graph.ETypeTransfer,
			Props: graph.Properties{{Name: "gen", Value: []byte(fmt.Sprintf("%0*d", 8+gen%64, gen))}}})
	}
	for _, ed := range edges {
		if err := write(ed, 0); err != nil {
			t.Fatal(err)
		}
	}
	reference := func(start graph.VertexID, hops, limit int) map[graph.VertexID]struct{} {
		visited, reached := map[graph.VertexID]struct{}{start: {}}, map[graph.VertexID]struct{}{}
		frontier := []graph.VertexID{start}
		for h := 0; h < hops; h++ {
			var next []graph.VertexID
			for _, v := range frontier {
				for i, d := range adj[v] {
					if limit > 0 && i >= limit {
						break
					}
					if _, ok := visited[d]; !ok {
						visited[d], reached[d] = struct{}{}, struct{}{}
						next = append(next, d)
					}
				}
			}
			frontier = next
		}
		return reached
	}

	var stop atomic.Bool
	var bg sync.WaitGroup
	for w := 0; w < 2; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for gen := 1; !stop.Load(); gen++ {
				if err := write(edges[rng.Intn(len(edges))], gen); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	if gc {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for !stop.Load() {
				if _, err := e.RunGC(8); err != nil {
					t.Errorf("gc: %v", err)
					return
				}
			}
		}()
	}

	// The readers run 150 traversals each and then keep on until the race
	// their leg is about has happened — GC reclaimed an extent, or a writer
	// compacted one — or the deadline passed, which the caller reports.
	raced := func() bool {
		st := e.Store().Stats()
		return gc && st.ExtentsReclaimed > 0 || !gc && st.ExtentsCompacted > 0
	}
	deadline := time.Now().Add(30 * time.Second)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 150 || !raced() && time.Now().Before(deadline); i++ {
				start, hops, limit := graph.VertexID(1+rng.Intn(vertices)), 2+rng.Intn(3), 2+rng.Intn(3)
				view := e.View()
				got, err := graph.KHop(view, start, graph.ETypeTransfer, hops, limit)
				view.Close()
				if err != nil {
					t.Errorf("reader %d: KHop(%d, %d, %d): %v", r, start, hops, limit, err)
					return
				}
				if want := reference(start, hops, limit); !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d: KHop(%d, %d, %d) reached %d vertices, reference %d", r, start, hops, limit, len(got), len(want))
					return
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	bg.Wait()

	snap := e.Metrics().Snapshot()
	if b := snap["bwtree.batch_load_pages"].IntHistogram; b == nil || b.Max < 2 {
		t.Fatalf("bwtree.batch_load_pages = %+v: no hop loaded several cold pages at once", b)
	}
	return snap
}
