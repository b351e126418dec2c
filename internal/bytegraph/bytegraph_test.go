package bytegraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"bg3/internal/graph"
	"bg3/internal/lsm"
	"bg3/internal/refmodel"
)

func TestVertexRoundTrip(t *testing.T) {
	s := New(Config{})
	if err := s.AddVertex(graph.Vertex{ID: 1, Type: graph.VTypeUser,
		Props: graph.Properties{{Name: "n", Value: []byte("a")}}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.GetVertex(1, graph.VTypeUser)
	if err != nil || !ok {
		t.Fatalf("get = %v %v", ok, err)
	}
	if n, _ := v.Props.Get("n"); string(n) != "a" {
		t.Fatalf("props = %+v", v.Props)
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	s := New(Config{})
	if err := s.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeFollow,
		Props: graph.Properties{{Name: "ts", Value: []byte("9")}}}); err != nil {
		t.Fatal(err)
	}
	e, ok, err := s.GetEdge(1, graph.ETypeFollow, 2)
	if err != nil || !ok {
		t.Fatalf("get = %v %v", ok, err)
	}
	if ts, _ := e.Props.Get("ts"); string(ts) != "9" {
		t.Fatalf("props = %+v", e.Props)
	}
	if err := s.DeleteEdge(1, graph.ETypeFollow, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.GetEdge(1, graph.ETypeFollow, 2); ok {
		t.Fatal("deleted edge visible")
	}
}

func TestPageSplitting(t *testing.T) {
	s := New(Config{EdgesPerPage: 8})
	const degree = 200
	for i := 0; i < degree; i++ {
		if err := s.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	deg, err := s.Degree(1, graph.ETypeLike)
	if err != nil || deg != degree {
		t.Fatalf("degree = %d %v", deg, err)
	}
	// The adjacency spans many pages.
	tree, err := s.loadTree(1, graph.ETypeLike)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.pages) < degree/8 {
		t.Fatalf("pages = %d, want >= %d", len(tree.pages), degree/8)
	}
	// Neighbors stream in destination order.
	var prev graph.VertexID
	first := true
	if err := s.Neighbors(1, graph.ETypeLike, 0, func(dst graph.VertexID, _ graph.Properties) bool {
		if !first && dst <= prev {
			t.Fatalf("order violation: %d after %d", dst, prev)
		}
		prev, first = dst, false
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertOrder(t *testing.T) {
	s := New(Config{EdgesPerPage: 4})
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(300)
	for _, i := range perm {
		if err := s.AddEdge(graph.Edge{Src: 9, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if _, ok, _ := s.GetEdge(9, graph.ETypeFollow, graph.VertexID(i)); !ok {
			t.Fatalf("edge to %d lost", i)
		}
	}
	if deg, _ := s.Degree(9, graph.ETypeFollow); deg != 300 {
		t.Fatalf("degree = %d", deg)
	}
}

func TestCacheEvictionReloadsFromLSM(t *testing.T) {
	s := New(Config{CacheTrees: 2, EdgesPerPage: 8})
	for src := 1; src <= 10; src++ {
		for d := 0; d < 20; d++ {
			if err := s.AddEdge(graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(d), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// All trees remain readable despite the tiny cache.
	for src := 1; src <= 10; src++ {
		if deg, _ := s.Degree(graph.VertexID(src), graph.ETypeFollow); deg != 20 {
			t.Fatalf("degree(%d) = %d", src, deg)
		}
	}
	_, misses := s.CacheStats()
	if misses == 0 {
		t.Fatal("no cache misses with capacity 2 and 10 trees")
	}
	// Cache misses reach the LSM.
	if s.KV().Stats().Gets == 0 {
		t.Fatal("LSM never consulted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Config{EdgesPerPage: 16, CacheTrees: 8})
	var wg sync.WaitGroup
	const writers, per = 8, 150
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				src := graph.VertexID(w % 4) // contended sources
				if err := s.AddEdge(graph.Edge{Src: src, Dst: graph.VertexID(w*1000 + i), Type: graph.ETypeLike}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.GetEdge(src, graph.ETypeLike, graph.VertexID(w*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for src := 0; src < 4; src++ {
		d, err := s.Degree(graph.VertexID(src), graph.ETypeLike)
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	if total != writers*per {
		t.Fatalf("total edges = %d, want %d", total, writers*per)
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{EdgesPerPage: 4})
		model := refmodel.Graph{}
		for i := 0; i < 300; i++ {
			src, dst := graph.VertexID(rng.Intn(5)), graph.VertexID(rng.Intn(40))
			muts := []graph.Mutation{graph.AddEdgeMut(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeLike})}
			if rng.Intn(4) == 0 {
				muts[0] = graph.DeleteEdgeMut(src, graph.ETypeLike, dst)
			}
			if err := refmodel.Apply(s, muts); err != nil {
				return false
			}
			_ = refmodel.Apply(model, muts) // a Graph's writes return no error
		}
		got, err := refmodel.Observe(s, []graph.VertexID{0, 1, 2, 3, 4}, []graph.EdgeType{graph.ETypeLike})
		return err == nil && refmodel.Diff(got, model) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLSMChurnVisible(t *testing.T) {
	// Heavy writes must reach the LSM and trigger its maintenance
	// machinery — this is the cost profile the BG3 comparison measures.
	s := New(Config{KV: lsm.Config{MemtableBytes: 4 << 10, L0Tables: 2}, EdgesPerPage: 16})
	for i := 0; i < 3000; i++ {
		if err := s.AddEdge(graph.Edge{
			Src: graph.VertexID(i % 50), Dst: graph.VertexID(i), Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "p", Value: []byte(fmt.Sprintf("%032d", i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	kv := s.KV().Stats()
	if kv.Flushes == 0 || kv.Compactions == 0 {
		t.Fatalf("LSM stats = %+v: expected flushes and compactions", kv)
	}
}
