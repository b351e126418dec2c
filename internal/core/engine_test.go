package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/graph"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestVertexRoundTrip(t *testing.T) {
	e := newEngine(t, Options{})
	v := graph.Vertex{ID: 42, Type: graph.VTypeUser, Props: graph.Properties{
		{Name: "name", Value: []byte("alice")},
	}}
	if err := e.AddVertex(v); err != nil {
		t.Fatal(err)
	}
	got, ok, err := e.GetVertex(42, graph.VTypeUser)
	if err != nil || !ok {
		t.Fatalf("get vertex = %v %v", ok, err)
	}
	if name, _ := got.Props.Get("name"); string(name) != "alice" {
		t.Fatalf("props = %+v", got.Props)
	}
	if _, ok, _ := e.GetVertex(42, graph.VTypeVideo); ok {
		t.Fatal("wrong-type vertex found")
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	e := newEngine(t, Options{})
	edge := graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeFollow, Props: graph.Properties{
		{Name: "ts", Value: []byte("12345")},
	}}
	if err := e.AddEdge(edge); err != nil {
		t.Fatal(err)
	}
	got, ok, err := e.GetEdge(1, graph.ETypeFollow, 2)
	if err != nil || !ok {
		t.Fatalf("get edge = %v %v", ok, err)
	}
	if ts, _ := got.Props.Get("ts"); string(ts) != "12345" {
		t.Fatalf("edge props = %+v", got.Props)
	}
	if err := e.DeleteEdge(1, graph.ETypeFollow, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.GetEdge(1, graph.ETypeFollow, 2); ok {
		t.Fatal("deleted edge visible")
	}
}

// TestReservedEdgeType pins the reserved type's rejection on the write
// side and — identically through every reader the one graph codec backs —
// on the read side (its keyspace holds vertex records, not edges).
func TestReservedEdgeType(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	e, err := NewWithStore(st, Options{
		Tree:   bwtree.Config{},
		Logger: committer(t, wal.NewWriter(st)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: 0xFFFF}); err == nil {
		t.Fatal("reserved edge type accepted")
	}
	if err := e.ApplyBatch([]graph.Mutation{graph.AddEdgeMut(graph.Edge{Src: 1, Dst: 2, Type: 0xFFFF})}); err == nil {
		t.Fatal("reserved edge type accepted in a batch")
	}
	if err := e.DeleteEdge(1, 0xFFFF, 2); !errors.Is(err, errReservedEdgeType) {
		t.Fatalf("DeleteEdge(reserved type) = %v, want errReservedEdgeType", err)
	}
	if err := e.ApplyBatch([]graph.Mutation{graph.DeleteEdgeMut(1, 0xFFFF, 3)}); !errors.Is(err, errReservedEdgeType) {
		t.Fatalf("a batch deleting the reserved type = %v, want errReservedEdgeType", err)
	}
	if err := e.AddVertex(graph.Vertex{ID: 1, Type: graph.VTypeUser}); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(st, 0)
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyAll(recs); err != nil {
		t.Fatal(err)
	}
	view := e.View()
	defer view.Close()
	var want string
	for _, tc := range []struct {
		name string
		r    graph.Reader
	}{{"Engine", e}, {"ReadView", view}, {"Replica", rep}} {
		_, ok, err := tc.r.GetEdge(1, 0xFFFF, 2)
		if ok || err == nil {
			t.Fatalf("%s.GetEdge(reserved type) = ok %v, err %v; want a rejection", tc.name, ok, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("%s rejects with %q, others with %q", tc.name, err, want)
		}
	}
}

func TestNeighborsOrderedAndTyped(t *testing.T) {
	e := newEngine(t, Options{})
	for _, dst := range []graph.VertexID{30, 10, 20} {
		if err := e.AddEdge(graph.Edge{Src: 1, Dst: dst, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddEdge(graph.Edge{Src: 1, Dst: 99, Type: graph.ETypeLike}); err != nil {
		t.Fatal(err)
	}
	// Vertex record must not leak into neighbor scans.
	if err := e.AddVertex(graph.Vertex{ID: 1, Type: graph.VTypeUser}); err != nil {
		t.Fatal(err)
	}
	var dsts []graph.VertexID
	if err := e.Neighbors(1, graph.ETypeFollow, 0, func(d graph.VertexID, _ graph.Properties) bool {
		dsts = append(dsts, d)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(dsts) != 3 || dsts[0] != 10 || dsts[1] != 20 || dsts[2] != 30 {
		t.Fatalf("neighbors = %v", dsts)
	}
	if deg, _ := e.Degree(1, graph.ETypeLike); deg != 1 {
		t.Fatalf("like degree = %d", deg)
	}
	// Limit.
	n := 0
	if err := e.Neighbors(1, graph.ETypeFollow, 2, func(graph.VertexID, graph.Properties) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("limited neighbors = %d", n)
	}
}

func TestSuperVertex(t *testing.T) {
	// A high-degree vertex with forest splitting enabled: adjacency spans
	// many pages and a dedicated tree.
	e := newEngine(t, Options{
		SplitThreshold: 64,
		Tree:           bwtree.Config{MaxPageEntries: 16},
	})
	const degree = 1000
	for i := 0; i < degree; i++ {
		if err := e.AddEdge(graph.Edge{Src: 7, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	if deg, err := e.Degree(7, graph.ETypeLike); err != nil || deg != degree {
		t.Fatalf("degree = %d %v, want %d", deg, err, degree)
	}
	if s := e.Forest().Stats(); s.Trees < 2 {
		t.Fatalf("forest trees = %d, want the super-vertex split out", s.Trees)
	}
}

func TestKHopOnEngine(t *testing.T) {
	e := newEngine(t, Options{})
	edges := []graph.Edge{
		{Src: 1, Dst: 2, Type: graph.ETypeFollow},
		{Src: 1, Dst: 3, Type: graph.ETypeFollow},
		{Src: 2, Dst: 4, Type: graph.ETypeFollow},
		{Src: 3, Dst: 4, Type: graph.ETypeFollow},
		{Src: 4, Dst: 5, Type: graph.ETypeFollow},
	}
	for _, ed := range edges {
		if err := e.AddEdge(ed); err != nil {
			t.Fatal(err)
		}
	}
	reached, err := graph.KHop(e, 1, graph.ETypeFollow, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reached) != 3 { // 2,3,4
		t.Fatalf("2-hop reached %d vertices, want 3", len(reached))
	}
}

func TestEngineGC(t *testing.T) {
	e := newEngine(t, Options{
		Storage: &storage.Options{ExtentSize: 1 << 10},
		Tree:    bwtree.Config{ConsolidateNum: 3, MaxPageEntries: 16},
	})
	// Heavy overwrites generate garbage.
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			if err := e.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeLike,
				Props: graph.Properties{{Name: "r", Value: []byte{byte(round)}}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved, err := e.RunGC(4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Store().Stats().ExtentsReclaimed == 0 {
		t.Fatal("GC reclaimed nothing despite heavy overwrites")
	}
	// Data still intact post-GC.
	if deg, _ := e.Degree(1, graph.ETypeLike); deg != 30 {
		t.Fatalf("degree after GC = %d, want 30", deg)
	}
	if e.GCStats().BytesMoved != moved {
		t.Fatalf("GCStats = %+v, moved %d", e.GCStats(), moved)
	}
}

func TestEngineTTLExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	e := newEngine(t, Options{
		Storage: &storage.Options{ExtentSize: 1 << 10, Now: clock},
		Tree:    bwtree.Config{MaxPageEntries: 16},
		TTL:     time.Minute,
	})
	for i := 0; i < 50; i++ {
		if err := e.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeTransfer}); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(time.Hour)
	if _, err := e.RunGC(8); err != nil {
		t.Fatal(err)
	}
	st := e.Store().Stats()
	if st.ExtentsExpired == 0 {
		t.Fatal("no extents expired despite TTL")
	}
	if st.GCBytesMoved != 0 {
		t.Fatalf("TTL expiry moved %d bytes, want 0", st.GCBytesMoved)
	}
}

func TestEngineReplicaEndToEnd(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	e, err := NewWithStore(st, Options{
		Tree:           bwtree.Config{MaxPageEntries: 16},
		SplitThreshold: 32,
		Logger:         committer(t, wal.NewWriter(st)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(st, 0)
	rd := wal.NewReader(st)

	if err := e.AddVertex(graph.Vertex{ID: 5, Type: graph.VTypeUser,
		Props: graph.Properties{{Name: "n", Value: []byte("bob")}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.AddEdge(graph.Edge{Src: 5, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := rd.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyAll(recs); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := rep.GetVertex(5, graph.VTypeUser); err != nil || !ok {
		t.Fatalf("replica vertex = %v %v", ok, err)
	} else if n, _ := v.Props.Get("n"); string(n) != "bob" {
		t.Fatalf("replica vertex props = %+v", v.Props)
	}
	if deg, err := rep.Degree(5, graph.ETypeFollow); err != nil || deg != 100 {
		t.Fatalf("replica degree = %d %v, want 100", deg, err)
	}
	// Multi-hop over the replica as a graph.Reader (the 5->5 self-loop
	// reaches nothing new).
	if reached, err := graph.KHop(rep, 5, graph.ETypeFollow, 1, 0); err != nil || len(reached) != 99 {
		t.Fatalf("replica KHop reached %d, %v, want 99", len(reached), err)
	}
}

// committer is a test engine's logger, the product's: a group committer over
// w, stopped with the test.
func committer(t *testing.T, w *wal.Writer) *wal.GroupCommitter {
	c := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{})
	t.Cleanup(c.Stop)
	return c
}

func TestManyVerticesAndEdges(t *testing.T) {
	e := newEngine(t, Options{
		SplitThreshold: 100,
		Tree:           bwtree.Config{MaxPageEntries: 32},
	})
	const users = 50
	for u := 0; u < users; u++ {
		if err := e.AddVertex(graph.Vertex{ID: graph.VertexID(u), Type: graph.VTypeUser}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < u; k++ { // user u follows u users
			if err := e.AddEdge(graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(k), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := 0; u < users; u++ {
		if _, ok, _ := e.GetVertex(graph.VertexID(u), graph.VTypeUser); !ok {
			t.Fatalf("vertex %d lost", u)
		}
		deg, err := e.Degree(graph.VertexID(u), graph.ETypeFollow)
		if err != nil || deg != u {
			t.Fatalf("degree(%d) = %d %v, want %d", u, deg, err, u)
		}
	}
}

func TestEngineBackgroundGC(t *testing.T) {
	e := newEngine(t, Options{
		Storage:    &storage.Options{ExtentSize: 512},
		Tree:       bwtree.Config{ConsolidateNum: 2},
		GCInterval: 2 * time.Millisecond,
		GCBatch:    2,
	})
	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			if err := e.AddEdge(graph.Edge{Src: 2, Dst: graph.VertexID(i), Type: graph.ETypeLike,
				Props: graph.Properties{{Name: "r", Value: []byte(fmt.Sprintf("%d", round))}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.GCStats().Runs > 0 && e.GCStats().BytesMoved > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if e.GCStats().Runs == 0 {
		t.Fatal("background GC never ran")
	}
	if deg, _ := e.Degree(2, graph.ETypeLike); deg != 10 {
		t.Fatalf("degree = %d after background GC", deg)
	}
}

// TestEngineMixedStress hammers one engine with concurrent mixed
// operations (inserts, deletes, point reads, scans, multi-hop) across
// contended and disjoint vertices, with background GC running, and then
// verifies full data integrity against a recomputed model.
func TestEngineMixedStress(t *testing.T) {
	e := newEngine(t, Options{
		Storage:        &storage.Options{ExtentSize: 8 << 10},
		Tree:           bwtree.Config{MaxPageEntries: 16, ConsolidateNum: 4},
		SplitThreshold: 64,
		GCInterval:     2 * time.Millisecond,
		GCBatch:        2,
	})
	const (
		workers = 6
		perW    = 400
		sources = 8
	)
	// Each worker owns a disjoint destination range per source so the
	// final degree is deterministic: inserts minus deletes.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 99))
			for i := 0; i < perW; i++ {
				src := graph.VertexID(rng.Intn(sources))
				dst := graph.VertexID(w*100000 + rng.Intn(200))
				switch rng.Intn(10) {
				case 0:
					if err := e.DeleteEdge(src, graph.ETypeLike, dst); err != nil {
						t.Error(err)
						return
					}
				case 1:
					_, _ = e.Degree(src, graph.ETypeLike)
				case 2:
					_, _, _ = e.GetEdge(src, graph.ETypeLike, dst)
				case 3:
					_, _ = graph.KHopBudget(e, src, graph.ETypeLike, 2, 8, 32)
				default:
					if err := e.AddEdge(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeLike}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Rebuild the expected state by replaying each worker's deterministic
	// stream (same seeds), then compare against the engine.
	model := refmodel.Graph{}
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w) + 99))
		for i := 0; i < perW; i++ {
			src := graph.VertexID(rng.Intn(sources))
			dst := graph.VertexID(w*100000 + rng.Intn(200))
			switch rng.Intn(10) {
			case 0:
				_ = model.DeleteEdge(src, graph.ETypeLike, dst)
			case 1, 2, 3:
			default:
				_ = model.AddEdge(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeLike})
			}
		}
	}
	// Caveat: concurrent add/delete of the SAME edge by one worker is
	// sequential within that worker, and workers use disjoint dst ranges,
	// so the replay is exact.
	var srcs []graph.VertexID
	for src := graph.VertexID(0); src < sources; src++ {
		srcs = append(srcs, src)
	}
	got, err := refmodel.Observe(e, srcs, []graph.EdgeType{graph.ETypeLike})
	if err == nil {
		err = refmodel.Diff(got, model)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestNamingRoundTrip: the leaves a checkpoint names — low key, records and
// their tree's role — are the forest. A replica of them alone reads every edge
// with no log replayed, the hot owner's from its dedicated tree.
func TestNamingRoundTrip(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	e, err := NewWithStore(st, Options{
		Tree:           bwtree.Config{MaxPageEntries: 16},
		SplitThreshold: 20,
		Logger:         committer(t, wal.NewWriter(st)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A hot owner (dedicated tree) and cold owners in INIT.
	for i := 0; i < 60; i++ {
		if err := e.AddEdge(graph.Edge{Src: 3, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	for src := 10; src < 15; src++ {
		if err := e.AddEdge(graph.Edge{Src: graph.VertexID(src), Dst: 1, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	named := e.Forest().NameLeaves(nil, 0, 1)
	var inits, owned int
	for _, up := range named {
		if !up.Named || (up.Init == up.Owned) {
			t.Fatalf("leaf %d named %+v, want a naming of an INIT or an owned tree", up.Page, up)
		}
		if up.Init {
			inits++
		} else if up.Owner == 3 {
			owned++
		}
	}
	if inits == 0 || owned < 2 {
		t.Fatalf("%d INIT leaves and %d of owner 3's named, want both trees, the dedicated one split", inits, owned)
	}
	rep := replicaOfPages(t, st, 1<<40, named)
	if deg, err := rep.Degree(3, graph.ETypeLike); err != nil || deg != 60 {
		t.Fatalf("replica degree = %d %v", deg, err)
	}
	for src := 10; src < 15; src++ {
		if _, ok, _ := rep.GetEdge(graph.VertexID(src), graph.ETypeFollow, 1); !ok {
			t.Fatalf("edge %d missing from the replica of the named pages", src)
		}
	}
	if rep.HighLSN() != 1<<40 {
		t.Fatalf("high LSN = %d", rep.HighLSN())
	}
}

func TestReplicaReaderSurface(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	e, err := NewWithStore(st, Options{
		Tree:   bwtree.Config{},
		Logger: committer(t, wal.NewWriter(st)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVertex(graph.Vertex{ID: 1, Type: graph.VTypeUser}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeLike}); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(st, 0)
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyAll(recs); err != nil {
		t.Fatal(err)
	}
	var s graph.Reader = rep
	if _, ok, _ := s.GetVertex(1, graph.VTypeUser); !ok {
		t.Fatal("vertex missing on replica")
	}
	if _, ok, _ := s.GetEdge(1, graph.ETypeLike, 2); !ok {
		t.Fatal("edge missing on replica")
	}
	if d, _ := s.Degree(1, graph.ETypeLike); d != 1 {
		t.Fatalf("degree = %d", d)
	}
}
