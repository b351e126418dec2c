//go:build !race

package bg3

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bg3/internal/graph"
)

// The allocation pin runs without the race detector, whose instrumentation
// changes what escapes and how much an allocation costs.

var reachedSink map[VertexID]struct{}

// bytesPerCall reports the mean bytes one call of fn allocates, with the
// collector off so no pool is emptied mid-measurement.
func bytesPerCall(runs int, fn func()) int {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestShardedKHopAllocatesItsAnswer: once the pools are warm, a 3-hop KHop
// on four shards — every hop a scatter over all of them — allocates the
// map it returns plus a constant per hop (the snapshot pin, one goroutine
// per touched shard). The per-shard frontier parts and edge lists are
// pooled; allocated per hop they cost about four times the answer.
func TestShardedKHopAllocatesItsAnswer(t *testing.T) {
	const vertices, hops = 2000, 3
	db := openDB(t, &Options{Shards: 4, FlushInterval: time.Hour}) // no flush cycle allocates mid-measurement
	for i := 0; i < vertices*16; i++ {
		if err := db.AddEdge(Edge{Src: VertexID(i % vertices), Dst: VertexID((i/vertices*131 + i*7) % vertices), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.KHop(1, ETypeFollow, hops, 16) // also warms the pools
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 500 {
		t.Fatalf("fixture: %d hops reach %d vertices", hops, len(want))
	}
	ids := make([]VertexID, 0, len(want))
	for v := range want {
		ids = append(ids, v)
	}
	answer := bytesPerCall(50, func() {
		m := make(map[VertexID]struct{}, len(ids))
		for _, v := range ids {
			m[v] = struct{}{}
		}
		reachedSink = m
	})
	// The least of five rounds: a hop's goroutines can move the traversal to
	// another P, whose pool a call may still find empty.
	got := math.MaxInt
	for round := 0; round < 5; round++ {
		got = min(got, bytesPerCall(20, func() {
			reachedSink, err = db.KHop(1, ETypeFollow, hops, 16)
		}))
	}
	if err != nil || len(reachedSink) != len(want) {
		t.Fatalf("KHop reached %d (%v), want %d", len(reachedSink), err, len(want))
	}
	const perHop = 1024
	t.Logf("%d-hop KHop on 4 shards reaching %d: %d B per call, its answer alone %d B", hops, len(want), got, answer)
	if got > answer+hops*perHop {
		t.Fatalf("%d-hop KHop on 4 shards reaching %d allocates %d B per call, want <= its answer's %d B + %d per hop", hops, len(want), got, answer, perHop)
	}
}

// TestLoggedAddEdgeAllocatesPerGroup: once warm, an AddEdge on a one-shard
// leader and on four shards — every write waits on a WAL group commit —
// allocates at most 4 objects, as many as on a bare engine: the edge's key,
// its composite key in the INIT tree, its durability wait, and a share of the
// leaf's overlay and splits. Its WAL record comes from a free list and is
// copied into the committer's queue; the group's envelope, its flight, the
// queue entry and the wait list are recycled or live on the stack. A record
// allocated per write cost one object more; encoded per record into fresh
// buffers, the log cost 10 more.
func TestLoggedAddEdgeAllocatesPerGroup(t *testing.T) {
	for _, shape := range []struct {
		name string
		opts Options
	}{
		{"leader", Options{Replicated: true, FlushInterval: time.Hour}}, // no flush cycle allocates mid-measurement
		{"shards-4", Options{Shards: 4, FlushInterval: time.Hour}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db := openDB(t, &shape.opts)
			i := 0
			add := func() {
				if err := db.AddEdge(Edge{Src: VertexID(i % 100), Dst: VertexID(i), Type: ETypeFollow}); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 2000 {
				add()
			}
			const limit = 4
			got := testing.AllocsPerRun(2000, add)
			t.Logf("AddEdge on %s: %.2f allocations", shape.name, got)
			if got > limit {
				t.Fatalf("AddEdge on %s allocates %.2f objects, want <= %d", shape.name, got, limit)
			}
		})
	}
}

// TestReadsAllocateOnlyTheirAnswer: once warm, an adjacency scan allocates
// nothing — limit 128 or unlimited, over a small owner in the shared INIT tree
// and over an edge-block-served super-vertex, through the DB, a Snapshot and
// a Replica, on a bare engine, a one-shard leader and four shards. Each scan
// decodes into a decoder borrowed from graph's free list; one built per call
// cost 3 objects. Degree allocates nothing either, and a GetEdge of a
// one-property edge allocates its answer alone — the property slice, the name
// and the value, which are the caller's to keep — and no key.
func TestReadsAllocateOnlyTheirAnswer(t *testing.T) {
	const small, hub, hubEdges = VertexID(1), VertexID(2), 1024
	for _, shape := range []struct {
		name string
		opts Options
	}{
		{"bare", Options{}},
		{"leader", Options{Replicated: true}},
		{"shards-4", Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			o := shape.opts
			o.ForestSplitThreshold, o.EdgeBlockThreshold = 64, 256
			// No flush cycle or replica poll allocates mid-measurement.
			o.FlushInterval, o.ReplicaPollInterval = time.Hour, time.Hour
			db := openDB(t, &o)
			loadTSGraph(t, db, hubEdges, hub)
			loadTSGraph(t, db, 20, small)
			snap := db.Snapshot()
			defer snap.Close()
			readers := map[string]graph.Reader{"db": db, "snapshot": snap}
			if db.group != nil {
				rep, err := db.OpenReplica()
				if err != nil {
					t.Fatal(err)
				}
				defer rep.Stop()
				if err := rep.Sync(); err != nil {
					t.Fatal(err)
				}
				readers["replica"] = rep
			}
			blockHits := db.Stats().EdgeBlocks.Hits
			for name, r := range readers {
				for _, src := range []VertexID{small, hub} {
					degree := map[VertexID]int{small: 20, hub: hubEdges}[src]
					for _, limit := range []int{128, 0} {
						want := degree
						if limit > 0 {
							want = min(want, limit)
						}
						// The callback is made once: a closure made per call
						// would be the test's own allocation.
						var n int
						var err error
						count := func(_ VertexID, p Properties) bool {
							if v, ok := p.Get("ts"); ok && len(v) == 8 {
								n++
							}
							return true
						}
						scan := func() {
							n = 0
							err = r.Neighbors(src, ETypeFollow, limit, count)
						}
						for range 3 {
							scan() // builds the hub's block, warms the free list
						}
						objects, bytes := allocsPerCall(scan)
						if err != nil || n != want {
							t.Fatalf("%s: Neighbors(%d, limit %d) read %d edges (%v), want %d", name, src, limit, n, err, want)
						}
						if objects != 0 || bytes != 0 {
							t.Errorf("%s: Neighbors(%d, limit %d) allocates %.2f objects, %.0f B per call, want none", name, src, limit, objects, bytes)
						}
					}
					var deg int
					var err error
					if objects, bytes := allocsPerCall(func() { deg, err = r.Degree(src, ETypeFollow) }); objects != 0 || bytes != 0 {
						t.Errorf("%s: Degree(%d) allocates %.2f objects, %.0f B per call, want none", name, src, objects, bytes)
					}
					if err != nil || deg != degree {
						t.Fatalf("%s: Degree(%d) = %d (%v), want %d", name, src, deg, err, degree)
					}
				}
				var e Edge
				var ok bool
				var err error
				objects, _ := allocsPerCall(func() { e, ok, err = r.GetEdge(hub, ETypeFollow, 1005) })
				if !ok || err != nil || checkTS(hub, 1005, e.Props) != nil {
					t.Fatalf("%s: GetEdge = %v %v %v", name, e, ok, err)
				}
				if objects > 3 {
					t.Errorf("%s: GetEdge of a one-property edge allocates %.2f objects, want <= 3", name, objects)
				}
			}
			if db.Stats().EdgeBlocks.Hits == blockHits {
				t.Fatal("fixture: no scan of the hub was served by its edge block")
			}
		})
	}
}

// allocsPerCall reports the least mean objects and bytes one call of fn
// allocates over three rounds, with the collector off: a background
// goroutine's allocation can land in one round, not in all of them.
func allocsPerCall(fn func()) (objects, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	objects, bytes = math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, float64(after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return objects, bytes
}

// TestNeighborsManyAllocatesNothing: once warm, a 1-hop NeighborsMany — one
// batched read of a frontier of 64 sources, through the DB, a snapshot and a
// replica — allocates nothing on one shard: its bounds, its callbacks and
// its error stay on the stack, and its bookkeeping is pooled scratch. Over
// four shards the scatter's goroutines allocate up to 4 objects per shard.
func TestNeighborsManyAllocatesNothing(t *testing.T) {
	for _, shape := range []struct {
		name    string
		opts    Options
		objects float64
	}{
		{"bare", Options{}, 0},
		{"leader", Options{Replicated: true}, 0},
		{"shards-4", Options{Shards: 4}, 16},
	} {
		t.Run(shape.name, func(t *testing.T) {
			o := shape.opts
			o.ForestSplitThreshold, o.FlushInterval, o.ReplicaPollInterval = 64, time.Hour, time.Hour
			db := openDB(t, &o)
			srcs := make([]VertexID, 64)
			for i := range srcs {
				srcs[i] = VertexID(1 + i)
			}
			loadTSGraph(t, db, 20, srcs...)
			snap := db.Snapshot()
			defer snap.Close()
			readers := map[string]graph.Reader{"db": db.r, "snapshot": snap.r}
			if db.group != nil {
				rep, err := db.OpenReplica()
				if err != nil {
					t.Fatal(err)
				}
				defer rep.Stop()
				if err := rep.Sync(); err != nil {
					t.Fatal(err)
				}
				readers["replica"] = rep.r
			}
			// The callback is made once: a closure made per call would be the
			// test's own allocation.
			var n int
			var err error
			count := func(_, _ VertexID) bool { n++; return true }
			for name, r := range readers {
				hop := func() {
					n = 0
					err = graph.NeighborsMany(r, srcs, ETypeFollow, 16, count)
				}
				for range 3 {
					hop() // warms the free lists
				}
				objects, bytes := allocsPerCall(hop)
				if err != nil || n != 16*len(srcs) {
					t.Fatalf("%s: NeighborsMany read %d edges (%v), want %d", name, n, err, 16*len(srcs))
				}
				if objects > shape.objects {
					t.Errorf("%s: NeighborsMany allocates %.2f objects, %.0f B per call, want <= %.0f", name, objects, bytes, shape.objects)
				}
			}
		})
	}
}
