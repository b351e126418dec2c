//go:build !race

package bg3

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
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
