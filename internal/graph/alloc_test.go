//go:build !race

package graph

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// The allocation pin runs without the race detector, whose instrumentation
// changes what escapes and how much an allocation costs.

// flatStore is an adjacency list with a FrontierReader that allocates
// nothing of its own, so what a traversal over it allocates is the
// traversal's. A traversal reads nothing else of it: its Reader is nil.
type flatStore struct {
	Reader
	adj map[VertexID][]VertexID
}

func (f flatStore) NeighborsMany(srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error {
	for _, src := range srcs {
		for i, dst := range f.adj[src] {
			if limit > 0 && i >= limit {
				break
			}
			if !fn(src, dst) {
				return nil
			}
		}
	}
	return nil
}

var sink map[VertexID]struct{}

// bytesPerRun reports the mean bytes one call of fn allocates, with the
// collector off.
func bytesPerRun(runs int, fn func()) int {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestKHopAllocatesItsAnswerOnce: once scratch is idle, a 3-hop KHop over
// a FrontierReader allocates the map it returns, sized once — what
// make(map, n) and n inserts cost, measured here so the pin does not
// depend on the map implementation — plus a small constant. A reached set
// grown from empty costs about twice that.
func TestKHopAllocatesItsAnswerOnce(t *testing.T) {
	s := flatStore{adj: map[VertexID][]VertexID{}}
	const vertices = 4000
	for v := 0; v < vertices; v++ {
		for j := 0; j < 10; j++ {
			s.adj[VertexID(v)] = append(s.adj[VertexID(v)], VertexID((v*131+j*977+j*j*7)%vertices))
		}
	}
	want, err := KHop(s, 0, 1, 3, 0) // also leaves its scratch idle
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 500 {
		t.Fatalf("fixture: 3 hops reach %d vertices", len(want))
	}
	ids := make([]VertexID, 0, len(want))
	for v := range want {
		ids = append(ids, v)
	}
	answer := bytesPerRun(100, func() {
		m := make(map[VertexID]struct{}, len(ids))
		for _, v := range ids {
			m[v] = struct{}{}
		}
		sink = m
	})
	got := bytesPerRun(100, func() {
		sink, err = KHop(s, 0, 1, 3, 0)
	})
	if err != nil || len(sink) != len(want) {
		t.Fatalf("KHop reached %d (%v), want %d", len(sink), err, len(want))
	}
	const slack = 256
	t.Logf("3-hop KHop reaching %d: %d B per call, its answer alone %d B", len(want), got, answer)
	if got > answer+slack {
		t.Fatalf("3-hop KHop reaching %d allocates %d B per call, want <= its answer's %d B + %d", len(want), got, answer, slack)
	}
}
