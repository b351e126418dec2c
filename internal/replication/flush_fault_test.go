package replication

import (
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/storage"
)

// TestFailedFlushKeepsPageLocations: a flush cycle that fails partway has
// already written some pages, and those are clean now, so no later cycle
// flushes them again. The next checkpoint must still name where they went, or
// a follower that cuts its overlays at that checkpoint's horizon reads them
// from the last checkpoint's locations. One data-stream append of a
// multi-page flush crashes, the crash clears, the leader checkpoints again,
// and a follower with a one-page cache reads every edge from storage.
func TestFailedFlushKeepsPageLocations(t *testing.T) {
	faults := storage.NewFaultPlan(storage.FaultConfig{Seed: 1}) // no probabilistic faults: the crash point only
	st := storage.Open(&storage.Options{ExtentSize: 64 << 10, Faults: faults})
	defer st.Close()
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	ro := newRO(t, st, time.Hour, 1)
	defer ro.Stop()

	overwrite(t, rw, 0)
	for i := 0; i < 400; i++ { // dirties every page again
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i%16 + 1), Dst: graph.VertexID(1000 + i), Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "pass", Value: []byte{1}}}}); err != nil {
			t.Fatal(err)
		}
	}
	pages := rw.Engine().DirtyCount()
	if pages < 16 {
		t.Fatalf("fixture: %d dirty pages, want a multi-page flush", pages)
	}
	// The flush writes one record per page: half of them land, then the
	// data stream fails and so does the cycle.
	faults.ScheduleCrash(int64(pages / 2))
	if err := rw.Checkpoint(); err == nil {
		t.Fatal("the checkpoint survived a crashed page flush")
	}
	if left := rw.Engine().DirtyCount(); left == 0 || left == pages {
		t.Fatalf("%d of %d pages still dirty after the failed flush, want some written", left, pages)
	}
	faults.ClearCrash()
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Poll(); err != nil {
		t.Fatal(err)
	}
	readsAll(t, ro.Replica(), "follower", 1)
}
