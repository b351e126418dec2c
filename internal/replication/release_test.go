package replication

import (
	"fmt"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/gc"
	"bg3/internal/graph"
	"bg3/internal/storage"
)

// releaseOpts is a leader whose pages are small and whose extents fill fast,
// so a few hundred overwrites leave GC work behind, with no background
// flusher: every checkpoint in these tests is one the test takes.
func releaseOpts() RWOptions {
	return RWOptions{Engine: core.Options{
		Tree:     bwtree.Config{MaxPageEntries: 16, CacheCapacity: 2},
		GCPolicy: gc.DirtyRatio{MinRate: 0.01},
	}}
}

// overwrite writes every (src, dst) edge of the test graph once more,
// stamped with pass, and checkpoints.
func overwrite(t *testing.T, rw *RWNode, pass int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i%16 + 1), Dst: graph.VertexID(1000 + i), Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "pass", Value: []byte{byte(pass)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// readsAll fails the test unless r serves every edge of the test graph with
// the value of pass.
func readsAll(t *testing.T, r graph.Reader, who string, pass int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		e, ok, err := r.GetEdge(graph.VertexID(i%16+1), graph.ETypeFollow, graph.VertexID(1000+i))
		if err != nil || !ok {
			t.Fatalf("%s: edge %d: ok=%v err=%v", who, i, ok, err)
		}
		if v, _ := e.Props.Get("pass"); len(v) != 1 || int(v[0]) != pass {
			t.Fatalf("%s: edge %d = %x, want pass %d", who, i, v, pass)
		}
	}
}

// TestFollowerHoldsCondemnedExtentsPastAnyClock is the release rule against
// a follower that stopped polling: GC condemns extents it holds locations in,
// checkpoints stamp them, the store's clock jumps an hour and GC runs again —
// and the follower still reads every key from storage, because nothing it has
// not applied is released, however long ago. One Poll applies the stamping
// checkpoints and releases all of it.
func TestFollowerHoldsCondemnedExtentsPastAnyClock(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10, Now: clock})
	defer st.Close()
	rw, err := NewRWNode(st, releaseOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	ro := newRO(t, st, time.Hour, 1)
	defer ro.Stop()

	for pass := 0; pass < 3; pass++ {
		overwrite(t, rw, pass)
	}
	if err := ro.Poll(); err != nil {
		t.Fatal(err)
	}
	gcAndCheckpoint := func() {
		t.Helper()
		if _, err := rw.Engine().RunGC(64); err != nil {
			t.Fatal(err)
		}
		if err := rw.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	gcAndCheckpoint()
	now = now.Add(time.Hour)
	gcAndCheckpoint()
	readsAll(t, ro.Replica(), "follower an hour past GC", 2)
	readsAll(t, rw, "leader", 2)
	held := st.Stats().CondemnedExtents
	if held == 0 {
		t.Fatal("GC condemned nothing: the test exercises no release")
	}
	if err := ro.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().CondemnedExtents; got != 0 {
		t.Fatalf("%d of %d condemned extents still held after the follower applied every checkpoint", got, held)
	}
	readsAll(t, ro.Replica(), "follower after one poll", 2)
}

// TestPromotedLeaderReinstatesUnstampedExtents fails a leader over after GC
// relocated pages but before any checkpoint logged the relocations. The
// promoted leader holds the last checkpoint's locations, which point into the
// condemned extents: they stay readable, become resident again, and the new
// leader's GC reclaims them like any other — nothing is stranded.
func TestPromotedLeaderReinstatesUnstampedExtents(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10})
	defer st.Close()
	rw, err := NewRWNode(st, releaseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		overwrite(t, rw, pass)
	}
	resident := st.Stats().ExtentCount
	if _, err := rw.Engine().RunGC(64); err != nil {
		t.Fatal(err)
	}
	condemned := st.Stats().CondemnedExtents
	if condemned == 0 {
		t.Fatal("GC condemned nothing: the test exercises no hand-over")
	}
	readsAll(t, rw, "leader after GC", 2)

	var leader *RWNode
	if err := Failover(st, rw, func(p *RWNode) bool { leader = p; return true }); err != nil {
		t.Fatal(err)
	}
	defer leader.Stop()
	if got := st.Stats().CondemnedExtents; got != 0 {
		t.Fatalf("%d unstamped extents still condemned after the hand-over, want all %d reinstated", got, condemned)
	}
	readsAll(t, leader, "promoted leader", 2)

	// GC to quiescence: each round reclaims, checkpoints (stamping), and
	// every key stays readable throughout.
	for round := 0; ; round++ {
		before := st.Stats().ExtentsReclaimed
		if _, err := leader.Engine().RunGC(64); err != nil {
			t.Fatal(err)
		}
		readsAll(t, leader, fmt.Sprintf("promoted leader, GC round %d", round), 2)
		if err := leader.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st.Stats().ExtentsReclaimed == before {
			break
		}
		if round == 50 {
			t.Fatal("GC did not quiesce in 50 rounds")
		}
	}
	end := st.Stats()
	if end.CondemnedExtents != 0 || end.ExtentCount > resident {
		t.Fatalf("after GC quiesced: %d extents condemned, %d resident (%d before the first GC)",
			end.CondemnedExtents, end.ExtentCount, resident)
	}
	readsAll(t, leader, "promoted leader after GC", 2)
}
