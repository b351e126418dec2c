package replication

import (
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestSnapshotBootstrapMatchesFullReplay: the checkpoint rotation is the
// snapshot. A follower attached after a rotation trimmed the WAL registers the
// forest the rotation names and applies the log past the trim; one that tailed
// the log from LSN 1 all along must agree with it on everything, a migration
// before the trim included.
func TestSnapshotBootstrapMatchesFullReplay(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10})
	rw, err := NewRWNode(st, RWOptions{
		Engine: core.Options{SplitThreshold: 50, Tree: bwtree.Config{MaxPageEntries: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	fullRO := newRO(t, st, time.Hour, 0) // polled by hand
	defer fullRO.Stop()

	// Phase 1: data before the rotation, including a forest migration.
	for i := 0; i < 120; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 7, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < 10; src++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(src), Dst: 999, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.AddVertex(graph.Vertex{ID: 7, Type: graph.VTypeUser,
		Props: graph.Properties{{Name: "n", Value: []byte("hot")}}}); err != nil {
		t.Fatal(err)
	}
	if err := fullRO.Poll(); err != nil {
		t.Fatal(err)
	}

	horizon, err := rw.WriteSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, floor, _ := st.Head(storage.StreamWAL); horizon == 0 || floor != uint64(horizon) {
		t.Fatalf("rotation from horizon %d left the WAL trimmed to %d", horizon, floor)
	}

	// Phase 2: more writes after the rotation.
	for i := 120; i < 160; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 7, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}

	snapRO := newRO(t, st, time.Hour, 0)
	defer snapRO.Stop()
	for _, ro := range []*RONode{snapRO, fullRO} {
		if err := ro.Poll(); err != nil {
			t.Fatal(err)
		}
		if ro.AppliedLSN() != rw.LastLSN() || ro.Resyncs() != 0 {
			t.Fatalf("follower at LSN %d of %d, %d resyncs", ro.AppliedLSN(), rw.LastLSN(), ro.Resyncs())
		}
		if deg, err := ro.Replica().Degree(7, graph.ETypeLike); err != nil || deg != 160 {
			t.Fatalf("degree = %d %v, want 160", deg, err)
		}
		if v, ok, _ := ro.Replica().GetVertex(7, graph.VTypeUser); !ok {
			t.Fatal("vertex missing")
		} else if n, _ := v.Props.Get("n"); string(n) != "hot" {
			t.Fatalf("props = %+v", v.Props)
		}
		for src := 0; src < 10; src++ {
			if _, ok, _ := ro.Replica().GetEdge(graph.VertexID(src), graph.ETypeFollow, 999); !ok {
				t.Fatalf("edge %d->999 missing", src)
			}
		}
	}
}

func TestSnapshotWithoutSnapshotFallsBack(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	if err := rw.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeFollow}); err != nil {
		t.Fatal(err)
	}
	ro, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Stop()
	if !ro.WaitVisible(rw.LastLSN(), 2*time.Second) {
		t.Fatal("fallback replica lagging")
	}
	if _, ok, _ := ro.Replica().GetEdge(1, graph.ETypeFollow, 2); !ok {
		t.Fatal("edge missing via fallback replay")
	}
}

func TestTrimWALAfterSnapshot(t *testing.T) {
	// Small WAL extents so trimming has something to drop (and small pages
	// so base images fit the extents).
	st := storage.Open(&storage.Options{ExtentSize: 1 << 10})
	rw, err := NewRWNode(st, RWOptions{
		Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16, MaxInnerEntries: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()

	for i := 0; i < 500; i++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i % 5), Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rw.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	if n := rw.trimmed.Load(); n == 0 || rw.TrimWAL() != 0 {
		t.Fatalf("the rotation trimmed %d extents, and left the trim more: want it all done", n)
	}
	// Post-trim writes still replicate; a new snapshot-bootstrapped
	// replica sees everything.
	for i := 500; i < 550; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Stop()
	if !ro.WaitVisible(rw.LastLSN(), 2*time.Second) {
		t.Fatal("replica lagging after trim")
	}
	for src := 0; src < 5; src++ {
		deg, err := ro.Replica().Degree(graph.VertexID(src), graph.ETypeFollow)
		if err != nil {
			t.Fatal(err)
		}
		want := 100
		if src == 1 {
			want = 150
		}
		if deg != want {
			t.Fatalf("degree(%d) = %d, want %d", src, deg, want)
		}
	}
	if err := ro.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimWithoutSnapshotIsNoop(t *testing.T) {
	st := storage.Open(nil)
	rw, err := NewRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	if got := rw.TrimWAL(); got != 0 {
		t.Fatalf("trim without snapshot dropped %d extents", got)
	}
}

func TestRepeatedSnapshots(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 14})
	rw, err := NewRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()

	var lastHorizon uint64
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			if err := rw.AddEdge(graph.Edge{
				Src: graph.VertexID(round), Dst: graph.VertexID(i), Type: graph.ETypeLike,
			}); err != nil {
				t.Fatal(err)
			}
		}
		h, err := rw.WriteSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(h) <= lastHorizon {
			t.Fatalf("horizon not monotonic: %d then %d", lastHorizon, h)
		}
		lastHorizon = uint64(h)
	}
	// The newest snapshot wins.
	ro, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Stop()
	if !ro.WaitVisible(rw.LastLSN(), 2*time.Second) {
		t.Fatal("replica lagging")
	}
	for round := 0; round < 3; round++ {
		deg, err := ro.Replica().Degree(graph.VertexID(round), graph.ETypeLike)
		if err != nil || deg != 100 {
			t.Fatalf("round %d degree = %d %v", round, deg, err)
		}
	}
}

func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
				if err := rw.AddEdge(graph.Edge{
					Src: 9, Dst: graph.VertexID(n), Type: graph.ETypeFollow,
				}); err == nil {
					n++
				}
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := rw.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	total := <-done

	ro, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Stop()
	if !ro.WaitVisible(rw.LastLSN(), 2*time.Second) {
		t.Fatal("replica lagging")
	}
	deg, err := ro.Replica().Degree(9, graph.ETypeFollow)
	if err != nil || deg != total {
		t.Fatalf("degree = %d %v, want %d", deg, err, total)
	}
}

func TestRecoverRWNode(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, RWOptions{
		Engine: core.Options{SplitThreshold: 30, Tree: bwtree.Config{MaxPageEntries: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: durable state under a snapshot (includes a forest
	// migration so the owner directory must survive recovery).
	for i := 0; i < 80; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 5, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < 4; src++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(src), Dst: 1000, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rw.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a WAL suffix past the snapshot — data records, a deletion,
	// and another migration (new tree + owner assignment in the suffix).
	for i := 80; i < 120; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 5, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.DeleteEdge(5, graph.ETypeLike, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // owner 6 crosses the threshold post-snapshot
		if err := rw.AddEdge(graph.Edge{Src: 6, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: stop pipelines without a final checkpoint or snapshot.
	rw.Stop()

	// Recover on the same store.
	rec, err := RecoverRWNode(st, RWOptions{
		Engine: core.Options{SplitThreshold: 30, Tree: bwtree.Config{MaxPageEntries: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	if deg, err := rec.Degree(5, graph.ETypeLike); err != nil || deg != 119 {
		t.Fatalf("recovered degree(5) = %d %v, want 119", deg, err)
	}
	if _, ok, _ := rec.GetEdge(5, graph.ETypeLike, 0); ok {
		t.Fatal("deleted edge resurrected by recovery")
	}
	if deg, err := rec.Degree(6, graph.ETypeLike); err != nil || deg != 40 {
		t.Fatalf("recovered degree(6) = %d %v, want 40", deg, err)
	}
	for src := 0; src < 4; src++ {
		if _, ok, _ := rec.GetEdge(graph.VertexID(src), graph.ETypeFollow, 1000); !ok {
			t.Fatalf("edge %d->1000 lost in recovery", src)
		}
	}

	// The recovered node keeps working: new writes, checkpoints, replicas.
	for i := 120; i < 140; i++ {
		if err := rec.AddEdge(graph.Edge{Src: 5, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A follower replaying the log from its start applies both tenures'
	// records: the recovered node kept the page and tree IDs of the one that
	// died.
	ro := newRO(t, st, time.Millisecond, 0)
	defer ro.Stop()
	if !ro.WaitVisible(rec.LastLSN(), 2*time.Second) {
		t.Fatal("replica lagging behind recovered node")
	}
	if deg, err := ro.Replica().Degree(5, graph.ETypeLike); err != nil || deg != 139 {
		t.Fatalf("full-replay replica degree(5) = %d %v, want 139", deg, err)
	}
	if _, err := rec.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	snapRO, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer snapRO.Stop()
	if !snapRO.WaitVisible(rec.LastLSN(), 2*time.Second) {
		t.Fatal("snapshot replica lagging")
	}
	if deg, err := snapRO.Replica().Degree(5, graph.ETypeLike); err != nil || deg != 139 {
		t.Fatalf("replica degree(5) = %d %v, want 139", deg, err)
	}
}

// TestRecoverWithoutSnapshotReplaysTheLog: a store that never took a snapshot
// recovers like any follower attaches to it, from LSN 1.
func TestRecoverWithoutSnapshotReplaysTheLog(t *testing.T) {
	st := storage.Open(nil)
	rw, err := NewRWNode(st, testRWOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // splits, no checkpoint
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	last := rw.LastLSN()
	rw.Stop()
	rec, err := RecoverRWNode(st, testRWOpts())
	if err != nil {
		t.Fatalf("recovery without a snapshot: %v", err)
	}
	defer rec.Stop()
	if deg, err := rec.Degree(1, graph.ETypeFollow); err != nil || deg != 100 {
		t.Fatalf("recovered degree = %d %v, want 100", deg, err)
	}
	if err := rec.AddEdge(graph.Edge{Src: 1, Dst: 100, Type: graph.ETypeFollow}); err != nil {
		t.Fatal(err)
	}
	if got := rec.LastLSN(); got != last+1 {
		t.Fatalf("the recovered node's first record got LSN %d, want %d", got, last+1)
	}
}

// rotate writes n edges over 40 keys of source 1 — overwrites once they have
// all been written, so the leaves stay the same — and checkpoints, rounds
// times.
func rotate(t *testing.T, rw *RWNode, rounds, n int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i % 40), Type: graph.ETypeFollow,
				Props: graph.Properties{{Name: "r", Value: []byte{byte(r)}}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAttachReadsOneRotation pins what a follower attaching to a trimmed log
// reads: the records past the trim's horizon — the rotation of checkpoints
// that names every leaf, at most rotation of them, and the suffix after it —
// in one storage scan, and nothing from the meta stream, which nothing
// writes. It applies all of it before it serves a read, and reads the
// leader's state.
func TestAttachReadsOneRotation(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10})
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	rotate(t, rw, 3*rotation, 60)
	for i := 40; i < 70; i++ { // the suffix: new keys, no checkpoint
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	_, floor, _ := st.Head(storage.StreamWAL)
	if floor == 0 {
		t.Fatal("fixture: the WAL was never trimmed")
	}
	// What attaching reads: the log past the floor (wal.NewReaderAtHead).
	recs, err := wal.NewReaderAtHead(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, rec := range recs {
		if rec.Type == wal.RecordCheckpoint && rec.TreeID == 0 {
			checkpoints++
		}
	}
	if checkpoints > rotation || recs[0].LSN != wal.LSN(floor)+1 || recs[len(recs)-1].LSN != rw.LastLSN() {
		t.Fatalf("past the floor at %d: %d checkpoints in records %d..%d of %d, want at most %d and the suffix",
			floor, checkpoints, recs[0].LSN, recs[len(recs)-1].LSN, rw.LastLSN(), rotation)
	}

	before := st.Stats().ReadOps
	ro := newRO(t, st, time.Hour, 0)
	defer ro.Stop()
	if reads := st.Stats().ReadOps - before; reads != 1 {
		t.Fatalf("attaching took %d storage reads, want the one scan of the log", reads)
	}
	if meta := st.Usage(storage.StreamMeta); len(meta) != 0 {
		t.Fatalf("the meta stream holds %d extents, want none", len(meta))
	}
	if ro.AppliedLSN() != rw.LastLSN() {
		t.Fatalf("attached follower at LSN %d, the leader at %d", ro.AppliedLSN(), rw.LastLSN())
	}
	if deg, err := ro.Replica().Degree(1, graph.ETypeFollow); err != nil || deg != 70 {
		t.Fatalf("attached follower degree = %d %v, want 70", deg, err)
	}
}

// TestTrimBoundsTheLog: the trim rides the checkpoint cadence, so a leader
// writing at a steady rate retains the same WAL after 4 and after 8 rotations
// of checkpoints — one rotation and what the last checkpoint has not covered
// — to within an extent.
func TestTrimBoundsTheLog(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10})
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	extents := func() int { return len(st.Usage(storage.StreamWAL)) }
	rotate(t, rw, 4*rotation, 60)
	at4 := extents()
	rotate(t, rw, 4*rotation, 60)
	at8 := extents()
	t.Logf("WAL extents: %d after %d checkpoints, %d after %d", at4, 4*rotation, at8, 8*rotation)
	if at8 > at4+1 || at8 < at4-1 || rw.trimmed.Load() == 0 {
		t.Fatalf("WAL extents: %d after %d checkpoints, %d after %d (%d trimmed)", at4, 4*rotation, at8, 8*rotation, rw.trimmed.Load())
	}
}
