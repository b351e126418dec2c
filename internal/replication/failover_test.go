package replication

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

func testRWOpts() RWOptions {
	return RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 32}}}
}

// TestPromote is the happy path: a leader writes, a follower catches up, a
// promotion fences the leader out and the successor serves everything the
// old leader acknowledged — including the WAL tail past the snapshot — and
// accepts new writes under the bumped epoch while the deposed leader's
// writes fail explicitly. The promoted follower polls no more; another one,
// attached under the old leader, tails the new one without a resync.
func TestPromote(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()
	old, err := NewRWNode(st, testRWOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Stop()

	put := func(n *RWNode, dst graph.VertexID, val string) error {
		return n.AddEdge(graph.Edge{Src: 1, Dst: dst, Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "p", Value: []byte(val)}}})
	}
	for i := 0; i < 10; i++ {
		if err := put(old, graph.VertexID(i), fmt.Sprintf("pre%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := old.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	// A WAL tail beyond the snapshot: the promotion drain must carry it over.
	for i := 10; i < 15; i++ {
		if err := put(old, graph.VertexID(i), fmt.Sprintf("tail%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	bystander := newRO(t, st, time.Hour, 0)
	defer bystander.Stop()
	if err := bystander.Poll(); err != nil {
		t.Fatal(err)
	}
	ro, err := NewRONode(st, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Promote(ro, testRWOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer next.Stop()
	if err := ro.Poll(); err == nil {
		t.Fatal("the promoted follower still polls the log its own leader writes")
	}

	if next.Epoch() != 1 {
		t.Fatalf("promoted epoch = %d, want 1", next.Epoch())
	}
	for i := 0; i < 15; i++ {
		want := fmt.Sprintf("pre%d", i)
		if i >= 10 {
			want = fmt.Sprintf("tail%d", i)
		}
		e, ok, err := next.GetEdge(1, graph.ETypeFollow, graph.VertexID(i))
		if err != nil || !ok {
			t.Fatalf("edge %d after promotion: ok=%v err=%v", i, ok, err)
		}
		if v, _ := e.Props.Get("p"); string(v) != want {
			t.Fatalf("edge %d = %q, want %q", i, v, want)
		}
	}

	if err := put(old, 99, "zombie"); !errors.Is(err, storage.ErrFenced) && !errors.Is(err, wal.ErrWriterFailed) {
		t.Fatalf("deposed leader write err = %v, want a fencing error", err)
	}
	if err := put(next, 20, "post"); err != nil {
		t.Fatalf("promoted leader write: %v", err)
	}
	if _, ok, _ := next.GetEdge(1, graph.ETypeFollow, 99); ok {
		t.Fatal("zombie write visible on the promoted leader")
	}
	if err := bystander.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := bystander.Replica().GetEdge(1, graph.ETypeFollow, 20); err != nil || !ok || bystander.Resyncs() != 0 {
		t.Fatalf("follower of the old leader after the promotion: post-failover write ok=%v err=%v, %d resyncs", ok, err, bystander.Resyncs())
	}

	// A follower attached after the promotion (same snapshot, the log of
	// both tenures) agrees with the new leader.
	tail, err := NewRONode(st, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Stop()
	if err := tail.Poll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tail.Replica().GetEdge(1, graph.ETypeFollow, 20); err != nil || !ok {
		t.Fatalf("post-failover write not visible to follower: ok=%v err=%v", ok, err)
	}
}

// TestPromoteNilFollower pins the argument contract.
func TestPromoteNilFollower(t *testing.T) {
	if _, err := Promote(nil, testRWOpts()); err == nil {
		t.Fatal("Promote(nil) succeeded")
	}
}

// TestFailoverSwapRefused: when the owner no longer routes to old (it
// closed, or another failover won the swap) the promoted node is stopped
// and the caller sees a fencing error; a later failover still succeeds and
// serves everything acknowledged.
func TestFailoverSwapRefused(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()
	old, err := NewRWNode(st, testRWOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Stop()
	if err := old.AddEdge(graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeFollow}); err != nil {
		t.Fatal(err)
	}

	var refused *RWNode
	err = Failover(st, old, func(rw *RWNode) bool { refused = rw; return false })
	if !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("refused swap: err = %v, want ErrFenced", err)
	}
	if err := refused.AddEdge(graph.Edge{Src: 1, Dst: 3, Type: graph.ETypeFollow}); err == nil {
		t.Fatal("refused candidate still accepts writes")
	}

	var next *RWNode
	if err := Failover(st, old, func(rw *RWNode) bool { next = rw; return true }); err != nil {
		t.Fatalf("failover after a refused one: %v", err)
	}
	defer next.Stop()
	if _, ok, err := next.GetEdge(1, graph.ETypeFollow, 2); err != nil || !ok {
		t.Fatalf("acked edge after failover: ok=%v err=%v", ok, err)
	}
	if err := old.AddEdge(graph.Edge{Src: 1, Dst: 4, Type: graph.ETypeFollow}); !errors.Is(err, storage.ErrFenced) &&
		!errors.Is(err, wal.ErrWriterFailed) && !errors.Is(err, wal.ErrCommitterStopped) {
		t.Fatalf("deposed leader write err = %v, want a fencing error", err)
	}
}

// TestFailoverKeepsAckedWritesPastBarrierBypassingRecords: records logged
// straight through the committer (the 2PC control records) bypass the
// apply barrier, so they keep landing while WriteSnapshot holds it. The
// snapshot's WAL cursor must not pass any record above its horizon, or
// the promotion that bootstraps from it meets a hole at horizon+1 and
// fails.
func TestFailoverKeepsAckedWritesPastBarrierBypassingRecords(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()
	opts := testRWOpts()
	leader, err := NewRWNode(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { leader.Stop() }()

	acked := 0
	for round := 0; round < 8; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func(node *RWNode) {
			defer wg.Done()
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Fencing errors once the promotion starts are expected.
				_, _ = node.Logger().Log(&wal.Record{Type: wal.RecordTxnAbort, TreeID: n})
			}
		}(leader)
		for i := 0; i < 50; i++ {
			acked++
			if err := leader.AddEdge(graph.Edge{Src: graph.VertexID(acked % 7), Dst: graph.VertexID(acked), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
		old := leader
		if _, err := old.WriteSnapshot(); err != nil {
			t.Fatalf("round %d: snapshot: %v", round, err)
		}
		err := Failover(st, old, func(rw *RWNode) bool { leader = rw; return true })
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 1; i <= acked; i++ {
			if _, ok, err := leader.GetEdge(graph.VertexID(i%7), graph.ETypeFollow, graph.VertexID(i)); err != nil || !ok {
				t.Fatalf("round %d: acked edge %d after failover: ok=%v err=%v", round, i, ok, err)
			}
		}
	}
}

// TestPromotedLeaderPacksAtFirstScan: a tree's size survives a hand-over.
// A follower keeps every leaf's live count from the records it applies (each
// says whether its key was live), the promotion seeds the tree's live-key
// count and its owner's count from those counts, and a dedicated tree already
// past EdgeBlockMinEntries packs its edge block at the promoted leader's first
// scan, with no write since; its first flush packs nothing. The count used to
// start at 0 after a promotion: the block waited for that many new writes.
func TestPromotedLeaderPacksAtFirstScan(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	defer st.Close()
	opts := RWOptions{Engine: core.Options{SplitThreshold: 32,
		Tree: bwtree.Config{MaxPageEntries: 16, EdgeBlockMinEntries: 64}}}
	old, err := NewRWNode(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Stop()
	edge := func(dst int, v byte) graph.Edge {
		return graph.Edge{Src: 5, Dst: graph.VertexID(dst), Type: graph.ETypeFollow, Props: graph.Properties{{Name: "v", Value: []byte{v}}}}
	}
	for i := 0; i < 200; i++ {
		if err := old.AddEdge(edge(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // upserts: the key was live, nothing grows
		if err := old.AddEdge(edge(i*3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ { // ten present, five absent
		if err := old.DeleteEdge(5, graph.ETypeFollow, graph.VertexID(190+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ro := newRO(t, st, time.Hour, 0)
	rw, err := Promote(ro, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	if got := rw.Engine().Forest().OwnerCount(5); got != 190 {
		t.Fatalf("promoted owner count = %d, want the 190 live edges", got)
	}
	blocks := func() bwtree.BlockStats { return rw.Engine().Mapping().BlockStatsSnapshot() }
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if b := blocks(); b.Builds != 0 {
		t.Fatalf("%d blocks built before the promoted leader's first scan", b.Builds)
	}
	if deg, err := rw.Degree(5, graph.ETypeFollow); err != nil || deg != 190 { // a full scan
		t.Fatalf("degree = %d %v, want 190", deg, err)
	}
	if b := blocks(); b.Builds != 1 || b.Entries != 190 {
		t.Fatalf("after the promoted leader's first scan: %d blocks, %d entries; want the 190 edges packed", b.Builds, b.Entries)
	}
}

// TestFollowerFailsClosedOnAHole: a group that does not connect to what a
// follower read is log damage, never an append still in the air. A follower
// of a log whose first group is missing applies nothing from it, and one
// tailing a log that grows a hole applies what precedes it; either poll fails
// with wal.ErrHole, which the polling loop reports through Err. The follower
// does not re-attach — a fresh replica would meet the same hole — and is not
// promoted over it.
func TestFollowerFailsClosedOnAHole(t *testing.T) {
	// forge appends one record at lsn, past the leader's sequence, under the
	// log's current epoch.
	forge := func(t *testing.T, st *storage.Store, lsn wal.LSN) {
		t.Helper()
		w := wal.NewWriterFromEpoch(st, lsn, st.StreamEpoch(storage.StreamWAL))
		groups, err := w.SealAssigned(nil, []*wal.Record{{Type: wal.RecordTxnAbort, LSN: lsn, TreeID: 9}}, nil)
		if err == nil {
			err = w.AppendSealed(groups[0])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	edge := graph.Edge{Src: 1, Dst: 2, Type: graph.ETypeFollow}

	t.Run("first group missing", func(t *testing.T) {
		st := storage.Open(nil)
		defer st.Close()
		forge(t, st, 2)
		ro := newRO(t, st, time.Hour, 0)
		defer ro.Stop()
		if err := ro.Poll(); !errors.Is(err, wal.ErrHole) || ro.AppliedLSN() != 0 || ro.Resyncs() != 0 {
			t.Fatalf("a poll of a log whose first group is missing: %v, at LSN %d with %d resyncs; want wal.ErrHole at 0 with none",
				err, ro.AppliedLSN(), ro.Resyncs())
		}
	})

	t.Run("tail", func(t *testing.T) {
		st := storage.Open(nil)
		defer st.Close()
		rw, err := NewRWNode(st, testRWOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer rw.Stop()
		if err := rw.AddEdge(edge); err != nil {
			t.Fatal(err)
		}
		ro := newRO(t, st, time.Millisecond, 0)
		defer ro.Stop()
		forge(t, st, rw.LastLSN()+2)
		for deadline := time.Now().Add(10 * time.Second); ro.Err() == nil && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if err := ro.Err(); !errors.Is(err, wal.ErrHole) {
			t.Fatalf("the follower's polling loop reports %v, want wal.ErrHole", err)
		}
		if err := ro.Poll(); !errors.Is(err, wal.ErrHole) {
			t.Fatalf("a poll over the hole: %v, want wal.ErrHole", err)
		}
		if ro.AppliedLSN() != rw.LastLSN() || ro.Resyncs() != 0 {
			t.Fatalf("the follower applied up to LSN %d with %d resyncs; want the leader's %d and none",
				ro.AppliedLSN(), ro.Resyncs(), rw.LastLSN())
		}
		if _, ok, err := ro.Replica().GetEdge(edge.Src, edge.Type, edge.Dst); err != nil || !ok {
			t.Fatalf("the edge before the hole: ok=%v err=%v", ok, err)
		}
		if next, err := Promote(ro, testRWOpts()); !errors.Is(err, wal.ErrHole) {
			if next != nil {
				next.Stop()
			}
			t.Fatalf("a promotion over the hole: %v, want wal.ErrHole", err)
		}
	})
}
