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
// the promotion that bootstraps from it reads a hole at horizon+1 and
// discards every acked group behind it as fence debris.
func TestFailoverKeepsAckedWritesPastBarrierBypassingRecords(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()
	opts := testRWOpts()
	opts.PipelineDepth = 8
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

// TestPromotedLeaderPacksAtFirstFlush: a tree's size survives a hand-over.
// A follower keeps every leaf's live count from the records it applies (each
// says whether its key was live), the promotion seeds the tree's puts −
// deletes estimate and its owner's count from those counts, and a dedicated
// tree already past EdgeBlockMinEntries packs its edge block at the promoted
// leader's first flush, with no write since. The estimate used to start at 0
// after a promotion: the block waited for that many new writes.
func TestPromotedLeaderPacksAtFirstFlush(t *testing.T) {
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
	if b := blocks(); b.Builds != 0 {
		t.Fatalf("fixture: %d blocks built before the first flush", b.Builds)
	}
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if b := blocks(); b.Builds != 1 || b.Entries != 190 {
		t.Fatalf("after the promoted leader's first flush: %d blocks, %d entries; want the 190 edges packed", b.Builds, b.Entries)
	}
	if deg, err := rw.Degree(5, graph.ETypeFollow); err != nil || deg != 190 {
		t.Fatalf("degree = %d %v, want 190", deg, err)
	}
}

// holeLog is the log a leader leaves when its commit pipeline fails between
// two groups: the records it logs for a new tree and two edges — the first
// group, LSNs 1-2, the new tree and edge 1→2; the second, LSN 3, edge 1→3 —
// sealed by w, of which only the second has landed. It returns the first, for
// a test to land late.
func holeLog(t *testing.T) (st *storage.Store, w *wal.Writer, first wal.SealedGroup) {
	t.Helper()
	src := storage.Open(nil)
	defer src.Close()
	rw, err := NewRWNode(src, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []graph.VertexID{2, 3} {
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: dst, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	rw.Stop()
	recs, err := wal.NewReader(src).Poll()
	if err != nil || len(recs) != 3 || recs[0].Type != wal.RecordNewTree {
		t.Fatalf("source log = %d records, %v; want a new tree and two puts", len(recs), err)
	}

	st = storage.Open(nil)
	w = wal.NewWriter(st)
	firsts, err := w.SealAssigned(nil, recs[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := w.SealAssigned(nil, recs[2:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSealed(second[0]); err != nil {
		t.Fatal(err)
	}
	return st, w, firsts[0]
}

// serves checks that r holds exactly the edges from 1 to want among 1→2..1→4.
func serves(t *testing.T, what string, r graph.Reader, want ...graph.VertexID) {
	t.Helper()
	var got []graph.VertexID
	for dst := graph.VertexID(2); dst <= 4; dst++ {
		if _, ok, err := r.GetEdge(1, graph.ETypeFollow, dst); err != nil {
			t.Fatalf("%s: edge 1→%d: %v", what, dst, err)
		} else if ok {
			got = append(got, dst)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s serves edges from 1 to %v, want %v", what, got, want)
	}
}

// TestFollowerOfUntrimmedLogWaitsForItsFirstGroup pins where a follower of a
// log never trimmed starts its sequence, LSN 1, and that it waits on a hole
// nothing in the log calls final. The log's first group is sealed but still in
// flight when the second lands. If the first group lands, a follower polled
// 100 times meanwhile serves nothing, never re-attaches and reports the group
// it parked, and then serves both edges. If it never does, the outcome of a
// promotion over the hole and the parked group is a function of the log, not
// of how often the follower polled it first: for every N in 0..16 a follower
// polled N times is promoted behind one fence, serves none of the debris —
// whose missing group can no longer land — and then exactly what it acks
// itself, as does a follower attached afterwards.
func TestFollowerOfUntrimmedLogWaitsForItsFirstGroup(t *testing.T) {
	t.Run("first group lands=true", func(t *testing.T) {
		st, w, first := holeLog(t)
		defer st.Close()
		ro := newRO(t, st, time.Hour, 0)
		defer ro.Stop()
		gauge := func(name string) int64 { return ro.Metrics().Snapshot()[name].Value }
		for i := 0; i < 100; i++ {
			if err := ro.Poll(); err != nil {
				t.Fatalf("poll %d: %v", i, err)
			}
			serves(t, fmt.Sprintf("the follower at poll %d", i), ro.Replica())
		}
		if ro.Resyncs() != 0 || gauge("replication.resyncs") != 0 || gauge("replication.parked_groups") != 1 {
			t.Fatalf("after 100 polls over the hole: %d resyncs (gauge %d), %d groups parked; want 0 and the group past the hole",
				ro.Resyncs(), gauge("replication.resyncs"), gauge("replication.parked_groups"))
		}

		if err := w.AppendSealed(first); err != nil {
			t.Fatal(err)
		}
		if err := ro.Poll(); err != nil {
			t.Fatal(err)
		}
		serves(t, "the follower after the first group landed", ro.Replica(), 2, 3)
		if n := gauge("replication.parked_groups"); n != 0 || ro.Resyncs() != 0 {
			t.Fatalf("after the hole filled: %d groups parked, %d resyncs; want 0 and 0", n, ro.Resyncs())
		}
	})

	t.Run("first group lands=false", func(t *testing.T) {
		for polls := 0; polls <= 16; polls++ {
			t.Run(fmt.Sprintf("polls=%d", polls), func(t *testing.T) {
				st, w, first := holeLog(t)
				defer st.Close()
				ro := newRO(t, st, time.Hour, 0)
				for i := 0; i < polls; i++ {
					if err := ro.Poll(); err != nil {
						t.Fatalf("poll %d: %v", i, err)
					}
				}
				promoted, err := Promote(ro, RWOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer promoted.Stop()
				if promoted.Epoch() != 1 {
					t.Fatalf("promoted at epoch %d, want 1: one fence per tenure", promoted.Epoch())
				}
				serves(t, "the leader promoted on top of the debris", promoted.Engine())
				if err := w.AppendSealed(first); !errors.Is(err, storage.ErrFenced) {
					t.Fatalf("the missing group landing after the promotion: %v, want ErrFenced", err)
				}
				if err := promoted.AddEdge(graph.Edge{Src: 1, Dst: 4, Type: graph.ETypeFollow}); err != nil {
					t.Fatal(err)
				}
				serves(t, "the promoted leader", promoted.Engine(), 4)
				fresh := newRO(t, st, time.Hour, 0)
				defer fresh.Stop()
				if err := fresh.Poll(); err != nil {
					t.Fatal(err)
				}
				serves(t, "a follower attached after the promotion", fresh.Replica(), 4)
			})
		}
	})
}

// TestBystanderWaitsOnDebrisUntilTheNewLeaderWrites: a follower of the old
// leader other than the one promoted waits out the debris too. Polled 100
// times between a promotion over a hole and the new leader's first write, it
// never re-attaches and serves nothing; that write's epoch fences the debris,
// and it then serves the write and none of the debris.
func TestBystanderWaitsOnDebrisUntilTheNewLeaderWrites(t *testing.T) {
	st, _, _ := holeLog(t)
	defer st.Close()
	bystander := newRO(t, st, time.Hour, 0)
	defer bystander.Stop()
	if err := bystander.Poll(); err != nil {
		t.Fatal(err)
	}
	promoted, err := Promote(newRO(t, st, time.Hour, 0), RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Stop()

	for i := 0; i < 100; i++ {
		if err := bystander.Poll(); err != nil {
			t.Fatalf("poll %d before the new leader's first write: %v", i, err)
		}
		serves(t, fmt.Sprintf("the bystander at poll %d", i), bystander.Replica())
	}
	if bystander.Resyncs() != 0 {
		t.Fatalf("the bystander re-attached %d times over the debris, want 0", bystander.Resyncs())
	}

	if err := promoted.AddEdge(graph.Edge{Src: 1, Dst: 4, Type: graph.ETypeFollow}); err != nil {
		t.Fatal(err)
	}
	if err := bystander.Poll(); err != nil {
		t.Fatal(err)
	}
	serves(t, "the bystander after the new leader's first write", bystander.Replica(), 4)
	if bystander.Resyncs() != 0 || bystander.AppliedLSN() != promoted.LastLSN() {
		t.Fatalf("the bystander after the first write: %d resyncs, at LSN %d; want 0 and the leader's %d",
			bystander.Resyncs(), bystander.AppliedLSN(), promoted.LastLSN())
	}
}

// TestRecoverOverDebrisFencesIt: a leader recovered over the debris of its
// predecessor's failed commit claims an epoch of its own, like a promoted one.
// Its records reuse the LSNs the debris holds, and a follower attached
// afterwards reads them and none of the debris.
func TestRecoverOverDebrisFencesIt(t *testing.T) {
	st, _, _ := holeLog(t)
	defer st.Close()
	rec, err := RecoverRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()
	if rec.Epoch() != 1 {
		t.Fatalf("recovered at epoch %d, want 1: one fence per tenure", rec.Epoch())
	}
	serves(t, "the leader recovered on top of the debris", rec.Engine())
	for _, dst := range []graph.VertexID{4, 5, 2} { // 1→2 at the debris' LSN 3
		if err := rec.AddEdge(graph.Edge{Src: 1, Dst: dst, Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.LastLSN() != 3 {
		t.Fatalf("fixture: the recovered leader logged up to LSN %d, want 3", rec.LastLSN())
	}
	serves(t, "the recovered leader", rec.Engine(), 2, 4)
	fresh := newRO(t, st, time.Hour, 0)
	defer fresh.Stop()
	if err := fresh.Poll(); err != nil {
		t.Fatal(err)
	}
	serves(t, "a follower attached after the recovery", fresh.Replica(), 2, 4)
}
