package replication

import (
	"fmt"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestFollowerReplayBacklogBoundedByCheckpoints: the memory bound §3.4's
// checkpoint exists for holds on a follower whose overlays survive eviction.
// Pinned to 2 resident pages over more than 200, reading (so loading and
// evicting) while it applies 5,000 ops, it is left after each of three
// checkpoints with no replayed op the checkpoint covers — on evicted pages
// too — and afterwards with exactly the ops above the last one; every read
// matches the leader throughout.
func TestFollowerReplayBacklogBoundedByCheckpoints(t *testing.T) {
	const sources, phaseOps, tail = 250, 1667, 40
	st := storage.Open(&storage.Options{ExtentSize: 1 << 18})
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	ro := newRO(t, st, time.Hour, 2) // polled by hand
	defer ro.Stop()
	gauge := func(name string) int64 { return ro.Metrics().Snapshot()[name].Value }

	ops := 0
	write := func(n int) {
		t.Helper()
		for ; n > 0; n, ops = n-1, ops+1 {
			if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(ops % sources), Dst: graph.VertexID(ops), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
			if ops%97 == 0 {
				if err := ro.Poll(); err != nil {
					t.Fatal(err)
				}
				src := graph.VertexID(ops % sources)
				want, _ := rw.Degree(src, graph.ETypeFollow)
				if got, err := ro.Replica().Degree(src, graph.ETypeFollow); err != nil || got != want {
					t.Fatalf("after %d ops: follower degree(%d) = %d %v, leader %d", ops, src, got, err, want)
				}
			}
		}
	}
	for phase := 0; phase < 3; phase++ {
		write(phaseOps)
		if err := rw.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ro.Poll(); err != nil {
			t.Fatal(err)
		}
		if got := ro.Replica().BufferedRecords(); got != 0 {
			t.Fatalf("checkpoint %d: %d replayed ops at or below its LSN still buffered", phase+1, got)
		}
	}
	write(tail)
	if err := ro.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := ro.Replica().BufferedRecords(); got != tail || gauge("replication.buffered_records") != tail {
		t.Fatalf("buffered records = %d (gauge %d), want the %d ops above the last checkpoint", got, gauge("replication.buffered_records"), tail)
	}
	if pages, evictions := gauge("bwtree.pages"), gauge("bwtree.cache_evictions"); pages < 200 || evictions == 0 {
		t.Fatalf("fixture: %d pages, %d evictions: want more than 200 pages behind a cache of 2", pages, evictions)
	}
	if resident := gauge("bwtree.cache_resident_pages"); resident > 2 {
		t.Fatalf("%d pages resident, capacity 2", resident)
	}
	for src := 0; src < sources; src++ {
		want, _ := rw.Degree(graph.VertexID(src), graph.ETypeFollow)
		if got, err := ro.Replica().Degree(graph.VertexID(src), graph.ETypeFollow); err != nil || got != want {
			t.Fatalf("follower degree(%d) = %d %v, leader %d", src, got, err, want)
		}
	}
	if got, want := gauge("replication.applied_lsn"), int64(rw.LastLSN()); got != want {
		t.Fatalf("replication.applied_lsn = %d, leader's last LSN %d", got, want)
	}
}

// TestFollowerNeverAppends: an applier never writes to the shared store — not
// bootstrapping from a snapshot, not applying splits that grow a root (inner
// nodes are memory on every node), not reading.
func TestFollowerNeverAppends(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 18})
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{
		Tree: bwtree.Config{MaxPageEntries: 8, MaxInnerEntries: 4}, SplitThreshold: 32,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	const sources = 12
	load := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i % sources), Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heights := func() map[bwtree.TreeID]int {
		h := make(map[bwtree.TreeID]int)
		rw.Engine().Forest().Trees(func(tr *bwtree.Tree) bool { h[tr.ID()] = tr.Height(); return true })
		return h
	}
	load(0, 300)
	if _, err := rw.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	before := heights()
	load(300, 900) // every source crosses the split threshold: new trees, leaf splits, new roots
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for id, h := range heights() {
		if h > max(before[id], 1) {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("fixture: no root grew beyond the snapshot")
	}

	writes := st.Stats().WriteOps
	fromSnapshot, err := NewRONode(st, time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnapshot.Stop()
	fromStart := newRO(t, st, time.Hour, 4)
	defer fromStart.Stop()
	for name, ro := range map[string]*RONode{"snapshot": fromSnapshot, "log": fromStart} {
		if err := ro.Poll(); err != nil {
			t.Fatal(err)
		}
		for src := 0; src < sources; src++ {
			if got, err := ro.Replica().Degree(graph.VertexID(src), graph.ETypeFollow); err != nil || got != 900/sources {
				t.Fatalf("follower from %s: degree(%d) = %d %v, want %d", name, src, got, err, 900/sources)
			}
		}
		if reached, err := graph.KHop(ro.Replica(), 0, graph.ETypeFollow, 2, 0); err != nil || len(reached) == 0 {
			t.Fatalf("follower from %s: KHop reached %d vertices, %v", name, len(reached), err)
		}
	}
	if got := st.Stats().WriteOps; got != writes {
		t.Fatalf("followers appended %d records to the shared store", got-writes)
	}
}

// TestChunkedCheckpointCutsOverlaysOnLastRecord: a checkpoint too large for
// one WAL record (4 KiB extents: 56 mapping updates a record) is several
// records, and a follower may stop between any two of them. It must read every
// edge at its latest state after each one: the overlays are cut at the
// checkpoint's horizon only by the last record, once every page has moved —
// cut by the first, an evicted page named by a later record reloads from
// records that never held the ops it just dropped. No sleeping: the records
// are applied by hand, one at a time, behind a 2-page cache.
func TestChunkedCheckpointCutsOverlaysOnLastRecord(t *testing.T) {
	const sources, perRound = 300, 3
	st := storage.Open(&storage.Options{ExtentSize: 4 << 10})
	rw, err := NewRWNode(st, RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	rep, rd := core.NewReplica(st, 2), wal.NewReader(st)
	round := func(r int) {
		t.Helper()
		for i := 0; i < sources*perRound; i++ {
			if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i % sources), Dst: graph.VertexID(r*sources*perRound + i), Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	current := func(when string) {
		t.Helper()
		for src := 0; src < sources; src++ {
			want, _ := rw.Degree(graph.VertexID(src), graph.ETypeFollow)
			if got, err := rep.Degree(graph.VertexID(src), graph.ETypeFollow); err != nil || got != want {
				t.Fatalf("%s: follower degree(%d) = %d %v, leader %d", when, src, got, err, want)
			}
		}
	}
	round(0)
	if err := rw.Checkpoint(); err != nil { // every page has durable records; round 1 dirties them again
		t.Fatal(err)
	}
	round(1)
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err := rd.Poll()
	if err != nil {
		t.Fatal(err)
	}
	chunks, last := 0, len(recs)-1
	for last >= 0 && recs[last].Type != wal.RecordCheckpoint {
		last--
	}
	for i, rec := range recs {
		ofLast := rec.Type == wal.RecordCheckpoint && rec.CkptLSN == recs[last].CkptLSN
		if ofLast && chunks == 0 {
			current("before the checkpoint") // and loads and evicts every page
		}
		if err := rep.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if !ofLast {
			continue
		}
		chunks++
		if left := uint64(last - i); rec.TreeID != left {
			t.Fatalf("checkpoint record %d carries %d records to come, want %d", chunks, rec.TreeID, left)
		}
		current(fmt.Sprintf("after checkpoint record %d", chunks))
		if buffered := rep.BufferedRecords(); (buffered == 0) != (i == last) {
			t.Fatalf("after checkpoint record %d (%d to come): %d replayed ops buffered", chunks, last-i, buffered)
		}
	}
	if chunks < 2 {
		t.Fatalf("the checkpoint took %d records, want several", chunks)
	}
}
