package bg3

import (
	"reflect"
	"testing"
	"time"

	"bg3/internal/graph"
)

// perVertex hides a reader's graph.FrontierReader capability, so graph.KHop
// expands it one Neighbors call per frontier vertex — the traversal every
// reader ran before the hop became the unit of I/O.
type perVertex struct{ graph.Reader }

// fanOut is the per-vertex fan-out of fanOutDB's first two levels.
const fanOut = 18

// fanOutDB loads a three-level fan-out: vertex 1 follows 18 vertices, each
// of which follows 18 more (324 distinct), each of which has 70 followees
// of its own — past the forest split threshold, so every third-hop frontier
// vertex sits in a dedicated tree, one leaf apiece: a 3-hop read at limit 18
// needs 324 distinct leaves in its last hop alone, five times the cache and
// more than one batched load holds.
func fanOutDB(t *testing.T) *DB {
	t.Helper()
	return loadFanOut(t, openDB(t, &Options{ForestSplitThreshold: 64, CacheCapacity: 64}))
}

func loadFanOut(t *testing.T, db *DB) *DB {
	t.Helper()
	add := func(src, dst VertexID) {
		t.Helper()
		if err := db.AddEdge(Edge{Src: src, Dst: dst, Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fanOut; i++ {
		a := VertexID(100 + i)
		add(1, a)
		for j := 0; j < fanOut; j++ {
			b := VertexID(1000 + fanOut*i + j)
			add(a, b)
			for k := 0; k < 70; k++ {
				add(b, VertexID(100000+100*int(b)+k))
			}
		}
	}
	return db
}

// TestKHopIssuesOneStorageRoundPerHop pins the gain of the batched hop by
// counters, no wall clock: a cold 3-hop KHop over more than 200 distinct
// leaves waits on at most 2 x hops serial storage rounds (plain reads plus
// ReadBatch calls) where the per-vertex expansion of the same traversal on
// an identically loaded DB waits on one per page; it reads no more records
// than that expansion does, reaches the same vertices, and no cold page costs
// more than its base + delta records (TestLeaderHopReadsOneRecordPerColdLeaf
// has the leader's exact count).
func TestKHopIssuesOneStorageRoundPerHop(t *testing.T) {
	const hops = 3
	type cost struct{ rounds, records, extentAccesses int64 }
	run := func(batched bool) (map[VertexID]struct{}, cost, *DB) {
		db := fanOutDB(t)
		before := db.Metrics().Snapshot()
		var reached map[VertexID]struct{}
		var err error
		if batched {
			reached, err = db.KHop(1, ETypeFollow, hops, fanOut)
		} else {
			s := db.Snapshot()
			reached, err = graph.KHop(perVertex{s.r}, 1, ETypeFollow, hops, fanOut)
			s.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		after := db.Metrics().Snapshot()
		d := func(name string) int64 { return after[name].Value - before[name].Value }
		return reached, cost{
			rounds:         d("storage.read_ops") - d("storage.batch_locs") + d("storage.batch_reads"),
			records:        d("storage.read_ops"),
			extentAccesses: d("storage.read_ops") - d("storage.batch_locs") + d("storage.batch_round_trips"),
		}, db
	}
	wantReached, serial, _ := run(false)
	reached, batched, db := run(true)

	if want := fanOut + fanOut*fanOut + fanOut*fanOut*fanOut; len(reached) != want || !reflect.DeepEqual(reached, wantReached) {
		t.Fatalf("batched KHop reached %d vertices, per-vertex %d, want %d", len(reached), len(wantReached), want)
	}
	if serial.rounds < 200 {
		t.Fatalf("fixture: the per-vertex traversal waited on %d storage rounds, want >= 200 cold pages", serial.rounds)
	}
	if batched.rounds > 2*hops {
		t.Fatalf("batched KHop waited on %d serial storage rounds, want <= %d (per-vertex: %d)", batched.rounds, 2*hops, serial.rounds)
	}
	if batched.records > serial.records {
		t.Fatalf("batched KHop read %d records, the per-vertex traversal %d", batched.records, serial.records)
	}
	if batched.extentAccesses*2 > serial.extentAccesses {
		t.Fatalf("batched KHop made %d extent accesses, per-vertex %d: same-extent pages did not coalesce", batched.extentAccesses, serial.extentAccesses)
	}
	snap := db.Metrics().Snapshot()
	if f := snap["bwtree.read_fanout"].IntHistogram; f == nil || f.Max > 2 {
		t.Fatalf("bwtree.read_fanout = %+v, want at most base + delta per page", f)
	}
	if b := snap["bwtree.batch_load_pages"].IntHistogram; b == nil || b.Max < 200 {
		t.Fatalf("bwtree.batch_load_pages = %+v, want one load of >= 200 pages", b)
	}
}

// TestLeaderHopReadsOneRecordPerColdLeaf pins what the hop's batched load reads
// on a leader: a leaf's delta ops stay resident in its overlay across eviction,
// so a cold frontier of N leaves puts N locations in the hop's ReadBatch calls —
// the base records — although nearly every one of those leaves has a delta
// record beside its base, and bwtree.read_fanout never exceeds 1. (An applier's
// overlay is cut at each checkpoint: the follower pin below still allows base +
// delta.)
func TestLeaderHopReadsOneRecordPerColdLeaf(t *testing.T) {
	db := fanOutDB(t)
	leaves, withDelta := 0, 0
	for _, lf := range db.eng(0).Mapping().NameLeaves(0, 1) {
		if leaves++; len(lf.Deltas) > 0 {
			withDelta++
		}
	}
	if withDelta < 300 {
		t.Fatalf("fixture: %d of %d leaves have a delta record, want >= 300", withDelta, leaves)
	}
	before := db.Metrics().Snapshot()
	if _, err := db.KHop(1, ETypeFollow, 3, fanOut); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics().Snapshot()
	d := func(name string) int64 { return after[name].Value - before[name].Value }
	cold := d("bwtree.cache_misses")
	if cold < 300 {
		t.Fatalf("fixture: the traversal missed on %d leaves, want >= 300", cold)
	}
	if locs, reads := d("storage.batch_locs"), d("storage.read_ops"); locs != cold || reads != cold {
		t.Fatalf("%d cold leaves: storage.batch_locs moved by %d and storage.read_ops by %d, want one base record each", cold, locs, reads)
	}
	if f := after["bwtree.read_fanout"].IntHistogram; f == nil || f.Count == 0 || f.Max != 1 {
		t.Fatalf("bwtree.read_fanout = %+v, want max 1", f)
	}
}

// TestFollowerKHopIssuesOneStorageRoundPerHop is the same pin on the scale-out
// read path: a follower is the leader's page table applying the WAL, so a cold
// 3-hop KHop through a freshly attached replica reaches what the leader's
// does, waits on at most 2 x hops serial storage rounds of the shared store
// (one per page before followers batched a hop), reads no more records than
// the per-vertex expansion through a second cold replica, and a page costs at
// most base + delta. The fan-out is read from the follower node's own
// registry.
func TestFollowerKHopIssuesOneStorageRoundPerHop(t *testing.T) {
	const hops = 3
	// The counters below are the shared store's, and the leader's flusher and
	// a follower's tailing loop use that store too: both are driven by hand
	// here, Checkpoint and Sync.
	db := loadFanOut(t, openDB(t, &Options{
		Replicated: true, ForestSplitThreshold: 64, CacheCapacity: 64, ReplicaCacheCapacity: 64,
		FlushInterval: time.Hour, ReplicaPollInterval: time.Hour,
	}))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := db.KHop(1, ETypeFollow, hops, fanOut)
	if err != nil {
		t.Fatal(err)
	}
	type cost struct{ rounds, records int64 }
	run := func(batched bool) (map[VertexID]struct{}, cost, *Replica) {
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Stop)
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		before := db.Metrics().Snapshot() // the leader's registry counts the shared store
		var reached map[VertexID]struct{}
		if batched {
			reached, err = rep.KHop(1, ETypeFollow, hops, fanOut)
		} else {
			reached, err = graph.KHop(perVertex{rep.r}, 1, ETypeFollow, hops, fanOut)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := db.Metrics().Snapshot()
		d := func(name string) int64 { return after[name].Value - before[name].Value }
		return reached, cost{
			rounds:  d("storage.read_ops") - d("storage.batch_locs") + d("storage.batch_reads"),
			records: d("storage.read_ops"),
		}, rep
	}
	wantReached, serial, _ := run(false)
	reached, batched, rep := run(true)
	t.Logf("per-vertex %+v, batched %+v", serial, batched)
	if !reflect.DeepEqual(reached, want) || !reflect.DeepEqual(wantReached, want) {
		t.Fatalf("follower KHop reached %d vertices, per-vertex %d, the leader %d", len(reached), len(wantReached), len(want))
	}
	if serial.rounds < 200 {
		t.Fatalf("fixture: the per-vertex traversal waited on %d storage rounds, want >= 200 cold pages", serial.rounds)
	}
	if batched.rounds > 2*hops {
		t.Fatalf("follower KHop waited on %d serial storage rounds, want <= %d (per-vertex: %d)", batched.rounds, 2*hops, serial.rounds)
	}
	if batched.records > serial.records {
		t.Fatalf("follower KHop read %d records, the per-vertex traversal %d", batched.records, serial.records)
	}
	snap := rep.ros[0].Metrics().Snapshot()
	if f := snap["bwtree.read_fanout"].IntHistogram; f == nil || f.Count == 0 || f.Max > 2 {
		t.Fatalf("follower bwtree.read_fanout = %+v, want at most base + delta per page", f)
	}
	if b := snap["bwtree.batch_load_pages"].IntHistogram; b == nil || b.Max < 200 {
		t.Fatalf("follower bwtree.batch_load_pages = %+v, want one load of >= 200 pages", b)
	}
	if got, want := snap["replication.applied_lsn"].Value, int64(rep.AppliedLSN(0)); got != want || got == 0 {
		t.Fatalf("replication.applied_lsn = %d, AppliedLSN %d", got, want)
	}
}

// TestReadViewKHopScattersEachHop: a multi-shard replica hands a hop to the
// router as one frontier — one scatter per hop, each shard's part batched by
// its follower — instead of expanding it vertex by vertex.
func TestReadViewKHopScattersEachHop(t *testing.T) {
	db := openDB(t, &Options{Shards: 2})
	var muts []Mutation
	for a := 0; a < 6; a++ {
		muts = append(muts, AddEdgeMut(Edge{Src: 1, Dst: VertexID(10 + a), Type: ETypeFollow}))
		for b := 0; b < 6; b++ {
			muts = append(muts, AddEdgeMut(Edge{Src: VertexID(10 + a), Dst: VertexID(100 + 10*a + b), Type: ETypeFollow}))
		}
	}
	if err := db.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	for hops := 1; hops <= 3; hops++ {
		was := db.Stats().Shards.ScatterHops
		reached, err := rep.KHop(1, ETypeFollow, hops, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 6, 42, 42}[hops]; len(reached) != want {
			t.Fatalf("%d-hop replica KHop reached %d vertices, want %d", hops, len(reached), want)
		}
		if got := db.Stats().Shards.ScatterHops - was; got != int64(hops) {
			t.Fatalf("%d-hop replica KHop moved shard.scatter_hops by %d, want one per hop", hops, got)
		}
	}
}

// TestPinnedReadSkipsInitAfterMigration: a dedicated owner's pinned reads
// touch the INIT tree only when the pin predates the owner's assignment —
// a pin taken after the migration adds nothing to INIT's scan and get
// counters, and a pin taken before it still sees the pre-migration
// adjacency exactly while the owner is rewritten in its dedicated tree.
func TestPinnedReadSkipsInitAfterMigration(t *testing.T) {
	db := openDB(t, &Options{Replicated: true, ForestSplitThreshold: 32})
	const hub = VertexID(7)
	for i := 0; i < 20; i++ {
		if err := db.AddEdge(Edge{Src: hub, Dst: VertexID(100 + i), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Snapshot() // the hub still lives in INIT
	defer before.Close()
	for i := 20; i < 60; i++ { // crosses the threshold: the hub migrates
		if err := db.AddEdge(Edge{Src: hub, Dst: VertexID(100 + i), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteEdge(hub, ETypeFollow, 100); err != nil {
		t.Fatal(err)
	}
	forest := db.eng(0).Forest()
	if forest.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", forest.Stats().Migrations)
	}
	after := db.Snapshot()
	defer after.Close()

	neighbors := func(s *Snapshot) []VertexID {
		t.Helper()
		var out []VertexID
		if err := s.Neighbors(hub, ETypeFollow, 0, func(dst VertexID, _ Properties) bool {
			out = append(out, dst)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	init := forest.TreeByID(forest.InitTreeID())
	was := init.Stats()
	if got := neighbors(after); len(got) != 59 || got[0] != 101 {
		t.Fatalf("pin after the migration sees %d neighbors starting at %v, want 59 from 101", len(got), got[:1])
	}
	if reached, err := after.KHop(hub, ETypeFollow, 1, 0); err != nil || len(reached) != 59 {
		t.Fatalf("pinned KHop = %d vertices, %v", len(reached), err)
	}
	if _, ok, err := after.GetEdge(hub, ETypeFollow, 100); err != nil || ok {
		t.Fatalf("deleted edge visible at the later pin: %v %v", ok, err)
	}
	now := init.Stats()
	if scans, gets := now.Scans-was.Scans, now.Gets-was.Gets; scans != 0 || gets != 0 {
		t.Fatalf("pinned reads of a dedicated owner cost the INIT tree %d scans and %d gets, want 0", scans, gets)
	}

	got := neighbors(before)
	if len(got) != 20 || got[0] != 100 || got[19] != 119 {
		t.Fatalf("pin before the migration sees %v, want 100..119", got)
	}
	if _, ok, err := before.GetEdge(hub, ETypeFollow, 100); err != nil || !ok {
		t.Fatalf("pre-migration edge at the earlier pin: %v %v", ok, err)
	}
	if _, ok, err := before.GetEdge(hub, ETypeFollow, 130); err != nil || ok {
		t.Fatalf("post-pin edge visible at the earlier pin: %v %v", ok, err)
	}
}
