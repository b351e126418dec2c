package bg3

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bg3/internal/graph"
	"bg3/internal/storage"
)

// releaseOpts makes small pages and extents that fill fast, so three passes
// of overwrites leave GC work behind.
var releaseOpts = Options{ExtentSize: 2 << 10, MaxPageEntries: 16}

// eachReplicated runs fn on a leader set opened from o, its layers adjusted by
// set, at 1 shard ("DB") and at 2 and 4 ("shards=N").
func eachReplicated(t *testing.T, o Options, set func(*layers), fn func(t *testing.T, db *DB)) {
	openAt := func(t *testing.T, shards int) *DB {
		o.Replicated, o.Shards = true, shards
		return openLayers(t, o, set)
	}
	t.Run("DB", func(t *testing.T) { fn(t, openAt(t, 1)) })
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, openAt(t, shards)) })
	}
}

const releaseSources, releasePerSource = 16, 25

// overwritePasses writes the same edges three times, checkpointing every
// leader after each pass, so each pass kills the records of the one before.
func overwritePasses(t *testing.T, db *DB) {
	t.Helper()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < releaseSources*releasePerSource; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(i%releaseSources + 1), Dst: VertexID(1000 + i), Type: ETypeFollow,
				Props: Properties{{Name: "pass", Value: []byte{byte(pass)}}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// gcAndCheckpoint runs GC on every leader and then a checkpoint, which logs
// the relocations and stamps the condemned extents: only followers that have
// not applied it hold them after.
func gcAndCheckpoint(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.RunGC(64); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// condemned counts the extents GC condemned and no rule has released yet,
// over every shard's store.
func condemned(db *DB) (n int64) {
	for i := range db.Shards() {
		n += db.eng(i).Store().Stats().CondemnedExtents
	}
	return n
}

// TestFollowerReadsThroughGC is the release rule seen from the root: a
// replica holds the page locations of the last checkpoint it applied, so GC
// on the leaders must not free an extent under it. Three checkpointed passes
// of overwriting edges leave dead records behind, the replica syncs, every
// leader reclaims and checkpoints, and then the replica — with a one-page
// cache, so each read goes to storage — reads every source. Every shard count
// holds the condemned extents the same way: until the replica has applied the
// checkpoint that names their records' new locations.
func TestFollowerReadsThroughGC(t *testing.T) {
	oneCachedPage := func(cfg *layers) { cfg.followerCache = 1 }
	eachReplicated(t, releaseOpts, oneCachedPage, func(t *testing.T, db *DB) {
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		overwritePasses(t, db)
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		gcAndCheckpoint(t, db)
		failed := 0
		for src := VertexID(1); src <= releaseSources; src++ {
			if n, err := rep.Degree(src, ETypeFollow); err != nil || n != releasePerSource {
				t.Logf("source %d: degree %d, err %v", src, n, err)
				failed++
			}
		}
		if failed > 0 {
			t.Fatalf("%d of %d replica reads failed after GC", failed, releaseSources)
		}
	})
}

// TestStoppedFollowerDetaches pins that stopping a replica detaches it: the
// DB no longer counts it, and it no longer holds the extents GC condemned
// while it was attached.
func TestStoppedFollowerDetaches(t *testing.T) {
	o := releaseOpts
	o.ReplicaPollInterval = time.Hour // the replica applies nothing on its own
	eachReplicated(t, o, func(*layers) {}, func(t *testing.T, db *DB) {
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		overwritePasses(t, db)
		gcAndCheckpoint(t, db)
		if n := db.Stats().Replication.Replicas; n != 1 {
			t.Fatalf("%d replicas attached, want 1", n)
		}
		held := condemned(db)
		if held == 0 {
			t.Fatal("the replica holds no condemned extent: the test exercises no release")
		}
		rep.Stop()
		if n := db.Stats().Replication.Replicas; n != 0 {
			t.Fatalf("%d replicas attached after the only one stopped", n)
		}
		if lag := db.lag(); lag != 0 {
			t.Fatalf("a stopped replica still counts toward the lag (%d)", lag)
		}
		if n := condemned(db); n != 0 {
			t.Fatalf("%d of %d condemned extents still held after the only replica stopped", n, held)
		}
	})
}

// gcOpts makes pages of 16 entries that a two-page cache keeps evicting, in
// 4 KiB extents that overwrites invalidate fast, with flusher and replicas
// driven by hand.
var gcOpts = Options{MaxPageEntries: 16, CacheCapacity: 2, ExtentSize: 4 << 10,
	FlushInterval: time.Hour, ReplicaPollInterval: time.Hour}

const gcSources, gcPerSource = 50, 20

// overwriteRound writes every edge of gcSources × gcPerSource once more,
// tagged with round, and checkpoints every leader.
func overwriteRound(t *testing.T, db *DB, round int) {
	t.Helper()
	for i := 0; i < gcSources*gcPerSource; i++ {
		if err := db.AddEdge(Edge{Src: VertexID(i%gcSources + 1), Dst: VertexID(1000 + i/gcSources), Type: ETypeFollow,
			Props: Properties{{Name: "round", Value: []byte{byte(round)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// The anchors give each round of TestPinnedSnapshotDoesNotStallGC a record
// no later round kills: anchor(r) holds a page of edges past every source,
// written before the pin, and round r rewrites only its last one. A leaf
// holds at most MaxPageEntries keys, so no two rounds' anchor edges, and no
// anchor edge and a source's, share a leaf: the delta round r flushes for it
// stays live in an extent whose other records the next round kills, and GC
// has that extent to reclaim wherever the extent boundaries fall.
func anchor(round int) VertexID { return VertexID(gcSources + round) }

// writeAnchors writes the anchors of rounds 1..rounds.
func writeAnchors(t *testing.T, db *DB, rounds int) {
	t.Helper()
	for r := 1; r <= rounds; r++ {
		for j := 0; j < gcOpts.MaxPageEntries; j++ {
			if err := db.AddEdge(Edge{Src: anchor(r), Dst: VertexID(1000 + j), Type: ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// touchAnchor rewrites the last edge of round's anchor, for the round's
// checkpoint to flush.
func touchAnchor(t *testing.T, db *DB, round int) {
	t.Helper()
	if err := db.AddEdge(Edge{Src: anchor(round), Dst: VertexID(1000 + gcOpts.MaxPageEntries - 1), Type: ETypeFollow,
		Props: Properties{{Name: "round", Value: []byte{byte(round)}}}}); err != nil {
		t.Fatal(err)
	}
}

// checkRound reads every source through r and wants each of its edges tagged
// with round.
func checkRound(t *testing.T, when string, r graph.Reader, round int) {
	t.Helper()
	for src := VertexID(1); src <= gcSources; src++ {
		n := 0
		err := r.Neighbors(src, ETypeFollow, 0, func(dst VertexID, p Properties) bool {
			if v, _ := p.Get("round"); len(v) != 1 || int(v[0]) != round {
				t.Errorf("%s: edge %d→%d is from round %v, want %d", when, src, dst, v, round)
			}
			n++
			return true
		})
		if err != nil || n != gcPerSource {
			t.Fatalf("%s: source %d: %d edges, err %v; want %d", when, src, n, err, gcPerSource)
		}
	}
}

// TestPinnedSnapshotDoesNotStallGC holds one Snapshot across six rounds of
// overwrites, each checkpointed, reclaimed and checkpointed again; each round
// also rewrites its anchor, a record no later round kills. GC picks
// extents by what the writes did to them, not by what the snapshot holds: it
// reclaims under the pin, and every read through the pin still returns the
// state from before it — its history is live records, which GC moves and
// repoints like any other. Once the pin closes, a checkpoint and a replica's
// sync release every condemned extent.
func TestPinnedSnapshotDoesNotStallGC(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := replicatedDB(t, gcOpts, shards)
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
		writeAnchors(t, db, 6)
		overwriteRound(t, db, 0)
		s := db.Snapshot()
		before := db.Stats().GC.ExtentsReclaimed
		for round := 1; round <= 6; round++ {
			touchAnchor(t, db, round)
			overwriteRound(t, db, round)
			gcAndCheckpoint(t, db)
			checkRound(t, fmt.Sprintf("pinned read after round %d", round), s, 0)
		}
		n := db.Stats().GC.ExtentsReclaimed - before
		if n == 0 {
			t.Fatal("GC reclaimed no extent while the snapshot was open")
		}
		t.Logf("GC reclaimed %d extents under the pin", n)
		checkRound(t, "latest read", db, 6)
		s.Close()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := condemned(db); n != 0 {
			t.Fatalf("%d condemned extents held after the pin closed, a checkpoint and a sync", n)
		}
	})
}

// TestDeposedLeaderGCIsFenced runs GC on a leader after a failover deposed
// it, as a DB.RunGC that loaded the leader before the swap would. The
// promotion reinstated every extent no checkpoint had stamped, for the
// successor, whose mapping points into them; a reclaim by the deposed leader
// would condemn them again behind its back, relocating pages only the deposed
// leader's mapping learns of, and the successor's next checkpoints would
// stamp and release them under it. The failover fences the deposed leader's
// GC, so the cycle fails and every source stays readable.
func TestDeposedLeaderGCIsFenced(t *testing.T) {
	o := gcOpts
	o.Replicated = true
	db := openDB(t, &o)
	for round := range 4 {
		overwriteRound(t, db, round)
	}
	old := db.group.Leader(0)
	if err := db.Failover(0); err != nil {
		t.Fatal(err)
	}
	if moved, err := old.Engine().RunGC(64); !errors.Is(err, storage.ErrFenced) {
		t.Errorf("GC on the deposed leader moved %d B, err %v; want ErrFenced", moved, err)
	}
	for range 3 {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	checkRound(t, "after the deposed leader's GC", db, 3)
}

// sparseResident counts the resident sealed data extents of shard 0's store
// that hold at most 1/32 of their bytes live: the ones a compaction takes.
func sparseResident(db *DB) (n int) {
	st := db.eng(0).Store()
	for _, stream := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
		for _, u := range st.Usage(stream) {
			if u.Sealed && u.ValidRecords > 0 && u.ValidBytes <= u.CapacityBytes/32 {
				n++
			}
		}
	}
	return n
}

// TestFlushCycleCompactsBehindCheckpoint runs rounds of overwrites on a
// one-shard leader with a replica attached; each round also rewrites its
// anchor, a record no later round kills, so the round's extents end nearly
// empty rather than empty. Each flush cycle compacts them before it samples
// the condemn mark, so the relocations ride that cycle's checkpoint and the
// extents wait on the release rule like GC's. Once the replica applied a
// round's checkpoint no condemned extent is left, and the replica, whose
// one-page cache sends every read to storage, reads every acked edge at its
// new location.
func TestFlushCycleCompactsBehindCheckpoint(t *testing.T) {
	o := gcOpts
	o.Replicated = true
	db := openLayers(t, o, func(cfg *layers) { cfg.followerCache = 1 })
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	const rounds = 6
	writeAnchors(t, db, rounds)
	overwriteRound(t, db, 0)
	for round := 1; round <= rounds; round++ {
		touchAnchor(t, db, round)
		overwriteRound(t, db, round)
		// The replica applies the checkpoint that stamped this round's
		// compacted extents, which releases them: it must hold their records'
		// new locations by then.
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := condemned(db); n != 0 {
			t.Fatalf("round %d: %d condemned extents held after the replica synced", round, n)
		}
		when := fmt.Sprintf("follower read after round %d", round)
		checkRound(t, when, rep, round)
		for r := 1; r <= rounds; r++ {
			if n, err := rep.Degree(anchor(r), ETypeFollow); err != nil || n != gcOpts.MaxPageEntries {
				t.Fatalf("%s: anchor %d: %d edges, err %v; want %d", when, r, n, err, gcOpts.MaxPageEntries)
			}
		}
	}
	st := db.Stats()
	if st.GC.ExtentsCompacted == 0 {
		t.Fatal("no flush cycle compacted an extent")
	}
	t.Logf("%d extents compacted, %d B moved", st.GC.ExtentsCompacted, st.GC.CompactBytesMoved)
}

// TestDeposedLeaderCompactsNothing fences a leader's GC, as a failover does
// to the leader it deposes, and then runs rounds through it: their flush
// cycles leave extents nearly empty and queue them, and neither their
// compactions nor a direct Compact move any of them, so they stay resident
// for the successor. The successor's first flush cycle compacts them, and
// every source reads back.
func TestDeposedLeaderCompactsNothing(t *testing.T) {
	o := gcOpts
	o.Replicated = true
	db := openDB(t, &o)
	const rounds = 6
	writeAnchors(t, db, rounds)
	overwriteRound(t, db, 0)
	old := db.group.Leader(0)
	old.Engine().FenceGC()
	before := db.Stats().GC.ExtentsCompacted
	for round := 1; round <= rounds; round++ {
		touchAnchor(t, db, round)
		overwriteRound(t, db, round)
	}
	if n := db.Stats().GC.ExtentsCompacted; n != before {
		t.Fatalf("the fenced leader compacted %d extents", n-before)
	}
	sparse := sparseResident(db)
	if sparse == 0 {
		t.Fatal("the round left no sparse extent: the test exercises no fence")
	}
	if moved, err := old.Engine().Compact(); !errors.Is(err, storage.ErrFenced) || moved != 0 {
		t.Fatalf("Compact on the fenced leader moved %d B, err %v; want ErrFenced", moved, err)
	}
	if n := sparseResident(db); n != sparse {
		t.Fatalf("%d of %d sparse extents resident after the fenced Compact", n, sparse)
	}
	if err := db.Failover(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().GC.ExtentsCompacted; n == before {
		t.Fatal("the successor's flush cycle compacted nothing")
	}
	checkRound(t, "after the successor compacted", db, rounds)
}
