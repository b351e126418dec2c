package bg3

import (
	"fmt"
	"testing"
	"time"
)

// releaseOpts makes small pages and extents that fill fast, so three passes
// of overwrites leave GC work behind.
var releaseOpts = Options{ExtentSize: 4 << 10, MaxPageEntries: 16}

// eachReplicated runs fn on a leader set opened from o at 1 shard ("DB") and
// at 2 and 4 ("shards=N").
func eachReplicated(t *testing.T, o Options, fn func(t *testing.T, db *DB)) {
	t.Run("DB", func(t *testing.T) { fn(t, replicatedDB(t, o, 1)) })
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, replicatedDB(t, o, shards)) })
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
	o := releaseOpts
	o.ReplicaCacheCapacity = 1
	eachReplicated(t, o, func(t *testing.T, db *DB) {
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
	eachReplicated(t, o, func(t *testing.T, db *DB) {
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
