package bg3

import (
	"testing"
	"time"
)

// releaseOpts makes small pages and extents that fill fast, so three passes
// of overwrites leave GC work behind.
var releaseOpts = Options{ExtentSize: 4 << 10, MaxPageEntries: 16}

// releaseCases are both replicated shapes, opened from o.
func releaseCases(o Options) []struct {
	name string
	open func(t *testing.T) failoverTarget
} {
	sharded := o
	sharded.Shards = 2
	return []struct {
		name string
		open func(t *testing.T) failoverTarget
	}{
		{"DB", dbFailoverTarget(o)},
		{"ShardedDB", shardFailoverTarget(sharded, 0)},
	}
}

const releaseSources, releasePerSource = 16, 25

// overwritePasses writes the same edges three times, checkpointing every
// leader after each pass, so each pass kills the records of the one before.
func overwritePasses(t *testing.T, tgt failoverTarget) {
	t.Helper()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < releaseSources*releasePerSource; i++ {
			if err := tgt.store.AddEdge(Edge{Src: VertexID(i%releaseSources + 1), Dst: VertexID(1000 + i), Type: ETypeFollow,
				Props: Properties{{Name: "pass", Value: []byte{byte(pass)}}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tgt.checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// gcAndCheckpoint runs GC on every leader and then a checkpoint, which logs
// the relocations and stamps the condemned extents: only followers that have
// not applied it hold them after.
func gcAndCheckpoint(t *testing.T, tgt failoverTarget) {
	t.Helper()
	if err := tgt.runGC(64); err != nil {
		t.Fatal(err)
	}
	if err := tgt.checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// condemned counts the extents GC condemned and no rule has released yet,
// over every shard's store.
func condemned(tgt failoverTarget) (n int64) {
	for i := 0; i < tgt.ls.group.Shards(); i++ {
		n += tgt.ls.group.Store(i).Stats().CondemnedExtents
	}
	return n
}

// TestFollowerReadsThroughGC is the release rule seen from the root: a
// follower handle holds the page locations of the last checkpoint it applied,
// so GC on the leaders must not free an extent under it. Three checkpointed
// passes of overwriting edges leave dead records behind, the follower syncs,
// every leader reclaims and checkpoints, and then the follower — with a
// one-page cache, so each read goes to storage — reads every source. Both
// replicated shapes hold the condemned extents the same way: until the
// follower has applied the checkpoint that names their records' new
// locations.
func TestFollowerReadsThroughGC(t *testing.T) {
	o := releaseOpts
	o.ReplicaCacheCapacity = 1
	for _, tc := range releaseCases(o) {
		t.Run(tc.name, func(t *testing.T) {
			tgt := tc.open(t)
			reader, sync, _ := tgt.follower(t)
			overwritePasses(t, tgt)
			if err := sync(); err != nil {
				t.Fatal(err)
			}
			gcAndCheckpoint(t, tgt)
			failed := 0
			for src := VertexID(1); src <= releaseSources; src++ {
				if n, err := reader.Degree(src, ETypeFollow); err != nil || n != releasePerSource {
					t.Logf("source %d: degree %d, err %v", src, n, err)
					failed++
				}
			}
			if failed > 0 {
				t.Fatalf("%d of %d follower reads failed after GC", failed, releaseSources)
			}
		})
	}
}

// TestStoppedFollowerDetaches pins that stopping a replica or a read view
// detaches it: the deployment no longer counts it, and it no longer holds the
// extents GC condemned while it was attached.
func TestStoppedFollowerDetaches(t *testing.T) {
	o := releaseOpts
	o.ReplicaPollInterval = time.Hour // the follower applies nothing on its own
	for _, tc := range releaseCases(o) {
		t.Run(tc.name, func(t *testing.T) {
			tgt := tc.open(t)
			_, _, stop := tgt.follower(t)
			overwritePasses(t, tgt)
			gcAndCheckpoint(t, tgt)
			if n := len(tgt.ls.followers()); n != 1 {
				t.Fatalf("%d follower sets attached, want 1", n)
			}
			held := condemned(tgt)
			if held == 0 {
				t.Fatal("the follower holds no condemned extent: the test exercises no release")
			}
			stop()
			if n := len(tgt.ls.followers()); n != 0 {
				t.Fatalf("%d follower sets attached after the only one stopped", n)
			}
			if lag := tgt.lag(); lag != 0 {
				t.Fatalf("a stopped follower still counts toward the lag (%d)", lag)
			}
			if n := condemned(tgt); n != 0 {
				t.Fatalf("%d of %d condemned extents still held after the only follower stopped", n, held)
			}
		})
	}
}
