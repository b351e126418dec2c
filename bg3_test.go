package bg3

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bg3/internal/forest"
	"bg3/internal/graph"
)

func openDB(t *testing.T, opts *Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// openLayers opens o through the seam open has for what Options does not
// expose: set adjusts o's layers first.
func openLayers(t *testing.T, o Options, set func(*layers)) *DB {
	t.Helper()
	cfg := o.layers()
	set(&cfg)
	db, err := open(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openDB(t, nil)
	if err := db.AddVertex(Vertex{ID: 1, Type: VTypeUser}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.GetVertex(1, VTypeUser); !ok {
		t.Fatal("vertex lost")
	}
}

func TestPublicGraphAPI(t *testing.T) {
	db := openDB(t, &Options{ForestSplitThreshold: 100})
	if err := db.AddVertex(Vertex{ID: 1, Type: VTypeUser,
		Props: Properties{{Name: "name", Value: []byte("alice")}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.AddEdge(Edge{Src: 1, Dst: VertexID(100 + i), Type: ETypeLike,
			Props: Properties{{Name: "ts", Value: []byte(fmt.Sprint(i))}}}); err != nil {
			t.Fatal(err)
		}
	}
	if deg, _ := db.Degree(1, ETypeLike); deg != 50 {
		t.Fatalf("degree = %d", deg)
	}
	e, ok, _ := db.GetEdge(1, ETypeLike, 110)
	if !ok {
		t.Fatal("edge missing")
	}
	if ts, _ := e.Props.Get("ts"); string(ts) != "10" {
		t.Fatalf("edge props = %+v", e.Props)
	}
	if err := db.DeleteEdge(1, ETypeLike, 110); err != nil {
		t.Fatal(err)
	}
	if deg, _ := db.Degree(1, ETypeLike); deg != 49 {
		t.Fatalf("degree after delete = %d", deg)
	}
	n := 0
	if err := db.Neighbors(1, ETypeLike, 10, func(VertexID, Properties) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("limited neighbors = %d", n)
	}
}

func TestKHopAndPatterns(t *testing.T) {
	db := openDB(t, nil)
	for _, e := range []Edge{
		{Src: 1, Dst: 2, Type: ETypeTransfer},
		{Src: 2, Dst: 3, Type: ETypeTransfer},
		{Src: 3, Dst: 1, Type: ETypeTransfer},
	} {
		if err := db.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	reached, err := db.KHop(1, ETypeTransfer, 2, 0)
	if err != nil || len(reached) != 2 {
		t.Fatalf("khop = %v %v", reached, err)
	}
	cycles, err := db.FindCycles(1, ETypeTransfer, 3, 0)
	if err != nil || len(cycles) != 1 {
		t.Fatalf("cycles = %v %v", cycles, err)
	}
	matches, err := db.MatchPattern(Pattern{N: 2, Edges: []PatternEdge{{From: 0, To: 1, Type: ETypeTransfer}}},
		[]VertexID{1}, 0)
	if err != nil || len(matches) != 1 {
		t.Fatalf("matches = %v %v", matches, err)
	}
}

func TestReplicationAPI(t *testing.T) {
	db := openDB(t, &Options{
		Replicated:          true,
		FlushInterval:       5 * time.Millisecond,
		ReplicaPollInterval: time.Millisecond,
	})
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.AddEdge(Edge{Src: 1, Dst: VertexID(i + 100), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if deg, err := rep.Degree(1, ETypeFollow); err != nil || deg != 100 {
		t.Fatalf("replica degree = %d %v", deg, err)
	}
	if _, ok, _ := rep.GetEdge(1, ETypeFollow, 142); !ok {
		t.Fatal("replica missing edge")
	}
	reached, err := rep.KHop(1, ETypeFollow, 1, 0)
	if err != nil || len(reached) != 100 {
		t.Fatalf("replica khop = %d %v", len(reached), err)
	}
}

func TestOpenReplicaRequiresReplication(t *testing.T) {
	db := openDB(t, nil)
	if _, err := db.OpenReplica(); err != ErrNotReplicated {
		t.Fatalf("err = %v, want ErrNotReplicated", err)
	}
}

// forShards runs fn as one subtest per shard count, "shards=N".
func forShards(t *testing.T, counts []int, fn func(t *testing.T, shards int)) {
	for _, n := range counts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

// TestStatsSnapshot: one shard is a bare engine, four a leader set, and Stats
// sums every shard's accounting either way.
func TestStatsSnapshot(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := openDB(t, &Options{Shards: shards, ForestSplitThreshold: 10})
		for i := 0; i < 50; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(7 + i%shards), Dst: VertexID(i), Type: ETypeLike}); err != nil {
				t.Fatal(err)
			}
		}
		s := db.Stats()
		if s.Storage.WriteOps == 0 || s.Storage.BytesWritten == 0 {
			t.Fatalf("stats missing write accounting: %+v", s)
		}
		if s.Forest.Trees < shards+1 {
			t.Fatalf("trees = %d, want an INIT tree per shard and the hot vertex split out", s.Forest.Trees)
		}
		if s.Cache.MemoryBytes == 0 {
			t.Fatal("memory estimate is zero")
		}
		if s.Shards.Count != shards || len(s.Shards.ReadEpochs) != shards || len(s.Shards.LastLSNs) != shards || len(s.Shards.Epochs) != shards {
			t.Fatalf("shard axis = %+v, want %d shards", s.Shards, shards)
		}
	})
}

func TestTTLViaPublicAPI(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := openDB(t, &Options{Shards: shards, TTL: time.Millisecond, ExtentSize: 1 << 10, MaxPageEntries: 16})
		for i := 0; i < 400*shards; i++ { // enough to seal extents: leaves store their keys' common prefix once
			if err := db.AddEdge(Edge{Src: VertexID(1 + i%shards), Dst: VertexID(i), Type: ETypeTransfer}); err != nil {
				t.Fatal(err)
			}
			if i%(10*shards) == 0 { // a leader writes its pages at a flush
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
		if _, err := db.RunGC(8); err != nil {
			t.Fatal(err)
		}
		if db.Stats().GC.ExtentsExpired == 0 {
			t.Fatal("TTL expiry never happened")
		}
	})
}

func TestCheckpointNoopWithoutReplication(t *testing.T) {
	db := openDB(t, nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAndTrimPublicAPI(t *testing.T) {
	db := openDB(t, &Options{Replicated: true, ReplicaPollInterval: time.Millisecond})
	for i := 0; i < 300; i++ {
		if err := db.AddEdge(Edge{Src: 1, Dst: VertexID(i + 10), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	db.TrimWAL() // may or may not free extents depending on sizes
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if deg, err := rep.Degree(1, ETypeFollow); err != nil || deg != 300 {
		t.Fatalf("replica degree = %d %v, want 300", deg, err)
	}
}

func TestSnapshotRequiresReplication(t *testing.T) {
	db := openDB(t, nil)
	if err := db.WriteSnapshot(); err != ErrNotReplicated {
		t.Fatalf("err = %v, want ErrNotReplicated", err)
	}
	if db.TrimWAL() != 0 {
		t.Fatal("TrimWAL on non-replicated DB freed extents")
	}
}

// TestAutoSnapshotLoop: the flusher's cadence is the snapshot's. Each
// checkpoint names a slice of the pages and trims the WAL before the last
// rotation of them, with no call and no option; a replica opened afterwards
// reads the log from the trim, where the rotation names every page it needs.
func TestAutoSnapshotLoop(t *testing.T) {
	db := openDB(t, &Options{
		Replicated:          true,
		ExtentSize:          4 << 10,
		FlushInterval:       time.Millisecond,
		ReplicaPollInterval: time.Millisecond,
	})
	n := 0
	for deadline := time.Now().Add(20 * time.Second); n < 200 || !trimmed(db); n++ {
		if time.Now().After(deadline) {
			t.Fatalf("the WAL was not trimmed after %d writes", n)
		}
		if err := db.AddEdge(Edge{Src: VertexID(2 + n%7), Dst: VertexID(n), Type: ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.OpenReplica() // attaches past the trimmed prefix
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for src := VertexID(2); src < 9; src++ {
		deg, err := rep.Degree(src, ETypeLike)
		if err != nil {
			t.Fatal(err)
		}
		total += deg
	}
	if total != n {
		t.Fatalf("replica holds %d edges, want %d", total, n)
	}
}

// TestShardedReadView covers the replica read path of a sharded DB: one
// follower per shard, reads routed by the group's hash.
func TestShardedReadView(t *testing.T) {
	// sumDegrees adds up the replica's out-degrees over sources [0, srcs).
	sumDegrees := func(t *testing.T, view *Replica, srcs int, typ EdgeType) int {
		t.Helper()
		total := 0
		for src := 0; src < srcs; src++ {
			d, err := view.Degree(VertexID(src), typ)
			if err != nil {
				t.Fatal(err)
			}
			total += d
		}
		return total
	}

	t.Run("tails acked writes", func(t *testing.T) {
		db := openDB(t, &Options{Shards: 3, ReplicaPollInterval: time.Millisecond})
		if db.Shards() != 3 {
			t.Fatalf("shards = %d", db.Shards())
		}
		// Opened before the writes: everything arrives by WAL tailing.
		view, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 90; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(i % 9), Dst: VertexID(100 + i), Type: ETypeTransfer}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.AddVertex(Vertex{ID: 4, Type: VTypeUser}); err != nil {
			t.Fatal(err)
		}
		// Every shard received a share (Fibonacci hashing over sequential IDs).
		for i, lsn := range db.Stats().Shards.LastLSNs {
			if lsn == 0 {
				t.Fatalf("shard %d received no writes", i)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := view.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := view.GetVertex(4, VTypeUser); !ok {
			t.Fatal("vertex missing on the view")
		}
		for src := 0; src < 9; src++ {
			got, err := view.Degree(VertexID(src), ETypeTransfer)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Degree(VertexID(src), ETypeTransfer)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("src %d: view %d vs leaders %d", src, got, want)
			}
		}
		if total := sumDegrees(t, view, 9, ETypeTransfer); total != 90 {
			t.Fatalf("view total = %d", total)
		}
		// Cross-shard traversal and pattern matching on followers.
		if err := db.AddEdge(Edge{Src: 200, Dst: 201, Type: ETypeTransfer}); err != nil {
			t.Fatal(err)
		}
		if err := db.AddEdge(Edge{Src: 201, Dst: 200, Type: ETypeTransfer}); err != nil {
			t.Fatal(err)
		}
		if err := view.Sync(); err != nil {
			t.Fatal(err)
		}
		cycles, err := view.FindCycles(200, ETypeTransfer, 3, 0)
		if err != nil || len(cycles) != 1 {
			t.Fatalf("cycles = %v %v", cycles, err)
		}
		matches, err := view.MatchPattern(Pattern{N: 2, Edges: []PatternEdge{{From: 0, To: 1, Type: ETypeTransfer}}},
			[]VertexID{200}, 0)
		if err != nil || len(matches) != 1 {
			t.Fatalf("matches = %v %v", matches, err)
		}
	})

	t.Run("cross-shard traversal", func(t *testing.T) {
		db := openDB(t, &Options{Shards: 4, ReplicaPollInterval: time.Millisecond})
		// A chain whose hops land on different shards.
		for i := 0; i < 12; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(i), Dst: VertexID(i + 1), Type: ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
		view, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Sync(); err != nil {
			t.Fatal(err)
		}
		reached, err := view.KHop(0, ETypeFollow, 12, 0)
		if err != nil || len(reached) != 12 {
			t.Fatalf("cross-shard traversal reached %d, %v, want 12", len(reached), err)
		}
	})

	t.Run("bootstraps from snapshots", func(t *testing.T) {
		db := openDB(t, &Options{Shards: 2, ReplicaPollInterval: time.Millisecond})
		for i := 0; i < 100; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(i % 6), Dst: VertexID(i), Type: ETypeLike}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		db.TrimWAL()
		// Replicas opened after snapshot+trim bootstrap from the snapshots.
		view, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Sync(); err != nil {
			t.Fatal(err)
		}
		if total := sumDegrees(t, view, 6, ETypeLike); total != 100 {
			t.Fatalf("total = %d, want 100", total)
		}
	})
}

func TestGCOnReplicatedDBKeepsReplicasConsistent(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := replicatedDB(t, Options{
			ExtentSize:          4 << 10,
			MaxPageEntries:      16,
			ConsolidateNum:      3,
			FlushInterval:       5 * time.Millisecond,
			ReplicaPollInterval: time.Millisecond,
		}, shards)
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		// Heavy overwrites build garbage; each round flushes (checkpoint),
		// reclaims, and then verifies the replica still reads a consistent
		// view through the relocations.
		const sources = 8
		for round := 0; round < 15; round++ {
			for i := 0; i < 40*sources; i++ {
				if err := db.AddEdge(Edge{Src: VertexID(1 + i%sources), Dst: VertexID(i / sources), Type: ETypeLike,
					Props: Properties{{Name: "r", Value: []byte{byte(round)}}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.RunGC(8); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil { // ships GC relocations
				t.Fatal(err)
			}
			if err := rep.Sync(); err != nil {
				t.Fatalf("round %d: replica sync: %v", round, err)
			}
			for src := VertexID(1); src <= sources; src++ {
				if deg, err := rep.Degree(src, ETypeLike); err != nil || deg != 40 {
					t.Fatalf("round %d: replica degree of %d = %d %v", round, src, deg, err)
				}
			}
		}
		if db.Stats().GC.ExtentsReclaimed == 0 {
			t.Fatal("GC never reclaimed an extent; the test exercised nothing")
		}
	})
}

func TestConcurrentOpenReplica(t *testing.T) {
	db := openDB(t, &Options{Replicated: true, ReplicaPollInterval: time.Millisecond})
	if err := db.AddEdge(Edge{Src: 1, Dst: 2, Type: ETypeFollow}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reps := make([]*Replica, 8)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := db.OpenReplica()
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range reps {
		if r == nil {
			t.Fatalf("replica %d missing", i)
		}
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := r.GetEdge(1, ETypeFollow, 2); !ok {
			t.Fatalf("replica %d missing edge", i)
		}
	}
}

// TestStatsNestedAndJSON: Stats sums what every shard's leader and store
// count, and the registry renderings carry every subsystem's instruments —
// on more than one shard each leader's, suffixed with its shard.
func TestStatsNestedAndJSON(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := replicatedDB(t, Options{ForestSplitThreshold: 10, ReplicaPollInterval: time.Millisecond}, shards)
		edge := func(i int) Edge { return Edge{Src: VertexID(9 + i%shards), Dst: VertexID(i), Type: ETypeLike} }
		for i := 0; i < 60*shards; i++ {
			if err := db.AddEdge(edge(i)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60*shards; i++ {
			if _, _, err := db.GetEdge(edge(i).Src, ETypeLike, VertexID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.RunGC(4); err != nil {
			t.Fatal(err)
		}

		s := db.Stats()
		if s.Storage.WriteOps == 0 || s.Storage.BytesWritten == 0 {
			t.Fatalf("storage accounting missing: %+v", s.Storage)
		}
		if s.WAL.Appends == 0 || s.WAL.CommitRecords == 0 {
			t.Fatalf("WAL accounting missing: %+v", s.WAL)
		}
		if s.WAL.CommitLatency.Count == 0 {
			t.Fatalf("commit latency histogram empty: %+v", s.WAL.CommitLatency)
		}
		if s.Cache.ReadFanout.Count == 0 {
			t.Fatalf("read fan-out histogram empty: %+v", s.Cache.ReadFanout)
		}
		if s.Forest.Trees < 2*shards || s.Forest.Owners < shards {
			t.Fatalf("forest accounting missing: %+v", s.Forest)
		}
		if s.Replication.Replicas != 1 {
			t.Fatalf("replicas = %d, want 1", s.Replication.Replicas)
		}
		var appends int64
		for i := range shards {
			appends += db.shardMetrics(i).Snapshot()["wal.appends"].Value
			if s.Shards.LastLSNs[i] == 0 || s.Shards.ReadEpochs[i] == 0 {
				t.Fatalf("shard %d at LSN %d, read epoch %d after its writes", i, s.Shards.LastLSNs[i], s.Shards.ReadEpochs[i])
			}
		}
		if s.WAL.Appends > appends {
			t.Fatalf("Stats counts %d WAL appends, the leaders %d", s.WAL.Appends, appends)
		}

		// The nested struct must marshal cleanly with every subsystem present.
		buf, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"storage"`, `"wal"`, `"cache"`, `"forest"`, `"gc"`, `"replication"`, `"shards"`,
			`"read_fanout"`, `"write_amp"`, `"applied_lsn_lag"`, `"edge_blocks"`, `"read_epochs"`} {
			if !strings.Contains(string(buf), key) {
				t.Fatalf("Stats JSON missing %s:\n%s", key, buf)
			}
		}

		// The registry renderings must cover every subsystem's instruments.
		reg, err := db.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]any
		if err := json.Unmarshal(reg, &snap); err != nil {
			t.Fatalf("StatsJSON is not valid JSON: %v", err)
		}
		names := []string{"replication.applied_lsn_lag", "replication.replicas"}
		for _, name := range []string{"storage.read_ops", "wal.commit_us", "bwtree.read_fanout",
			"forest.trees", "storage.gc_write_amp", "bwtree.block_fallbacks"} {
			if shards == 1 {
				names = append(names, name)
				continue
			}
			for i := range shards {
				names = append(names, fmt.Sprintf("%s{shard=%d}", name, i))
			}
		}
		for _, name := range names {
			if _, ok := snap[name]; !ok {
				t.Fatalf("registry snapshot missing %q", name)
			}
		}
		text := db.StatsText()
		if !strings.Contains(text, "bwtree.cache_hit_ratio") || !strings.Contains(text, "wal.appends") {
			t.Fatalf("StatsText missing expected instruments:\n%s", text)
		}
	})
}

// TestBuildEdgeBlocksOnEveryShard: BuildEdgeBlocks packs every shard's
// super-vertices, Stats counts the blocks of all of them, and a scan of each
// is served from its block.
func TestBuildEdgeBlocksOnEveryShard(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		const supers, degree = 8, 200
		db := openDB(t, &Options{Shards: shards, ForestSplitThreshold: 64, EdgeBlockThreshold: 128})
		for v := VertexID(1); v <= supers; v++ {
			var muts []Mutation
			for j := 0; j < degree; j++ {
				muts = append(muts, AddEdgeMut(Edge{Src: v, Dst: VertexID(1000 + j), Type: ETypeFollow}))
			}
			if err := db.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
		}
		if built, err := db.BuildEdgeBlocks(); err != nil || built < supers {
			t.Fatalf("built %d edge blocks (%v), want %d", built, err, supers)
		}
		before := db.Stats().EdgeBlocks
		if before.Entries != supers*degree {
			t.Fatalf("edge blocks hold %d entries, want %d", before.Entries, supers*degree)
		}
		for v := VertexID(1); v <= supers; v++ {
			n := 0
			if err := db.Neighbors(v, ETypeFollow, 0, func(VertexID, Properties) bool { n++; return true }); err != nil || n != degree {
				t.Fatalf("vertex %d: %d neighbors (%v), want %d", v, n, err, degree)
			}
		}
		if hits := db.Stats().EdgeBlocks.Hits - before.Hits; hits < supers {
			t.Fatalf("%d scans served from an edge block, want %d", hits, supers)
		}
	})
}

// TestSnapshotHoldsItsCut: a snapshot keeps reading its cut after a later
// write on any shard count and pins one epoch per shard; a bare engine pins
// none and refuses the calls that need a log.
func TestSnapshotHoldsItsCut(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		db := replicatedDB(t, Options{}, shards)
		for i := 0; i < 40; i++ {
			if err := db.AddEdge(Edge{Src: VertexID(i % 8), Dst: VertexID(i), Type: ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
		s := db.Snapshot()
		defer s.Close()
		if err := db.AddEdge(Edge{Src: 0, Dst: 99, Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
		if len(s.Epochs()) != shards {
			t.Fatalf("snapshot pins epochs %v, want one per shard (%d)", s.Epochs(), shards)
		}
		if d, err := s.Degree(0, ETypeFollow); err != nil || d != 5 {
			t.Fatalf("cut sees degree %d (%v), want the 5 edges before it", d, err)
		}
	})
	db := openDB(t, nil)
	s := db.Snapshot()
	defer s.Close()
	if _, err := db.ApplyBatchEx(nil); err != ErrNotReplicated {
		t.Fatalf("ApplyBatchEx on a bare engine: %v, want ErrNotReplicated", err)
	}
	if db.Shards() != 1 || db.Group() != nil || !reflect.DeepEqual(s.Epochs(), []uint64{0}) {
		t.Fatalf("bare engine: %d shards, group %v, epochs %v", db.Shards(), db.Group(), s.Epochs())
	}
}

// TestSnapshotSeesAckedWritesDuring2PC: a Snapshot taken after a write was
// acknowledged holds it, however busy cross-shard batches keep the write's
// shard. Six writers loop two-shard batches over a hub vertex and a source of
// their own on another shard; an edge written from a probe vertex on the
// hub's shard must be in the very next Snapshot, every time.
func TestSnapshotSeesAckedWritesDuring2PC(t *testing.T) {
	const writers, probes = 6, 300
	db := openDB(t, &Options{Shards: 4})
	router := db.Group().Router()
	hub := VertexID(1)
	var probe VertexID
	var srcs []VertexID // one per writer, off the hub's shard
	for v := hub + 1; probe == 0 || len(srcs) < writers; v++ {
		if router.Owner(v) != router.Owner(hub) {
			srcs = append(srcs, v)
		} else if probe == 0 {
			probe = v
		}
	}
	stop, committed := make(chan struct{}), make(chan struct{})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	var once sync.Once
	defer func() { close(stop); wg.Wait() }()
	for w, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.ApplyBatch([]Mutation{
					AddEdgeMut(Edge{Src: hub, Dst: VertexID(1000*(w+1) + n%8), Type: ETypeFollow}),
					AddEdgeMut(Edge{Src: src, Dst: VertexID(n % 8), Type: ETypeFollow}),
				}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				once.Do(func() { close(committed) })
			}
		}()
	}
	// Probe only once the writers are committing: on a loaded host the
	// probes could otherwise all finish before the first batch does.
	select {
	case <-committed:
	case err := <-errs:
		t.Fatal(err)
	}
	misses := 0
	for i := range probes {
		dst := VertexID(100_000 + i)
		if err := db.AddEdge(Edge{Src: probe, Dst: dst, Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
		s := db.Snapshot()
		_, ok, err := s.GetEdge(probe, ETypeFollow, dst)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			misses++
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if commits := db.Stats().Shards.TxnCommits; misses > 0 || commits == 0 {
		t.Fatalf("%d of %d acknowledged writes missing from the next Snapshot (%d cross-shard batches committed meanwhile)",
			misses, probes, commits)
	}
}

func TestReplicationLagConverges(t *testing.T) {
	db := openDB(t, &Options{Replicated: true, ReplicaPollInterval: time.Millisecond})
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := db.AddEdge(Edge{Src: 2, Dst: VertexID(i), Type: ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if lag := db.Stats().Replication.AppliedLSNLag; lag != 0 {
		t.Fatalf("applied-LSN lag after sync = %d, want 0", lag)
	}
	if rep.AppliedLSN(0) == 0 {
		t.Fatal("replica applied LSN is zero after applying 30 writes")
	}
}

// TestOversizedPropertiesLogNothing: a property list its encoding cannot hold
// (a name over 255 bytes, more than 65,535 properties), which EncodeProps
// would truncate into a record no read decodes, is rejected on every write
// path and every shape before anything is logged or stored. A 255-byte name
// round-trips.
func TestOversizedPropertiesLogNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"bare", nil},
		{"leader", &Options{Replicated: true, FlushInterval: time.Hour}},
		{"shards-4", &Options{Shards: 4, FlushInterval: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, tc.opts)
			written := db.Stats().Storage.BytesWritten
			for name, props := range map[string]Properties{
				"a 256-byte name":   {{Name: strings.Repeat("n", 256), Value: []byte("v")}},
				"65,536 properties": make(Properties, 1<<16),
			} {
				batch := make([]Mutation, 8)
				for i := range batch {
					batch[i] = AddEdgeMut(Edge{Src: VertexID(i), Dst: 9, Type: ETypeFollow, Props: props})
				}
				for path, err := range map[string]error{
					"AddEdge":    db.AddEdge(Edge{Src: 1, Dst: 2, Type: ETypeFollow, Props: props}),
					"AddVertex":  db.AddVertex(Vertex{ID: 1, Type: VTypeUser, Props: props}),
					"ApplyBatch": db.ApplyBatch(batch),
				} {
					if !errors.Is(err, graph.ErrPropsTooLarge) {
						t.Errorf("%s with %s: err = %v, want ErrPropsTooLarge", path, name, err)
					}
				}
			}
			if w := db.Stats().Storage.BytesWritten - written; w != 0 {
				t.Fatalf("rejected writes wrote %d bytes, want none", w)
			}
			name := strings.Repeat("n", 255)
			if err := db.AddEdge(Edge{Src: 1, Dst: 2, Type: ETypeFollow, Props: Properties{{Name: name, Value: []byte("v")}}}); err != nil {
				t.Fatal(err)
			}
			e, ok, err := db.GetEdge(1, ETypeFollow, 2)
			if v, _ := e.Props.Get(name); err != nil || !ok || string(v) != "v" {
				t.Fatalf("GetEdge of a 255-byte name = %+v, %v, %v", e.Props, ok, err)
			}
		})
	}
}

// TestCorruptEdgeRecordFailsEveryRead: an adjacency entry that does not decode
// — a value that is no property list, a key that is no edge key — is an error
// on every read that meets it, point read, scan and traversal alike: no read
// skips it. The reserved edge type is an error on every read too.
func TestCorruptEdgeRecordFailsEveryRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"bare", nil},
		{"leader", &Options{Replicated: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, tc.opts)
			// Vertex 1 holds a value that is no property list, vertex 2 a
			// 3-byte key inside ETypeFollow's range; each has a good edge too.
			for _, w := range []struct {
				owner      forest.OwnerID
				key, value []byte
			}{
				{1, graph.EdgeKey(ETypeFollow, 2), []byte{1}},
				{1, graph.EdgeKey(ETypeFollow, 3), graph.EncodeProps(nil)},
				{2, []byte{0, byte(ETypeFollow), 5}, graph.EncodeProps(nil)},
				{2, graph.EdgeKey(ETypeFollow, 3), graph.EncodeProps(nil)},
			} {
				if err := db.eng(0).Forest().Put(w.owner, w.key, w.value); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := db.GetEdge(1, ETypeFollow, 2); !errors.Is(err, graph.ErrCorrupt) {
				t.Errorf("GetEdge of the bad value: %v, want ErrCorrupt", err)
			}
			for _, src := range []VertexID{1, 2} {
				if err := db.Neighbors(src, ETypeFollow, 0, func(VertexID, Properties) bool { return true }); !errors.Is(err, graph.ErrCorrupt) {
					t.Errorf("Neighbors(%d): %v, want ErrCorrupt", src, err)
				}
				if _, err := db.Degree(src, ETypeFollow); !errors.Is(err, graph.ErrCorrupt) {
					t.Errorf("Degree(%d): %v, want ErrCorrupt", src, err)
				}
			}
			// A traversal decodes keys only: the bad key fails it.
			if _, err := db.KHop(2, ETypeFollow, 2, 0); !errors.Is(err, graph.ErrCorrupt) {
				t.Errorf("KHop(2): %v, want ErrCorrupt", err)
			}
			if err := db.Neighbors(1, 0xFFFF, 0, func(VertexID, Properties) bool { return true }); err == nil {
				t.Error("Neighbors of the reserved edge type accepted")
			}
			if _, err := db.Degree(1, 0xFFFF); err == nil {
				t.Error("Degree of the reserved edge type accepted")
			}
			if _, err := db.KHop(1, 0xFFFF, 1, 0); err == nil {
				t.Error("KHop over the reserved edge type accepted")
			}
		})
	}
}

// TestReservedEdgeTypeDeleteLogsNothing: the reserved edge type is rejected
// on a delete as on an add, single and in a batch, on every shape, and the
// rejected write reaches neither the log nor the pages: no storage append
// and no WAL append is made for it.
func TestReservedEdgeTypeDeleteLogsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"bare", nil},
		{"leader", &Options{Replicated: true}},
		{"shards-4", &Options{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t, tc.opts)
			appends := func() (storageOps, walOps int64) {
				for i := range db.Shards() {
					snap := db.eng(i).Metrics().Snapshot()
					storageOps += snap["storage.write_ops"].Value
					walOps += snap["wal.appends"].Value
				}
				return storageOps, walOps
			}
			st0, wal0 := appends()
			if err := db.DeleteEdge(1, 0xFFFF, 2); err == nil {
				t.Fatal("DeleteEdge of the reserved edge type accepted")
			}
			if err := db.ApplyBatch([]Mutation{DeleteEdgeMut(1, 0xFFFF, 3)}); err == nil {
				t.Fatal("a batch deleting the reserved edge type accepted")
			}
			if st, w := appends(); st != st0 || w != wal0 {
				t.Fatalf("rejected deletes made %d storage and %d WAL appends, want none", st-st0, w-wal0)
			}
			// The counts see a write: an accepted delete is logged, or
			// persisted at once on a bare engine.
			if err := db.DeleteEdge(1, ETypeFollow, 2); err != nil {
				t.Fatal(err)
			}
			if st, w := appends(); st == st0 || (tc.opts != nil && w == wal0) {
				t.Fatalf("fixture: an accepted delete made %d storage and %d WAL appends", st-st0, w-wal0)
			}
		})
	}
}
