package bg3

import (
	"testing"
	"time"

	"bg3/internal/graph"
	"bg3/internal/storage"
)

// failoverTarget is one deployment shape's handle on the single failover
// sequence (replication.Failover): what to write through, how to depose a
// leader, and where its fence epoch and failover count surface.
type failoverTarget struct {
	ls       *leaderSet // the deployment under both root types
	store    graph.Store
	failover func() error
	// kill fences the leader failover() replaces, as a crash would leave
	// it: its writes fail from here on.
	kill       func() error
	checkpoint func() error
	epoch      func() uint64 // fence epoch of the leader failover() replaces
	failovers  func() int64
	// untouched lists the fence epochs of leaders failover() must leave
	// alone (the other shards).
	untouched func() []uint64
	// follower opens a read handle on follower nodes and returns it with
	// its Sync and its Stop.
	follower func(t *testing.T) (graph.Reader, func() error, func())
	// resyncs counts the re-attaches of every attached follower, and lag is
	// the worst of their applied LSNs behind their leader's last.
	resyncs func() int64
	lag     func() uint64
	// rotate completes a checkpoint rotation on every leader, and trimmed
	// reports whether every leader's WAL has lost a prefix.
	rotate  func() error
	trimmed func() bool
	// runGC runs one GC pass of batch extents on every leader.
	runGC func(batch int) error
}

func trimmed(stores ...*storage.Store) bool {
	for _, st := range stores {
		if _, horizon := st.Head(storage.StreamWAL); horizon == 0 {
			return false
		}
	}
	return true
}

func fence(st *storage.Store) error {
	_, err := st.AdvanceStreamEpoch(storage.StreamWAL)
	return err
}

func dbFailoverTarget(o Options) func(t *testing.T) failoverTarget {
	return func(t *testing.T) failoverTarget {
		o.Replicated = true
		return dbTarget(t, openDB(t, &o))
	}
}

func dbTarget(t *testing.T, db *DB) failoverTarget {
	return failoverTarget{
		ls:         db.ls,
		store:      db,
		failover:   db.Failover,
		kill:       func() error { return fence(db.store) },
		checkpoint: db.Checkpoint,
		epoch: func() uint64 {
			// The counters surface identically in Stats.
			if st := db.Stats().Replication; st.Epoch != db.Epoch() || st.Failovers != db.Failovers() {
				t.Fatalf("Stats replication = %+v, want epoch %d failovers %d", st, db.Epoch(), db.Failovers())
			}
			return db.Epoch()
		},
		failovers: db.Failovers,
		untouched: func() []uint64 { return nil },
		follower: func(t *testing.T) (graph.Reader, func() error, func()) {
			rep, err := db.OpenReplica()
			if err != nil {
				t.Fatal(err)
			}
			return rep, rep.Sync, rep.Stop
		},
		resyncs: func() int64 { return db.Stats().Replication.Resyncs },
		lag:     db.ls.lag,
		rotate:  db.WriteSnapshot,
		trimmed: func() bool { return trimmed(db.store) },
		runGC: func(batch int) error {
			_, err := db.RunGC(batch)
			return err
		},
	}
}

func shardFailoverTarget(o Options, victim int) func(t *testing.T) failoverTarget {
	return func(t *testing.T) failoverTarget {
		shards := o.Shards
		db := openSharded(t, &o)
		if err := db.Failover(shards + 3); err == nil {
			t.Fatal("failover of a nonexistent shard succeeded")
		}
		return failoverTarget{
			ls:         db.leaderSet,
			store:      db,
			failover:   func() error { return db.Failover(victim) },
			kill:       func() error { return fence(db.Group().Store(victim)) },
			checkpoint: db.Checkpoint,
			epoch:      func() uint64 { return db.Group().Leader(victim).Epoch() },
			failovers:  func() int64 { return db.Stats().Failovers },
			untouched: func() []uint64 {
				var out []uint64
				for i := 0; i < shards; i++ {
					if i != victim {
						out = append(out, db.Group().Leader(i).Epoch())
					}
				}
				return out
			},
			follower: func(t *testing.T) (graph.Reader, func() error, func()) {
				view, err := db.OpenReadView()
				if err != nil {
					t.Fatal(err)
				}
				return view, view.Sync, view.Stop
			},
			resyncs: db.resyncs,
			lag:     db.lag,
			rotate: func() error {
				for i := 0; i < shards; i++ {
					if _, err := db.Group().Leader(i).WriteSnapshot(); err != nil {
						return err
					}
				}
				return nil
			},
			trimmed: func() bool {
				stores := make([]*storage.Store, shards)
				for i := range stores {
					stores[i] = db.Group().Store(i)
				}
				return trimmed(stores...)
			},
			runGC: func(batch int) error {
				for i := 0; i < shards; i++ {
					if _, err := db.Group().Leader(i).Engine().RunGC(batch); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
}

// TestFailover drives the one promotion sequence through every public
// entry point — DB.Failover and ShardedDB.Failover(i) (shard.Group) — and
// holds each to the same contract: the deposed leader's fence epoch bumps
// and nobody else's, every acknowledged write survives with its value,
// new writes land on the promoted leader, a follower handle opened before
// the failover serves every acked edge after it without ever resyncing —
// it tails one log, whose records name the same pages under every leader —
// and a second failover, of a leader that died, so the promotion drains a
// WAL suffix with splits and checkpoints in it, stacks on the first.
var failoverOpts = Options{ReplicaPollInterval: time.Millisecond, MaxPageEntries: 8}

func shardOpts(shards int) Options {
	o := failoverOpts
	o.Shards = shards
	return o
}

func TestFailover(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) failoverTarget
	}{
		{"DB", dbFailoverTarget(failoverOpts)},
		{"ShardedDB/shard0of2", shardFailoverTarget(shardOpts(2), 0)},
		{"ShardedDB/shard1of2", shardFailoverTarget(shardOpts(2), 1)},
		{"ShardedDB/shard2of4", shardFailoverTarget(shardOpts(4), 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tgt := tc.open(t)
			// Sources 1..40 spread over every shard of a sharded target;
			// edge i carries its own index so lost updates are visible.
			acked := 0
			write := func(n int) {
				t.Helper()
				for ; n > 0; n-- {
					acked++
					if err := tgt.store.AddEdge(Edge{Src: VertexID(acked%40 + 1), Dst: VertexID(acked), Type: ETypeFollow,
						Props: Properties{{Name: "n", Value: []byte{byte(acked)}}}}); err != nil {
						t.Fatalf("write %d: %v", acked, err)
					}
				}
			}
			reader, sync, _ := tgt.follower(t)
			// Leaders and the follower handle opened before any failover
			// (one sync later) agree on every acked edge.
			check := func(when string) {
				t.Helper()
				if err := sync(); err != nil {
					t.Fatal(err)
				}
				for name, r := range map[string]graph.Reader{"leader": tgt.store, "follower": reader} {
					for i := 1; i <= acked; i++ {
						e, ok, err := r.GetEdge(VertexID(i%40+1), ETypeFollow, VertexID(i))
						if err != nil || !ok {
							t.Fatalf("%s, %s: edge %d: ok=%v err=%v", when, name, i, ok, err)
						}
						if v, _ := e.Props.Get("n"); len(v) != 1 || v[0] != byte(i) {
							t.Fatalf("%s, %s: edge %d = %x", when, name, i, v)
						}
					}
				}
			}

			write(40)
			if err := tgt.failover(); err != nil {
				t.Fatalf("failover: %v", err)
			}
			if got := tgt.epoch(); got != 1 {
				t.Fatalf("fence epoch = %d, want 1", got)
			}
			if got := tgt.failovers(); got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			// Enough post-promotion writes to split pages on every shard,
			// flushed so the WAL suffix carries page locations too.
			write(400)
			if err := tgt.checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("after failover")

			if err := tgt.kill(); err != nil {
				t.Fatal(err)
			}
			if err := tgt.failover(); err != nil {
				t.Fatalf("failover of a dead leader: %v", err)
			}
			// Monotonic across promotions: the crash's fence, then the claim.
			if got := tgt.epoch(); got != 3 {
				t.Fatalf("fence epoch after second failover = %d, want 3", got)
			}
			if got := tgt.failovers(); got != 2 {
				t.Fatalf("failovers = %d, want 2", got)
			}
			for _, e := range tgt.untouched() {
				if e != 0 {
					t.Fatalf("untouched leader epochs = %v, want all 0", tgt.untouched())
				}
			}
			write(100)
			if err := tgt.checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("after failover of a dead leader")
			if n := tgt.resyncs(); n != 0 {
				t.Fatalf("followers resynced %d times across two failovers, want to have tailed through", n)
			}
		})
	}
}

// TestDBFailoverNotReplicated pins the guard: failover needs the WAL
// pipeline.
func TestDBFailoverNotReplicated(t *testing.T) {
	db := openDB(t, nil)
	if err := db.Failover(); err != ErrNotReplicated {
		t.Fatalf("err = %v, want ErrNotReplicated", err)
	}
	if db.Epoch() != 0 || db.Failovers() != 0 {
		t.Fatal("non-replicated DB reports failover state")
	}
}

// TestDBFailoverOnTrimmedWAL promotes a leader on a store whose WAL prefix
// is gone: the promotion attaches from the retained head (there is no LSN 1
// to replay from) — the checkpoint rotation past the trim names every page —
// and every acked edge — written before the trim, between trim and failover,
// and after the promotion — stays readable on the leader and on a replica
// opened before any of it, which one Sync brings to the leader's last LSN.
// TestShardedFailoverOnTrimmedWAL is its twin on every shard of a
// ShardedDB, through a ReadView.
func TestDBFailoverOnTrimmedWAL(t *testing.T) {
	failoverOnTrimmedWAL(t, dbFailoverTarget(trimmedOpts)(t))
}

func TestShardedFailoverOnTrimmedWAL(t *testing.T) {
	o := trimmedOpts
	o.Shards = 2
	tgt := shardFailoverTarget(o, 1)(t)
	failoverOnTrimmedWAL(t, tgt)
}

var trimmedOpts = Options{ExtentSize: 4 << 10, MaxPageEntries: 8, ReplicaPollInterval: time.Millisecond}

func failoverOnTrimmedWAL(t *testing.T, tgt failoverTarget) {
	reader, sync, _ := tgt.follower(t)
	acked := 0
	write := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			acked++
			if err := tgt.store.AddEdge(Edge{Src: VertexID(acked%40 + 1), Dst: VertexID(acked), Type: ETypeFollow,
				Props: Properties{{Name: "n", Value: []byte{byte(acked)}}}}); err != nil {
				t.Fatalf("write %d: %v", acked, err)
			}
		}
	}
	write(800)
	if err := tgt.rotate(); err != nil {
		t.Fatal(err)
	}
	if !tgt.trimmed() {
		t.Fatal("the WAL this test fails over on is not trimmed")
	}
	write(100)
	if err := tgt.failover(); err != nil {
		t.Fatalf("failover on a trimmed WAL: %v", err)
	}
	if tgt.epoch() != 1 || tgt.failovers() != 1 {
		t.Fatalf("epoch %d failovers %d after one failover", tgt.epoch(), tgt.failovers())
	}
	write(50)
	if err := tgt.checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The failover resyncs nobody. A replica the trim outran is on its own:
	// its reader's cursor is short of a trimmed extent, a hole for certain on
	// the first poll, so one Sync re-attaches it from the retained head and
	// drains the log past it.
	if err := sync(); err != nil {
		t.Fatal(err)
	}
	if lag := tgt.lag(); lag != 0 {
		t.Fatalf("replica %d LSNs behind its leader after one Sync (%d resyncs)", lag, tgt.resyncs())
	}
	for name, r := range map[string]graph.Reader{"leader": tgt.store, "replica": reader} {
		for i := 1; i <= acked; i++ {
			e, ok, err := r.GetEdge(VertexID(i%40+1), ETypeFollow, VertexID(i))
			if err != nil || !ok {
				t.Fatalf("%s: edge %d: ok=%v err=%v", name, i, ok, err)
			}
			if v, _ := e.Props.Get("n"); len(v) != 1 || v[0] != byte(i) {
				t.Fatalf("%s: edge %d = %x", name, i, v)
			}
		}
	}
}

// TestFailoverReadsNoBasePage pins what a promotion costs, on a leader whose
// pages do not fit its cache (CacheCapacity 64), a checkpoint rotation, a WAL
// suffix of overwrites behind it and one attached replica: the delta records of the
// pages, read once to restore the overlays' mirror of them, two log scans,
// and nothing else. No base page is read (every page read goes through
// storage.ReadBatch, which fetched exactly the delta records), nothing is
// appended before the first user write — no checkpoint, no inner node, no page
// rewritten — and the replica keeps its pages and goes on from the LSN it
// had: it is not resynced. Rebuilding the leader from a snapshot used to
// read every base page and write a snapshot after (at 100k edges / 1,576
// pages and a 5,000-record suffix: 1,569 reads, 1,582 appends, one resync).
// Flusher and tailing loop are driven by hand (intervals of an hour): both
// use the store the counters are on.
func TestFailoverReadsNoBasePage(t *testing.T) {
	const sources, perSource, suffix = 300, 100, 1000
	db := openDB(t, &Options{Replicated: true, CacheCapacity: 64, FlushInterval: time.Hour, ReplicaPollInterval: time.Hour})
	edge := func(i int, v byte) Edge {
		return Edge{Src: VertexID(1 + i%sources), Dst: VertexID(i), Type: ETypeFollow, Props: Properties{{Name: "v", Value: []byte{v}}}}
	}
	var batch []Mutation
	for i := 0; i < sources*perSource; i++ {
		if batch = append(batch, AddEdgeMut(edge(i, 0))); len(batch) == 1000 {
			if err := db.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	// Flushed once as base pages, then — an edge of every source rewritten —
	// once more as the delta records the rotation names beside them.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sources; i++ {
		if err := db.AddEdge(edge(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	for i := 0; i < suffix; i++ { // overwrites: the suffix splits no page
		if err := db.AddEdge(edge(i*7, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	var pages, chains int64
	for _, lf := range db.eng().Mapping().NameLeaves(0, 1) {
		pages, chains = pages+1, chains+int64(len(lf.Deltas))
	}
	if pages < 4*64 || chains == 0 {
		t.Fatalf("fixture: %d pages, %d delta records; want pages well past the cache and some delta records", pages, chains)
	}
	replicaPages := func() int64 { return rep.f.ros[0].Metrics().Snapshot()["bwtree.pages"].Value }
	applied, held := rep.AppliedLSN(), replicaPages()

	before := db.store.Stats()
	if err := db.Failover(); err != nil {
		t.Fatal(err)
	}
	after := db.store.Stats()
	if got := after.BatchLocs - before.BatchLocs; got != chains {
		t.Errorf("the failover read %d page records, want the %d delta records and no base page", got, chains)
	}
	if scans := after.ReadOps - before.ReadOps - chains; scans < 0 || scans > 3 {
		t.Errorf("the failover made %d storage reads beside the %d delta records, want the snapshot and log scans", scans, chains)
	}
	if got := after.WriteOps - before.WriteOps; got != 0 {
		t.Errorf("the failover appended %d records before the first write, want none", got)
	}

	if err := db.AddEdge(edge(sources*perSource, 2)); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep.Resyncs() != 0 || rep.AppliedLSN() != applied+1 || replicaPages() != held {
		t.Errorf("replica after the failover and one write: %d resyncs, LSN %d, %d pages; want 0, %d, %d",
			rep.Resyncs(), rep.AppliedLSN(), replicaPages(), applied+1, held)
	}
	for name, r := range map[string]graph.Reader{"leader": db, "replica": rep} {
		for i := 0; i <= sources*perSource; i += 37 {
			want := byte(0)
			if i == sources*perSource {
				want = 2
			} else if i%7 == 0 && i/7 < suffix {
				want = 1
			}
			e, ok, err := r.GetEdge(VertexID(1+i%sources), ETypeFollow, VertexID(i))
			if v, _ := e.Props.Get("v"); err != nil || !ok || len(v) != 1 || v[0] != want {
				t.Fatalf("%s: edge %d = %x ok=%v err=%v, want %x", name, i, v, ok, err, want)
			}
		}
	}
}
