package bg3

import (
	"testing"
	"time"

	"bg3/internal/graph"
	"bg3/internal/storage"
)

// replicatedDB opens o as a leader set of the given number of shards.
func replicatedDB(t *testing.T, o Options, shards int) *DB {
	o.Replicated, o.Shards = true, shards
	return openDB(t, &o)
}

// trimmed reports whether every shard's WAL has lost a prefix.
func trimmed(db *DB) bool {
	for i := range db.Shards() {
		if _, horizon, _ := db.eng(i).Store().Head(storage.StreamWAL); horizon == 0 {
			return false
		}
	}
	return true
}

// kill fences shard i's leader as a crash would leave it: its writes fail
// from here on.
func kill(db *DB, i int) error {
	_, err := db.eng(i).Store().AdvanceStreamEpoch(storage.StreamWAL)
	return err
}

// writeEdges writes n more edges after the acked ones, over sources 1..40 —
// every shard of a sharded DB — each carrying its own index so lost updates
// are visible.
func writeEdges(t *testing.T, db *DB, acked *int, n int) {
	t.Helper()
	for ; n > 0; n-- {
		*acked++
		if err := db.AddEdge(Edge{Src: VertexID(*acked%40 + 1), Dst: VertexID(*acked), Type: ETypeFollow,
			Props: Properties{{Name: "n", Value: []byte{byte(*acked)}}}}); err != nil {
			t.Fatalf("write %d: %v", *acked, err)
		}
	}
}

// checkAcked reads every edge writeEdges acked back through r.
func checkAcked(t *testing.T, when string, r graph.Reader, acked int) {
	t.Helper()
	for i := 1; i <= acked; i++ {
		e, ok, err := r.GetEdge(VertexID(i%40+1), ETypeFollow, VertexID(i))
		if err != nil || !ok {
			t.Fatalf("%s: edge %d: ok=%v err=%v", when, i, ok, err)
		}
		if v, _ := e.Props.Get("n"); len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("%s: edge %d = %x", when, i, v)
		}
	}
}

// TestFailover drives the one promotion sequence (shard.Group.Failover) at 1,
// 2 and 4 shards and holds each to the same contract: the deposed leader's
// fence epoch bumps and nobody else's, every acknowledged write survives with
// its value, new writes land on the promoted leader, a replica opened before
// the failover serves every acked edge after it without ever resyncing — it
// tails one log, whose records name the same pages under every leader — and a
// second failover, of a leader that died, so the promotion drains a WAL
// suffix with splits and checkpoints in it, stacks on the first.
var failoverOpts = Options{ReplicaPollInterval: time.Millisecond, MaxPageEntries: 8}

func TestFailover(t *testing.T) {
	cases := []struct {
		name           string
		shards, victim int
	}{
		{"DB", 1, 0},
		{"shard0of2", 2, 0},
		{"shard1of2", 2, 1},
		{"shard2of4", 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := replicatedDB(t, failoverOpts, tc.shards)
			if err := db.Failover(tc.shards + 3); err == nil {
				t.Fatal("failover of a nonexistent shard succeeded")
			}
			epoch := func() uint64 {
				t.Helper()
				// The counters surface identically in Stats.
				if st := db.Stats(); st.Shards.Epochs[tc.victim] != db.Epoch(tc.victim) || st.Replication.Failovers != db.Failovers() {
					t.Fatalf("Stats = %+v %+v, want epoch %d failovers %d", st.Shards, st.Replication, db.Epoch(tc.victim), db.Failovers())
				}
				return db.Epoch(tc.victim)
			}
			rep, err := db.OpenReplica()
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			// Leaders and the replica opened before any failover (one sync
			// later) agree on every acked edge.
			check := func(when string) {
				t.Helper()
				if err := rep.Sync(); err != nil {
					t.Fatal(err)
				}
				checkAcked(t, when+", leader", db, acked)
				checkAcked(t, when+", replica", rep, acked)
			}

			writeEdges(t, db, &acked, 40)
			if err := db.Failover(tc.victim); err != nil {
				t.Fatalf("failover: %v", err)
			}
			if got := epoch(); got != 1 {
				t.Fatalf("fence epoch = %d, want 1", got)
			}
			if got := db.Failovers(); got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			// Enough post-promotion writes to split pages on every shard,
			// flushed so the WAL suffix carries page locations too.
			writeEdges(t, db, &acked, 400)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("after failover")

			if err := kill(db, tc.victim); err != nil {
				t.Fatal(err)
			}
			if err := db.Failover(tc.victim); err != nil {
				t.Fatalf("failover of a dead leader: %v", err)
			}
			// Monotonic across promotions: the crash's fence, then the claim.
			if got := epoch(); got != 3 {
				t.Fatalf("fence epoch after second failover = %d, want 3", got)
			}
			if got := db.Failovers(); got != 2 {
				t.Fatalf("failovers = %d, want 2", got)
			}
			for i := range db.Shards() {
				if i != tc.victim && db.Epoch(i) != 0 {
					t.Fatalf("shard %d's leader is at epoch %d, want 0: only shard %d failed over", i, db.Epoch(i), tc.victim)
				}
			}
			writeEdges(t, db, &acked, 100)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check("after failover of a dead leader")
			if n := db.Stats().Replication.Resyncs; n != 0 {
				t.Fatalf("followers resynced %d times across two failovers, want to have tailed through", n)
			}
		})
	}
}

// TestDBFailoverNotReplicated pins the guard: failover needs the WAL
// pipeline.
func TestDBFailoverNotReplicated(t *testing.T) {
	db := openDB(t, nil)
	if err := db.Failover(0); err != ErrNotReplicated {
		t.Fatalf("err = %v, want ErrNotReplicated", err)
	}
	if db.Epoch(0) != 0 || db.Failovers() != 0 {
		t.Fatal("non-replicated DB reports failover state")
	}
}

// TestFailoverOnTrimmedWAL promotes the last shard's leader on a store whose
// WAL prefix is gone, at 1, 2 and 4 shards: the promotion attaches from the
// retained head (there is no LSN 1 to replay from) — the checkpoint rotation
// past the trim names every page — and every acked edge — written before the
// trim, between trim and failover, and after the promotion — stays readable
// on the leaders and on a replica opened before any of it, which one Sync
// brings to every leader's last LSN.
func TestFailoverOnTrimmedWAL(t *testing.T) {
	forShards(t, []int{1, 2, 4}, func(t *testing.T, shards int) {
		db := replicatedDB(t, Options{ExtentSize: 4 << 10, MaxPageEntries: 8, ReplicaPollInterval: time.Millisecond}, shards)
		victim := shards - 1
		rep, err := db.OpenReplica()
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		writeEdges(t, db, &acked, 800)
		if err := db.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		if !trimmed(db) {
			t.Fatal("the WAL this test fails over on is not trimmed")
		}
		writeEdges(t, db, &acked, 100)
		if err := db.Failover(victim); err != nil {
			t.Fatalf("failover on a trimmed WAL: %v", err)
		}
		if db.Epoch(victim) != 1 || db.Failovers() != 1 {
			t.Fatalf("epoch %d failovers %d after one failover", db.Epoch(victim), db.Failovers())
		}
		writeEdges(t, db, &acked, 50)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// The failover resyncs nobody. A replica the trim outran is on its
		// own: its reader's cursor is short of a trimmed extent, a hole for
		// certain on the first poll, so one Sync re-attaches it from the
		// retained head and drains the log past it.
		if err := rep.Sync(); err != nil {
			t.Fatal(err)
		}
		if lag := db.lag(); lag != 0 {
			t.Fatalf("replica %d LSNs behind its leader after one Sync (%d resyncs)", lag, rep.Resyncs())
		}
		checkAcked(t, "leader", db, acked)
		checkAcked(t, "replica", rep, acked)
	})
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
	for _, lf := range db.eng(0).Mapping().NameLeaves(nil, 0, 1) {
		pages, chains = pages+1, chains+int64(len(lf.Deltas))
	}
	if pages < 4*64 || chains == 0 {
		t.Fatalf("fixture: %d pages, %d delta records; want pages well past the cache and some delta records", pages, chains)
	}
	replicaPages := func() int64 { return rep.ros[0].Metrics().Snapshot()["bwtree.pages"].Value }
	applied, held := rep.AppliedLSN(0), replicaPages()

	store := db.eng(0).Store()
	before := store.Stats()
	if err := db.Failover(0); err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
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
	if rep.Resyncs() != 0 || rep.AppliedLSN(0) != applied+1 || replicaPages() != held {
		t.Errorf("replica after the failover and one write: %d resyncs, LSN %d, %d pages; want 0, %d, %d",
			rep.Resyncs(), rep.AppliedLSN(0), replicaPages(), applied+1, held)
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
