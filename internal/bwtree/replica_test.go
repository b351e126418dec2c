package bwtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// walPipe couples a Tree (RW side) to Replicas (RO side) through a real
// group committer on shared storage, mimicking the replication package's
// plumbing at unit-test scale.
func walPipe(t *testing.T, st *storage.Store) *wal.GroupCommitter {
	c := wal.NewGroupCommitter(wal.NewWriter(st), wal.GroupCommitterOptions{})
	t.Cleanup(c.Stop)
	return c
}

// follower is the RO node at the scale of this package: an applier page
// table, the trees its log created, and the LSN applied so far — the tree
// directory and read horizon that forest.Forest keeps in the product. Reads
// are the leader's Tree.GetAt / ScanAt at the applied LSN.
type follower struct {
	m       *Mapping
	st      *storage.Store
	trees   map[TreeID]*Tree
	applied wal.LSN
}

func newFollower(st *storage.Store, capacity int) *follower {
	return &follower{m: NewApplierMapping(capacity), st: st, trees: map[TreeID]*Tree{}}
}

// ApplyAll incorporates records in order, each one visible once it is in.
func (f *follower) ApplyAll(recs []*wal.Record) error {
	for _, rec := range recs {
		if rec.Type == wal.RecordNewTree {
			f.trees[TreeID(rec.TreeID)] = NewApplierTree(f.m, f.st, TreeID(rec.TreeID), PageID(rec.AuxPage))
		} else if err := f.m.ApplyRecord(rec); err != nil {
			return err
		}
		f.applied = rec.LSN
	}
	return nil
}

func (f *follower) Get(tree TreeID, key []byte) ([]byte, bool, error) {
	return f.trees[tree].GetAt(key, f.applied)
}

func (f *follower) Scan(tree TreeID, from, to []byte, limit int, fn func(k, v []byte) bool) error {
	return f.trees[tree].ScanAt(from, to, limit, f.applied, fn)
}

func (f *follower) BufferedRecords() int { return f.m.OverlayOps() }

func newReplicatedTree(t *testing.T, cfg Config) (*Tree, *follower, *wal.Reader, *storage.Store, *wal.GroupCommitter) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	w := walPipe(t, st)
	m := NewMapping(0, false)
	tr, err := New(m, st, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return tr, newFollower(st, 0), wal.NewReader(st), st, w
}

// sync drains the WAL into the replica.
func syncReplica(t *testing.T, rep *follower, rd *wal.Reader) {
	t.Helper()
	recs, err := rd.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyAll(recs); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSeesWrites(t *testing.T) {
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{})
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	syncReplica(t, rep, rd)
	v, ok, err := rep.Get(tr.ID(), []byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("replica get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := rep.Get(tr.ID(), []byte("nope")); ok {
		t.Fatal("replica found a missing key")
	}
}

func TestReplicaDelete(t *testing.T) {
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	syncReplica(t, rep, rd)
	if _, ok, _ := rep.Get(tr.ID(), []byte("k")); ok {
		t.Fatal("replica still sees deleted key")
	}
}

// TestReplicaSplitScenario reproduces the paper's Figure 6/7 example: a
// split on the RW node, an RO node with cold cache reading both halves
// before any dirty page was flushed. The RO must reconstruct the new page
// from the old durable image plus the WAL.
func TestReplicaSplitScenario(t *testing.T) {
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{MaxPageEntries: 4})

	// Insert enough to persist a base page, then flush so a durable image
	// exists (the "initial consistent state" of Figure 6).
	for i := 0; i < 4; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("V%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// The insert of k4 splits the leaf (Put(5, V5) in the paper). Do NOT
	// flush: shared storage still holds only the old page image.
	if err := tr.Put([]byte("k4"), []byte("V4")); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Splits == 0 {
		t.Fatal("expected a split")
	}
	syncReplica(t, rep, rd)

	// Get(2) and Get(3) of the paper: keys on both sides of the split.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		v, ok, err := rep.Get(tr.ID(), []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("V%d", i) {
			t.Fatalf("replica %s = %q %v, want V%d", key, v, ok, i)
		}
	}
}

func TestReplicaCheckpointTruncatesBuffers(t *testing.T) {
	tr, rep, rd, _, w := newReplicatedTree(t, Config{DisableSplit: true})
	for i := 0; i < 10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, rep, rd)
	if rep.BufferedRecords() == 0 {
		t.Fatal("expected buffered records before any read")
	}

	// Flush dirty pages and emit the checkpoint (steps 7–8 of Figure 7).
	ckptLSN := w.LastLSN()
	ups, err := tr.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log(&wal.Record{
		Type: wal.RecordCheckpoint, CkptLSN: ckptLSN, Value: EncodeMappingUpdates(ups),
	}); err != nil {
		t.Fatal(err)
	}
	syncReplica(t, rep, rd)
	if got := rep.BufferedRecords(); got != 0 {
		t.Fatalf("buffered records after checkpoint = %d, want 0", got)
	}
	// Data still correct, now served from the new durable locations.
	for i := 0; i < 10; i++ {
		if _, ok, _ := rep.Get(tr.ID(), []byte(fmt.Sprintf("k%02d", i))); !ok {
			t.Fatalf("k%02d missing after checkpoint", i)
		}
	}
}

func TestReplicaLazyReplayOnlyOnRead(t *testing.T) {
	tr, rep, rd, st, _ := newReplicatedTree(t, Config{DisableSplit: true})
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, rep, rd)
	reads := st.Stats().ReadOps
	// Applying WAL must not have caused page reads (lazy replay).
	syncReplica(t, rep, rd)
	if got := st.Stats().ReadOps; got != reads {
		t.Fatalf("WAL apply performed %d page reads", got-reads)
	}
	if _, ok, _ := rep.Get(tr.ID(), []byte("k00")); !ok {
		t.Fatal("k00 missing")
	}
}

func TestReplicaScanMatchesTree(t *testing.T) {
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{MaxPageEntries: 8})
	for i := 0; i < 200; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ { // some unflushed tail
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, rep, rd)

	collect := func(scan func(fn func(k, v []byte) bool) error) []string {
		var out []string
		if err := scan(func(k, v []byte) bool {
			out = append(out, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fromTree := collect(func(fn func(k, v []byte) bool) error {
		return tr.Scan(nil, nil, 0, fn)
	})
	fromRep := collect(func(fn func(k, v []byte) bool) error {
		return rep.Scan(tr.ID(), nil, nil, 0, fn)
	})
	if len(fromTree) != 300 {
		t.Fatalf("tree scan = %d entries", len(fromTree))
	}
	if !reflect.DeepEqual(fromTree, fromRep) {
		t.Fatalf("replica scan diverges from tree:\ntree=%d entries\nrep=%d entries", len(fromTree), len(fromRep))
	}

	// Range + limit variants.
	var ranged []string
	if err := rep.Scan(tr.ID(), []byte("k0010"), []byte("k0015"), 0, func(k, v []byte) bool {
		ranged = append(ranged, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ranged) != 5 || ranged[0] != "k0010" {
		t.Fatalf("replica range scan = %v", ranged)
	}
}

func TestReplicaCacheEviction(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	w := walPipe(t, st)
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{MaxPageEntries: 4}, w)
	if err != nil {
		t.Fatal(err)
	}
	rep := newFollower(st, 2) // tiny replica cache
	rd := wal.NewReader(st)

	for i := 0; i < 64; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := tr.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log(&wal.Record{
		Type: wal.RecordCheckpoint, CkptLSN: w.LastLSN(), Value: EncodeMappingUpdates(ups),
	}); err != nil {
		t.Fatal(err)
	}
	syncReplica(t, rep, rd)
	// Read everything twice; with capacity 2 the replica must evict and
	// re-fetch, and results must stay correct.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			if _, ok, err := rep.Get(tr.ID(), []byte(fmt.Sprintf("k%03d", i))); err != nil || !ok {
				t.Fatalf("pass %d k%03d = %v %v", pass, i, ok, err)
			}
		}
	}
}

func TestReplicaChainedSplitOrigins(t *testing.T) {
	// Multiple splits before any flush: new pages form an origin chain
	// that the replica must follow to reconstruct content.
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{MaxPageEntries: 2})
	for i := 0; i < 2; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// These inserts cause repeated splits, all unflushed.
	for i := 2; i < 16; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, rep, rd)
	for i := 0; i < 16; i++ {
		if _, ok, err := rep.Get(tr.ID(), []byte(fmt.Sprintf("k%02d", i))); err != nil || !ok {
			t.Fatalf("k%02d = %v %v", i, ok, err)
		}
	}
}

func TestMappingUpdatesEncodeDecode(t *testing.T) {
	in := []MappingUpdate{
		{Tree: 1, Page: 2, Base: storage.Loc{Stream: storage.StreamBase, Extent: 3, Offset: 4, Length: 5}},
		{Tree: 1, Page: 7, Base: storage.Loc{Stream: storage.StreamBase, Extent: 8, Offset: 9, Length: 10},
			Deltas: []storage.Loc{
				{Stream: storage.StreamDelta, Extent: 11, Offset: 12, Length: 13},
				{Stream: storage.StreamDelta, Extent: 14, Offset: 15, Length: 16},
			}},
	}
	out, err := DecodeMappingUpdates(EncodeMappingUpdates(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if _, err := DecodeMappingUpdates([]byte{1, 2}); err == nil {
		t.Fatal("truncated input decoded")
	}
}

func TestReplicaDirectoryAfterManyRandomSplits(t *testing.T) {
	// Fuzz the split-replay machinery: random keys force splits at random
	// separators across checkpointed and unflushed states; the replica
	// directory must stay a partition of the key space with exact
	// contents.
	for seed := int64(0); seed < 4; seed++ {
		tr, rep, rd, _, w := newReplicatedTree(t, Config{
			MaxPageEntries: 4, MaxInnerEntries: 4,
		})
		rng := rand.New(rand.NewSource(seed))
		model := map[string]string{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("%08x", rng.Uint32())
			v := fmt.Sprintf("v%d", i)
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
			if i%37 == 0 {
				ups, err := tr.FlushDirty()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Log(&wal.Record{
					Type: wal.RecordCheckpoint, CkptLSN: w.LastLSN(),
					Value: EncodeMappingUpdates(ups),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		syncReplica(t, rep, rd)
		got := map[string]string{}
		if err := rep.Scan(tr.ID(), nil, nil, 0, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(model) {
			t.Fatalf("seed %d: replica has %d keys, model %d", seed, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("seed %d: key %s = %q, want %q", seed, k, got[k], v)
			}
		}
	}
}

// TestReplicaKeepsRangeSplitOffDuringFlushCycle: a writer splits page L
// after a flush cycle took its dirty set (L in it) and before the flusher
// reached L. Flushing L alone narrowed its durable image to the left range
// while the new right sibling R — which replicas read through L's image
// until R has one — waited for the next cycle: the checkpoint then took R's
// whole range away from every replica that did not have the page resident.
// The cycle now flushes R with L.
func TestReplicaKeepsRangeSplitOffDuringFlushCycle(t *testing.T) {
	tr, rep, rd, _, w := newReplicatedTree(t, Config{MaxPageEntries: 8})
	checkpoint := func(h wal.LSN, ups []MappingUpdate) {
		t.Helper()
		if _, err := w.Log(&wal.Record{Type: wal.RecordCheckpoint, CkptLSN: h, Value: EncodeMappingUpdates(ups)}); err != nil {
			t.Fatal(err)
		}
		syncReplica(t, rep, rd)
	}
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		put(i, "v")
	}
	ups, err := tr.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(w.LastLSN(), ups)

	put(0, "v2")          // dirties L
	h := w.LastLSN()      // the cycle samples its horizon ...
	ids := tr.takeDirty() // ... and takes the dirty set: {L}
	put(8, "v")           // a writer splits L before the flusher reaches it
	if len(tr.LeafDirectory()) != 2 {
		t.Fatal("fixture: the ninth key did not split the leaf")
	}
	if ups, err = tr.flushPages(ids); err != nil {
		t.Fatal(err)
	}
	checkpoint(h, ups)
	for i := 0; i < 9; i++ {
		if _, ok, err := rep.Get(tr.ID(), []byte(fmt.Sprintf("k%02d", i))); err != nil || !ok {
			t.Errorf("replica lost k%02d after the checkpoint: %v %v", i, ok, err)
		}
	}
}

// TestReplicaEvictionKeepsAppliedOps: a WAL op that arrived while its page
// was resident used to be applied to the cached content only, so evicting
// the page before the next checkpoint dropped it and the replica served the
// old durable version. The replay log now holds every op above the last
// checkpoint whether or not the page is resident.
func TestReplicaEvictionKeepsAppliedOps(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	w := walPipe(t, st)
	tr, err := New(NewMapping(0, false), st, Config{MaxPageEntries: 4}, w)
	if err != nil {
		t.Fatal(err)
	}
	rep, rd := newFollower(st, 2), wal.NewReader(st)
	for i := 0; i < 32; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	ups, _ := tr.FlushDirty()
	w.Log(&wal.Record{Type: wal.RecordCheckpoint, CkptLSN: w.LastLSN(), Value: EncodeMappingUpdates(ups)})
	syncReplica(t, rep, rd)
	rep.Get(tr.ID(), []byte("k000")) // page of k000 resident on the replica
	tr.Put([]byte("k000"), []byte("new"))
	syncReplica(t, rep, rd)   // applied eagerly to the resident page
	for i := 8; i < 32; i++ { // touch other pages: evicts k000's page
		rep.Get(tr.ID(), []byte(fmt.Sprintf("k%03d", i)))
	}
	if v, _, _ := rep.Get(tr.ID(), []byte("k000")); string(v) != "new" {
		t.Fatalf("replica k000 = %q after eviction, want new", v)
	}
}

// TestEvictedSiblingReloadsThroughEvictedOrigin: a split sibling no checkpoint
// has given records yet reads its origin's records through its own range —
// also when both have been evicted, and also when the sibling's own origin is
// a sibling still waiting (a chain) — through the single-page load and through
// a ScanManyAt round, which fetches the origin's records once for every page
// reading through them and accepts what it fetched (sitsAt resolves the same
// origin), so nothing is read twice.
func TestEvictedSiblingReloadsThroughEvictedOrigin(t *testing.T) {
	tr, rep, rd, st, w := newReplicatedTree(t, Config{MaxPageEntries: 8})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	for i := 0; i < 8; i++ {
		if err := tr.Put(key(i), []byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := tr.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Log(&wal.Record{Type: wal.RecordCheckpoint, CkptLSN: w.LastLSN(), Value: EncodeMappingUpdates(ups)}); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 24; i++ { // unflushed: the one durable leaf splits, and its sibling splits again
		if err := tr.Put(key(i), []byte("replayed")); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, rep, rd)
	ftr := rep.trees[tr.ID()]
	leaves := rep.m.leaves()
	if len(leaves) < 3 {
		t.Fatalf("fixture: %d leaves, want a chain of splits", len(leaves))
	}
	evictAll := func() {
		chained := false
		for _, e := range leaves {
			e.mu.Lock()
			e.base = nil
			if e.origin != 0 {
				o := rep.m.get(e.origin)
				chained = chained || o.origin != 0
			}
			e.mu.Unlock()
		}
		if !chained {
			t.Fatal("fixture: no sibling's origin is itself a waiting sibling")
		}
	}
	check := func(got map[string]string) {
		t.Helper()
		for i := 0; i < 24; i++ {
			want := "replayed"
			if i < 8 {
				want = "durable"
			}
			if got[string(key(i))] != want {
				t.Fatalf("%s = %q, want %q (%d keys read)", key(i), got[string(key(i))], want, len(got))
			}
		}
	}

	// Single-page loads: every leaf reads the origin's base record.
	evictAll()
	reads := st.Stats().ReadOps
	got := map[string]string{}
	for i := 0; i < 24; i++ {
		v, ok, err := rep.Get(tr.ID(), key(i))
		if err != nil || !ok {
			t.Fatalf("%s = %v %v", key(i), ok, err)
		}
		got[string(key(i))] = string(v)
	}
	check(got)
	if d := st.Stats().ReadOps - reads; d != int64(len(leaves)) {
		t.Fatalf("%d leaves cost %d record reads one by one, want the origin's base once each", len(leaves), d)
	}

	// One ScanManyAt round over a scan per leaf.
	evictAll()
	reads = st.Stats().ReadOps
	scans := make([]RangeScan, len(leaves))
	for i, e := range leaves {
		scans[i] = RangeScan{Tree: ftr, From: e.lo, To: e.hi}
	}
	got = map[string]string{}
	if err := rep.m.ScanManyAt(scans, 0, rep.applied, func(_ int, k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	check(got)
	if d := st.Stats().ReadOps - reads; d != int64(len(leaves)) {
		t.Fatalf("a round over %d leaves read %d records, want the origin's base once per leaf and none again", len(leaves), d)
	}
	if b := &rep.m.batchLoadPages; b.Max() != int64(len(leaves)) {
		t.Fatalf("batch_load_pages max = %d, want one load of all %d leaves", b.Max(), len(leaves))
	}
}

// TestSyncTakeOverPersistsWhatTheLogHeld: a hand-over with no logger has no
// flusher to leave the handed-over ops to, so the hand-over writes them itself
// — here everything, no checkpoint ever reached the follower: the root has no
// record of its own and every sibling reads through it. A third table rebuilt
// from the new leader's leaf directory alone reads it all.
func TestSyncTakeOverPersistsWhatTheLogHeld(t *testing.T) {
	for _, policy := range []DeltaPolicy{ReadOptimized, Traditional} {
		cfg := Config{MaxPageEntries: 8, Policy: policy}
		tr, rep, rd, st, _ := newReplicatedTree(t, cfg)
		for i := 0; i < 50; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%03d", i*7%50)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		syncReplica(t, rep, rd)
		if err := rep.m.TakeOver(func(TreeID) Config { return cfg }, nil); err != nil {
			t.Fatal(err)
		}
		next := rep.trees[tr.ID()]
		for _, e := range leavesOf(next) {
			if e.dirty || e.baseLoc.IsZero() || e.origin != 0 {
				t.Fatalf("%v: page %d after the hand-over: dirty=%v base=%v origin=%d", policy, e.id, e.dirty, e.baseLoc, e.origin)
			}
		}
		if n, err := reopenLeader(t, st, next, cfg).Len(); err != nil || n != 50 {
			t.Fatalf("%v: a table rebuilt from the new leader's records holds %d keys (%v), want 50", policy, n, err)
		}
		if err := next.Put([]byte("k999"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleCheckpointChunkIsDroppedAtTheNextEpoch: a leader that dies between
// the records of a chunked checkpoint leaves its leading records in the log.
// They never took effect and must not ride along with the next leader's first
// checkpoint, which arrives under a higher fence epoch: the page they named
// has moved on (here the stale chunk points it at nothing).
func TestStaleCheckpointChunkIsDroppedAtTheNextEpoch(t *testing.T) {
	tr, rep, rd, _, _ := newReplicatedTree(t, Config{})
	for i := 0; i < 5; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := tr.FlushDirty()
	if err != nil || len(ups) != 1 {
		t.Fatalf("flush: %d updates, %v", len(ups), err)
	}
	syncReplica(t, rep, rd)
	h := rep.applied
	stale := MappingUpdate{Tree: tr.ID(), Page: ups[0].Page}
	if err := rep.ApplyAll([]*wal.Record{
		{LSN: h + 1, Type: wal.RecordCheckpoint, CkptLSN: h, Value: EncodeMappingUpdates(ups)},
		{LSN: h + 2, Type: wal.RecordCheckpoint, CkptLSN: h, TreeID: 1, Value: EncodeMappingUpdates([]MappingUpdate{stale})},
		{LSN: h + 3, Type: wal.RecordCheckpoint, CkptLSN: h, Epoch: 1, Value: EncodeMappingUpdates(nil)},
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := rep.Get(tr.ID(), []byte("k3")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get(k3) after the next leader's checkpoint = %q %v %v: the dead leader's chunk took effect", v, ok, err)
	}
}
