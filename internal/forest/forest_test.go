package forest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

func newTestForest(t *testing.T, cfg Config) (*Forest, *storage.Store) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := bwtree.NewMapping(0, false)
	f, err := New(m, st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, st
}

func TestForestPutGet(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	if err := f.Put(1, []byte("video-1"), []byte("liked")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := f.Get(1, []byte("video-1"))
	if err != nil || !ok || string(v) != "liked" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	// Same key under a different owner is distinct.
	if _, ok, _ := f.Get(2, []byte("video-1")); ok {
		t.Fatal("owner isolation violated")
	}
}

func TestForestOwnersShareInitTree(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	for owner := OwnerID(1); owner <= 10; owner++ {
		for i := 0; i < 3; i++ {
			if err := f.Put(owner, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := f.Stats()
	if s.Trees != 1 {
		t.Fatalf("trees = %d, want 1 (no threshold: all owners in INIT)", s.Trees)
	}
	if s.InitKeys != 30 {
		t.Fatalf("init keys = %d, want 30", s.InitKeys)
	}
}

func TestForestSplitThresholdMigratesHotOwner(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 5})
	// Owner 7 is hot: 20 keys. Others are cold.
	for i := 0; i < 20; i++ {
		if err := f.Put(7, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for owner := OwnerID(1); owner <= 3; owner++ {
		if err := f.Put(owner, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Trees != 2 {
		t.Fatalf("trees = %d, want 2 (INIT + owner 7)", s.Trees)
	}
	if s.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", s.Migrations)
	}
	// Everything readable after migration, for both hot and cold owners.
	for i := 0; i < 20; i++ {
		v, ok, err := f.Get(7, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("hot owner k%02d = %q %v %v", i, v, ok, err)
		}
	}
	for owner := OwnerID(1); owner <= 3; owner++ {
		if _, ok, _ := f.Get(owner, []byte("k")); !ok {
			t.Fatalf("cold owner %d lost its key", owner)
		}
	}
	// INIT no longer holds owner 7's keys.
	if s.InitKeys != 3 {
		t.Fatalf("init keys = %d, want 3", s.InitKeys)
	}
}

func TestForestInitSizeEviction(t *testing.T) {
	f, _ := newTestForest(t, Config{InitSizeThreshold: 10})
	// Owner 1 has 6 keys, owner 2 has 5: total 11 > 10 triggers eviction of
	// the largest INIT owner (owner 1).
	for i := 0; i < 6; i++ {
		if err := f.Put(1, []byte(fmt.Sprintf("a%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := f.Put(2, []byte(fmt.Sprintf("b%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Migrations == 0 {
		t.Fatal("expected INIT-size eviction")
	}
	if f.OwnerCount(1) != 6 || f.OwnerCount(2) != 5 {
		t.Fatalf("counts = %d,%d", f.OwnerCount(1), f.OwnerCount(2))
	}
	for i := 0; i < 6; i++ {
		if _, ok, _ := f.Get(1, []byte(fmt.Sprintf("a%d", i))); !ok {
			t.Fatalf("a%d lost after eviction", i)
		}
	}
}

func TestForestScan(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 8})
	// Cold owner in INIT and hot owner in a dedicated tree; both scans
	// must return per-owner sorted keys without the prefix.
	for i := 0; i < 5; i++ {
		if err := f.Put(100, []byte(fmt.Sprintf("k%02d", i)), []byte("cold")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := f.Put(200, []byte(fmt.Sprintf("k%02d", i)), []byte("hot")); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		owner OwnerID
		want  int
	}{{100, 5}, {200, 20}} {
		var keys []string
		if err := f.Scan(tc.owner, nil, nil, 0, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(keys) != tc.want {
			t.Fatalf("owner %d scan = %d keys, want %d", tc.owner, len(keys), tc.want)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("owner %d scan out of order: %v", tc.owner, keys)
			}
		}
	}
	// Range scan with bounds and limit.
	var got []string
	if err := f.Scan(200, []byte("k05"), []byte("k10"), 3, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "k05" {
		t.Fatalf("bounded scan = %v", got)
	}
}

func TestForestDelete(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	if err := f.Put(1, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(1, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.Get(1, []byte("k")); ok {
		t.Fatal("deleted key still visible")
	}
	if f.OwnerCount(1) != 0 {
		t.Fatalf("owner count = %d, want 0", f.OwnerCount(1))
	}
}

func TestForestOwnerBoundaries(t *testing.T) {
	// Adjacent owner IDs must never bleed into each other's scans.
	f, _ := newTestForest(t, Config{})
	for _, owner := range []OwnerID{5, 6, ^OwnerID(0)} {
		for i := 0; i < 4; i++ {
			if err := f.Put(owner, []byte{byte(i)}, []byte(fmt.Sprintf("o%d", owner))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, owner := range []OwnerID{5, 6, ^OwnerID(0)} {
		n := 0
		if err := f.Scan(owner, nil, nil, 0, func(k, v []byte) bool {
			if string(v) != fmt.Sprintf("o%d", owner) {
				t.Fatalf("owner %d scan leaked value %q", owner, v)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("owner %d scan = %d keys, want 4", owner, n)
		}
	}
}

func TestForestConcurrentOwners(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 50})
	var wg sync.WaitGroup
	const owners, per = 16, 120 // several owners cross the threshold
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := f.Put(OwnerID(o+1), []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(o)
	}
	wg.Wait()
	s := f.Stats()
	if s.Trees != owners+1 {
		t.Fatalf("trees = %d, want %d", s.Trees, owners+1)
	}
	for o := 1; o <= owners; o++ {
		n := 0
		if err := f.Scan(OwnerID(o), nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != per {
			t.Fatalf("owner %d has %d keys, want %d", o, n, per)
		}
	}
}

// TestPropertyForestMatchesModel compares the forest against a per-owner
// map model under random operations and random thresholds.
func TestPropertyForestMatchesModel(t *testing.T) {
	f := func(seed int64, split, initCap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fo, _ := newTestForest(t, Config{
			SplitThreshold:    int(split % 16),
			InitSizeThreshold: int(initCap % 64),
			Tree:              bwtree.Config{MaxPageEntries: 8, ConsolidateNum: 3},
		})
		model := map[OwnerID]map[string]string{}
		for i := 0; i < 300; i++ {
			owner := OwnerID(rng.Intn(6) + 1)
			key := fmt.Sprintf("k%02d", rng.Intn(20))
			if rng.Intn(4) == 0 {
				if err := fo.Delete(owner, []byte(key)); err != nil {
					return false
				}
				delete(model[owner], key)
			} else {
				val := fmt.Sprintf("v%d", i)
				if err := fo.Put(owner, []byte(key), []byte(val)); err != nil {
					return false
				}
				if model[owner] == nil {
					model[owner] = map[string]string{}
				}
				model[owner][key] = val
			}
		}
		for owner := OwnerID(1); owner <= 6; owner++ {
			got := map[string]string{}
			if err := fo.Scan(owner, nil, nil, 0, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			}); err != nil {
				return false
			}
			want := model[owner]
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
				gv, ok, err := fo.Get(owner, []byte(k))
				if err != nil || !ok || string(gv) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestForestReplicaFollowsMigration(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := bwtree.NewMapping(0, false)
	logger := committer(t, st)
	fo, err := New(m, st, Config{
		SplitThreshold: 5,
		Tree:           bwtree.Config{},
	}, logger)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewApplier(bwtree.NewApplierMapping(0), st)
	rd := wal.NewReader(st)

	// Owner 9 crosses the threshold and migrates; owner 1 stays cold.
	for i := 0; i < 12; i++ {
		if err := fo.Put(9, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fo.Put(1, []byte("cold"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	recs, err := rd.Poll()
	if err != nil {
		t.Fatal(err)
	}
	// Record by record, each its own group: at every applied LSN — before the
	// copy, between copy and assignment, between assignment and the INIT
	// deletes — treeAt picks the one tree holding owner 9 whole, so the
	// owner's key count only ever grows, by one per user write.
	prev := 0
	for _, rec := range recs {
		if err := rep.ApplyGroup([]*wal.Record{rec}); err != nil {
			t.Fatal(err)
		}
		if rep.AppliedLSN() != rec.LSN {
			t.Fatalf("applied LSN %d after record %d", rep.AppliedLSN(), rec.LSN)
		}
		n := 0
		if err := rep.ScanAt(9, nil, nil, 0, rep.AppliedLSN(), func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n < prev || n > prev+1 {
			t.Fatalf("owner 9 went from %d to %d keys at LSN %d (%v)", prev, n, rec.LSN, rec.Type)
		}
		prev = n
	}
	for i := 0; i < 12; i++ {
		v, ok, err := rep.GetAt(9, []byte(fmt.Sprintf("k%02d", i)), rep.AppliedLSN())
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("replica owner 9 k%02d = %q %v %v", i, v, ok, err)
		}
	}
	if v, ok, _ := rep.GetAt(1, []byte("cold"), rep.AppliedLSN()); !ok || string(v) != "c" {
		t.Fatal("replica lost cold owner")
	}
	if rep.Stats().Trees != 2 {
		t.Fatalf("applier holds %d trees, want INIT and owner 9's", rep.Stats().Trees)
	}
	// Replica scans match the forest.
	var a, b []string
	if err := fo.Scan(9, nil, nil, 0, func(k, v []byte) bool { a = append(a, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	if err := rep.ScanAt(9, nil, nil, 0, rep.AppliedLSN(), func(k, v []byte) bool { b = append(b, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("scan mismatch: forest=%v replica=%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan mismatch at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestApplierPublishesLSNAtGroupEnd: a fresh applier reads as the empty
// forest the log describes at LSN 0, and the applied LSN — the horizon its
// reads run at — moves only at the end of a group, to the group's last LSN.
func TestApplierPublishesLSNAtGroupEnd(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	logger := committer(t, st)
	fo, err := New(bwtree.NewMapping(0, false), st, Config{Tree: bwtree.Config{}}, logger)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewApplier(bwtree.NewApplierMapping(0), st)
	if _, ok, err := rep.GetAt(3, []byte("a"), rep.AppliedLSN()); rep.AppliedLSN() != 0 || ok || err != nil {
		t.Fatalf("fresh applier: LSN %d, found %v, %v", rep.AppliedLSN(), ok, err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := fo.Put(3, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyGroup(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := rep.AppliedLSN(), recs[len(recs)-1].LSN; got != want || rep.m.OverlayOps() != 3 {
		t.Fatalf("applied LSN %d, want %d; %d records buffered, want 3", got, want, rep.m.OverlayOps())
	}
	// The same ops are there for a reader of the group's last LSN and not
	// for one of the LSN before it.
	if _, ok, _ := rep.GetAt(3, []byte("c"), rep.AppliedLSN()); !ok {
		t.Fatal("c missing at the applied LSN")
	}
	if _, ok, _ := rep.GetAt(3, []byte("c"), rep.AppliedLSN()-1); ok {
		t.Fatal("c visible below its LSN")
	}
}

// committer is a test forest's logger, the product's: a group committer over
// st's WAL, stopped with the test.
func committer(t *testing.T, st *storage.Store) *wal.GroupCommitter {
	c := wal.NewGroupCommitter(wal.NewWriter(st), wal.GroupCommitterOptions{})
	t.Cleanup(c.Stop)
	return c
}

func TestCompositeKeyOrdering(t *testing.T) {
	f := func(o1, o2 uint64, k1, k2 []byte) bool {
		c1 := compositeKey(OwnerID(o1), k1)
		c2 := compositeKey(OwnerID(o2), k2)
		switch {
		case o1 < o2:
			return bytes.Compare(c1, c2) < 0
		case o1 > o2:
			return bytes.Compare(c1, c2) > 0
		default:
			return bytes.Compare(c1, c2) == bytes.Compare(k1, k2)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerUpperBound(t *testing.T) {
	if ub := ownerUpperBound(5); binary.BigEndian.Uint64(ub) != 6 {
		t.Fatalf("upper bound of 5 = %v", ub)
	}
	if ub := ownerUpperBound(^OwnerID(0)); ub != nil {
		t.Fatalf("upper bound of max owner should be nil (+inf), got %v", ub)
	}
}

func TestDedicate(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	// Data written before dedication migrates with the owner.
	for i := 0; i < 10; i++ {
		if err := f.Put(3, []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Dedicate(3); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Trees; got != 2 {
		t.Fatalf("trees = %d, want 2", got)
	}
	for i := 0; i < 10; i++ {
		if _, ok, _ := f.Get(3, []byte{byte(i)}); !ok {
			t.Fatalf("key %d lost after Dedicate", i)
		}
	}
	// Dedicating twice is a no-op; dedicating a fresh owner creates an
	// empty dedicated tree.
	if err := f.Dedicate(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Dedicate(99); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Trees; got != 3 {
		t.Fatalf("trees = %d, want 3", got)
	}
	if err := f.Put(99, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.Get(99, []byte("k")); !ok {
		t.Fatal("write to pre-dedicated owner lost")
	}
}

// TestFailedMigrationForgetsItsTree is the regression for the half-built
// tree a failed migration used to leave registered: the copy's append fails,
// the migration returns the error, and the forest is as it was — one tree,
// the owner complete in INIT — so the retry builds the only dedicated tree
// there is instead of a second one beside an orphan that every Trees walk,
// flush and block build would visit for the life of the forest.
func TestFailedMigrationForgetsItsTree(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{})
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
	f, err := New(bwtree.NewMapping(0, false), st, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.Put(3, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	served := func(where string) {
		t.Helper()
		n := 0
		if err := f.Scan(3, nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil || n != 10 {
			t.Fatalf("%s: owner scan = %d keys, %v, want 10", where, n, err)
		}
	}

	plan.ScheduleCrash(1) // the next append is the copy run's base write
	if err := f.Dedicate(3); err == nil {
		t.Fatal("migration succeeded over a failed append")
	}
	if s := f.Stats(); s.Trees != 1 || s.Migrations != 0 || s.InitKeys != 10 || len(f.OwnerAssignments()) != 0 {
		t.Fatalf("after a failed migration: %+v, assignments %v; want the forest as it was", s, f.OwnerAssignments())
	}
	served("after a failed migration")

	plan.ClearCrash()
	if err := f.Dedicate(3); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if s := f.Stats(); s.Trees != 2 || s.Migrations != 1 || s.InitKeys != 0 || f.OwnerCount(3) != 10 {
		t.Fatalf("after the retry: %+v, owner count %d; want INIT and one dedicated tree", s, f.OwnerCount(3))
	}
	served("after the retry")
}

// TestBootstrapAdoptsATreeWithNoOwner: a checkpoint names a tree whose owner
// assignment is not published — a migration in progress, or a failed one's
// tree on a follower that saw it created — with no role. A follower attaching
// past a trim registers it unbound, and binds it when the assignment record
// past the trim arrives; with none, the owner stays in INIT.
func TestBootstrapAdoptsATreeWithNoOwner(t *testing.T) {
	loc := storage.Loc{Stream: storage.StreamBase, Extent: 1, Length: 64}
	naming := &wal.Record{Type: wal.RecordCheckpoint, LSN: 11, CkptLSN: 10, AuxPage: 1,
		Value: bwtree.EncodeMappingUpdates([]bwtree.MappingUpdate{
			{Tree: firstID, Page: firstID, Base: loc, Named: true, Init: true},
			{Tree: 5, Page: 9, Base: loc, Named: true},
		})}
	assign := &wal.Record{Type: wal.RecordOwnerAssign, LSN: 12, TreeID: 5, Key: binary.BigEndian.AppendUint64(nil, 77)}
	for _, tc := range []struct {
		name   string
		groups [][]*wal.Record
		want   []OwnerAssignment
	}{
		{"unpublished", [][]*wal.Record{{naming}}, []OwnerAssignment{}},
		{"published past the trim", [][]*wal.Record{{naming}, {assign}}, []OwnerAssignment{{Owner: 77, Tree: 5}}},
	} {
		f, err := Bootstrap(bwtree.NewApplierMapping(0), storage.Open(nil), 10, tc.groups)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, grp := range tc.groups {
			if err := f.ApplyGroup(grp); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if f.TreeByID(5) == nil || fmt.Sprint(f.OwnerAssignments()) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: tree 5 known %v, assignments %v; want %v", tc.name, f.TreeByID(5) != nil, f.OwnerAssignments(), tc.want)
		}
	}
}

// eventLogger is a WALLogger that records, in order, every record it is
// handed and every invocation of a wait it handed out, and commits at once.
type eventLogger struct {
	mu     sync.Mutex
	lsn    wal.LSN
	events []string // a record's type, or "wait"
}

func (l *eventLogger) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lsn++
	l.events = append(l.events, rec.Type.String())
	return l.lsn, func() error {
		l.mu.Lock()
		l.events = append(l.events, "wait")
		l.mu.Unlock()
		return nil
	}
}

// take returns the events since the last take, the serial durable rounds
// they hold — the waits that follow a record — and how many records of type
// typ they hold.
func (l *eventLogger) take(typ wal.RecordType) (events []string, rounds, n int) {
	l.mu.Lock()
	events, l.events = l.events, nil
	l.mu.Unlock()
	for i, ev := range events {
		if ev == "wait" && i > 0 && events[i-1] != "wait" {
			rounds++
		}
		if ev == typ.String() {
			n++
		}
	}
	return events, rounds, n
}

// TestWriteDrainsOnce pins that a write waits on one durable round whatever
// it causes: every record — the writes', a split's, and a migration's
// new-tree record, put run, owner assignment and delete run — is handed to
// the logger before the first wait is invoked.
func TestWriteDrainsOnce(t *testing.T) {
	l := &eventLogger{}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	f, err := New(bwtree.NewMapping(0, false), st, Config{
		SplitThreshold: 16, Tree: bwtree.Config{MaxPageEntries: 8},
	}, l)
	if err != nil {
		t.Fatal(err)
	}
	l.take(0)
	writes := func(owner OwnerID, from, to int) []Write {
		var ws []Write
		for i := from; i < to; i++ {
			ws = append(ws, Write{Owner: owner, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")})
		}
		return ws
	}
	for _, tc := range []struct {
		name  string
		write func() error
		typ   wal.RecordType // a record the write must have caused
	}{
		{"a batch that splits", func() error { return f.Apply(writes(1, 0, 12), nil) }, wal.RecordSplit},
		{"a write that migrates its owner", func() error { return f.Apply(writes(1, 12, 17), nil) }, wal.RecordOwnerAssign},
		{"a dedication", func() error { return f.Dedicate(2) }, wal.RecordNewTree},
	} {
		if err := tc.write(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		events, rounds, n := l.take(tc.typ)
		t.Logf("%s: %d records and waits, %d durable round(s)", tc.name, len(events), rounds)
		if n == 0 {
			t.Fatalf("%s: no %v record among %v", tc.name, tc.typ, events)
		}
		if rounds != 1 {
			t.Errorf("%s waits on %d durable rounds, want 1: %v", tc.name, rounds, events)
		}
	}
	if s := f.Stats(); s.Migrations != 2 {
		t.Fatalf("fixture: %d migrations, want owner 1's and owner 2's", s.Migrations)
	}
}
