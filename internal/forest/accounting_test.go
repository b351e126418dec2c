package forest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/metrics"
	"bg3/internal/storage"
)

// scanCount returns the owner's true key count by scanning.
func scanCount(t *testing.T, f *Forest, owner OwnerID) int {
	t.Helper()
	n := 0
	if err := f.Scan(owner, nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestForestUpsertDoesNotInflateCounts(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 100})
	for i := 0; i < 10; i++ {
		if err := f.Put(1, []byte("same-key"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.OwnerCount(1); got != 1 {
		t.Fatalf("owner count after 10 upserts of one key = %d, want 1", got)
	}
	if got := f.Stats().InitKeys; got != 1 {
		t.Fatalf("init keys after 10 upserts of one key = %d, want 1", got)
	}
}

func TestForestUpsertsDoNotTriggerPrematureMigration(t *testing.T) {
	// 3 distinct keys upserted many times must stay below a threshold of 5;
	// pre-fix the count reached 30 and the owner migrated spuriously.
	f, _ := newTestForest(t, Config{SplitThreshold: 5})
	for round := 0; round < 10; round++ {
		for k := 0; k < 3; k++ {
			if err := f.Put(7, []byte(fmt.Sprintf("k%d", k)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := f.Stats().Migrations; got != 0 {
		t.Fatalf("migrations = %d, want 0 (owner holds only 3 distinct keys)", got)
	}
	if got := f.OwnerCount(7); got != 3 {
		t.Fatalf("owner count = %d, want 3", got)
	}
}

func TestForestDeleteAbsentDoesNotDeflateCounts(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	if err := f.Put(1, []byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.Put(1, []byte("b"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.Delete(1, []byte("never-existed")); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.OwnerCount(1); got != 2 {
		t.Fatalf("owner count after absent deletes = %d, want 2", got)
	}
	if got := f.Stats().InitKeys; got != 2 {
		t.Fatalf("init keys after absent deletes = %d, want 2", got)
	}
	// Drain the owner, then keep deleting: counts must floor at zero.
	for _, k := range []string{"a", "b", "a", "b", "a"} {
		if err := f.Delete(1, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.OwnerCount(1); got != 0 {
		t.Fatalf("owner count after draining = %d, want 0 (never negative)", got)
	}
	if got := f.Stats().InitKeys; got != 0 {
		t.Fatalf("init keys after draining = %d, want 0 (never negative)", got)
	}
}

func TestForestAccountingStress(t *testing.T) {
	// Concurrent upserts of overlapping keys, deletes of present and absent
	// keys, and threshold-driven migrations. Afterward every owner's count
	// must equal its true key count and never be negative. Run with -race.
	const (
		workers      = 8
		opsPerWorker = 400
		owners       = 6
		keySpace     = 12
	)
	f, _ := newTestForest(t, Config{SplitThreshold: 8, InitSizeThreshold: 40})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				owner := OwnerID(rng.Intn(owners) + 1)
				key := []byte(fmt.Sprintf("k%02d", rng.Intn(keySpace)))
				switch rng.Intn(4) {
				case 0:
					if err := f.Delete(owner, key); err != nil {
						t.Error(err)
						return
					}
				case 1:
					// Delete a key that never exists: must not deflate counts.
					if err := f.Delete(owner, []byte("absent")); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := f.Put(owner, key, []byte("v")); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	totalInit := 0
	for o := OwnerID(1); o <= owners; o++ {
		count := f.OwnerCount(o)
		if count < 0 {
			t.Fatalf("owner %d count = %d, negative", o, count)
		}
		actual := scanCount(t, f, o)
		if count != actual {
			t.Fatalf("owner %d count = %d, actual keys = %d", o, count, actual)
		}
		if st := f.lookupOwner(o); st != nil && st.tree.Load() == nil {
			totalInit += actual
		}
	}
	s := f.Stats()
	if s.InitKeys < 0 {
		t.Fatalf("init keys = %d, negative", s.InitKeys)
	}
	if s.InitKeys != totalInit {
		t.Fatalf("init keys = %d, actual INIT-resident keys = %d", s.InitKeys, totalInit)
	}
}

func TestForestConcurrentDeleteFloorsAtZero(t *testing.T) {
	// Many goroutines race to delete the same single key: exactly one sees
	// it, and the TOCTOU-free decrement keeps the count at zero, not below.
	for round := 0; round < 20; round++ {
		f, _ := newTestForest(t, Config{})
		if err := f.Put(1, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f.Delete(1, []byte("k")); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := f.OwnerCount(1); got != 0 {
			t.Fatalf("round %d: owner count = %d, want 0", round, got)
		}
		if got := f.Stats().InitKeys; got != 0 {
			t.Fatalf("round %d: init keys = %d, want 0", round, got)
		}
	}
}

func TestForestMigrationPreservesCounts(t *testing.T) {
	f, _ := newTestForest(t, Config{})
	for i := 0; i < 10; i++ {
		if err := f.Put(3, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Upsert half of them, then migrate explicitly.
	for i := 0; i < 5; i++ {
		if err := f.Put(3, []byte(fmt.Sprintf("k%d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Dedicate(3); err != nil {
		t.Fatal(err)
	}
	if got := f.OwnerCount(3); got != 10 {
		t.Fatalf("owner count after migration = %d, want 10", got)
	}
	if got := f.Stats().InitKeys; got != 0 {
		t.Fatalf("init keys after sole owner migrated = %d, want 0", got)
	}
	// Post-migration upserts and absent deletes still must not drift.
	if err := f.Put(3, []byte("k0"), []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(3, []byte("absent")); err != nil {
		t.Fatal(err)
	}
	if got := f.OwnerCount(3); got != 10 {
		t.Fatalf("owner count after post-migration churn = %d, want 10", got)
	}
}

// TestForestRunCrossingSplitThreshold: an owner's writes arrive as one run
// that takes it across the split threshold midway. The counts settle once, on
// what the whole run left behind — upserts, a delete of an absent key and an
// add-then-delete pair move nothing — the migration fires once, after the run,
// and hands the INIT keys over without counting any of them twice.
func TestForestRunCrossingSplitThreshold(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 8})
	for i := 0; i < 5; i++ {
		if err := f.Put(5, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Put(6, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	put := func(k string) Write { return Write{Owner: 5, Key: []byte(k), Value: []byte("v2")} }
	del := func(k string) Write { return Write{Owner: 5, Key: []byte(k), Delete: true} }
	run := []Write{
		del("absent"),
		put("k00"),                                     // upsert
		del("k01"),                                     // real removal: 4
		put("k03"),                                     // upsert
		put("k10"), put("k11"), put("k12"), put("k13"), // 8: at the threshold
		put("k14"), del("k14"), // a pair
		put("k15"), put("k16"), // 10: past it
	}
	if err := f.Apply(run, nil); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Migrations != 1 || s.Trees != 2 {
		t.Fatalf("migrations %d trees %d, want one migration into one dedicated tree", s.Migrations, s.Trees)
	}
	if got, actual := f.OwnerCount(5), scanCount(t, f, 5); got != 10 || actual != 10 {
		t.Fatalf("owner 5: count %d, %d keys scanned, want 10", got, actual)
	}
	if s.InitKeys != 3 || f.OwnerCount(6) != 3 {
		t.Fatalf("init keys %d, owner 6 count %d, want 3 and 3: only owner 6 is left in INIT", s.InitKeys, f.OwnerCount(6))
	}
	// The next run lands in the dedicated tree and leaves INIT's count alone.
	if err := f.Apply([]Write{put("k00"), put("k20"), del("k15")}, nil); err != nil {
		t.Fatal(err)
	}
	if got, actual, init := f.OwnerCount(5), scanCount(t, f, 5), f.Stats().InitKeys; got != 10 || actual != 10 || init != 3 {
		t.Fatalf("after a run into the dedicated tree: count %d, %d keys scanned, init keys %d, want 10, 10, 3", got, actual, init)
	}
}

func TestForestRegisterMetrics(t *testing.T) {
	f, _ := newTestForest(t, Config{SplitThreshold: 3})
	r := metrics.NewRegistry()
	f.RegisterMetrics(r)
	for i := 0; i < 5; i++ {
		if err := f.Put(1, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	if v := snap["forest.migrations"]; v.Value != 1 {
		t.Fatalf("forest.migrations = %+v, want 1", v)
	}
	if v := snap["forest.trees"]; v.Value != 2 {
		t.Fatalf("forest.trees = %+v, want 2 (INIT + dedicated)", v)
	}
	if v := snap["forest.owners"]; v.Value != 1 {
		t.Fatalf("forest.owners = %+v, want 1", v)
	}
	if v := snap["forest.init_keys"]; v.Value != 0 {
		t.Fatalf("forest.init_keys = %+v, want 0 after migration", v)
	}
}

// Guard against regressions in the underlying tree existence plumbing used
// by the accounting: mixed cache configurations.
func TestForestAccountingNoCache(t *testing.T) {
	st := newTestStoreForCfg(t)
	m := bwtree.NewMapping(0, true)
	f, err := New(m, st, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Put(1, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.OwnerCount(1); got != 1 {
		t.Fatalf("owner count = %d, want 1 (no-cache upserts)", got)
	}
}

func newTestStoreForCfg(t *testing.T) *storage.Store {
	t.Helper()
	return storage.Open(&storage.Options{ExtentSize: 1 << 16})
}
