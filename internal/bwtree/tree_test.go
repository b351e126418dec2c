package bwtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

func newTestTree(t *testing.T, cfg Config) (*Tree, *storage.Store) {
	t.Helper()
	return newTreeOn(t, NewMapping(cfg.CacheCapacity, false), cfg)
}

// newTreeOn is newTestTree registered in m; NewMapping(0, true) is a node
// with its cache disabled.
func newTreeOn(t *testing.T, m *Mapping, cfg Config) (*Tree, *storage.Store) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	tr, err := New(m, st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

func TestPutGet(t *testing.T) {
	for _, policy := range []DeltaPolicy{ReadOptimized, Traditional} {
		t.Run(policy.String(), func(t *testing.T) {
			tr, _ := newTestTree(t, Config{Policy: policy})
			if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := tr.Get([]byte("k1"))
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("get = %q %v %v", v, ok, err)
			}
			if _, ok, _ := tr.Get([]byte("missing")); ok {
				t.Fatal("found a missing key")
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	tr, _ := newTestTree(t, Config{})
	for i := 0; i < 5; i++ {
		if err := tr.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "v4" {
		t.Fatalf("get = %q %v, want v4", v, ok)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTestTree(t, Config{})
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	// Deleting an absent key is fine.
	if err := tr.Delete([]byte("never")); err != nil {
		t.Fatal(err)
	}
}

func TestManyKeysWithSplits(t *testing.T) {
	for _, policy := range []DeltaPolicy{ReadOptimized, Traditional} {
		t.Run(policy.String(), func(t *testing.T) {
			tr, _ := newTestTree(t, Config{Policy: policy, MaxPageEntries: 16, MaxInnerEntries: 4})
			const n = 2000
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("key-%06d", i))
				if err := tr.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Stats().Splits == 0 {
				t.Fatal("expected splits")
			}
			if tr.Height() < 3 {
				t.Fatalf("height = %d, want >= 3 with tiny fanout", tr.Height())
			}
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("key-%06d", i))
				v, ok, err := tr.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || string(v) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("key %s = %q %v", key, v, ok)
				}
			}
			if n2, _ := tr.Len(); n2 != n {
				t.Fatalf("len = %d, want %d", n2, n)
			}
		})
	}
}

func TestRandomOrderInsertion(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8})
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(1000)
	for _, i := range perm {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Scan must return sorted order.
	var prev []byte
	err := tr.Scan(nil, nil, 0, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violation: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Len(); n != 1000 {
		t.Fatalf("len = %d, want 1000", n)
	}
}

func TestScanRangeAndLimit(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8})
	for i := 0; i < 100; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Scan([]byte("k010"), []byte("k020"), 0, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan = %v", got)
	}
	got = got[:0]
	if err := tr.Scan(nil, nil, 7, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("limit scan returned %d", len(got))
	}
	// Early termination by callback.
	count := 0
	if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("callback stop at %d, want 3", count)
	}
}

// TestDeltaChainShape verifies the core Fig. 4 distinction: the traditional
// policy accumulates one durable delta per update while the read-optimized
// policy keeps at most one.
func TestDeltaChainShape(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }

	tradTree, _ := newTestTree(t, Config{Policy: Traditional, ConsolidateNum: 10, DisableSplit: true})
	roTree, _ := newTestTree(t, Config{Policy: ReadOptimized, ConsolidateNum: 10, DisableSplit: true})

	for _, tr := range []*Tree{tradTree, roTree} {
		// First put creates the base page; the next 5 create deltas.
		for i := 0; i < 6; i++ {
			if err := tr.Put(key(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	tradLeaf := tradTree.m.get(tradTree.root)
	roLeaf := roTree.m.get(roTree.root)
	if got := len(tradLeaf.deltaLocs); got != 5 {
		t.Fatalf("traditional delta chain = %d, want 5", got)
	}
	if got := len(roLeaf.deltaLocs); got != 1 {
		t.Fatalf("read-optimized delta count = %d, want 1", got)
	}
	if got := len(roLeaf.overlay); got != 5 {
		t.Fatalf("read-optimized merged ops = %d, want 5", got)
	}
}

// TestReadAmplification measures storage reads per Get with a disabled
// cache — the Fig. 9 experiment in miniature.
func TestReadAmplification(t *testing.T) {
	run := func(policy DeltaPolicy) float64 {
		st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
		m := NewMapping(0, true) // cache disabled
		tr, err := New(m, st, Config{Policy: policy, ConsolidateNum: 10, DisableSplit: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Base + 5 deltas on one page.
		for i := 0; i < 6; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		st.ResetIOStats()
		const gets = 10
		for i := 0; i < gets; i++ {
			if _, _, err := tr.Get([]byte("k00")); err != nil {
				t.Fatal(err)
			}
		}
		return float64(st.Stats().ReadOps) / gets
	}
	trad := run(Traditional)
	ro := run(ReadOptimized)
	if trad != 6 { // 1 base + 5 deltas
		t.Fatalf("traditional read amp = %.1f, want 6", trad)
	}
	if ro != 2 { // 1 base + 1 merged delta
		t.Fatalf("read-optimized read amp = %.1f, want 2", ro)
	}
}

// TestWriteBandwidth verifies the Fig. 10 trade-off: the read-optimized
// policy writes more delta bytes (it rewrites the merged history).
func TestWriteBandwidth(t *testing.T) {
	run := func(policy DeltaPolicy) int64 {
		st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
		m := NewMapping(0, false)
		tr, err := New(m, st, Config{Policy: policy, ConsolidateNum: 10, DisableSplit: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("v"), 16)); err != nil {
				t.Fatal(err)
			}
		}
		return st.Stats().BytesWritten
	}
	trad := run(Traditional)
	ro := run(ReadOptimized)
	if ro <= trad {
		t.Fatalf("read-optimized bytes (%d) should exceed traditional (%d)", ro, trad)
	}
}

func TestConsolidation(t *testing.T) {
	tr, st := newTestTree(t, Config{Policy: ReadOptimized, ConsolidateNum: 5, DisableSplit: true})
	// 1 base write + 5 delta updates + the 6th triggers consolidation.
	for i := 0; i < 7; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Stats().Consolidations; got != 1 {
		t.Fatalf("consolidations = %d, want 1", got)
	}
	leaf := tr.m.get(tr.root)
	if len(leaf.overlay) != 0 {
		t.Fatalf("delta ops after consolidation = %d, want 0", len(leaf.overlay))
	}
	// All 7 keys remain readable.
	for i := 0; i < 7; i++ {
		if _, ok, _ := tr.Get([]byte(fmt.Sprintf("k%02d", i))); !ok {
			t.Fatalf("key %d lost after consolidation", i)
		}
	}
	// Old base and deltas were invalidated: some extents carry garbage.
	var invalid int
	for _, id := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
		for _, u := range st.Usage(id) {
			invalid += u.InvalidRecords
		}
	}
	if invalid == 0 {
		t.Fatal("consolidation should invalidate superseded records")
	}
}

func TestCacheEviction(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(2, false) // at most 2 resident leaves
	tr, err := New(m, st, Config{MaxPageEntries: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// More leaves than capacity: some must be evicted.
	resident := 0
	m.mu.RLock()
	for _, e := range m.pages {
		if e.isLeaf && e.base != nil {
			resident++
		}
	}
	m.mu.RUnlock()
	if resident > 2 {
		t.Fatalf("resident leaves = %d, want <= 2", resident)
	}
	// Everything still readable (from storage).
	for i := 0; i < 64; i++ {
		if _, ok, _ := tr.Get([]byte(fmt.Sprintf("k%03d", i))); !ok {
			t.Fatalf("key %d unreadable after eviction", i)
		}
	}
	hits, misses := m.hits.Load(), m.misses.Load()
	if misses == 0 {
		t.Fatalf("expected cache misses, got hits=%d misses=%d", hits, misses)
	}
}

// TestCacheEvictsLeastRecentlyUsedLeaf: the cache is one LRU. Eight clean
// leaves fill a cache of 8, read in order; a read of the oldest makes the
// second the least recently used, and loading a ninth leaf evicts exactly
// that one, wherever in the cache it sits.
func TestCacheEvictsLeastRecentlyUsedLeaf(t *testing.T) {
	m := NewMapping(8, false)
	tr, _ := newTreeOn(t, m, Config{MaxPageEntries: 4})
	for i := 0; i < 64; i++ { // sync writes: every leaf is clean
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dir := tr.LeafDirectory()
	// Leaves 1..8 fill the cache, leaf 9 comes last. The pages are picked so
	// that a cache striped 4 ways by page ID, which evicts within the ninth
	// leaf's stripe, fails here: leaf 2, the victim, is on another stripe.
	var leaves []*pageEntry
	for _, i := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11} {
		leaves = append(leaves, m.get(dir[i].Page))
	}
	read := func(e *pageEntry) {
		t.Helper()
		if _, ok, err := tr.Get(e.lo); err != nil || !ok {
			t.Fatalf("get %q: %v %v", e.lo, ok, err)
		}
	}
	resident := func(e *pageEntry) bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.base != nil
	}
	for _, e := range leaves[:8] {
		read(e)
	}
	for i, e := range leaves[:8] {
		if !resident(e) {
			t.Fatalf("leaf %d of the 8 just read is not resident", i+1)
		}
	}
	read(leaves[0]) // the oldest becomes the most recent: leaf 2 is the LRU
	ev := m.evictions.Load()
	read(leaves[8])
	if got := m.evictions.Load() - ev; got != 1 {
		t.Fatalf("loading a ninth leaf into a full cache of 8 evicted %d leaves, want 1", got)
	}
	for i, e := range leaves {
		if want := i != 1; resident(e) != want {
			t.Fatalf("leaf %d resident = %v, want %v: the evicted leaf must be leaf 2, the least recently used", i+1, !want, want)
		}
	}
}

func TestNoCacheEveryReadHitsStorage(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(0, true)
	tr, err := New(m, st, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	st.ResetIOStats()
	for i := 0; i < 3; i++ {
		if _, ok, _ := tr.Get([]byte("k")); !ok {
			t.Fatal("key missing")
		}
	}
	if got := st.Stats().ReadOps; got != 3 {
		t.Fatalf("storage reads = %d, want 3 (one per get)", got)
	}
}

func TestConcurrentWriters(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 32})
	var wg sync.WaitGroup
	const workers, per = 8, 250
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := tr.Put(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := tr.Len(); n != workers*per {
		t.Fatalf("len = %d, want %d", n, workers*per)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i += 37 {
			key := []byte(fmt.Sprintf("w%d-k%04d", w, i))
			if _, ok, _ := tr.Get(key); !ok {
				t.Fatalf("missing %s", key)
			}
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 16})
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("base-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("base-%04d", rng.Intn(500)))
				if _, ok, err := tr.Get(k); err != nil || !ok {
					t.Errorf("get %s = %v %v", k, ok, err)
					return
				}
			}
		}(int64(r))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("new-%d-%04d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Wait for writers (the last 4 goroutines) by a separate group trick:
	// simplest is to sleep on a channel after writers complete.
	done := make(chan struct{})
	go func() {
		// writers are wg participants; poll until all new keys are in.
		for {
			n, _ := tr.Len()
			if n >= 500+4*200 {
				close(done)
				return
			}
		}
	}()
	<-done
	close(stop)
	wg.Wait()
}

func TestAsyncFlushCycle(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{MaxPageEntries: 8}, &stubAsyncLogger{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing persisted yet except inner images from splits.
	if tr.DirtyCount() == 0 {
		t.Fatal("expected dirty pages before flush")
	}
	updates, err := tr.FlushDirty(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("flush produced no mapping updates")
	}
	if tr.DirtyCount() != 0 {
		t.Fatalf("dirty pages after flush = %d", tr.DirtyCount())
	}
	for _, up := range updates {
		if up.Base.IsZero() {
			t.Fatalf("page %d flushed without a base location", up.Page)
		}
	}
	// Everything readable; now evict-proof: drop caches and re-read from
	// storage only.
	m.mu.RLock()
	for _, e := range m.pages {
		e.mu.Lock()
		if e.isLeaf && !e.dirty {
			e.base, e.live = nil, -1
		}
		e.mu.Unlock()
	}
	m.mu.RUnlock()
	for i := 0; i < 50; i++ {
		v, ok, err := tr.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("k%03d after flush+evict = %q %v %v", i, v, ok, err)
		}
	}
}

func TestAsyncRequiresCache(t *testing.T) {
	st := storage.Open(nil)
	m := NewMapping(0, true)
	if _, err := New(m, st, Config{}, &stubAsyncLogger{}); err == nil {
		t.Fatal("a logger + no-cache should be rejected")
	}
}

func TestGCRelocationKeepsTreeReadable(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 512})
	m := NewMapping(0, true) // no cache: reads always hit storage
	tr, err := New(m, st, Config{MaxPageEntries: 8, ConsolidateNum: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%04d", i%50)), []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Reclaim every sealed extent in both streams.
	for _, sid := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
		for _, u := range st.Usage(sid) {
			if u.Sealed {
				if _, err := st.Reclaim(sid, u.Extent, m.Relocate); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The tree must still be fully readable after mass relocation.
	for i := 0; i < 50; i++ {
		if _, ok, err := tr.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil || !ok {
			t.Fatalf("k%04d unreadable after GC: %v %v", i, ok, err)
		}
	}
}

func TestMemoryUsageGrowsWithTrees(t *testing.T) {
	st := storage.Open(nil)
	m := NewMapping(0, false)
	var trees []*Tree
	for i := 0; i < 10; i++ {
		tr, err := New(m, st, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	base := m.MemoryUsage()
	for _, tr := range trees {
		for i := 0; i < 20; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := m.MemoryUsage(); after <= base {
		t.Fatalf("memory usage %d -> %d, want growth", base, after)
	}
}

func TestHeightSingleLeaf(t *testing.T) {
	tr, _ := newTestTree(t, Config{})
	if h := tr.Height(); h != 1 {
		t.Fatalf("height = %d, want 1", h)
	}
}

// TestScanReentrantCallback locks in that Scan callbacks may re-enter the
// tree (graph traversals look up vertices while iterating adjacency).
func TestScanReentrantCallback(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8})
	for i := 0; i < 50; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := tr.Scan(nil, nil, 0, func(k, v []byte) bool {
		// Re-enter with a Get on an arbitrary key, including keys on the
		// same leaf currently being scanned.
		if _, ok, err := tr.Get([]byte("k000")); err != nil || !ok {
			t.Errorf("re-entrant get failed: %v %v", ok, err)
			return false
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("scanned %d entries, want 50", n)
	}
}

// TestConcurrentFlushersAndWriters hammers FlushDirty from several
// goroutines while writers run — the background flusher, manual
// checkpoints and snapshots all overlap in production.
func TestConcurrentFlushersAndWriters(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{MaxPageEntries: 16}, &stubAsyncLogger{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := tr.FlushDirty(nil); err != nil {
						t.Error(err)
						return
					}
					_ = tr.DirtyCount()
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Wait for writers (the last 4 added), then stop flushers.
	done := make(chan struct{})
	go func() {
		for {
			if n, _ := tr.Len(); n >= 4*400 {
				close(done)
				return
			}
		}
	}()
	<-done
	close(stop)
	wg.Wait()
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Len(); n != 1600 {
		t.Fatalf("len = %d", n)
	}
}

// TestCacheEvictionFullyPinned verifies the eviction sweep terminates and
// stays safe when the cache holds more pinned (dirty) pages than its
// capacity allows — a fully dirty async-mode cache must not spin or evict
// unflushed content.
func TestCacheEvictionFullyPinned(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(2, false) // capacity far below the dirty page count
	tr, err := New(m, st, Config{MaxPageEntries: 4}, &stubAsyncLogger{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ { // many dirty pages, none flushable
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// All data must still be readable (dirty content was never evicted).
	for i := 0; i < 64; i++ {
		if _, ok, err := tr.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil || !ok {
			t.Fatalf("k%03d = %v %v", i, ok, err)
		}
	}
	// After a flush, eviction can finally make progress.
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("post"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Len(); n != 65 {
		t.Fatalf("len = %d", n)
	}
}

func TestPutExDeleteExExistence(t *testing.T) {
	configs := map[string]struct {
		cfg      Config
		disabled bool // the mapping's cache
	}{
		"read-optimized":  {Config{Policy: ReadOptimized}, false},
		"traditional":     {Config{Policy: Traditional}, false},
		"no-cache":        {Config{Policy: ReadOptimized}, true},
		"tiny-cache":      {Config{Policy: Traditional, CacheCapacity: 1}, false},
		"low-consolidate": {Config{Policy: Traditional, ConsolidateNum: 2}, false},
	}
	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			tr, _ := newTreeOn(t, NewMapping(c.cfg.CacheCapacity, c.disabled), c.cfg)
			if existed, err := tr.PutEx([]byte("k"), []byte("v1")); err != nil || existed {
				t.Fatalf("first put: existed=%v err=%v, want false nil", existed, err)
			}
			if existed, err := tr.PutEx([]byte("k"), []byte("v2")); err != nil || !existed {
				t.Fatalf("upsert: existed=%v err=%v, want true nil", existed, err)
			}
			if existed, err := tr.DeleteEx([]byte("k")); err != nil || !existed {
				t.Fatalf("delete present: existed=%v err=%v, want true nil", existed, err)
			}
			if existed, err := tr.DeleteEx([]byte("k")); err != nil || existed {
				t.Fatalf("delete absent: existed=%v err=%v, want false nil", existed, err)
			}
			if existed, err := tr.PutEx([]byte("k"), []byte("v3")); err != nil || existed {
				t.Fatalf("re-insert after delete: existed=%v err=%v, want false nil", existed, err)
			}
			v, ok, err := tr.Get([]byte("k"))
			if err != nil || !ok || string(v) != "v3" {
				t.Fatalf("get = %q %v %v", v, ok, err)
			}
		})
	}
}

func TestPutExManyKeysAcrossConsolidations(t *testing.T) {
	// Drive the page through delta appends and consolidations; existence
	// answers must stay correct in every state of the chain.
	tr, _ := newTreeOn(t, NewMapping(0, true), Config{Policy: Traditional, ConsolidateNum: 3})
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%10))
		wantExisted := i >= 10
		existed, err := tr.PutEx(key, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if existed != wantExisted {
			t.Fatalf("op %d: existed=%v, want %v", i, existed, wantExisted)
		}
	}
	if n, _ := tr.Len(); n != 10 {
		t.Fatalf("len = %d, want 10", n)
	}
}

func TestReadFanoutHistogram(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(0, true) // no cache: every Get pays the durable fan-out
	tr, err := New(m, st, Config{Policy: ReadOptimized}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, _, err := tr.Get([]byte(fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f := &m.fanout
	if f.Count() != 20 {
		t.Fatalf("fanout observations = %d, want 20", f.Count())
	}
	// Read-optimized policy: at most base + one merged delta = 2 reads.
	if mx := f.Max(); mx < 1 || mx > 2 {
		t.Fatalf("read-optimized fanout max = %d, want 1..2", mx)
	}

	// With the cache enabled, hits must observe zero fan-out.
	m2 := NewMapping(0, false)
	tr2, err := New(m2, st, Config{Policy: ReadOptimized}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Put([]byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr2.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if p50 := m2.fanout.Quantile(0.5); p50 != 0 {
		t.Fatalf("cached fanout p50 = %d, want 0", p50)
	}
}

// leafSizes returns every leaf's live-key count, left to right.
func leafSizes(t *testing.T, tr *Tree) []int {
	t.Helper()
	var sizes []int
	for _, lf := range tr.LeafDirectory() {
		e := tr.m.get(lf.Page)
		e.mu.Lock()
		base, _, err := tr.materialize(e, false)
		if err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
		sizes = append(sizes, e.countLive(base))
		e.mu.Unlock()
	}
	return sizes
}

// TestRunIntoOversizedLeafMakesProgress pins the two rules that keep a leaf
// run from spinning or from leaving an oversized leaf behind. A leaf already
// past MaxPageEntries (here: written under a larger limit; in production, a
// leaf whose split failed) still takes an op per run — a run that waited for
// room would never write it, and only a write gets it split. And a run stops
// the moment the leaf's live count passes the limit, whoever flushes the leaf
// and however short the delta chain, and the leaf is split before the next
// run is routed. So a batch of any size terminates, keeps per-op existence
// exact, and leaves every leaf within the limit, the one it found oversized
// included.
func TestRunIntoOversizedLeafMakesProgress(t *testing.T) {
	for flush, logger := range []WALLogger{nil, &stubAsyncLogger{}} { // flushed inline, then by the flusher
		t.Run(fmt.Sprint("flush=", flush), func(t *testing.T) {
			const limit = 8
			tr, err := New(NewMapping(0, false), storage.Open(&storage.Options{ExtentSize: 1 << 16}),
				Config{MaxPageEntries: 2 * limit, ConsolidateNum: 64}, logger)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < limit+3; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%03d", 10*i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			tr.cfg.MaxPageEntries = limit // the one leaf now holds limit+3
			if sizes := leafSizes(t, tr); len(sizes) != 1 || sizes[0] != limit+3 {
				t.Fatalf("fixture: leaves %v, want one of %d entries", sizes, limit+3)
			}

			ws := make([]Write, 200)
			for i := range ws {
				ws[i] = Write{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("w")}
			}
			if n, err := tr.Apply(ws, nil); err != nil || n != len(ws) {
				t.Fatalf("Apply = %d %v, want all %d applied", n, err, len(ws))
			}
			for i, w := range ws {
				if want := i%10 == 0 && i < 10*(limit+3); w.Existed != want {
					t.Fatalf("write %d: existed=%v, want %v", i, w.Existed, want)
				}
			}
			total := 0
			for _, n := range leafSizes(t, tr) {
				if n > limit {
					t.Fatalf("leaf sizes %v: a leaf holds more than %d entries", leafSizes(t, tr), limit)
				}
				total += n
			}
			if n, err := tr.Len(); err != nil || n != len(ws) || total != n {
				t.Fatalf("Len = %d %v, leaves hold %d, want %d", n, err, total, len(ws))
			}
			if runs := &tr.m.writeRunOps; runs.Max() > limit+1 || runs.Count() >= int64(len(ws)) {
				t.Fatalf("%d runs, longest %d: want runs of several ops, none past the split limit", runs.Count(), runs.Max())
			}
		})
	}
}

// gatedLogger is a WALLogger whose RecordSplit waits, once armed,
// announce themselves on started and block until release is closed — a group
// committer's commit round trip, held open.
type gatedLogger struct {
	stubAsyncLogger
	armed   atomic.Bool
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (l *gatedLogger) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	lsn, w := l.stubAsyncLogger.LogAsync(rec)
	if rec.Type != wal.RecordSplit || !l.armed.Load() {
		return lsn, w
	}
	return lsn, func() error {
		l.once.Do(func() { close(l.started) })
		<-l.release
		return w()
	}
}

// TestInnerRootSplitDoesNotWaitUnderStructMu: a split's one record, however
// far up the split reaches — here it grows a root above an inner node — gets
// its LSN under the structure lock and its durability wait after Apply has
// let go of that lock and the leaf latch, so a reader routes through the tree
// while the wait is still blocked on its commit round trip.
func TestInnerRootSplitDoesNotWaitUnderStructMu(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	logger := &gatedLogger{started: make(chan struct{}), release: make(chan struct{})}
	tr, err := New(NewMapping(0, false), st, Config{MaxPageEntries: 2, MaxInnerEntries: 4}, logger)
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) error { return tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")) }
	i := 0
	for ; tr.Height() < 2; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
	}
	logger.armed.Store(true) // from here on every split's wait blocks; the next root grows above an inner node
	done := make(chan error, 1)
	go func() {
		for ; tr.Height() < 3; i++ {
			if err := put(i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case <-logger.started:
	case err := <-done:
		t.Fatalf("the tree reached height %d without a RecordSplit wait (%v)", tr.Height(), err)
	}
	routed := make(chan error, 1)
	go func() {
		_, _, err := tr.Get([]byte("k0000"))
		routed <- err
	}()
	select {
	case err := <-routed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a Get is stuck behind a RecordSplit durability wait: the wait runs under structMu")
	}
	close(logger.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
}

// LeafDirectory returns every leaf of the tree in key order, as a checkpoint
// names it: page, low key (nil on the leftmost leaf) and durable records.
func (t *Tree) LeafDirectory() []MappingUpdate {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	id := t.root
	for e := t.m.get(id); e != nil && !e.isLeaf; e = t.m.get(id) {
		id = e.inner.children[0]
	}
	var out []MappingUpdate
	for e := t.m.get(id); e != nil; e = t.m.get(id) {
		e.mu.Lock()
		out = append(out, MappingUpdate{Tree: t.id, Page: e.id, Lo: slices.Clone(e.lo),
			Base: e.baseLoc, Deltas: slices.Clone(e.deltaLocs), Named: true})
		id = e.next
		e.mu.Unlock()
	}
	return out
}
