package bwtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestStressCache hammers the page cache's one LRU with concurrent
// point reads, writes, deletes, async flushes, LRU evictions (capacity far
// below the working set), and GC relocations. Run with -race. After the
// storm it verifies that no dirty page content was lost to eviction, that
// evictions actually happened, and — in a quiesced read-only phase — that
// every Get counts exactly one cache hit or miss.
func TestStressCache(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 12})
	m := NewMapping(32, false)
	tr, err := New(m, st, Config{MaxPageEntries: 8, ConsolidateNum: 4}, &stubAsyncLogger{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		readers  = 4
		opsPerW  = 500
		keysPerW = 80
	)
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-k%03d", w, i)) }

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Async flusher: dirty pages race evictions; eviction must skip them.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tr.FlushDirty(nil); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// GC: relocate sealed extents underneath the cache.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sid := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
				for _, u := range st.Usage(sid) {
					if u.Sealed {
						if _, err := st.Reclaim(sid, u.Extent, m.Relocate); err != nil {
							t.Errorf("reclaim %v/%d: %v", sid, u.Extent, err)
							return
						}
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: point gets and scans across every writer's range.
	for r := 0; r < readers; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(rng.Intn(writers), rng.Intn(keysPerW))
				if v, ok, err := tr.Get(k); err != nil {
					t.Errorf("reader get %s: %v", k, err)
					return
				} else if ok && len(v) == 0 {
					t.Errorf("reader got empty value for %s", k)
					return
				}
				if rng.Intn(16) == 0 {
					if err := tr.Scan(nil, nil, 64, func(k, v []byte) bool { return true }); err != nil {
						t.Errorf("reader scan: %v", err)
						return
					}
				}
			}
		}(r)
	}

	// Writers own disjoint key ranges so their local models are exact.
	models := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			model := map[string]string{}
			for i := 0; i < opsPerW; i++ {
				k := key(w, rng.Intn(keysPerW))
				if rng.Intn(5) == 0 {
					if err := tr.Delete(k); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
					delete(model, string(k))
				} else {
					v := fmt.Sprintf("w%d.%d", w, i)
					if err := tr.Put(k, []byte(v)); err != nil {
						t.Errorf("writer %d put: %v", w, err)
						return
					}
					model[string(k)] = v
				}
			}
			models[w] = model
		}(w)
	}

	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}

	// Drain async state, then check nothing dirty was lost to eviction.
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	if n := tr.DirtyCount(); n != 0 {
		t.Fatalf("dirty pages after final flush: %d", n)
	}
	want := 0
	for w, model := range models {
		want += len(model)
		for k, v := range model {
			got, ok, err := tr.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("writer %d key %s = %q %v %v, want %q", w, k, got, ok, err, v)
			}
		}
	}
	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("tree has %d keys, models say %d", n, want)
	}

	// Quiesced read-only phase: with no structural changes racing, every Get
	// is accounted exactly once as a hit or a miss.
	h0, ms0 := m.hits.Load(), m.misses.Load()
	const roReaders, roGets = 4, 300
	var ro sync.WaitGroup
	for r := 0; r < roReaders; r++ {
		ro.Add(1)
		go func(r int) {
			defer ro.Done()
			rng := rand.New(rand.NewSource(int64(900 + r)))
			for i := 0; i < roGets; i++ {
				k := key(rng.Intn(writers), rng.Intn(keysPerW))
				if _, _, err := tr.Get(k); err != nil {
					t.Errorf("quiesced get %s: %v", k, err)
					return
				}
			}
		}(r)
	}
	ro.Wait()
	if t.Failed() {
		return
	}
	h1, ms1 := m.hits.Load(), m.misses.Load()
	if got, wantGets := (h1+ms1)-(h0+ms0), int64(roReaders*roGets); got != wantGets {
		t.Fatalf("quiesced phase counted %d hits+misses for %d Gets", got, wantGets)
	}

	// Quiesced eviction phase. Whether the storm evicted depends on whether
	// the cache overflowed while it held a clean page; here it must. Fresh
	// keys split off 64 leaves, each noted in the cache, with a flush after
	// every write, so no more than the two halves of a split are ever pinned:
	// each sweep leaves the cache at its capacity of 32, so at least the
	// leaves installed beyond 32 were evicted.
	ev0, splits0 := m.evictions.Load(), tr.Stats().Splits
	for i := 0; tr.Stats().Splits-splits0 < 64; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("x-%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.FlushDirty(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, min := m.evictions.Load()-ev0, tr.Stats().Splits-splits0-32; got < min {
		t.Fatalf("installing %d leaves into a 32-page cache evicted %d pages, want >= %d", min+32, got, min)
	}
}
