package bwtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestStressParallelReadersWritersGC hammers one tree with concurrent
// writers (disjoint key ranges), readers (point gets and scans), and a GC
// goroutine relocating sealed extents underneath them. Run with -race; the
// grace period keeps superseded locations readable for in-flight readers.
func TestStressParallelReadersWritersGC(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 10, ReclaimGrace: time.Hour})
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{MaxPageEntries: 16, ConsolidateNum: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		readers  = 4
		opsPerW  = 600
		keysPerW = 80
	)
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-k%03d", w, i)) }

	// Each writer owns a disjoint key range, so its local model is exact.
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

	stop := make(chan struct{})
	var bg sync.WaitGroup
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
					// The batched multi-scan over every writer's range, racing
					// the splits and relocations: each scan's keys stay inside
					// its range and strictly ascend.
					scans := make([]RangeScan, writers)
					for w := range scans {
						scans[w] = RangeScan{Tree: tr, From: key(w, 0), To: key(w, keysPerW)}
					}
					last := make([]string, writers)
					if err := m.ScanManyAt(scans, 0, horizonAll, func(i int, k, _ []byte) bool {
						if s := string(k); s < string(scans[i].From) || s >= string(scans[i].To) || s <= last[i] {
							t.Errorf("multi-scan %d delivered %s after %q", i, k, last[i])
							return false
						}
						last[i] = string(k)
						return true
					}); err != nil {
						t.Errorf("reader multi-scan: %v", err)
						return
					}
				}
			}
		}(r)
	}
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

	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent verification: the tree matches the union of writer models.
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
}

// TestStressConcurrentFlushAsync exercises the async flusher racing live
// writes: dirty pages are flushed while new deltas land on them.
func TestStressConcurrentFlushAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 12})
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{FlushMode: FlushAsync, MaxPageEntries: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tr.FlushDirty(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const writers, per = 3, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", w, i%60))
				if err := tr.Put(k, []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if tr.DirtyCount() != 0 {
		t.Fatalf("dirty pages after final flush: %d", tr.DirtyCount())
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < 60; i++ {
			k := []byte(fmt.Sprintf("w%d-%03d", w, i))
			if _, ok, err := tr.Get(k); err != nil || !ok {
				t.Fatalf("%s missing after flush race (err=%v)", k, err)
			}
		}
	}
}
