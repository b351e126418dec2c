package forest

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
)

// TestStressForestOwnersReadersGC runs one writer per owner (so hot owners
// migrate out of INIT mid-run), concurrent readers asserting owner
// isolation, and a GC goroutine relocating sealed extents. Run with -race.
func TestStressForestOwnersReadersGC(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 11})
	m := bwtree.NewMapping(0, false)
	f, err := New(m, st, Config{
		SplitThreshold: 40, // half the owners cross it and migrate mid-run
		Tree:           bwtree.Config{MaxPageEntries: 16, ConsolidateNum: 4},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const (
		owners  = 8
		readers = 4
	)
	// Odd owners are hot (cross the split threshold), even owners stay in
	// INIT: the run exercises reads racing both tree kinds and migration.
	opsFor := func(o int) int {
		if o%2 == 1 {
			return 400
		}
		return 60
	}

	models := make([]map[string]string, owners)
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			owner := OwnerID(o + 1)
			rng := rand.New(rand.NewSource(int64(o + 1)))
			model := map[string]string{}
			for i := 0; i < opsFor(o); i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(50))
				if rng.Intn(5) == 0 {
					if err := f.Delete(owner, []byte(k)); err != nil {
						t.Errorf("owner %d delete: %v", owner, err)
						return
					}
					delete(model, k)
				} else {
					v := fmt.Sprintf("o%d.%d", owner, i)
					if err := f.Put(owner, []byte(k), []byte(v)); err != nil {
						t.Errorf("owner %d put: %v", owner, err)
						return
					}
					model[k] = v
				}
			}
			models[o] = model
		}(o)
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
				owner := OwnerID(rng.Intn(owners) + 1)
				prefix := fmt.Sprintf("o%d.", owner)
				k := fmt.Sprintf("k%02d", rng.Intn(50))
				v, ok, err := f.Get(owner, []byte(k))
				if err != nil {
					t.Errorf("reader get owner %d: %v", owner, err)
					return
				}
				if ok && !strings.HasPrefix(string(v), prefix) {
					t.Errorf("owner %d read value %q from another owner", owner, v)
					return
				}
				if rng.Intn(8) == 0 {
					if err := f.Scan(owner, nil, nil, 0, func(k, v []byte) bool {
						if !strings.HasPrefix(string(v), prefix) {
							t.Errorf("owner %d scan leaked %q", owner, v)
							return false
						}
						return true
					}); err != nil {
						t.Errorf("reader scan owner %d: %v", owner, err)
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
						_, err := st.Reclaim(sid, u.Extent, m.Relocate)
						if err == storage.ErrReclaimed {
							// Its last record died after the pick, which
							// retired it, as gc.Reclaimer.RunOnce expects.
							err = nil
							for _, v := range st.Usage(sid) {
								if v.Extent == u.Extent {
									err = fmt.Errorf("%w, yet still in usage", storage.ErrReclaimed)
								}
							}
						}
						if err != nil {
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

	// Hot owners must have migrated out of INIT during the run.
	if s := f.Stats(); s.Migrations == 0 {
		t.Error("no owner migrated despite hot writers crossing the threshold")
	}
	// Quiescent verification against the per-owner models.
	for o, model := range models {
		owner := OwnerID(o + 1)
		got := map[string]string{}
		if err := f.Scan(owner, nil, nil, 0, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(model) {
			t.Fatalf("owner %d has %d keys, model says %d", owner, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("owner %d key %s = %q, want %q", owner, k, got[k], v)
			}
		}
	}
}
