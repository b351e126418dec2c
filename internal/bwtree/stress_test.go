package bwtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/mvcc"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestStressParallelReadersWritersGC hammers one tree with concurrent
// writers (disjoint key ranges), readers (point gets and scans), and a GC
// goroutine relocating sealed extents underneath them. Run with -race; the
// store has no log, so a reclaimed extent is released at once, under readers
// still holding its locations.
func TestStressParallelReadersWritersGC(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	st := storage.Open(&storage.Options{ExtentSize: 1 << 10})
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
	tr, err := New(m, st, Config{MaxPageEntries: 16}, &stubAsyncLogger{})
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
			if _, err := tr.FlushDirty(nil); err != nil {
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
	if _, err := tr.FlushDirty(nil); err != nil {
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

// TestStressLatestBlockReadsDoNotFallBack: latest (h = ∞) scans of a
// block-served tree racing writers fall back to the leaves only where the
// writers are. The writers append past the preloaded keys, so every chunk but
// the last stays clean and serves each scan, and what a scan walks instead is
// the leaves written since the build: the last one and those split off it. A
// scan that met a writer used to walk every leaf of the tree instead — under a
// bounded cache a storm of cold reads that evicted everything else. The scans
// must still see every write acknowledged before they began: each writer
// writes its own keys in order and publishes the index of its last
// acknowledged one, so a scan has to deliver a gapless prefix of each
// writer's keys reaching at least the index it read first.
func TestStressLatestBlockReadsDoNotFallBack(t *testing.T) {
	const (
		preload = 4000 // 16-entry pages: ~400 leaves behind a 16-page cache
		writers = 3
		perW    = 400
	)
	for _, mode := range []string{"sync", "epochs"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{CacheCapacity: 16, MaxPageEntries: 16, EdgeBlockMinEntries: 64}
			var tr *Tree
			var st *storage.Store
			if mode == "epochs" {
				tr, _, st = newEpochTree(t, cfg)
			} else {
				tr, st = newTestTree(t, cfg)
			}
			for i := 0; i < preload; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.FlushDirty(nil); err != nil { // clean pages are evictable: the cache bound holds
				t.Fatal(err)
			}
			if _, err := tr.BuildEdgeBlock(); err != nil {
				t.Fatal(err)
			}
			leaves := int64(len(tr.LeafDirectory()))
			before, reads := tr.m.BlockStatsSnapshot(), st.Stats().ReadOps

			var acked [writers]atomic.Int64
			var scans atomic.Int64
			var wg, bg sync.WaitGroup
			for w := range acked {
				acked[w].Store(-1)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						if err := tr.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), []byte("v")); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						acked[w].Store(int64(i))
					}
					// The scanners stop with the writers: wait for one scan to
					// end first, however long a scan takes beside the writes.
					for scans.Load() == 0 && !t.Failed() {
						runtime.Gosched()
					}
				}(w)
			}
			stop := make(chan struct{})
			if mode == "epochs" {
				bg.Add(1)
				go func() { // the flusher keeps pages clean, so the cache stays bounded
					defer bg.Done()
					for {
						select {
						case <-stop:
							return
						case <-time.After(200 * time.Microsecond):
						}
						if _, err := tr.FlushDirty(nil); err != nil {
							t.Errorf("flush: %v", err)
							return
						}
					}
				}()
			}
			for r := 0; r < 2; r++ {
				bg.Add(1)
				go func() {
					defer bg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var owed, next [writers]int64
						for w := range acked {
							owed[w] = acked[w].Load()
						}
						base := 0
						if err := tr.Scan(nil, nil, 0, func(k, _ []byte) bool {
							if k[0] == 'k' {
								base++
								return true
							}
							w := int(k[1] - '0')
							if i, _ := strconv.ParseInt(string(k[3:]), 10, 64); i != next[w] {
								t.Errorf("scan delivered %s where writer %d's key %d was due", k, w, next[w])
								return false
							}
							next[w]++
							return true
						}); err != nil {
							t.Errorf("scan: %v", err)
							return
						}
						scans.Add(1)
						for w := range owed {
							if base != preload || next[w] <= owed[w] {
								t.Errorf("scan saw %d preloaded keys and %d of writer %d's, which had %d acknowledged before it began",
									base, next[w], w, owed[w]+1)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			bg.Wait()

			after, n := tr.m.BlockStatsSnapshot(), scans.Load()
			if n == 0 {
				t.Fatal("no scan ran beside the writers")
			}
			t.Logf("%d scans beside %d writes read storage %d times; the tree has %d leaves", n, writers*perW, st.Stats().ReadOps-reads, leaves)
			// The leaves written since the build at most, the most there were
			// at the end (a rebuild on the way only makes fewer stale).
			written := int64(len(tr.LeafDirectory())) - leaves + 1
			if after.Hits-before.Hits < n*(leaves-1) || after.Fallbacks-before.Fallbacks > n*written {
				t.Fatalf("%d latest scans: block fallbacks %d -> %d, hits %d -> %d; want at least %d hits and at most %d fallbacks a scan",
					n, before.Fallbacks, after.Fallbacks, before.Hits, after.Hits, leaves-1, written)
			}
		})
	}
}

// versionLog is a WAL logger that is also the version map of a concurrent
// test: every put and delete is recorded under the LSN it is assigned, in one
// critical section, so whoever reads an LSN — an epoch, or last — finds every
// version at or below it recorded. With a clock it commits like the RW node's
// committer (the epoch advances when the wait runs, after the op is in its
// leaf); without one it is the version map of a tree with no logger, noted by
// its one writer.
type versionLog struct {
	mu  sync.Mutex
	lsn wal.LSN
	ref refmodel.KV
	src *mvcc.Source
}

func (l *versionLog) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	lsn := l.note(rec.Key, rec.Value, rec.Type == wal.RecordDelete, rec.Type == wal.RecordPut || rec.Type == wal.RecordDelete)
	return lsn, func() error {
		if l.src != nil {
			l.src.Advance(mvcc.Epoch(lsn))
		}
		return nil
	}
}

// note numbers the next write and, for a put or delete, records its version.
// A tree with no logger has its one writer note each op before applying it.
func (l *versionLog) note(key, val []byte, del, data bool) wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lsn++
	if data {
		l.ref.Add(string(key), refmodel.Version{LSN: uint64(l.lsn), Value: string(val), Deleted: del})
	}
	return l.lsn
}

func (l *versionLog) last() wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// explain is the version map's refmodel.KV.Explain.
func (l *versionLog) explain(got map[string]string, from, to string, h0, h1 wal.LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ref.Explain(got, from, to, uint64(h0), uint64(h1))
}

// TestStressOverlayReadersRaceWriters: an overlay is read by reference, so
// the readers here hold on to what they took. Scanners stall inside their
// callback — on the first pair of a scan, until the writers have moved on —
// holding a leaf's aliased overlay or a block's chunk while writers put,
// delete and apply key-sorted runs into the same leaves, leaves split
// (halve), the flusher flips pending bits and consolidates, and the scans
// build the edge block mid-way and rebuild it as their walks of stale leaves
// add up, on an async tree (epoch clock, background flusher, three writers)
// and on a sync tree (one writer). A pinned scan — the async tree's every other one — must
// equal the version map at its epoch. A latest scan is not one instant, and
// owes its caller the writes finished before it began: every key it delivers
// or omits must be in the state some horizon gives it between the newest LSN
// below which every write had finished when it began and the newest assigned
// when it ended. Run with -race: a writer editing what a reader holds is a
// data race before it is a wrong answer.
func TestStressOverlayReadersRaceWriters(t *testing.T) {
	const keySpace, scanners = 600, 3
	perWriter := 1500
	if testing.Short() {
		perWriter = 500
	}
	for _, mode := range []struct {
		name    string
		async   bool
		writers int
	}{{"async", true, 3}, {"sync", false, 1}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{MaxPageEntries: 8, MaxInnerEntries: 8, ConsolidateNum: 6, EdgeBlockMinEntries: 200}
			vl := &versionLog{ref: refmodel.KV{}}
			var logger WALLogger
			if mode.async {
				vl.src = mvcc.NewSource(0)
				cfg.Epochs, logger = vl.src, vl
			}
			// Without a logger the one writer notes its ops itself.
			note := func(key, val []byte, del bool) {
				if logger == nil {
					vl.note(key, val, del, true)
				}
			}
			st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
			tr, err := New(NewMapping(0, false), st, cfg, logger)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
			for i := 0; i < keySpace; i += 6 { // a sixth of the keys: the rest arrive under the race, splitting leaves
				note(key(i), []byte("preload"), false)
				if err := tr.Put(key(i), []byte("preload")); err != nil {
					t.Fatal(err)
				}
			}

			// raced reports that readers and rebuilds have met the writers often
			// enough to mean something. Writers go on past their quota until they
			// have (bounded): how long a write takes is not the test's to assume.
			var scans atomic.Int64
			raced := func() bool {
				bs := tr.m.BlockStatsSnapshot()
				return scans.Load() >= 20 && bs.Builds >= 3 && bs.Hits > 0
			}

			// begun[w] is the newest LSN assigned when writer w began the op it is
			// in: its earlier ops, all stamped at or below it, have finished.
			var written atomic.Int64
			begun := make([]atomic.Uint64, mode.writers)
			finished := func() wal.LSN {
				f := uint64(math.MaxUint64)
				for w := range begun {
					f = min(f, begun[w].Load())
				}
				return wal.LSN(f)
			}
			stop := make(chan struct{})
			var wg, bg sync.WaitGroup
			for w := 0; w < mode.writers; w++ {
				begun[w].Store(uint64(vl.last()))
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer begun[w].Store(math.MaxUint64)
					rng := rand.New(rand.NewSource(int64(w + 1)))
					for i := 0; i < perWriter || (i < 40*perWriter && !raced()); i++ {
						begun[w].Store(uint64(vl.last()))
						written.Add(1)
						var err error
						switch r := rng.Intn(10); {
						case r < 2: // a key-sorted run into a few neighbouring leaves
							ws := make([]Write, 2+rng.Intn(12))
							lo := rng.Intn(keySpace - 24)
							for j := range ws {
								ws[j] = Write{Key: key(lo + rng.Intn(24)), Delete: rng.Intn(4) == 0}
								if !ws[j].Delete {
									ws[j].Value = []byte(fmt.Sprintf("w%d.%d.%d", w, i, j))
								}
							}
							sort.SliceStable(ws, func(a, b int) bool { return bytes.Compare(ws[a].Key, ws[b].Key) < 0 })
							for _, x := range ws {
								note(x.Key, x.Value, x.Delete)
							}
							_, err = tr.Apply(ws, nil)
						case r < 4:
							k := key(rng.Intn(keySpace))
							note(k, nil, true)
							err = tr.Delete(k)
						default:
							k, v := key(rng.Intn(keySpace)), []byte(fmt.Sprintf("w%d.%d", w, i))
							note(k, v, false)
							err = tr.Put(k, v)
						}
						if err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			if mode.async {
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
						runtime.Gosched()
					}
				}()
			}
			for r := 0; r < scanners; r++ {
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
						from, to := "", ""
						if rng.Intn(2) == 0 {
							lo := rng.Intn(keySpace)
							from, to = string(key(lo)), string(key(lo+1+rng.Intn(80)))
						}
						h, h0, h1 := horizonAll, finished(), wal.LSN(0)
						var pin *mvcc.Pin
						if mode.async && rng.Intn(2) == 0 {
							pin = vl.src.Pin()
							h = wal.LSN(pin.Epoch())
							h0, h1 = h, h
						}
						var bound []byte // nil: open
						if to != "" {
							bound = []byte(to)
						}
						got, seen := map[string]string{}, written.Load()
						err := tr.ScanAt([]byte(from), bound, 0, h, func(k, v []byte) bool {
							// Stall on what this scan holds until writers have run past it.
							for stalled := len(got) == 0; stalled && written.Load() < seen+4; {
								select {
								case <-stop:
									stalled = false
								default:
									runtime.Gosched()
								}
							}
							got[string(k)] = string(v)
							return true
						})
						if pin != nil {
							pin.Close()
						} else {
							h1 = vl.last()
						}
						if err == nil {
							err = vl.explain(got, from, to, h0, h1)
						}
						if err != nil {
							t.Errorf("scan [%s, %s) at %d: %v", from, to, h, err)
							return
						}
						scans.Add(1)
					}
				}(r)
			}
			wg.Wait()
			close(stop)
			bg.Wait()
			// Every chunk still clean reads as the version map: no write slipped
			// into a leaf without making its chunk stale.
			if err := blockGap(tr, vl.ref, []wal.LSN{horizonAll}); err != nil {
				t.Fatal(err)
			}
			bs, s := tr.m.BlockStatsSnapshot(), tr.Stats()
			t.Logf("%d scans, stats %+v, block %+v", scans.Load(), s, bs)
			if !raced() || s.Splits < 20 {
				t.Fatalf("the race never happened: %d scans, %d splits, block stats %+v", scans.Load(), s.Splits, bs)
			}
			if mode.async && s.Consolidations == 0 {
				t.Fatalf("the flusher never consolidated: %+v", s)
			}
		})
	}
}
