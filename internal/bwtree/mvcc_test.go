package bwtree

import (
	"fmt"
	"sync"
	"testing"

	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// stubAsyncLogger hands out LSNs immediately and "commits" when the wait
// runs, advancing the epoch clock the way the RW node's group committer
// does at ack release. Single-threaded tests call writes in order, so
// advances are in order too.
type stubAsyncLogger struct {
	mu  sync.Mutex
	lsn wal.LSN
	src *mvcc.Source
}

func (l *stubAsyncLogger) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	l.mu.Lock()
	l.lsn++
	lsn := l.lsn
	l.mu.Unlock()
	return lsn, func() error {
		if l.src != nil {
			l.src.Advance(mvcc.Epoch(lsn))
		}
		return nil
	}
}

// newEpochTree builds an async-flushed tree wired to a fresh epoch clock.
func newEpochTree(t *testing.T, cfg Config) (*Tree, *mvcc.Source, *storage.Store) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(cfg.CacheCapacity, false)
	src := mvcc.NewSource(0)
	cfg.Epochs = src
	tr, err := New(m, st, cfg, &stubAsyncLogger{src: src})
	if err != nil {
		t.Fatal(err)
	}
	return tr, src, st
}

func collectAt(t *testing.T, tr *Tree, h wal.LSN) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if err := tr.ScanAt(nil, nil, 0, h, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEpochsRequireAsyncFlush(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(0, false)
	_, err := New(m, st, Config{Epochs: mvcc.NewSource(0)}, nil)
	if err == nil {
		t.Fatal("sync tree with an epoch clock should be rejected")
	}
}

func TestFlushRetainsPinnedHistory(t *testing.T) {
	tr, src, _ := newEpochTree(t, Config{ConsolidateNum: 4, DisableSplit: true})
	for i := 0; i < 5; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	p := src.Pin()
	h := wal.LSN(p.Epoch())
	for i := 0; i < 15; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i+5)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	// Consolidating flush under the pin: ops above the floor must stay on
	// the delta chain.
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if rb := tr.m.RetainedBytes(h); rb == 0 {
		t.Fatal("no retained delta bytes after a pinned consolidation")
	}
	got := collectAt(t, tr, h)
	if len(got) != 5 {
		t.Fatalf("pinned view has %d keys after flush, want 5: %v", len(got), got)
	}
	for i := 0; i < 5; i++ {
		if got[fmt.Sprintf("k%02d", i)] != "old" {
			t.Fatalf("pinned view lost k%02d: %v", i, got)
		}
	}
	if n, err := tr.Len(); err != nil || n != 20 {
		t.Fatalf("head Len = %d %v, want 20", n, err)
	}

	// Release the pin: the next consolidating flush folds everything.
	p.Close()
	if err := tr.Put([]byte("k99"), []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if rb := tr.m.RetainedBytes(h); rb != 0 {
		t.Fatalf("retained bytes = %d after the pin closed and a fold ran", rb)
	}
	if n, _ := tr.Len(); n != 21 {
		t.Fatalf("Len = %d after fold, want 21", n)
	}
}

// TestStressLenUnderSplits races Len against concurrent writers. Len pins
// an epoch, so keys relocating rightward mid-walk can be neither skipped
// nor double-counted: successive calls are monotone and the final count is
// exact. (Runs under -race in CI's stress step.)
func TestStressLenUnderSplits(t *testing.T) {
	tr, _, _ := newEpochTree(t, Config{MaxPageEntries: 8, MaxInnerEntries: 4, ConsolidateNum: 4})
	const writers, perWriter = 4, 120
	var writerWG, lenWG sync.WaitGroup
	stop := make(chan struct{})
	var lenErr error
	var lenMu sync.Mutex
	lenWG.Add(1)
	go func() {
		defer lenWG.Done()
		prev := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := tr.Len()
			if err != nil {
				lenMu.Lock()
				lenErr = err
				lenMu.Unlock()
				return
			}
			if n < prev || n > writers*perWriter {
				lenMu.Lock()
				lenErr = fmt.Errorf("Len = %d (prev %d, max %d)", n, prev, writers*perWriter)
				lenMu.Unlock()
				return
			}
			prev = n
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 0 {
					if _, err := tr.FlushDirty(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	lenWG.Wait()
	lenMu.Lock()
	defer lenMu.Unlock()
	if lenErr != nil {
		t.Fatal(lenErr)
	}
	if n, _ := tr.Len(); n != writers*perWriter {
		t.Fatalf("final Len = %d, want %d", n, writers*perWriter)
	}
}
