package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestOnReleaseOrderedBeforeAck drives a committer with many concurrent
// writers and asserts the OnRelease hook's contract: it fires
// with strictly increasing group-boundary LSNs, and by the time any
// writer's wait() returns, the hook has already covered that writer's LSN
// (the read epoch includes the writer's own commit).
func TestOnReleaseOrderedBeforeAck(t *testing.T) {
	st := storage.Open(&storage.Options{WriteLatency: time.Millisecond})
	defer st.Close()
	w := NewWriter(st)

	var epoch atomic.Uint64 // mirrors what mvcc.Source.Advance would hold
	var mu sync.Mutex
	var releases []LSN
	c := NewGroupCommitter(w, GroupCommitterOptions{
		MaxBatch: 8,
		OnRelease: func(last LSN) {
			mu.Lock()
			releases = append(releases, last)
			mu.Unlock()
			epoch.Store(uint64(last))
		},
	})
	defer c.Stop()

	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				rec := &Record{Type: RecordPut, Key: []byte{byte(i), byte(j)}, Value: []byte("v")}
				lsn, wait := c.LogAsync(rec)
				if err := wait(); err != nil {
					errs <- err
					return
				}
				if got := epoch.Load(); got < uint64(lsn) {
					t.Errorf("ack released at lsn %d before OnRelease covered it (epoch %d)", lsn, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("commit failed: %v", err)
	default:
	}

	mu.Lock()
	defer mu.Unlock()
	if len(releases) == 0 {
		t.Fatal("OnRelease never fired")
	}
	for i := 1; i < len(releases); i++ {
		if releases[i] <= releases[i-1] {
			t.Fatalf("OnRelease LSNs not strictly increasing: %d then %d", releases[i-1], releases[i])
		}
	}
	if last := releases[len(releases)-1]; last != c.LastLSN() {
		t.Fatalf("final released LSN %d != last assigned LSN %d", last, c.LastLSN())
	}
}
