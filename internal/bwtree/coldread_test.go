package bwtree

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// durableRecords is what loading the leaves costs: one storage read per base
// page and per delta record (Fig. 9).
func durableRecords(leaves ...*pageEntry) int64 {
	var n int64
	for _, e := range leaves {
		e.mu.Lock()
		if !e.baseLoc.IsZero() {
			n++
		}
		n += int64(len(e.deltaLocs))
		e.mu.Unlock()
	}
	return n
}

// TestColdScanReadsEachRecordOnce: a scan over cold leaves through a cache
// far smaller than its range reads every durable record of every leaf it
// crosses exactly once — under storage latency too, which is where a
// speculative second loader used to read each leaf again. It counts storage
// reads, not time.
func TestColdScanReadsEachRecordOnce(t *testing.T) {
	st := storage.Open(&storage.Options{ReadLatency: 200 * time.Microsecond})
	m := NewMapping(8, false)
	const keys = 16 * 40
	tr, leaves := leafTree(t, st, m, keys)
	if len(leaves) < 40 {
		t.Fatalf("fixture: %d leaves, want >= 40", len(leaves))
	}
	// Give every third leaf a delta record beside its base page.
	for i := 1; i < len(leaves); i += 3 {
		if err := tr.Put(leaves[i].lo, []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

	for _, tc := range []struct {
		name     string
		from, to int // key numbers; to < 0 is open
		limit    int
	}{
		{"full", 0, -1, 0},
		{"bound-ends-it", 100, 131, 1000},
		{"limit-ends-it", 200, 400, 29},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evict(leaves)
			var from, to []byte
			if tc.from > 0 {
				from = key(tc.from)
			}
			want := keys - tc.from
			if tc.to >= 0 {
				to, want = key(tc.to), tc.to-tc.from
			}
			if tc.limit > 0 && tc.limit < want {
				want = tc.limit
			}
			before := st.Stats().ReadOps
			crossed := make(map[*pageEntry]bool)
			got := 0
			err := tr.ScanAt(from, to, tc.limit, horizonAll, func(k, _ []byte) bool {
				if string(k) != string(key(tc.from+got)) {
					t.Fatalf("pair %d is %s, want %s", got, k, key(tc.from+got))
				}
				got++
				crossed[tr.route(k)] = true
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("delivered %d pairs, want %d", got, want)
			}
			if tc.limit > 0 && len(crossed) < 3 {
				t.Fatalf("fixture: the scan crossed %d leaves, want >= 3", len(crossed))
			}
			var cold []*pageEntry
			for e := range crossed {
				cold = append(cold, e)
			}
			if reads, records := st.Stats().ReadOps-before, durableRecords(cold...); reads != records {
				t.Fatalf("%d storage reads over %d cold leaves holding %d durable records", reads, len(cold), records)
			}
		})
	}
}

// TestConcurrentColdReadersLoadOnce: the page latch is the miss coalescing.
// Whoever latches a cold page first loads it under the latch; everyone who
// wanted it meanwhile — readers and a writer alike — queued on the latch and
// finds it resident. One load, one miss, the rest hits, whatever the timing.
func TestConcurrentColdReadersLoadOnce(t *testing.T) {
	st := storage.Open(&storage.Options{ReadLatency: time.Millisecond})
	m := NewMapping(0, false)
	tr, leaves := leafTree(t, st, m, 16*12)

	t.Run("gets", func(t *testing.T) {
		e := leaves[len(leaves)/2]
		var pairs [][2]string
		if err := tr.Scan(e.lo, e.hi, 0, func(k, v []byte) bool {
			pairs = append(pairs, [2]string{string(k), string(v)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		const readers = 8
		if len(pairs) < readers {
			t.Fatalf("fixture: the page holds %d keys, want >= %d", len(pairs), readers)
		}
		evict(leaves)
		reads0, hits0, misses0 := st.Stats().ReadOps, m.hits.Load(), m.misses.Load()
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(kv [2]string) {
				defer wg.Done()
				if v, ok, err := tr.Get([]byte(kv[0])); err != nil || !ok || string(v) != kv[1] {
					t.Errorf("get %s = %q %v %v, want %q", kv[0], v, ok, err, kv[1])
				}
			}(pairs[r])
		}
		wg.Wait()
		reads, hits, misses := st.Stats().ReadOps-reads0, m.hits.Load()-hits0, m.misses.Load()-misses0
		if want := durableRecords(e); reads != want || misses != 1 || hits != readers-1 {
			t.Fatalf("%d readers of one cold page: %d storage reads, %d misses, %d hits; want %d, 1, %d",
				readers, reads, misses, hits, want, readers-1)
		}
	})

	// A scan and a tracked write (PutEx has to resolve existence, and the
	// overlay does not mention the key, so it needs the image) meet on one
	// cold page, a different page each round so the overlay stays silent.
	t.Run("scan-and-write", func(t *testing.T) {
		evict(leaves)
		for round, e := range leaves[1:9] {
			want := durableRecords(e)
			reads0, misses0 := st.Stats().ReadOps, m.misses.Load()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				n := 0
				if err := tr.ScanAt(e.lo, e.hi, 0, horizonAll, func(_, _ []byte) bool { n++; return true }); err != nil || n == 0 {
					t.Errorf("round %d: scan delivered %d pairs: %v", round, n, err)
				}
			}()
			go func() {
				defer wg.Done()
				if existed, err := tr.PutEx(e.lo, []byte("rewritten")); err != nil || !existed {
					t.Errorf("round %d: PutEx = %v %v, want an overwrite", round, existed, err)
				}
			}()
			wg.Wait()
			if reads, misses := st.Stats().ReadOps-reads0, m.misses.Load()-misses0; reads != want || misses != 1 {
				t.Fatalf("round %d: a scan and a write on one cold page: %d storage reads, %d misses, want %d and 1",
					round, reads, misses, want)
			}
		}
	})
}
