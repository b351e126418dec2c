package bwtree

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// durableRecords counts the leaves' durable records, one per base page and per
// delta record: what loading them costs a node that holds nothing (Fig. 9).
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
// far smaller than its range reads exactly the records a load of each leaf it
// crosses needs, once — under storage latency too, which is where a
// speculative second loader used to read each leaf again. Which records those
// are depends on what the node holds (Mapping.mirrorsChain), so the pin is
// stated per kind of node over one set of records, a third of whose leaves
// carry a delta record: a caching leader, whose overlays mirror the chains
// across eviction, reads one record per cold leaf, the base page (it read base
// + chain, 106 records over the full scan's 79 leaves, until the chain stopped
// being fetched only to be dropped undecoded); a cache-disabled node and an
// applier hold no mirror and read every durable record. It counts storage
// reads, not time.
func TestColdScanReadsEachRecordOnce(t *testing.T) {
	st := storage.Open(&storage.Options{ReadLatency: 200 * time.Microsecond})
	m := NewMapping(8, false)
	const keys = 16 * 40
	leader, leaves := leafTree(t, st, m, keys)
	if len(leaves) < 40 {
		t.Fatalf("fixture: %d leaves, want >= 40", len(leaves))
	}
	// Give every third leaf a delta record beside its base page.
	for i := 1; i < len(leaves); i += 3 {
		if err := leader.Put(leaves[i].lo, []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

	// The other two kinds of node open the same records from the leader's leaf
	// directory, the way a follower's bootstrap does, and only read.
	reopen := func(m *Mapping) *Tree {
		tr, err := Rebuild(m, st, leader.ID(), leader.LeafDirectory())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	roles := []struct {
		name  string
		tr    *Tree
		chain bool // a cold load reads the delta chain
	}{
		{"leader", leader, false},
		{"cache-disabled", reopen(NewMapping(0, true)), true},
		{"applier", reopen(newFollower(st, 8).m), true},
	}

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
			for _, role := range roles {
				t.Run(role.name, func(t *testing.T) {
					tr := role.tr
					evict(leavesOf(tr))
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
					reads, records := st.Stats().ReadOps-before, durableRecords(cold...)
					if records <= int64(len(cold)) {
						t.Fatalf("fixture: %d cold leaves hold %d durable records, want some delta records", len(cold), records)
					}
					wantReads := int64(len(cold)) // every leaf has a base page
					if role.chain {
						wantReads = records
					}
					if reads != wantReads {
						t.Fatalf("%d storage reads over %d cold leaves holding %d durable records, want %d",
							reads, len(cold), records, wantReads)
					}
				})
			}
		})
	}
}

// TestLeaderColdLoadReadsBaseOnly is Fig. 9's count on both kinds of node. A
// page with a 5-delta Traditional chain and a page with one merged
// Read-Optimized delta each cost a caching leader one storage read per cold
// Get — its overlay kept the delta ops across the eviction — and cost a
// cache-disabled node, which stands for one that holds nothing, 1+5 and 1+1;
// the value only the chain carries is returned either way.
func TestLeaderColdLoadReadsBaseOnly(t *testing.T) {
	for _, tc := range []struct {
		policy   DeltaPolicy
		noCache  bool
		deltas   int
		wantRead int64
	}{
		{Traditional, false, 5, 1},
		{Traditional, true, 5, 6},
		{ReadOptimized, false, 1, 1},
		{ReadOptimized, true, 1, 2},
	} {
		t.Run(fmt.Sprintf("%v/nocache=%v", tc.policy, tc.noCache), func(t *testing.T) {
			st := storage.Open(nil)
			m := NewMapping(0, tc.noCache)
			tr, err := New(m, st, Config{Policy: tc.policy, ConsolidateNum: 10}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The first write persists the fresh page as a base; five more are
			// five deltas, or one merged five times.
			for i := 0; i <= 5; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			e := m.get(tr.root)
			if e.baseLoc.IsZero() || len(e.deltaLocs) != tc.deltas {
				t.Fatalf("fixture: base %v, %d delta records, want a base and %d", e.baseLoc, len(e.deltaLocs), tc.deltas)
			}
			evict([]*pageEntry{e})
			before := st.Stats().ReadOps
			if v, ok, err := tr.Get([]byte("k5")); err != nil || !ok || string(v) != "v5" {
				t.Fatalf("Get(k5) = %q %v %v, want the value the chain carries", v, ok, err)
			}
			if reads := st.Stats().ReadOps - before; reads != tc.wantRead {
				t.Fatalf("a cold Get cost %d storage reads, want %d", reads, tc.wantRead)
			}
			if f := &m.fanout; f.Max() != tc.wantRead {
				t.Fatalf("bwtree.read_fanout max %d, want %d", f.Max(), tc.wantRead)
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

// mirrorFixture is a read-optimized leaf with a base record and one merged
// delta record carrying k1..k3, evicted.
func mirrorFixture(t *testing.T, st *storage.Store, m *Mapping) (*Tree, *pageEntry) {
	t.Helper()
	tr, err := New(m, st, Config{ConsolidateNum: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 3; i++ { // k0 is the fresh page's base
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	e := m.get(tr.root)
	if e.baseLoc.IsZero() || len(e.deltaLocs) != 1 || len(e.overlay) != 3 {
		t.Fatalf("fixture: base %v, %d delta records, %d overlay ops, want a base, 1 and 3", e.baseLoc, len(e.deltaLocs), len(e.overlay))
	}
	evict([]*pageEntry{e})
	return tr, e
}

// reopenLeader is a second leader over tr's durable records, the way a recovery
// gets one: an applier's table rebuilt from the leaf directory, handed the
// leader's role under cfg.
func reopenLeader(t *testing.T, st *storage.Store, tr *Tree, cfg Config) *Tree {
	t.Helper()
	m := NewApplierMapping(0)
	rebuilt, err := Rebuild(m, st, tr.ID(), tr.LeafDirectory())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.TakeOver(func(TreeID) Config { return cfg }, tr.logger); err != nil {
		t.Fatal(err)
	}
	return rebuilt
}

// TestEvictedPageWriteCarriesTheChain: the overlay is the chain's mirror
// across eviction and relocation — that is why a leader's load may skip the
// chain. A write to an evicted page whose delta record GC has moved meanwhile
// reads the base record and nothing of the delta stream, and the delta record
// it writes holds the old chain's ops plus its own.
func TestEvictedPageWriteCarriesTheChain(t *testing.T) {
	st := storage.Open(nil)
	m := NewMapping(0, false)
	tr, e := mirrorFixture(t, st, m)
	old := e.deltaLocs[0]
	if _, err := st.Reclaim(storage.StreamDelta, old.Extent, m.Relocate); err != nil {
		t.Fatal(err)
	}
	if e.deltaLocs[0] == old {
		t.Fatal("fixture: the delta record did not move")
	}
	before := st.Stats()
	if err := tr.Put([]byte("k4"), []byte("v4")); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if reads, bytes := after.ReadOps-before.ReadOps, after.BytesRead-before.BytesRead; reads != 1 || bytes != int64(e.baseLoc.Length) {
		t.Fatalf("the write read %d records, %d bytes; want the base record's %d bytes alone", reads, bytes, e.baseLoc.Length)
	}
	if len(e.deltaLocs) != 1 {
		t.Fatalf("%d delta records, want one merged", len(e.deltaLocs))
	}
	buf, err := st.Read(e.deltaLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	ops, err := decodeOps(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range ops {
		got = append(got, string(o.key)+"="+string(o.val))
	}
	if want := "[k1=v1 k2=v2 k3=v3 k4=v4]"; fmt.Sprint(got) != want {
		t.Fatalf("the new delta record holds %v, want %s", got, want)
	}
	if err := mirrorGap(st, e); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildRestoresMirror: a table rebuilt from a leaf directory holds no
// mirror until it is handed the leader's role — TakeOver reads the delta chains
// back into the overlays, durable, dirtying nothing — so the new leader's cold
// loads skip the chain from the first one on: a Get of a key only the chain
// holds costs the base read and finds it.
func TestRebuildRestoresMirror(t *testing.T) {
	st := storage.Open(nil)
	tr, _ := mirrorFixture(t, st, NewMapping(0, false))
	before := st.Stats().ReadOps
	rebuilt := reopenLeader(t, st, tr, tr.Config())
	if reads := st.Stats().ReadOps - before; reads != 1 {
		t.Fatalf("the hand-over cost %d storage reads, want the one delta record", reads)
	}
	m2 := rebuilt.m
	e := m2.get(rebuilt.root)
	if err := mirrorGap(st, e); err != nil || len(e.overlay) != 3 || e.dirty {
		t.Fatalf("overlay has %d ops (dirty=%v), want the chain's 3, clean: %v", len(e.overlay), e.dirty, err)
	}
	before = st.Stats().ReadOps
	if v, ok, err := rebuilt.Get([]byte("k2")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get(k2) = %q %v %v, want the value the chain carries", v, ok, err)
	}
	if reads := st.Stats().ReadOps - before; reads != 1 {
		t.Fatalf("a cold Get on the new leader cost %d storage reads, want 1", reads)
	}
	if id := m2.allocPageID(); id <= e.id {
		t.Fatalf("the new leader allocates page %d, at or below a page it holds (%d)", id, e.id)
	}
}
