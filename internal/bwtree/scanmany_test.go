package bwtree

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bg3/internal/storage"
)

// leafTree builds a sync-flushed tree of 16-entry leaves over `keys`
// ascending keys with 100-byte values, evicts every leaf and returns the
// leaves in key order.
func leafTree(t *testing.T, st *storage.Store, m *Mapping, keys int) (*Tree, []*pageEntry) {
	t.Helper()
	tr, err := New(m, st, Config{MaxPageEntries: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("%-100d", i))); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leavesOf(tr)
	evict(leaves)
	return tr, leaves
}

// leavesOf returns the tree's leaves in key order.
func leavesOf(tr *Tree) []*pageEntry {
	var leaves []*pageEntry
	for _, lf := range tr.LeafDirectory() {
		leaves = append(leaves, tr.m.get(lf.Page))
	}
	return leaves
}

// evict drops the resident image of every leaf.
func evict(leaves []*pageEntry) {
	for _, e := range leaves {
		e.mu.Lock()
		e.base, e.live = nil, -1
		e.mu.Unlock()
	}
}

// oneScanPerLeaf returns a scan over each leaf's own key range.
func oneScanPerLeaf(tr *Tree, leaves []*pageEntry) []RangeScan {
	scans := make([]RangeScan, len(leaves))
	for i, e := range leaves {
		scans[i] = RangeScan{Tree: tr, From: e.lo, To: e.hi}
	}
	return scans
}

// TestScanManyAtRetriesOnlyReclaimedMembers: GC relocates and reclaims one
// extent between a hop batch's location snapshot and its read (an
// store without a log releases a reclaimed extent at once).
// Only the pages that sat in that extent are retried, one by one through
// the single-page path; the rest of the batch stands, every key is
// delivered exactly once, the caller sees no error, and a retried page is
// still the one cache lookup the round made of it.
func TestScanManyAtRetriesOnlyReclaimedMembers(t *testing.T) {
	// The read latency is the window the reclaim lands in: ReadBatch counts
	// the call, then waits this long before it touches an extent.
	st := storage.Open(&storage.Options{ExtentSize: 8 << 10, ReadLatency: 100 * time.Millisecond})
	m := NewMapping(0, false)
	const keys = 192
	tr, leaves := leafTree(t, st, m, keys)
	victim := leaves[len(leaves)/2].baseLoc.Extent
	inVictim := 0
	for _, e := range leaves {
		if e.baseLoc.Extent == victim {
			inVictim++
		}
	}
	if inVictim == 0 || inVictim == len(leaves) {
		t.Fatalf("fixture: %d of %d leaves in the victim extent", inVictim, len(leaves))
	}

	before := st.Stats()
	hits0, misses0 := m.hits.Load(), m.misses.Load()
	reclaimed := make(chan error, 1)
	go func() {
		for st.Stats().BatchReads == before.BatchReads {
			runtime.Gosched()
		}
		_, err := st.Reclaim(storage.StreamBase, victim, m.Relocate)
		reclaimed <- err
	}()
	seen := make(map[string]int)
	if err := m.ScanManyAt(oneScanPerLeaf(tr, leaves), 0, horizonAll, func(_ int, k, _ []byte) bool {
		seen[string(k)]++
		return true
	}); err != nil {
		t.Fatalf("a transient relocation reached the caller: %v", err)
	}
	if err := <-reclaimed; err != nil {
		t.Fatal(err)
	}
	if len(seen) != keys {
		t.Fatalf("delivered %d distinct keys, want %d", len(seen), keys)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %s delivered %d times", k, n)
		}
	}
	after := st.Stats()
	if got := after.BatchReads - before.BatchReads; got != int64(1+inVictim) {
		t.Fatalf("%d ReadBatch calls, want the hop's one plus one per page of the reclaimed extent (%d)", got, inVictim)
	}
	if after.ExtentsReclaimed-before.ExtentsReclaimed != 1 {
		t.Fatalf("extents reclaimed = %d, want 1", after.ExtentsReclaimed-before.ExtentsReclaimed)
	}
	if hits, misses := m.hits.Load(), m.misses.Load(); hits+misses-hits0-misses0 != int64(len(leaves)) {
		t.Fatalf("the round counted %d hits + %d misses over %d distinct leaves", hits-hits0, misses-misses0, len(leaves))
	}
}

// TestScanManyAtHoldsImagesPastEviction: with a cache far smaller than the
// hop, a leaf shared by scans at both ends of the frontier is evicted
// between them — the load holds its image, so the leaf is fetched once.
func TestScanManyAtHoldsImagesPastEviction(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 64 << 10})
	m := NewMapping(2, false)
	tr, leaves := leafTree(t, st, m, 16*40)
	scans := oneScanPerLeaf(tr, leaves)
	scans = append(scans, scans[0]) // the first leaf again, after every other install

	before := st.Stats()
	perScan := make([]int, len(scans))
	if err := m.ScanManyAt(scans, 0, horizonAll, func(i int, _, _ []byte) bool { perScan[i]++; return true }); err != nil {
		t.Fatal(err)
	}
	total, last := 0, len(scans)-1
	for _, n := range perScan[:last] {
		total += n
	}
	if total != 16*40 || perScan[0] == 0 || perScan[last] != perScan[0] {
		t.Fatalf("delivered %d pairs over the leaves (want %d), %d and %d over the shared one", total, 16*40, perScan[0], perScan[last])
	}
	after := st.Stats()
	if after.BatchReads-before.BatchReads != 1 {
		t.Fatalf("%d ReadBatch calls, want 1: an evicted leaf of the hop was read again", after.BatchReads-before.BatchReads)
	}
	if m.evictions.Load() == 0 {
		t.Fatal("fixture: nothing was evicted during the hop")
	}
}

// TestScanManyAtLoadsInChunksAndStopsEarly: a frontier of more distinct
// leaves than one load holds is served in ceil(n / maxBatchLeaves) storage
// rounds, and a callback that stops the multi-scan in the first load keeps
// the second from being issued.
func TestScanManyAtLoadsInChunksAndStopsEarly(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
	m := NewMapping(0, false)
	tr, leaves := leafTree(t, st, m, 16*(maxBatchLeaves+40))
	if len(leaves) <= maxBatchLeaves || len(leaves) > 2*maxBatchLeaves {
		t.Fatalf("fixture: %d leaves, want between one and two loads of %d", len(leaves), maxBatchLeaves)
	}
	scans := oneScanPerLeaf(tr, leaves)

	before := st.Stats()
	if err := m.ScanManyAt(scans, 0, horizonAll, func(int, []byte, []byte) bool { return false }); err != nil {
		t.Fatal(err)
	}
	stopped := st.Stats()
	if rounds, locs := stopped.BatchReads-before.BatchReads, stopped.BatchLocs-before.BatchLocs; rounds != 1 || locs > 2*maxBatchLeaves {
		t.Fatalf("a multi-scan stopped at its first pair issued %d loads of %d records, want one load of at most %d leaves", rounds, locs, maxBatchLeaves)
	}

	evict(leaves) // what the stopped run installed
	pairs := 0
	if err := m.ScanManyAt(scans, 0, horizonAll, func(int, []byte, []byte) bool { pairs++; return true }); err != nil {
		t.Fatal(err)
	}
	if rounds := st.Stats().BatchReads - stopped.BatchReads; rounds != 2 || pairs != 16*(maxBatchLeaves+40) {
		t.Fatalf("%d leaves: %d loads delivering %d pairs, want 2 loads and %d pairs", len(leaves), rounds, pairs, 16*(maxBatchLeaves+40))
	}
}
