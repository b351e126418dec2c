//go:build !race

package bwtree

import (
	"fmt"
	"runtime"
	"testing"

	"bg3/internal/storage"
)

// The allocation pins run without the race detector, whose instrumentation
// changes what escapes and how much an allocation costs (ci.yml's test job
// runs them; the race jobs compile this file out).

// allocTree builds one sync-flushed, read-optimized leaf of 128 entries —
// 10-byte keys, 24-byte values — under a 10-op delta record, and returns
// the tree, its page and the encoded sizes of the two durable records.
func allocTree(t *testing.T) (*Tree, *pageEntry, int) {
	t.Helper()
	st := storage.Open(nil)
	tr, err := New(NewMapping(0, false), st, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int, v string) {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("%-24s", v))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 128; i++ {
		put(i, "base")
	}
	e := tr.m.get(tr.LeafDirectory()[0].Page)
	for len(e.overlay) != 0 { // overwrite until a consolidation folds all 128 into the base
		put(0, "base")
	}
	for i := 0; i < 10; i++ {
		put(i*12, "delta")
	}
	if len(tr.LeafDirectory()) != 1 || e.base.count() != 128 {
		t.Fatalf("fixture: %d leaves, %d base entries", len(tr.LeafDirectory()), e.base.count())
	}
	return tr, e, int(e.baseLoc.Length + e.deltaLocs[0].Length)
}

// bytesPerRun reports the mean bytes one call of fn allocates.
func bytesPerRun(runs int, fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestColdScanAllocatesOnlyTheRecords: a cache-miss 12-entry scan out of a
// 128-entry page with a 10-op delta costs the two record buffers storage
// hands back plus a small constant (batch bookkeeping, the flight, the
// in-range overlay ops) — the page is read where it lies, not decoded into
// a []kv, re-merged and snapshotted (three page-sized copies, ~14 KiB here).
func TestColdScanAllocatesOnlyTheRecords(t *testing.T) {
	tr, e, records := allocTree(t)
	from, to := []byte("key-000040"), []byte("key-000052")
	n := 0
	got := bytesPerRun(200, func() {
		e.mu.Lock()
		e.base, e.live = nil, -1
		e.mu.Unlock()
		if err := tr.Scan(from, to, 0, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if n != 200*12 {
		t.Fatalf("scans delivered %d pairs, want %d", n, 200*12)
	}
	if budget := records + 2048; got > budget {
		t.Fatalf("cold 12-entry scan allocates %d B, want <= %d (records %d B + 2048)", got, budget, records)
	}
}

// TestHitScanAllocatesConstant: a cache-hit 100-entry scan allocates nothing
// that grows with the page or its overlay — the image is read where it lies
// and the overlay ops in range, here ten, are taken by reference (cut), not
// copied (640 B before, and a per-entry snapshot of the leaf, 4.8 KiB for 100
// entries, before that).
func TestHitScanAllocatesConstant(t *testing.T) {
	tr, _, _ := allocTree(t)
	from, to := []byte("key-000010"), []byte("key-000110")
	n := 0
	scan := func() {
		if err := tr.Scan(from, to, 0, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, scan); allocs > 1 {
		t.Fatalf("cache-hit 100-entry scan makes %.0f allocations, want <= 1", allocs)
	}
	if got := bytesPerRun(200, scan); got > 128 {
		t.Fatalf("cache-hit 100-entry scan allocates %d B, want <= 128", got)
	}
	if n == 0 || n%100 != 0 {
		t.Fatalf("scans delivered %d pairs, want a multiple of 100", n)
	}
}

// TestBlockScanAllocatesConstant: a full scan of a 2,000-entry edge block
// under a 200-op overlay — overwrites inside the image and inserts past its
// end — allocates O(1): the block is read where it lies by the merge the
// leaves use, under the overlay's run directory as it stands.
func TestBlockScanAllocatesConstant(t *testing.T) {
	tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64})
	put := func(i int, v string) {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		put(i, "packed")
	}
	mustBuildBlock(t, tr)
	for i := 0; i < 200; i++ {
		put(i*10+i%2*2000, "late") // even i overwrites a packed key, odd i lands past the image
	}
	if info, ok := tr.EdgeBlock(); !ok || info.Entries != 2000 || info.Overlay != 200 {
		t.Fatalf("fixture: block %+v ok=%v, want 2000 packed entries under 200 overlay ops", info, ok)
	}
	n := 0
	scan := func() {
		if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if n != 2100 {
		t.Fatalf("scan delivered %d pairs, want 2000 packed + 100 past the image", n)
	}
	if allocs := testing.AllocsPerRun(100, scan); allocs > 2 {
		t.Fatalf("block-served 2100-entry scan makes %.0f allocations, want <= 2", allocs)
	}
	if got := bytesPerRun(200, scan); got > 256 {
		t.Fatalf("block-served 2100-entry scan allocates %d B, want <= 256", got)
	}
	if hits := tr.m.BlockStatsSnapshot(); hits.Fallbacks != 0 || hits.Hits < 300 {
		t.Fatalf("scans were not served by the block: %+v", hits)
	}
}

// TestBlockWriteThenScanAllocatesBounded: one Put into a packed tree followed
// by one bounded scan of it costs the same under a 500-op overlay and under a
// 4,000-op one — the write copies the run it lands in (at most blockRunOps
// ops, 8 KiB) and the scan takes the run directory as it stands. Every write
// used to leave the next read a re-merge of the whole key-sorted overlay into
// a fresh slice: 64 B per overlay op, ~256 KiB per pair at 4,000 ops.
func TestBlockWriteThenScanAllocatesBounded(t *testing.T) {
	tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64, EdgeBlockRebuildOps: 1 << 20})
	put := func(i int, v string) {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		put(i, "packed")
	}
	mustBuildBlock(t, tr)
	late, delivered := 0, 0
	pair := func() {
		put(late*7919%4000, "late") // scattered: inside the image and past its end
		late++
		if err := tr.Scan(nil, nil, 16, func(k, v []byte) bool { delivered++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	var perPair [2]int
	for i, overlay := range []int{500, 4000} {
		for late < overlay {
			pair()
		}
		if info, ok := tr.EdgeBlock(); !ok || info.Entries != 2000 || info.Overlay != overlay {
			t.Fatalf("fixture: block %+v ok=%v, want 2000 packed entries under %d overlay ops", info, ok, overlay)
		}
		perPair[i] = bytesPerRun(200, pair)
	}
	if delivered != late*16 || tr.m.BlockStatsSnapshot().Fallbacks != 0 {
		t.Fatalf("%d scans delivered %d pairs (block stats %+v), want 16 each, all from the block", late, delivered, tr.m.BlockStatsSnapshot())
	}
	if small, large := perPair[0], perPair[1]; large > 16<<10 || small > 16<<10 || 2*large >= 3*small {
		t.Fatalf("a write and a limit-16 scan allocate %d B under a 500-op overlay and %d B under a 4,000-op one, want both <= 16 KiB and within 1.5x", small, large)
	}
}

// TestBatchLoadedImagesDoNotPinTheirGroup: a hop-wide ReadBatch returns the
// records of one extent group by group. Were a group one allocation handed
// out as sub-slices, each image the cache keeps would pin the whole group's
// buffer — 128 leaves of one extent loaded through an 8-page cache would
// leave all 128 images live instead of 8. Every record is its own
// allocation, so the live heap grows by about what the cache holds.
func TestBatchLoadedImagesDoNotPinTheirGroup(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 20})
	m := NewMapping(8, false)
	tr, leaves := leafTree(t, st, m, 128*12)
	if len(leaves) < 128 {
		t.Fatalf("fixture: %d leaves, want >= 128", len(leaves))
	}
	leaves = leaves[:128]
	var images int64
	for _, e := range leaves {
		if e.baseLoc.Extent != leaves[0].baseLoc.Extent {
			t.Fatalf("fixture: leaves span extents %d and %d", leaves[0].baseLoc.Extent, e.baseLoc.Extent)
		}
		images += int64(e.baseLoc.Length)
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	n := 0
	if err := m.ScanManyAt(oneScanPerLeaf(tr, leaves), 0, horizonAll, func(int, []byte, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	grew := liveHeap() - before
	resident := 0
	for _, e := range leaves {
		if e.base != nil {
			resident++
		}
	}
	if n == 0 || resident == 0 || resident > 8 {
		t.Fatalf("fixture: %d pairs delivered, %d of 128 leaves resident in an 8-page cache", n, resident)
	}
	if budget := images / 128 * 24; grew > budget {
		t.Fatalf("live heap grew %d B loading 128 leaves (%d B of images) into an 8-page cache, want <= %d (about 8 images, not 128)", grew, images, budget)
	}
}
