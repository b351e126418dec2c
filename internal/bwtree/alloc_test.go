//go:build !race

package bwtree

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The allocation pins run without the race detector, whose instrumentation
// changes what escapes and how much an allocation costs (ci.yml's test job
// runs them; the race jobs compile this file out).

// allocTree builds one sync-flushed, read-optimized leaf of 128 entries —
// 10-byte keys, 24-byte values — under a 10-op delta record, and returns
// the tree and its page.
func allocTree(t *testing.T) (*Tree, *pageEntry) {
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
	return tr, e
}

// liveHeap reports the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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
// 128-entry page with a 10-op delta allocates a small constant (batch
// bookkeeping, the in-range overlay ops) and nothing page-sized: storage hands
// the base record back where it lies and the image is that record. Reads used
// to copy the record (records + 2048 B), and before that the page was decoded
// into a []kv, re-merged and snapshotted (three page-sized copies, ~14 KiB).
func TestColdScanAllocatesOnlyTheRecords(t *testing.T) {
	tr, e := allocTree(t)
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
	if budget := 2048; got > budget {
		t.Fatalf("cold 12-entry scan allocates %d B, want <= %d (a %d B base record is not copied)", got, budget, e.baseLoc.Length)
	}
}

// coldHop builds 128+ leaves of about 14 keys with valueLen-byte values, every
// record in one 4 MiB extent, under an unlimited cache, and returns a cold hop
// over the first 128: each call evicts them and runs one ScanManyAt with a
// scan per leaf, counting the pairs it delivers in *pairs.
func coldHop(t *testing.T, valueLen int) (hop func(), st *storage.Store, pairs *int) {
	t.Helper()
	st = storage.Open(&storage.Options{ExtentSize: 4 << 20})
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{MaxPageEntries: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128*16; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("%-*d", valueLen, i))); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leavesOf(tr)
	if len(leaves) < 128 {
		t.Fatalf("fixture: %d leaves, want >= 128", len(leaves))
	}
	leaves = leaves[:128]
	scans := oneScanPerLeaf(tr, leaves)
	pairs = new(int)
	return func() {
		evict(leaves)
		if err := m.ScanManyAt(scans, 0, horizonAll, func(int, []byte, []byte) bool { *pairs++; return true }); err != nil {
			t.Fatal(err)
		}
	}, st, pairs
}

// TestColdHopCopiesNoRecord: a ScanManyAt over 128 cold leaves allocates per
// leaf what its bookkeeping costs, whatever the leaves' records weigh: the
// same tree with 10-byte and with 400-byte values costs the same per leaf. A
// read that copied its record would cost the larger tree ~3 KiB more a leaf.
func TestColdHopCopiesNoRecord(t *testing.T) {
	perLeaf := func(valueLen int) int {
		hop, st, n := coldHop(t, valueLen)
		got := bytesPerRun(50, hop)
		if *n == 0 || st.Stats().ReadOps < 50*128 {
			t.Fatalf("fixture: %d pairs, %d storage reads for 50 cold hops over 128 leaves", *n, st.Stats().ReadOps)
		}
		return got / 128
	}
	small, large := perLeaf(10), perLeaf(400)
	if large > small+64 {
		t.Fatalf("a cold hop allocates %d B per leaf with 400-byte values and %d B with 10-byte ones, want the same (a read copies no record)", large, small)
	}
}

// TestColdHopAllocatesNoBookkeeping: once a first call has filled the pools, a
// ScanManyAt over 128 cold leaves allocates almost nothing per leaf. The
// scans' progress and queue, each load's leaves, index and loc lists, the
// views storage hands back and its grouping of them are pooled scratch, and
// the cache tracks a page through links in the page itself. A cold hop used
// to allocate 281 B per leaf for all of that.
func TestColdHopAllocatesNoBookkeeping(t *testing.T) {
	hop, st, n := coldHop(t, 10)
	hop() // warm-up: the pools' first scratch
	pairs, reads := *n, st.Stats().ReadOps
	got := bytesPerRun(50, hop) / 128
	if pairs == 0 || *n != 51*pairs || st.Stats().ReadOps-reads != 50*128 {
		t.Fatalf("fixture: %d pairs, %d storage reads for 50 cold hops over 128 leaves", *n, st.Stats().ReadOps-reads)
	}
	t.Logf("a cold hop allocates %d B per leaf", got)
	if budget := 16; got > budget {
		t.Fatalf("a cold hop allocates %d B per leaf, want <= %d (its bookkeeping is pooled)", got, budget)
	}
}

// TestHitScanAllocatesConstant: a cache-hit 100-entry scan allocates nothing
// that grows with the page or its overlay — the image is read where it lies
// and the overlay ops in range, here ten, are copied onto the scan's stack
// (cut), not into the heap (640 B before, and a per-entry snapshot of the
// leaf, 4.8 KiB for 100 entries, before that).
func TestHitScanAllocatesConstant(t *testing.T) {
	tr, _ := allocTree(t)
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

// TestBlockScanAllocatesConstant: a full scan of a 3,100-entry edge block
// allocates O(1), whether every chunk serves it or a leaf written since the
// build is walked in its chunk's place: every chunk is read where it lies by
// the merge the leaves use. The block is built, written — overwrites inside
// every leaf and inserts past its end — and scanned until the leaves those
// scans walked instead of stale chunks had them rebuilt; then measured clean,
// and with one leaf written since the build.
func TestBlockScanAllocatesConstant(t *testing.T) {
	const packed, entries = 3000, 3100
	tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64})
	put := func(i int, v string) {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < packed; i++ {
		put(i, "packed")
	}
	mustBuildBlock(t, tr)
	for i := 0; i < 200; i++ {
		put(i*10+i%2*packed, "late") // even i overwrites a packed key, odd i lands past the block
	}
	n := 0
	scan := func() {
		if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	for settled := 0; ; settled++ {
		scan()
		if _, fallbacks := blockExpect(tr, horizonAll); fallbacks == 0 {
			break
		} else if settled == 100 {
			t.Fatalf("fixture: 100 scans later the block still has %d stale leaves", fallbacks)
		}
	}
	if info, ok := tr.EdgeBlock(); !ok || info.Entries != entries || n%entries != 0 {
		t.Fatalf("fixture: block %+v ok=%v, %d pairs scanned, want %d packed + 100 past the first build, %d a scan", info, ok, n, packed, entries)
	}
	hits, _ := blockExpect(tr, horizonAll)
	before := tr.m.BlockStatsSnapshot()
	if allocs := testing.AllocsPerRun(100, scan); allocs > 2 {
		t.Fatalf("block-served 3100-entry scan makes %.0f allocations, want <= 2", allocs)
	}
	if got := bytesPerRun(200, scan); got > 256 {
		t.Fatalf("block-served 3100-entry scan allocates %d B, want <= 256", got)
	}
	scans := int64(301) // AllocsPerRun's warm-up call, its 100 and bytesPerRun's 200
	if after := tr.m.BlockStatsSnapshot(); after.Hits-before.Hits != scans*hits || after.Fallbacks != before.Fallbacks {
		t.Fatalf("%d scans moved the block stats from %+v to %+v, want %d hits each and no fallback: no leaf was written since the build",
			scans, before, after, hits)
	}

	// One leaf written since the build. Scans that walk it make a rebuild due
	// once they have walked as many leaves as the block has chunks, so they
	// are measured in rounds shorter than that, each on a fresh build.
	rounds, perRound := 10, 10
	if chunks := len(tr.blocks.block.Load().chunks); 2*perRound+1 >= chunks {
		t.Fatalf("fixture: %d scans a round would rebuild a block of %d chunks", 2*perRound+1, chunks)
	}
	var bytes int
	before = tr.m.BlockStatsSnapshot()
	for r := 0; r < rounds; r++ {
		mustBuildBlock(t, tr)
		put(r*200+7, "later")
		if allocs := testing.AllocsPerRun(perRound, scan); allocs > 2 {
			t.Fatalf("3100-entry scan walking a leaf written since the build makes %.0f allocations, want <= 2", allocs)
		}
		bytes += bytesPerRun(perRound, scan)
	}
	if got := bytes / rounds; got > 256 {
		t.Fatalf("3100-entry scan walking a leaf written since the build allocates %d B, want <= 256", got)
	}
	scans = int64(rounds * (2*perRound + 1))
	if after := tr.m.BlockStatsSnapshot(); after.Hits-before.Hits != scans*(hits-1) || after.Fallbacks-before.Fallbacks != scans {
		t.Fatalf("%d scans moved the block stats from %+v to %+v, want %d hits and one fallback each: one leaf was written since the build",
			scans, before, after, hits-1)
	}
}

// TestBlockWriteThenScanAllocatesBounded: one Put into a packed tree followed
// by one bounded scan of it costs the same 500 writes after the build and
// 2,000 after it — what a write touches is its leaf, and the scan takes a
// chunk or, once a write staled the first leaf, walks it until those walks
// have the block rebuilt. Every write used to leave the next read a re-merge
// of everything written since the build into a fresh slice: 64 B per op,
// ~256 KiB per pair at 4,000 ops.
func TestBlockWriteThenScanAllocatesBounded(t *testing.T) {
	tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64})
	put := func(i int, v string) {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12000; i++ {
		put(i, "packed")
	}
	mustBuildBlock(t, tr)
	late, delivered := 0, 0
	var hits, fallbacks int64 // what the scans should count
	pair := func() {
		put(late*7919%24000, "late") // scattered: inside the block and past its end
		late++
		if tr.blocks.block.Load().chunks[0].clean() {
			hits++
		} else {
			fallbacks++ // the first leaf holds more than 16 keys
		}
		if err := tr.Scan(nil, nil, 16, func(k, v []byte) bool { delivered++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	var perPair [2]int
	for i, written := range []int{500, 2000} {
		for late < written {
			pair()
		}
		perPair[i] = bytesPerRun(200, pair)
	}
	if bs := tr.m.BlockStatsSnapshot(); delivered != late*16 || bs.Hits != hits || bs.Fallbacks != fallbacks {
		t.Fatalf("%d scans delivered %d pairs (block stats %+v), want 16 each, %d hits and %d fallbacks (the first leaf written since the build)",
			late, delivered, bs, hits, fallbacks)
	}
	if small, large := perPair[0], perPair[1]; large > 16<<10 || small > 16<<10 || 2*large >= 3*small {
		t.Fatalf("a write and a limit-16 scan allocate %d B 500 writes after the build and %d B 2,000 after, want both <= 16 KiB and within 1.5x", small, large)
	}
}

// TestBlockScanLeavesWritesUncopied: a scan the block serves holds nothing a
// writer owns, so a write after it allocates what a write into a tree with no
// block does. The block's overlay used to be read by reference, and the write
// after a block read copied the run of it the write landed in (up to 8 KiB).
func TestBlockScanLeavesWritesUncopied(t *testing.T) {
	packed, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64})
	plain, _ := newTestTree(t, Config{})
	var late [2]int
	write := func(i int, tr *Tree) { // an overwrite in the upper half: no split, and not the leaf the scan reads
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", 1000+late[i]*7919%1000)), []byte("late")); err != nil {
			t.Fatal(err)
		}
		late[i]++
	}
	for i := 0; i < 2000; i++ {
		for _, tr := range []*Tree{packed, plain} {
			if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("packed")); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustBuildBlock(t, packed)
	builds := packed.m.BlockStatsSnapshot().Builds
	for late[0] < 100 { // into leaves the scans below never walk: nothing rebuilds
		write(0, packed)
		write(1, plain)
	}
	alone := bytesPerRun(200, func() { write(1, plain) })
	before := packed.m.BlockStatsSnapshot()
	withScan := bytesPerRun(200, func() {
		if err := packed.Scan(nil, nil, 16, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		write(0, packed)
	})
	if after := packed.m.BlockStatsSnapshot(); after.Hits-before.Hits != 200 || after.Fallbacks != before.Fallbacks || after.Builds != builds {
		t.Fatalf("fixture: the scans were not served by the block alone: %+v, then %+v", before, after)
	}
	if withScan > alone+256 {
		t.Fatalf("a block-served scan and a write into its tree allocate %d B, a write into a tree with no block %d B, want within 256 B", withScan, alone)
	}
}

// TestBatchLoadedImagesDoNotPinTheirGroup: a hop-wide ReadBatch returns the
// records of one extent group by group. Were a group one allocation handed
// out as sub-slices, each image the cache keeps would pin the whole group's
// buffer — 128 leaves of one extent loaded through an 8-page cache would
// leave all 128 images live instead of 8. A record is read where it lies in
// its extent, which the store holds anyway, so the live heap grows by about
// what the cache holds (nothing, here, but the load's bookkeeping).
func TestBatchLoadedImagesDoNotPinTheirGroup(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 4 << 20})
	m := NewMapping(8, false)
	tr, leaves := leafTree(t, st, m, 128*16)
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

// fillExtent pads extent ext of the base stream with dead records until the
// stream moves on to the next one, which a reclaim of ext then moves the live
// records into.
func fillExtent(t *testing.T, st *storage.Store, ext storage.ExtentID) {
	t.Helper()
	for {
		loc, err := st.Append(storage.StreamBase, 0, make([]byte, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		st.Invalidate(loc)
		if loc.Extent != ext {
			return
		}
	}
}

// TestReclaimedExtentIsNotPinnedByTheCache: a cached image of a cold-loaded
// page is its base record where it lies, so it keeps that record's whole
// extent in memory. Once GC has moved the record and the store let go of the
// extent, the image must not be what keeps the extent alive: on a leader
// Relocate makes the image the moved record, on a follower the checkpoint
// that repoints the page gives the image its own copy. 128+ leaves
// are cold-loaded from one 4 MiB extent into an unlimited cache (the rest of
// the extent is dead records), the extent is reclaimed, and the live heap must
// fall by at least three quarters of it.
func TestReclaimedExtentIsNotPinnedByTheCache(t *testing.T) {
	const extentSize = 4 << 20
	// load cold-loads every leaf into m's cache: each image is its base
	// record where it lies, and every record sits in one extent.
	load := func(t *testing.T, m *Mapping, tr *Tree, leaves []*pageEntry) {
		t.Helper()
		evict(leaves)
		n := 0
		if err := m.ScanManyAt(oneScanPerLeaf(tr, leaves), 0, horizonAll, func(int, []byte, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		for _, e := range leaves {
			rec, err := tr.store.Read(e.baseLoc)
			if err != nil || e.base == nil || &e.base[0] != &rec[0] || e.baseLoc.Extent != leaves[0].baseLoc.Extent {
				t.Fatalf("fixture: leaf %d (extent %d, leaf 0's %d) resident %v, not its record in place (%v)",
					e.id, e.baseLoc.Extent, leaves[0].baseLoc.Extent, e.base != nil, err)
			}
		}
		if n != 128*16 || len(leaves) < 128 {
			t.Fatalf("fixture: %d pairs from %d leaves", n, len(leaves))
		}
	}
	fell := func(t *testing.T, before int64) {
		t.Helper()
		if got := before - liveHeap(); got < extentSize*3/4 {
			t.Fatalf("live heap fell %d B after the cache's %d B extent was reclaimed, want >= %d: cached images still hold it",
				got, extentSize, extentSize*3/4)
		}
	}

	t.Run("leader", func(t *testing.T) {
		st := storage.Open(&storage.Options{ExtentSize: extentSize})
		m := NewMapping(0, false)
		tr, leaves := leafTree(t, st, m, 128*16)
		ext := leaves[0].baseLoc.Extent
		fillExtent(t, st, ext)
		load(t, m, tr, leaves)
		before := liveHeap()
		if _, err := st.Reclaim(storage.StreamBase, ext, m.Relocate); err != nil {
			t.Fatal(err)
		}
		fell(t, before)
		load(t, m, tr, leaves) // the moved records read back whole
	})

	t.Run("follower", func(t *testing.T) {
		st := storage.Open(&storage.Options{ExtentSize: extentSize})
		w := walPipe(t, st)
		lm := NewMapping(0, false)
		tr, err := New(lm, st, Config{MaxPageEntries: 16}, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128*16; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("%-100d", i))); err != nil {
				t.Fatal(err)
			}
		}
		rep, rd := newFollower(st, 0), wal.NewReader(st)
		checkpoint := func(ups []MappingUpdate) wal.LSN {
			t.Helper()
			lsn, err := w.Log(&wal.Record{Type: wal.RecordCheckpoint, CkptLSN: w.LastLSN(), Value: EncodeMappingUpdates(ups)})
			if err != nil {
				t.Fatal(err)
			}
			syncReplica(t, rep, rd)
			return lsn
		}
		ups, err := tr.FlushDirty(nil) // every leaf's first flush: a base record alone
		if err != nil {
			t.Fatal(err)
		}
		checkpoint(ups)
		ftr := rep.trees[tr.ID()]
		leaves := leavesOf(ftr)
		ext := leaves[0].baseLoc.Extent
		fillExtent(t, st, ext)
		load(t, rep.m, ftr, leaves)
		before := liveHeap()
		if _, err := st.Reclaim(storage.StreamBase, ext, lm.Relocate); err != nil {
			t.Fatal(err)
		}
		// The leader logs the moves; the follower repoints, and then nothing
		// holds the condemned extent in the store.
		mark := st.CondemnMark()
		st.Stamp(mark, uint64(checkpoint(lm.TakeRelocated(nil))))
		if n := st.Stats().CondemnedExtents; n != 0 {
			t.Fatalf("fixture: %d extents still condemned", n)
		}
		fell(t, before)
		load(t, rep.m, ftr, leaves)
	})
}

// TestEmptiedExtentIsFreedAtOnce: a sealed extent whose last record dies
// leaves a store without a log at once, GC or no GC, and no cached image keeps
// it in memory. 128+ leaves are cold-loaded from one 4 MiB extent into an
// unlimited cache (the rest of the extent is dead records); inserts then
// rewrite every leaf's base into the next extent, and the live heap must fall
// by at least three quarters of the extent when the last base leaves it.
func TestEmptiedExtentIsFreedAtOnce(t *testing.T) {
	const extentSize = 4 << 20
	st := storage.Open(&storage.Options{ExtentSize: extentSize})
	m := NewMapping(0, false)
	tr, leaves := leafTree(t, st, m, 128*16)
	ext := leaves[0].baseLoc.Extent
	fillExtent(t, st, ext)
	if err := m.ScanManyAt(oneScanPerLeaf(tr, leaves), 0, horizonAll, func(int, []byte, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for _, e := range leaves {
		if e.base == nil || e.baseLoc.Extent != ext {
			t.Fatalf("fixture: leaf %d resident %v in extent %d, want resident in %d", e.id, e.base != nil, e.baseLoc.Extent, ext)
		}
	}
	// rewrite inserts keys just above e's low bound until a consolidation or
	// a split has written its base elsewhere.
	rewrite := func(e *pageEntry) {
		t.Helper()
		lo := string(e.lo)
		if lo == "" {
			lo = "key-!"
		}
		for i := 0; ; i++ {
			e.mu.Lock()
			moved := e.baseLoc.Extent != ext
			e.mu.Unlock()
			if moved {
				return
			}
			if i == 64 {
				t.Fatalf("fixture: leaf %d still based in extent %d after %d inserts", e.id, ext, i)
			}
			if err := tr.Put([]byte(fmt.Sprintf("%s~%03d", lo, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := len(leaves) - 1
	for _, e := range leaves[:last] {
		rewrite(e)
	}
	before := liveHeap()
	rewrite(leaves[last])
	if got := st.Stats(); got.ExtentsEmptied != 1 || got.ExtentsReclaimed != 0 {
		t.Fatalf("fixture: %d extents emptied, %d reclaimed, want 1 and 0", got.ExtentsEmptied, got.ExtentsReclaimed)
	}
	if got := before - liveHeap(); got < extentSize*3/4 {
		t.Fatalf("live heap fell %d B after the last record of a %d B extent died, want >= %d", got, extentSize, extentSize*3/4)
	}
	// Every key reads back, which also keeps the tree alive through liveHeap.
	n := 0
	if err := tr.ScanAt(nil, nil, 0, horizonAll, func(k, _ []byte) bool {
		if !bytes.Contains(k, []byte("~")) {
			n++
		}
		return true
	}); err != nil || n != 128*16 {
		t.Fatalf("after the extent emptied, a scan read %d of %d keys (%v)", n, 128*16, err)
	}
}

// TestHopScratchPinsNoExtent: what a hop leaves in its pooled scratch must not
// keep a reclaimed extent in memory. 128 leaves are cold-loaded from one
// 4 MiB extent through an 8-page cache, so all but 8 of the images the hop
// held were its own; the extent is reclaimed, and after ONE collection — a
// pool's victim cache survives one, which liveHeap's two would hide — the
// live heap must have fallen by at least three quarters of the extent. A
// scratch put back with its held images or views would still hold it.
func TestHopScratchPinsNoExtent(t *testing.T) {
	const extentSize = 4 << 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the one collection is the test's
	st := storage.Open(&storage.Options{ExtentSize: extentSize})
	m := NewMapping(8, false)
	tr, leaves := leafTree(t, st, m, 128*16)
	if len(leaves) < 128 {
		t.Fatalf("fixture: %d leaves, want >= 128", len(leaves))
	}
	leaves = leaves[:128]
	ext := leaves[0].baseLoc.Extent
	for _, e := range leaves {
		if e.baseLoc.Extent != ext {
			t.Fatalf("fixture: leaves span extents %d and %d", ext, e.baseLoc.Extent)
		}
	}
	fillExtent(t, st, ext)
	before := liveHeap()
	n := 0
	if err := m.ScanManyAt(oneScanPerLeaf(tr, leaves), 0, horizonAll, func(int, []byte, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	resident := 0
	for _, e := range leaves {
		if e.base != nil {
			resident++
		}
	}
	if n == 0 || resident == 0 || resident > 8 {
		t.Fatalf("fixture: %d pairs delivered, %d of 128 leaves resident in an 8-page cache", n, resident)
	}
	if _, err := st.Reclaim(storage.StreamBase, ext, m.Relocate); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if fell := before - int64(ms.HeapAlloc); fell < extentSize*3/4 {
		t.Fatalf("live heap fell %d B after the hop's %d B extent was reclaimed, want >= %d: the hop's pooled scratch still holds it",
			fell, extentSize, extentSize*3/4)
	}
}

// TestFlushAllocatesNoImage: the consolidating flush of a warm resident page
// encodes the next base into scratch from a free list, appends it and caches
// the stored record, so it allocates nothing: an image allocated per flush
// would be a second copy of the page beside the record storage holds. The
// page is one 128-entry leaf of a logged tree, folding an 11-op overlay into
// its base on each run.
func TestFlushAllocatesNoImage(t *testing.T) {
	st := storage.Open(nil)
	tr, err := New(NewMapping(0, false), st, Config{}, &stubAsyncLogger{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("%-24s", "base"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	e := tr.m.get(tr.LeafDirectory()[0].Page)
	ov := make([]op, tr.cfg.ConsolidateNum+1)
	for i := range ov {
		ov[i] = op{pending: true, key: []byte(fmt.Sprintf("key-%06d", i*12)), val: []byte(fmt.Sprintf("%-24d", i))}
	}
	flush := func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.overlay, e.dirty = ov, true
		if flushed, err := tr.flushPageLocked(e, nil); !flushed || err != nil || len(e.overlay) != 0 {
			t.Fatalf("fixture: flushed %v (%v), %d ops left over the base", flushed, err, len(e.overlay))
		}
	}
	before := tr.Stats().Consolidations
	allocs := testing.AllocsPerRun(200, flush)
	if got := tr.Stats().Consolidations - before; got != 201 || e.base.count() != 128 {
		t.Fatalf("fixture: %d consolidations in 201 flushes, %d base entries", got, e.base.count())
	}
	if allocs > 0 {
		t.Fatalf("a consolidating flush of a resident 128-entry page allocates %.0f objects, want none: the image is allocated again", allocs)
	}
}

// TestLoggedWriteAllocatesNoRecord: a logged write run fills one WAL record
// from a free list for its ops, and the group committer queues a copy of it,
// so a warm one-op run through a real committer allocates its durability
// wait alone. A record allocated per op was one object more per write.
func TestLoggedWriteAllocatesNoRecord(t *testing.T) {
	st := storage.Open(nil)
	tr, err := New(NewMapping(0, false), st, Config{}, walPipe(t, st))
	if err != nil {
		t.Fatal(err)
	}
	ws := []Write{{Key: []byte("key-000001"), Value: []byte("value")}}
	write := func() {
		if n, err := tr.Apply(ws, nil); n != 1 || err != nil {
			t.Fatalf("applied %d (%v)", n, err)
		}
	}
	for range 100 {
		write()
	}
	if allocs := testing.AllocsPerRun(200, write); allocs > 1 {
		t.Fatalf("a logged one-op write run allocates %.0f objects, want 1: its durability wait", allocs)
	}
}
