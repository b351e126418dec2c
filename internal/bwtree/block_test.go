package bwtree

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"bg3/internal/mvcc"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// mustBuildBlock forces a build covering everything written so far.
func mustBuildBlock(t *testing.T, tr *Tree) {
	t.Helper()
	if built, err := tr.TryBuildEdgeBlock(); err != nil || !built {
		t.Fatalf("build = %v, %v", built, err)
	}
}

// collectScan gathers a ranged scan through whatever path the tree picks.
func collectScan(t *testing.T, tr *Tree, from, to []byte, limit int) []string {
	t.Helper()
	var out []string
	if err := tr.Scan(from, to, limit, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// staleChunks returns the indexes of the block's chunks whose leaf changed
// since the build.
func staleChunks(tr *Tree) []int {
	var stale []int
	for i, c := range tr.blocks.block.Load().chunks {
		if !c.clean() {
			stale = append(stale, i)
		}
	}
	return stale
}

// blockExpect returns what a full scan of tr at h counts under the read rule:
// a hit per chunk that serves h, a fallback per leaf inside one that does not
// (leaves only narrow, so each lies inside one chunk).
func blockExpect(tr *Tree, h wal.LSN) (hits, fallbacks int64) {
	blk := tr.blocks.block.Load()
	if blk == nil {
		return 0, 0
	}
	for i := range blk.chunks {
		if blk.chunks[i].serves(h) {
			hits++
		}
	}
	for _, lf := range tr.LeafDirectory() {
		if !blk.chunks[blk.chunkAt(lf.Lo)].serves(h) {
			fallbacks++
		}
	}
	return hits, fallbacks
}

// blockCounts runs scan and returns how far it moved the block counters.
func blockCounts(tr *Tree, scan func()) (hits, fallbacks int64) {
	before := tr.m.BlockStatsSnapshot()
	scan()
	after := tr.m.BlockStatsSnapshot()
	return after.Hits - before.Hits, after.Fallbacks - before.Fallbacks
}

// checkFullScan scans all of tr at h and fails unless it reads as ref there
// and is served by a chunk exactly where that chunk serves h (blockExpect).
func checkFullScan(t *testing.T, tr *Tree, ref refmodel.KV, h wal.LSN, what string) {
	t.Helper()
	wantHits, wantFallbacks := blockExpect(tr, h)
	var got []string
	hits, fallbacks := blockCounts(tr, func() {
		if err := tr.ScanAt(nil, nil, 0, h, func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if hits != wantHits || fallbacks != wantFallbacks {
		t.Fatalf("%s: a full scan at %d counted %d hits and %d fallbacks, want %d and %d", what, h, hits, fallbacks, wantHits, wantFallbacks)
	}
	if want := ref.Scan("", "", 0, uint64(h)); !slices.Equal(got, want) {
		t.Fatalf("%s: a full scan at %d = %d pairs, want %d", what, h, len(got), len(want))
	}
}

// blockGap checks the invariant the read rule rests on: every chunk that
// serves a read at one of the horizons holds exactly what ref holds in its
// range there. It returns the first chunk that does not. A tree with no block
// has nothing to check.
func blockGap(tr *Tree, ref refmodel.KV, horizons []wal.LSN) error {
	blk := tr.blocks.block.Load()
	if blk == nil {
		return nil
	}
	keys := slices.Sorted(maps.Keys(ref))
	for _, h := range horizons {
		var live []string // ref's live keys at h, in order, and their pairs
		var pairs []string
		for _, k := range keys {
			if v, ok := ref.At(k, uint64(h)); ok {
				live, pairs = append(live, k), append(pairs, k+"="+v)
			}
		}
		for i := range blk.chunks {
			c := &blk.chunks[i]
			if !c.serves(h) {
				continue
			}
			lo, hi := sort.SearchStrings(live, string(c.lo)), len(live)
			if c.hi != nil {
				hi = sort.SearchStrings(live, string(c.hi))
			}
			var img []string
			scanPage(new(joiner), c.image, nil, nil, nil, 0, horizonAll, func(k, v []byte) bool {
				img = append(img, string(k)+"="+string(v))
				return true
			})
			if !slices.Equal(img, pairs[lo:hi]) {
				return fmt.Errorf("chunk %d of %d, [%q, %q), serves a read at %d and holds %v, the version map %v",
					i, len(blk.chunks), c.lo, c.hi, h, img, pairs[lo:hi])
			}
		}
	}
	return nil
}

// TestEdgeBlockSyncTreeScanEquality builds a block on a sync-flushed tree
// and checks every scan shape (full, ranged, limited) against a twin tree
// with blocks disabled, through writes, deletes, and a rebuild.
func TestEdgeBlockSyncTreeScanEquality(t *testing.T) {
	blocked, _ := newTestTree(t, Config{EdgeBlockMinEntries: 16, MaxPageEntries: 16})
	control, _ := newTestTree(t, Config{})
	put := func(k, v string) {
		t.Helper()
		if err := blocked.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := control.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := blocked.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := control.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		put(fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
	}
	mustBuildBlock(t, blocked)
	info, ok := blocked.EdgeBlock()
	if !ok || info.Entries != 200 {
		t.Fatalf("block info = %+v ok=%v, want 200 entries", info, ok)
	}

	check := func(stage string) {
		t.Helper()
		shapes := []struct {
			from, to []byte
			limit    int
		}{
			{nil, nil, 0},
			{nil, nil, 17},
			{[]byte("k000050"), nil, 0},
			{nil, []byte("k000100"), 0},
			{[]byte("k000050"), []byte("k000150"), 0},
			{[]byte("k000050"), []byte("k000150"), 13},
			{[]byte("zz"), nil, 0}, // past the end
		}
		for i, s := range shapes {
			got := collectScan(t, blocked, s.from, s.to, s.limit)
			want := collectScan(t, control, s.from, s.to, s.limit)
			if !slices.Equal(got, want) {
				t.Fatalf("%s shape %d: %v, want %v", stage, i, got, want)
			}
		}
	}
	check("built")

	// Writes after the build: their leaves read for themselves. They build
	// nothing, so the stale chunks are counted before the scans that walk
	// them (and may rebuild the block).
	put("k000050", "patched")
	put("a-before-all", "front")
	put("k999999", "tail")
	del("k000100")
	del("a-before-all")
	if n := len(staleChunks(blocked)); n != 4 {
		t.Fatalf("%d stale chunks, want the 4 leaves written: the first, the last, k000050's and k000100's", n)
	}
	check("written")

	// A rebuild re-reads the stale chunks' leaves and keeps the rest.
	mustBuildBlock(t, blocked)
	if info, ok = blocked.EdgeBlock(); !ok || info.Entries != 200 {
		t.Fatalf("rebuilt block info = %+v ok=%v, want 200 entries", info, ok)
	}
	if stale := staleChunks(blocked); len(stale) != 0 {
		t.Fatalf("chunks %v stale after a rebuild", stale)
	}
	check("rebuilt")
}

// TestScansRebuildAStaleBlock: a block whose written leaves scans keep
// walking is rebuilt, with no further write, once those walks add up to its
// chunk count — a rebuild re-reads each stale leaf once, no more than the
// walks cost — and not before. The scans after it take every chunk.
func TestScansRebuildAStaleBlock(t *testing.T) {
	// Above anything written: no build but the test's own and the scans'.
	tr, _ := newTestTree(t, Config{MaxPageEntries: 16, EdgeBlockMinEntries: 1 << 20})
	for i := 0; i < 160; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mustBuildBlock(t, tr)
	for _, k := range []string{"k000", "k050", "k100", "k150"} {
		if err := tr.Put([]byte(k), []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	chunks, builds := len(tr.blocks.block.Load().chunks), tr.m.BlockStatsSnapshot().Builds
	if stale := len(staleChunks(tr)); stale != 4 || chunks < 12 {
		t.Fatalf("fixture: %d of %d chunks stale, want 4 of at least 12", stale, chunks)
	}
	for scans := 1; ; scans++ {
		if _, err := tr.Len(); err != nil { // a full scan
			t.Fatal(err)
		}
		rebuilt := tr.m.BlockStatsSnapshot().Builds - builds
		if due := 4*scans >= chunks; rebuilt != 0 || due {
			if !due || rebuilt != 1 {
				t.Fatalf("%d scans walked %d leaves of a %d-chunk block: %d rebuilds", scans, 4*scans, chunks, rebuilt)
			}
			break
		}
	}
	if hits, fallbacks := blockCounts(tr, func() { _, _ = tr.Len() }); hits != int64(chunks) || fallbacks != 0 {
		t.Fatalf("a full scan after the rebuild: %d hits and %d fallbacks, want %d and none", hits, fallbacks, chunks)
	}
}

// TestOverwritesDoNotPackATree: the build threshold counts the tree's live
// keys, not its writes. 100 keys, each written 12 times, are 1,200 writes and
// 100 keys — below a 1,024-key threshold — and a full scan packs nothing. The
// trigger used to read puts − deletes, which counts every overwrite as a new
// key.
func TestOverwritesDoNotPackATree(t *testing.T) {
	tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 1024})
	for round := 0; round < 12; round++ {
		for i := 0; i < 100; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Delete([]byte("k000")); err != nil {
		t.Fatal(err)
	}
	if n, s := tr.Keys(), tr.Stats(); n != 99 || s.Puts != 1200 || s.Deletes != 1 {
		t.Fatalf("%d live keys after %d puts and %d deletes, want 99", n, s.Puts, s.Deletes)
	}
	if n, err := tr.Len(); err != nil || n != 99 { // a full scan
		t.Fatalf("a full scan = %d keys, %v; want 99", n, err)
	}
	if info, ok := tr.EdgeBlock(); ok {
		t.Fatalf("a 99-key tree written 1,201 times was packed: %+v", info)
	}
}

// TestWritesAndFlushesBuildNoBlock: the scans that read a block are what
// builds it. A tree written past its threshold and flushed has no block and
// has built none; its first full scan returns with the block installed, and
// a second full scan takes every chunk. On a bare tree (every write flushed at
// once) and on an epoch tree (a logger, pages left to the flusher).
func TestWritesAndFlushesBuildNoBlock(t *testing.T) {
	cfg := Config{MaxPageEntries: 16, EdgeBlockMinEntries: 64}
	for _, mode := range []string{"bare", "epochs"} {
		t.Run(mode, func(t *testing.T) {
			var tr *Tree
			if mode == "epochs" {
				tr, _, _ = newEpochTree(t, cfg)
			} else {
				tr, _ = newTestTree(t, cfg)
			}
			for i := 0; i < 200; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.FlushDirty(nil); err != nil {
				t.Fatal(err)
			}
			if _, ok := tr.EdgeBlock(); ok || tr.m.BlockStatsSnapshot().Builds != 0 {
				t.Fatalf("a tree written and flushed past its threshold built a block: %+v", tr.m.BlockStatsSnapshot())
			}
			if n, err := tr.Len(); err != nil || n != 200 {
				t.Fatalf("the first full scan = %d keys, %v; want 200", n, err)
			}
			if info, ok := tr.EdgeBlock(); !ok || info.Entries != 200 || tr.m.BlockStatsSnapshot().Builds != 1 {
				t.Fatalf("after the first full scan: block %+v ok=%v, stats %+v; want one build of 200 entries", info, ok, tr.m.BlockStatsSnapshot())
			}
			chunks := int64(len(tr.blocks.block.Load().chunks))
			if hits, fallbacks := blockCounts(tr, func() { _, _ = tr.Len() }); hits != chunks || fallbacks != 0 {
				t.Fatalf("the second full scan: %d hits and %d fallbacks, want %d and none", hits, fallbacks, chunks)
			}
		})
	}
}

// TestTreeOwnsNoGoroutine pins that a tree runs on its callers' goroutines:
// writes past the block threshold, a flush, scans — single and many — that
// build the block, writes that stale it, and the scans whose walks rebuild it
// leave the goroutine count where it was.
func TestTreeOwnsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	tr, _, _ := newEpochTree(t, Config{MaxPageEntries: 16, EdgeBlockMinEntries: 64})
	same := func(after string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%d goroutines after %s, %d before", n, after, before)
		}
	}
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
		same("a write")
	}
	for i := 0; i < 200; i++ {
		put(i, "v")
	}
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	same("a flush")
	if err := tr.m.ScanManyAt([]RangeScan{{Tree: tr}, {Tree: tr, From: []byte("k100")}}, 0, horizonAll, func(int, []byte, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	same("a ScanManyAt that builds the block")
	if _, ok := tr.EdgeBlock(); !ok {
		t.Fatal("fixture: the scans built no block")
	}
	for i := 0; i < 200; i += 40 {
		put(i, "late")
	}
	for scans, builds := 0, tr.m.BlockStatsSnapshot().Builds; tr.m.BlockStatsSnapshot().Builds == builds; scans++ {
		if scans == 100 {
			t.Fatal("fixture: 100 full scans walked the stale leaves and rebuilt nothing")
		}
		if _, err := tr.Len(); err != nil {
			t.Fatal(err)
		}
		same("a full scan")
	}
}

// settledGoroutines returns the goroutine count once the goroutines earlier
// tests left on their way out have exited: two readings a millisecond apart
// agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// servedByBlock runs one scan of a one-leaf tree and reports whether the
// block served it: it fails unless exactly one of the block counters moved,
// by one.
func servedByBlock(t *testing.T, tr *Tree, scan func()) bool {
	t.Helper()
	hits, fallbacks := blockCounts(tr, scan)
	if hits+fallbacks != 1 {
		t.Fatalf("one scan moved the block counters by %d hits and %d fallbacks", hits, fallbacks)
	}
	return hits == 1
}

// TestEdgeBlockMVCCSnapshot pins an epoch before the block is built and
// checks the pinned view reads the pre-block history exactly, through the
// leaf, while the head sees the latest state through the block.
func TestEdgeBlockMVCCSnapshot(t *testing.T) {
	// The threshold is above anything the test writes, so its scans build
	// nothing of their own.
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 64})
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	p := src.Pin()
	defer p.Close()
	h := wal.LSN(p.Epoch())
	want := collectAt(t, tr, h)

	// Mutations past the pin.
	if err := tr.Put([]byte("k05"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("k10")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k99"), []byte("added")); err != nil {
		t.Fatal(err)
	}

	// The one leaf's chunk holds the three mutations, and the newest LSN its
	// overlay held: the last one stamped.
	mustBuildBlock(t, tr)
	chunks := tr.blocks.block.Load().chunks
	if stamped := tr.logger.(*stubAsyncLogger).lsn; len(chunks) != 1 || chunks[0].lsn != stamped {
		t.Fatalf("%d chunks, want one at LSN %d", len(chunks), stamped)
	}

	// The pinned reader is below the chunk's LSN: it walks the leaf.
	var got map[string]string
	if servedByBlock(t, tr, func() { got = collectAt(t, tr, h) }) {
		t.Fatalf("the read pinned at %d, below the chunk's LSN %d, was served by the block", h, chunks[0].lsn)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("pinned view = %v, want %v", got, want)
	}

	var head map[string]string
	if !servedByBlock(t, tr, func() { head = collectAt(t, tr, horizonAll) }) {
		t.Fatal("the latest read walked the leaf")
	}
	if head["k05"] != "new" || head["k99"] != "added" {
		t.Fatalf("head view = %v, missing post-pin writes", head)
	}
	if _, present := head["k10"]; present {
		t.Fatal("head view still has the deleted k10")
	}
}

// TestHeldPinHoldsNoBuildBack holds a pin while the tree passes its build
// threshold, is packed by a scan and is rebuilt three times: every build
// installs, pin or no pin.
// The pinned reader is below the chunk's LSN each time: it walks the leaf,
// counted as a fallback, and reads its epoch exactly. Latest reads, and reads
// pinned once the writes are released, are block hits.
func TestHeldPinHoldsNoBuildBack(t *testing.T) {
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 24})
	put := func(k string) {
		t.Helper()
		if err := tr.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%02d", i))
	}
	p := src.Pin()
	defer p.Close()
	h := wal.LSN(p.Epoch())
	want := collectAt(t, tr, h)
	for i := 0; i < 20; i++ { // the threshold is crossed at write 24
		put(fmt.Sprintf("x%02d", i))
	}
	if _, err := tr.Len(); err != nil { // a latest scan: it builds
		t.Fatal(err)
	}
	if blk := tr.blocks.block.Load(); blk == nil || blk.chunks[0].lsn <= h {
		t.Fatalf("block %+v: the scan's build did not install past the pin at %d", blk, h)
	}
	for round := 0; ; round++ {
		var pinned, latest, fresh map[string]string
		if servedByBlock(t, tr, func() { pinned = collectAt(t, tr, h) }) {
			t.Fatalf("round %d: the read pinned before the build was served by the block", round)
		}
		if !maps.Equal(pinned, want) {
			t.Fatalf("round %d: pinned view = %v, want %v", round, pinned, want)
		}
		if !servedByBlock(t, tr, func() { latest = collectAt(t, tr, horizonAll) }) {
			t.Fatalf("round %d: the latest read walked the leaf", round)
		}
		q := src.Pin()
		hit := servedByBlock(t, tr, func() { fresh = collectAt(t, tr, wal.LSN(q.Epoch())) })
		q.Close()
		if !hit || !maps.Equal(fresh, latest) {
			t.Fatalf("round %d: a read pinned after the build: block hit %v, %d keys, want a hit and the %d latest", round, hit, len(fresh), len(latest))
		}
		if round == 3 {
			break
		}
		// More writes, and a rebuild with the pin still open.
		for i := 0; i < 16; i++ {
			put(fmt.Sprintf("y%d.%02d", round, i))
		}
		mustBuildBlock(t, tr)
	}
	if bs := tr.m.BlockStatsSnapshot(); bs.Builds < 4 {
		t.Fatalf("block stats %+v: want the first build and three rebuilds", bs)
	}
}

// TestEachChangeStalesItsOwnChunk: every path that changes a leaf's content
// or range makes its leaf's chunk stale, and no other: a put, a delete, an
// overwrite, the left half of a split, a sync write whose flush failed (the
// content is back as it was, the leaf was still changed under the latch) and
// a hand-over's overlay merge. A full scan then takes every other chunk and
// walks the stale one's leaves, and reads as the tree does.
func TestEachChangeStalesItsOwnChunk(t *testing.T) {
	target := []byte("k080")
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, tr *Tree, plan *storage.FaultPlan) error
	}{
		{"put", func(_ *testing.T, tr *Tree, _ *storage.FaultPlan) error {
			return tr.Put([]byte("k080x"), []byte("new"))
		}},
		{"delete", func(_ *testing.T, tr *Tree, _ *storage.FaultPlan) error { return tr.Delete(target) }},
		{"overwrite", func(_ *testing.T, tr *Tree, _ *storage.FaultPlan) error { return tr.Put(target, []byte("new")) }},
		{"split", func(_ *testing.T, tr *Tree, _ *storage.FaultPlan) error {
			tr.cfg.MaxPageEntries = 4
			var waits wal.Waits
			return tr.splitPage(tr.route(target).id, &waits)
		}},
		{"failed sync flush", func(t *testing.T, tr *Tree, plan *storage.FaultPlan) error {
			plan.ScheduleCrash(1)
			defer plan.ClearCrash()
			if err := tr.Put(target, []byte("lost")); err == nil {
				t.Fatal("a write whose flush crashed returned no error")
			}
			return nil
		}},
		{"hand-over merge", func(_ *testing.T, tr *Tree, _ *storage.FaultPlan) error {
			e := tr.latchLeaf(target)
			defer e.mu.Unlock()
			return e.takeOver(nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Above anything written: no build but the test's own.
			tr, plan := newFaultyTree(t, Config{MaxPageEntries: 16, EdgeBlockMinEntries: 1 << 20}, false)
			for i := 0; i < 160; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			mustBuildBlock(t, tr)
			blk := tr.blocks.block.Load()
			own := blk.chunkAt(target)
			if err := tc.change(t, tr, plan); err != nil {
				t.Fatal(err)
			}
			if stale := staleChunks(tr); !slices.Equal(stale, []int{own}) {
				t.Fatalf("stale chunks %v of %d, want only %d, the changed leaf's", stale, len(blk.chunks), own)
			}
			ref := refmodel.KV{}
			if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool {
				ref.Add(string(k), refmodel.Version{Value: string(v)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			checkFullScan(t, tr, ref, horizonAll, tc.name)
		})
	}
}

// parkedLog is a versionLog that parks the next writer of one key until the
// test closes the channel park returned: once its record has its LSN — the
// writer holds its leaf's latch and its op is not in the leaf yet — or in its
// wait (its op is in its leaf, but the clock has not released it). It sends on
// parked once the writer is parked.
type parkedLog struct {
	*versionLog
	mu      sync.Mutex
	key     string
	inWait  bool
	release chan struct{}
	parked  chan struct{}
}

// park arms the log for the next record of key and returns the channel whose
// close releases that writer.
func (l *parkedLog) park(key []byte, inWait bool) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.key, l.inWait, l.release = string(key), inWait, make(chan struct{})
	return l.release
}

func (l *parkedLog) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	l.mu.Lock()
	hit, inWait, release := l.key != "" && l.key == string(rec.Key), l.inWait, l.release
	if hit {
		l.key = ""
	}
	l.mu.Unlock()
	hold := func() {
		l.parked <- struct{}{}
		<-release
	}
	lsn, wait := l.versionLog.LogAsync(rec)
	if hit && !inWait {
		hold()
	}
	if hit && inWait {
		return lsn, func() error { hold(); return wait() }
	}
	return lsn, wait
}

// TestFirstBuildCapturesEveryWriter drives a first build through each way a
// write meets it. Writer A is parked between its LSN and its leaf, holding the
// leaf's latch: the build reads each leaf under its latch, so it cannot finish
// before A is released, and A's op is then in A's chunk. Writer B is parked in
// its wait, its op in its leaf but its epoch not released: B's chunk has B's
// LSN, so a read pinned before B walks B's leaf. Then writes, pins and a
// rebuild follow. Every read, at ∞ and at every live pin, equals the version
// map and is served by a chunk exactly where the chunk serves its horizon, and
// every chunk that serves a horizon holds what the version map holds there.
func TestFirstBuildCapturesEveryWriter(t *testing.T) {
	vl := &versionLog{ref: refmodel.KV{}, src: mvcc.NewSource(0)}
	pl := &parkedLog{versionLog: vl, parked: make(chan struct{})}
	cfg := Config{MaxPageEntries: 8, ConsolidateNum: 1, Epochs: vl.src,
		EdgeBlockMinEntries: 1 << 20} // above anything written: no build but the test's own
	tr, err := New(NewMapping(0, false), storage.Open(&storage.Options{ExtentSize: 1 << 16}), cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	putAsync := func(i int, v string) chan error {
		done := make(chan error, 1)
		go func() { done <- tr.Put(key(i), []byte(v)) }()
		return done
	}
	for i := 0; i < 48; i++ {
		put(i, "v0")
	}
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	var pins []*mvcc.Pin
	for r := 1; r <= 2; r++ {
		pins = append(pins, vl.src.Pin())
		for i := r; i < 48; i += 3 {
			put(i, fmt.Sprintf("v%d", r))
		}
	}
	defer func() {
		for _, p := range pins {
			p.Close()
		}
	}()
	check := func(stage string) {
		t.Helper()
		horizons := []wal.LSN{horizonAll}
		for _, p := range pins {
			horizons = append(horizons, wal.LSN(p.Epoch()))
		}
		for _, h := range horizons {
			checkFullScan(t, tr, vl.ref, h, stage)
		}
		if err := blockGap(tr, vl.ref, horizons); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	releaseB := pl.park(key(45), true) // B, parked in its wait
	doneB := putAsync(45, "b")
	<-pl.parked
	stampB := vl.last()
	pins = append(pins, vl.src.Pin())  // below B: its epoch is not released
	releaseA := pl.park(key(2), false) // A, parked between its LSN and its leaf
	doneA := putAsync(2, "a")
	<-pl.parked

	built := make(chan error, 1)
	go func() { _, err := tr.BuildEdgeBlock(); built <- err }()
	select {
	case err := <-built:
		t.Fatalf("the build returned (%v) while a writer held its leaf's latch", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(releaseA)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	blk := tr.blocks.block.Load()
	if a := blk.chunks[blk.chunkAt(key(2))]; lookupString(a.image, key(2)) != "a" {
		t.Fatalf("A's chunk holds %q under its key, want A's op", lookupString(a.image, key(2)))
	}
	if b := blk.chunks[blk.chunkAt(key(45))]; b.lsn != stampB || lookupString(b.image, key(45)) != "b" {
		t.Fatalf("B's chunk is at LSN %d and holds %q, want B's LSN %d and B's op", b.lsn, lookupString(b.image, key(45)), stampB)
	}
	check("built beside B in its wait")
	close(releaseB)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	check("built")

	for i := 0; i < 48; i += 5 {
		put(i, "d")
	}
	pins = append(pins, vl.src.Pin())
	for i := 1; i < 48; i += 7 {
		put(i, "e")
	}
	pins = append(pins, vl.src.Pin())
	check("written on")
	mustBuildBlock(t, tr)
	check("rebuilt")
	pins = append(pins, vl.src.Pin())
	check("pinned after the rebuild")
}

// lookupString returns key's value in img, "" when absent.
func lookupString(img leafImage, key []byte) string {
	v, _ := lookup(img, nil, key, horizonAll)
	return string(v.bytes())
}

// TestFailedBuildInstallsNoBlock faults a build's read of a cold leaf, first
// and rebuild alike: the build returns the error and installs nothing — no
// block, or the old one, which goes on serving its clean chunks — and the
// next build packs everything.
func TestFailedBuildInstallsNoBlock(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{ReadFailProb: 1})
	plan.SetEnabled(false)
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
	// Above anything written: no build but the test's own.
	tr, err := New(NewMapping(0, false), st, Config{MaxPageEntries: 8, EdgeBlockMinEntries: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refmodel.KV{}
	put := func(k, v string) {
		t.Helper()
		ref.Add(k, refmodel.Version{Value: v})
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		put(fmt.Sprintf("k%03d", i), "v")
	}
	faulted := func(stage string) {
		t.Helper()
		leaves := leavesOf(tr)
		evict(leaves[len(leaves)-1:]) // cold: the build reads it, and fails
		before := tr.blocks.block.Load()
		plan.SetEnabled(true)
		if built, err := tr.BuildEdgeBlock(); built || err == nil {
			t.Fatalf("%s: build = %v, %v, want the read fault", stage, built, err)
		}
		plan.SetEnabled(false)
		if tr.blocks.block.Load() != before {
			t.Fatalf("%s: a failed build installed a block", stage)
		}
		checkFullScan(t, tr, ref, horizonAll, stage)
	}
	faulted("first build")
	mustBuildBlock(t, tr)
	if info, _ := tr.EdgeBlock(); info.Entries != 48 {
		t.Fatalf("block %+v, want 48 entries", info)
	}
	put("k047", "late") // the last leaf's chunk is stale: the rebuild reads it
	faulted("rebuild")
	mustBuildBlock(t, tr)
	if stale := staleChunks(tr); len(stale) != 0 {
		t.Fatalf("chunks %v stale after the rebuild", stale)
	}
	checkFullScan(t, tr, ref, horizonAll, "rebuilt")
}

// TestRebuildLoadsNoCleanLeaf: a rebuild re-reads the leaves written since
// the last build and no other, so on a bounded cache, after a flush and
// eviction, it costs one storage read per written leaf — not a walk of the
// tree.
func TestRebuildLoadsNoCleanLeaf(t *testing.T) {
	tr, _, st := newEpochTree(t, Config{CacheCapacity: 16, MaxPageEntries: 16, EdgeBlockMinEntries: 1 << 20})
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		put(i, "v")
	}
	mustBuildBlock(t, tr)
	for _, i := range []int{100, 1000, 1900} {
		put(i, "late")
	}
	if _, err := tr.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	leaves := leavesOf(tr)
	evict(leaves)
	stale := len(staleChunks(tr))
	reads, misses := st.Stats().ReadOps, tr.m.misses.Load()
	mustBuildBlock(t, tr)
	if r, m := st.Stats().ReadOps-reads, tr.m.misses.Load()-misses; stale != 3 || r != 3 || m != 3 {
		t.Fatalf("a rebuild over %d stale chunks of %d leaves read storage %d times and missed the cache %d times, want 3 and 3",
			stale, len(leaves), r, m)
	}
}
