package bwtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// awaitSpawnedBuild waits out a background build the write path spawned
// (any tree past its threshold gets one): while in flight it holds the
// build lock, turning TryBuildEdgeBlock into a no-op, and its outcome —
// a block, or a recorded skip — is not yet visible.
func awaitSpawnedBuild(tr *Tree) {
	for tr.blocks.buildSpawned.Load() {
		runtime.Gosched()
	}
}

// mustBuildBlock forces a build covering everything written so far.
func mustBuildBlock(t *testing.T, tr *Tree) {
	t.Helper()
	awaitSpawnedBuild(tr)
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

// TestEdgeBlockSyncTreeScanEquality builds a block on a sync-flushed tree
// and checks every scan shape (full, ranged, limited) against a twin tree
// with blocks disabled, through overlay writes, deletes, and a rebuild.
func TestEdgeBlockSyncTreeScanEquality(t *testing.T) {
	blocked, _ := newTestTree(t, Config{EdgeBlockMinEntries: 16, EdgeBlockRebuildOps: 8})
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
			if len(got) != len(want) {
				t.Fatalf("%s shape %d: %d results, want %d", stage, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s shape %d result %d: %q, want %q", stage, i, j, got[j], want[j])
				}
			}
		}
	}
	check("sealed")

	// Overlay: overwrites, inserts, deletes patched over the block.
	put("k000050", "patched")
	put("a-before-all", "front")
	put("k999999", "tail")
	del("k000100")
	del("a-before-all")
	check("overlaid")
	if got := blocked.m.BlockStatsSnapshot().OverlayOps; got != 5 {
		t.Fatalf("overlay ops gauge = %d, want the 5 writes since the seal", got)
	}

	// Rebuild folds the overlay into a fresh block.
	mustBuildBlock(t, blocked)
	if info, ok = blocked.EdgeBlock(); !ok || info.Entries != 200 {
		t.Fatalf("rebuilt block info = %+v ok=%v, want 200 entries", info, ok)
	}
	if got := blocked.m.BlockStatsSnapshot().OverlayOps; got != 0 {
		t.Fatalf("overlay ops gauge = %d after a rebuild folded everything", got)
	}
	check("rebuilt")
}

// TestEdgeBlockMVCCSnapshot pins an epoch before the block is built and
// checks the pinned view reads the pre-block history exactly, while the
// head sees the latest state through the overlay.
func TestEdgeBlockMVCCSnapshot(t *testing.T) {
	// The threshold is above anything the test writes, so the write path
	// never spawns a build of its own: one installed before the pin would
	// seal below it.
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 64, EdgeBlockRebuildOps: 64})
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	p := src.Pin()
	defer p.Close()
	h := wal.LSN(p.Epoch())
	want := collectAt(t, tr, h)

	// Mutations past the pin: they must stay above the block's seal.
	if err := tr.Put([]byte("k05"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("k10")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k99"), []byte("added")); err != nil {
		t.Fatal(err)
	}

	// The pin holds the floor at h, so the build seals there and the three
	// mutations land in the overlay.
	mustBuildBlock(t, tr)
	info, ok := tr.EdgeBlock()
	if !ok {
		t.Fatal("no block after build")
	}
	if info.Seal != h {
		t.Fatalf("seal = %d, want the pinned floor %d", info.Seal, h)
	}
	if info.Overlay != 3 {
		t.Fatalf("overlay = %d ops, want the 3 post-pin mutations", info.Overlay)
	}

	got := collectAt(t, tr, h)
	if len(got) != len(want) {
		t.Fatalf("pinned view has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("pinned view[%q] = %q, want %q", k, got[k], v)
		}
	}

	head := collectAt(t, tr, horizonAll)
	if head["k05"] != "new" || head["k99"] != "added" {
		t.Fatalf("head view = %v, missing post-pin writes", head)
	}
	if _, present := head["k10"]; present {
		t.Fatal("head view still has the deleted k10")
	}
}

// TestEdgeBlockSkipOnOldPins holds a pin while many ops accumulate above
// it: the build must refuse (the overlay would immediately exceed the
// rebuild threshold) and record the skip.
func TestEdgeBlockSkipOnOldPins(t *testing.T) {
	// The threshold is crossed only well past the pin (write 24 of 30), so
	// no write-path build can install a block before the pin, and any it
	// spawns afterwards already has >= 8 ops above the pin and skips too.
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 24, EdgeBlockRebuildOps: 8})
	for i := 0; i < 10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	p := src.Pin()
	defer p.Close()
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("x%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	awaitSpawnedBuild(tr)
	if built, err := tr.TryBuildEdgeBlock(); err != nil || built {
		t.Fatalf("build = %v, %v; want a pin skip", built, err)
	}
	if _, ok := tr.EdgeBlock(); ok {
		t.Fatal("a block was installed despite the skip")
	}
	if got := tr.m.BlockStatsSnapshot().SkippedPins; got == 0 {
		t.Fatal("skip was not recorded in block stats")
	}
	// The skip also suppresses retries until the floor advances.
	if tr.edgeBlockWanted() {
		t.Fatal("build still wanted at the same floor after a skip")
	}
	// Release the pin and advance the floor: the build goes through.
	p.Close()
	if err := tr.Put([]byte("zz"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mustBuildBlock(t, tr)
}

// TestBlockRunDirectoryMatchesFlatOverlay drives the overlay's run directory
// alone: seeded batches of 1–200 key-sorted ops — repeated keys, deletes, one
// key overwritten far past a run's size — are captured one after the other,
// a reader's take of the directory after three batches in four, and after each
// batch the directory holds the invariant blockRunsGap names and a read through it
// (edgeBlock.scan) equals scanPage over the same ops as one flat overlay, for
// random ranges, limits and horizons. A directory a reader took is never
// changed afterwards.
func TestBlockRunDirectoryMatchesFlatOverlay(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var content []op
		for i := 0; i < 3000; i += 1 + rng.Intn(3) {
			content = append(content, op{key: []byte(fmt.Sprintf("k%05d", i)), val: []byte("packed")})
		}
		img, err := mergeEncode(emptyLeaf, content, nil, nil, horizonAll)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Tree{m: NewMapping(0, false)}
		tr.blocks.block.Store(&edgeBlock{image: img})
		tr.blocks.runs = make([]blockRun, 1)
		blk, lsn := tr.blocks.block.Load(), wal.LSN(0)
		var all []op // every op captured, in arrival order
		var taken []blockRun
		var takenOps [][]op
		for batch := 0; batch < 120; batch++ {
			ws := make([]op, 1+rng.Intn(200)>>uint(rng.Intn(6)))
			for i := range ws {
				k := rng.Intn(3400) - 200 // before, inside and past the image
				if rng.Intn(8) == 0 {
					k = 1500 // the hot key
				}
				ws[i] = op{key: []byte(fmt.Sprintf("k%05d", k)), val: []byte(fmt.Sprintf("v%d.%d", batch, i)), del: rng.Intn(5) == 0}
			}
			sortOps(ws)
			for i := range ws {
				lsn++
				ws[i].lsn = lsn
			}
			all = append(all, ws...)
			tr.blocks.overlayMu.Lock()
			tr.blocks.captureLocked(ws)
			tr.addOverlayLen(int64(len(ws)))
			tr.blocks.overlayMu.Unlock()
			if err := blockRunsGap(tr, sortOps(slices.Clone(all))); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			for i, run := range taken {
				if !slices.EqualFunc(run.ops, takenOps[i], func(a, b op) bool { return a.lsn == b.lsn && bytes.Equal(a.key, b.key) }) {
					t.Fatalf("seed %d batch %d: run %d of a directory a reader holds was edited", seed, batch, i)
				}
			}
			if batch%4 == 3 { // unread: the next batch edits the runs this one built in place
				continue
			}
			_, runs, ok := tr.blockView(horizonAll)
			if !ok {
				t.Fatal("no block view")
			}
			if batch%3 == 0 { // this reader keeps its directory across the next writes
				taken, takenOps = runs, nil
				for _, run := range runs {
					takenOps = append(takenOps, slices.Clone(run.ops))
				}
			}
			flat := flatten(runs)
			for probe := 0; probe < 8; probe++ {
				var from, to []byte
				if rng.Intn(4) > 0 {
					from = []byte(fmt.Sprintf("k%05d", rng.Intn(3400)-200))
				} else {
					from = []byte{}
				}
				if rng.Intn(3) > 0 {
					to = []byte(fmt.Sprintf("k%05d", rng.Intn(3400)-200))
				}
				limit, h := rng.Intn(3)*rng.Intn(300), horizonAll
				if rng.Intn(2) == 0 {
					h = wal.LSN(rng.Int63n(int64(lsn) + 1))
				}
				stopAt := -1
				if rng.Intn(4) == 0 {
					stopAt = rng.Intn(100)
				}
				collect := func(dst *[]string) func(k, v []byte) bool {
					return func(k, v []byte) bool {
						*dst = append(*dst, string(k)+"="+string(v))
						return len(*dst) != stopAt
					}
				}
				var got, want []string
				blk.scan(runs, from, to, limit, h, collect(&got))
				scanPage(img, flat, from, to, limit, h, collect(&want))
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d batch %d: scan([%s,%s) limit %d h %d stop %d) through %d runs = %d pairs, over the flat overlay %d",
						seed, batch, from, to, limit, h, stopAt, len(runs), len(got), len(want))
				}
			}
		}
		if n := len(tr.blocks.runs); n < 20 {
			t.Fatalf("seed %d: the directory ended with %d runs, want a populated one", seed, n)
		}
	}
}

// TestFirstBuildAtARisenFloor drives a first build by hand and lets the floor
// rise under it: the build seals at the floor of three pins, the oldest closes
// and a leaf consolidates at the risen floor before the seeding walk, the next
// closes and another leaf consolidates between the seeding walk and the
// content scan, and a third consolidates after both. Nothing clamps the floor
// to the seal, so the image holds ops above the seal that the overlay may not;
// no reader below the risen floor is left to see them. Block reads at every
// live horizon and at ∞ equal the version map — after the build, after more
// writes and after a rebuild.
func TestFirstBuildAtARisenFloor(t *testing.T) {
	vl := &versionLog{ref: refModel{}, src: mvcc.NewSource(0)}
	cfg := Config{MaxPageEntries: 8, ConsolidateNum: 1, Epochs: vl.src,
		// Above anything written: no build but the test's own.
		EdgeBlockMinEntries: 1 << 20, EdgeBlockRebuildOps: 1 << 20}
	tr, err := New(NewMapping(0, false), storage.Open(&storage.Options{ExtentSize: 1 << 16}), cfg, vl)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 writes every key, round r > 0 a third of them, so each round
	// leaves some key's latest version in its own interval between pins.
	round := func(r int) {
		t.Helper()
		for i := 0; i < 48; i++ {
			if r > 0 && i%3 != r%3 {
				continue
			}
			k := []byte(fmt.Sprintf("k%03d", i))
			if (i+r)%4 == 0 {
				err = tr.Delete(k)
			} else {
				err = tr.Put(k, []byte(fmt.Sprintf("v%d.%d", i, r)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	round(0)
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	var pins []*mvcc.Pin
	for r := 1; r <= 3; r++ {
		pins = append(pins, vl.src.Pin())
		round(r)
	}
	defer func() {
		for _, p := range pins {
			p.Close()
		}
	}()
	leaves := leavesOf(tr)
	if len(leaves) < 3 {
		t.Fatalf("fixture: %d leaves, want 3", len(leaves))
	}
	// consolidate folds leaf i at the floor of the pins left open.
	consolidate := func(i int) {
		t.Helper()
		before, e := tr.Stats().Consolidations, leaves[i]
		pins[0].Close()
		pins = pins[1:]
		e.mu.Lock()
		_, err := tr.flushPageLocked(e, nil)
		e.mu.Unlock()
		if err != nil || tr.Stats().Consolidations != before+1 {
			t.Fatalf("fixture: leaf %d did not consolidate at floor %d (%v)", i, tr.retentionFloor(), err)
		}
	}
	check := func(stage string) {
		t.Helper()
		horizons := []wal.LSN{horizonAll}
		for _, p := range pins {
			horizons = append(horizons, wal.LSN(p.Epoch()))
		}
		for _, h := range horizons {
			hits := tr.m.BlockStatsSnapshot().Hits
			var got []string
			if err := tr.ScanAt(nil, nil, 0, h, func(k, v []byte) bool {
				got = append(got, string(k)+"="+string(v))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if tr.m.BlockStatsSnapshot().Hits != hits+1 {
				t.Fatalf("%s: the read at %d walked the leaves, not the block", stage, h)
			}
			if want := vl.ref.scan("", "", 0, h); !slices.Equal(got, want) {
				t.Fatalf("%s: block read at %d = %v, want %v", stage, h, got, want)
			}
		}
	}

	seal := tr.retentionFloor()
	consolidate(0) // folded before both walks: in the image alone
	estimate, ok := tr.beginFirstBuild(seal)
	if !ok {
		t.Fatal("fixture: the first build skipped")
	}
	consolidate(1) // folded between the walks: in the image and the seeded overlay
	img, err := tr.contentAt(seal, estimate)
	if err != nil {
		t.Fatal(err)
	}
	tr.installBlock(nil, seal, img, nil)
	if tr.retentionFloor() <= seal {
		t.Fatalf("fixture: the floor did not rise past the seal %d", seal)
	}
	pins = append(pins, vl.src.Pin())
	check("built")
	consolidate(2) // folded after both: in the seeded overlay
	check("after a fold")
	round(4)
	pins = append(pins, vl.src.Pin())
	check("after more writes")
	mustBuildBlock(t, tr)
	check("rebuilt")
}
