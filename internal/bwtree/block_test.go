package bwtree

import (
	"fmt"
	"runtime"
	"testing"

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

	// Rebuild folds the overlay into a fresh block.
	mustBuildBlock(t, blocked)
	if info, ok = blocked.EdgeBlock(); !ok || info.Entries != 200 {
		t.Fatalf("rebuilt block info = %+v ok=%v, want 200 entries", info, ok)
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
