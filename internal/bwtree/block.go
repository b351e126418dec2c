package bwtree

import (
	"bytes"
	"log"
	"runtime"
	"sync"
	"sync/atomic"

	"bg3/internal/wal"
)

// Packed edge blocks (ISSUE 8): the sequential-adjacency layout for
// super-vertex dedicated trees. Once a tree's adjacency outgrows
// EdgeBlockMinEntries, its whole content as of a sealed LSN (the MVCC
// retention floor) is held as one resident leaf image (encode.go) — the
// format of every leaf, only as large as the tree — and read by the one
// merge every leaf is read by (scanPage): a binary-search entry and a
// sequential walk instead of page-at-a-time routing, latching and cache
// traffic. Writes since the seal accumulate in a small overlay patched over
// the image at read time; when the overlay outgrows EdgeBlockRebuildOps the
// block is consolidated like a leaf: the overlay is folded into the next
// image at a newer seal (mergeEncode).
//
// Correctness protocol (MVCC, PR 7 semantics preserved exactly):
//
//   - Seal S = retention floor at build time. Every live pin's horizon is
//     >= the floor, so pinned readers never fall below the block; reads at
//     h < S (defensive) walk the leaves instead (page.go). A tree without
//     an epoch clock has no pins and folds every op into its leaves whatever
//     its stamp: its floor, and so its seal, is "everything applied".
//   - The overlay holds every op with LSN > S. The first build turns on
//     capture, drains writers that entered before capture (preGate), and
//     seeds the overlay from the leaf chains' retained history above S;
//     rebuilds inherit the continuously captured overlay, filtered to the
//     new seal.
//   - A writer between LSN assignment and its overlay append is counted
//     in blockWriters; a read at a pinned horizon observing a nonzero count
//     walks the leaves instead, so an op can never be visible at a released
//     epoch without being in the overlay (the committer may release the
//     epoch before the writer reaches the overlay). A latest read (h = ∞)
//     does not honour the gate. It owes the caller only the writes that
//     were acknowledged before it began, and a writer appends to the
//     overlay before it waits for its acknowledgement; an in-flight op it
//     misses linearizes after it. Nor can it contradict a read that saw the
//     op through a leaf: the writer holds the page latch until after its
//     overlay append, so whoever found the op in a leaf took the latch when
//     the op was already in the overlay.
//   - During the first build, consolidation is clamped to fold nothing
//     above S (buildClamp), so the content scan at S stays reconstructible
//     even if every pin is released mid-build. A rebuild reads no leaf.
//
// Blocks are an RW-node read-path acceleration held in memory only: nothing
// reads a block back from storage, so nothing is written there; after
// recovery they are rebuilt lazily from the thresholds, and replicas (which
// apply WAL records through their own page structures) never build them.

// edgeBlock is a tree's full content at the sealed LSN as one immutable
// leaf image, private to the block.
type edgeBlock struct {
	seal  wal.LSN
	image leafImage
}

// blockState is the per-tree edge-block machinery embedded in Tree.
type blockState struct {
	block        atomic.Pointer[edgeBlock]
	blockCapture atomic.Bool
	preGate      atomic.Int64 // writers that entered before capture was on
	blockWriters atomic.Int64 // capturing writers between LSN assignment and overlay append

	overlayMu  sync.Mutex
	overlay    []op // append order; rebuilds rely on indices (cut)
	overlayLen atomic.Int64

	// sorted is a read-side snapshot of overlay[:sortedN] in leaf-overlay
	// order (key-sorted, per-key append order preserved), refreshed lazily in
	// blockView so scans binary-search their range instead of filtering and
	// sorting the whole overlay per read. Whoever replaces overlay
	// structurally resets both.
	sorted  []op
	sortedN int

	blockBuildMu sync.Mutex    // serializes builds (TryLock)
	buildSpawned atomic.Bool   // one background build goroutine at a time
	buildClamp   atomic.Uint64 // seal+1 while a first build is in flight (0 = none)
	lastSkipSeal atomic.Uint64 // seal+1 of the last pin-skipped build (0 = none)
}

// blockView returns the block and the key-sorted overlay snapshot serving
// horizon h — scanPage(blk.image, ov, ...) is the read — or ok=false when
// the read must walk the leaves: no block, a pinned horizon with a writer
// mid-capture, or a (defensive) horizon below the seal.
func (t *Tree) blockView(h wal.LSN) (*edgeBlock, []op, bool) {
	if t.blocks.block.Load() == nil {
		return nil, nil, false
	}
	t.blocks.overlayMu.Lock()
	if h != horizonAll && t.blocks.blockWriters.Load() != 0 {
		t.blocks.overlayMu.Unlock()
		t.m.blockFallbacks.Add(1)
		return nil, nil, false
	}
	blk := t.blocks.block.Load()
	ov := t.sortedOverlayLocked()
	t.blocks.overlayMu.Unlock()
	if blk == nil {
		return nil, nil, false
	}
	if h < blk.seal {
		t.m.blockFallbacks.Add(1)
		return nil, nil, false
	}
	t.m.blockHits.Add(1)
	return blk, ov, true
}

// sortedOverlayLocked returns the overlay in leaf-overlay order, refreshing
// the cached snapshot incrementally: the unsorted tail since the last
// refresh is sorted and merged into the previous snapshot (equal keys keep
// the old ops first, preserving per-key append = LSN order). Must be
// called with overlayMu held. A fresh slice is built on every refresh —
// the previous one may still be walked by in-flight readers.
func (t *Tree) sortedOverlayLocked() []op {
	st := &t.blocks
	n := len(st.overlay)
	if st.sortedN == n {
		return st.sorted
	}
	tail := sortOps(append([]op(nil), st.overlay[st.sortedN:]...))
	merged := make([]op, 0, len(st.sorted)+len(tail))
	i, j := 0, 0
	for i < len(st.sorted) && j < len(tail) {
		if bytes.Compare(st.sorted[i].key, tail[j].key) <= 0 {
			merged = append(merged, st.sorted[i])
			i++
		} else {
			merged = append(merged, tail[j])
			j++
		}
	}
	merged = append(merged, st.sorted[i:]...)
	merged = append(merged, tail[j:]...)
	st.sorted, st.sortedN = merged, n
	return merged
}

// blockWriteEnter is called by applyRun before the run's first WAL record is
// logged (before any of its LSNs exists). It returns which gate the writer
// holds: 0 = none (blocks disabled), 1 = preGate, 2 = capturing. A run holds
// one gate however many ops it carries: both counters are only ever compared
// with zero.
func (t *Tree) blockWriteEnter() int {
	if t.cfg.EdgeBlockMinEntries <= 0 {
		return 0
	}
	if t.blocks.blockCapture.Load() {
		t.blocks.blockWriters.Add(1)
		return 2
	}
	t.blocks.preGate.Add(1)
	return 1
}

// blockWriteExit completes the capture protocol with the ops the run applied
// to its leaf (none on error paths: the gate is released, nothing captured).
// Called with the page latch still held, so per-key overlay order is per-key
// latch order — LSN order.
func (t *Tree) blockWriteExit(gate int, applied []op) {
	switch gate {
	case 1:
		t.blocks.preGate.Add(-1)
	case 2:
		if len(applied) > 0 {
			t.blocks.overlayMu.Lock()
			t.blocks.overlay = append(t.blocks.overlay, applied...)
			t.blocks.overlayLen.Store(int64(len(t.blocks.overlay)))
			t.blocks.overlayMu.Unlock()
		}
		t.blocks.blockWriters.Add(-1)
	}
}

// collectRetainedAbove walks the leaf chain (left to right, per-leaf
// latch, structure read-locked like LeafDirectory) collecting every
// overlay op with LSN above seal.
func (t *Tree) collectRetainedAbove(seal wal.LSN) []op {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	id := t.root
	for {
		e := t.m.get(id)
		if e == nil {
			return nil
		}
		e.mu.Lock()
		if e.isLeaf {
			e.mu.Unlock()
			break
		}
		next := e.inner.children[0]
		e.mu.Unlock()
		id = next
	}
	var out []op
	for id != 0 {
		e := t.m.get(id)
		if e == nil {
			break
		}
		e.mu.Lock()
		for _, o := range e.overlay {
			if o.lsn > seal {
				out = append(out, o)
			}
		}
		id = e.next
		e.mu.Unlock()
	}
	return out
}

// maybeBuildEdgeBlock is the flush-time build trigger: it checks the
// thresholds cheaply and runs the build inline (the flusher's goroutine).
func (t *Tree) maybeBuildEdgeBlock() {
	if !t.edgeBlockWanted() {
		return
	}
	_, _ = t.TryBuildEdgeBlock()
}

// maybeSpawnEdgeBlockBuild is the write-path trigger. It fires on every
// tree — async-flushed ones too, beside their flush-time trigger; a
// sync-flushed tree has no other: when the thresholds say a build is due,
// it spawns at most one background build goroutine.
func (t *Tree) maybeSpawnEdgeBlockBuild() {
	if !t.edgeBlockWanted() {
		return
	}
	if !t.blocks.buildSpawned.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.blocks.buildSpawned.Store(false)
		_, _ = t.TryBuildEdgeBlock()
	}()
}

// blockRebuildThreshold is the overlay size that justifies folding the
// overlay into a fresh block over `entries` packed entries: the configured
// floor, or a quarter of the entry count when that is larger, so rebuild
// write amplification stays bounded (~4 entry copies per overlay op) on
// big trees instead of scaling with tree size.
func (t *Tree) blockRebuildThreshold(entries int) int {
	th := t.cfg.EdgeBlockRebuildOps
	if q := entries / 4; q > th {
		th = q
	}
	return th
}

// edgeBlockWanted reports whether the build thresholds are crossed: no
// block yet and the tree's live-entry estimate passed EdgeBlockMinEntries,
// or a block exists and the overlay passed the rebuild threshold.
func (t *Tree) edgeBlockWanted() bool {
	if t.cfg.EdgeBlockMinEntries <= 0 {
		return false
	}
	blk := t.blocks.block.Load()
	if blk == nil {
		if t.puts.Load()-t.deletes.Load() < int64(t.cfg.EdgeBlockMinEntries) {
			return false
		}
		// After a pin-skip, retry only once the floor has moved past the
		// seal that was skipped — nothing changed until then.
		if s := t.blocks.lastSkipSeal.Load(); s != 0 && t.retentionFloor() <= wal.LSN(s-1) {
			return false
		}
		return true
	}
	return t.blocks.overlayLen.Load() >= int64(t.blockRebuildThreshold(blk.image.count()))
}

// TryBuildEdgeBlock builds (or rebuilds) the tree's packed edge block if
// no other build is in flight — the background triggers' entry point. It
// returns whether a block was installed. Safe to call on any tree; trees
// with blocks disabled return false.
func (t *Tree) TryBuildEdgeBlock() (bool, error) {
	if t.cfg.EdgeBlockMinEntries <= 0 || !t.blocks.blockBuildMu.TryLock() {
		return false, nil
	}
	defer t.blocks.blockBuildMu.Unlock()
	return t.buildEdgeBlockLocked()
}

// BuildEdgeBlock is the explicit (operator, bulk-load) build: it waits out
// a build in flight — the one the write path spawns at the threshold seals
// before the latest writes — instead of skipping the tree and leaving that
// older block under everything written since, so the caller's first call
// packs all of it.
func (t *Tree) BuildEdgeBlock() (bool, error) {
	if t.cfg.EdgeBlockMinEntries <= 0 {
		return false, nil
	}
	t.blocks.blockBuildMu.Lock()
	defer t.blocks.blockBuildMu.Unlock()
	return t.buildEdgeBlockLocked()
}

func (t *Tree) buildEdgeBlockLocked() (bool, error) {
	old := t.blocks.block.Load()

	// Seal at the retention floor: the oldest pinned epoch, or — on a tree
	// without an epoch clock, whose leaves fold every op whatever its stamp —
	// everything applied.
	seal := t.retentionFloor()
	if old != nil && seal < old.seal {
		seal = old.seal
	}

	var img leafImage
	cut := 0 // overlay ops before this index are in img if stamped at or below the seal
	if old == nil {
		// Clamp consolidation at the seal for the duration of the build: the
		// content scan at the seal must stay reconstructible even if every
		// pin is released mid-build.
		if t.cfg.Epochs != nil {
			t.blocks.buildClamp.Store(uint64(seal) + 1)
			defer t.blocks.buildClamp.Store(0)
		}
		// Clear debris from any previously aborted capture, then turn
		// capture on and drain the writers that entered before they could
		// see it; from here every applied op lands in the overlay.
		t.blocks.overlayMu.Lock()
		t.blocks.overlay = nil
		t.blocks.overlayLen.Store(0)
		t.blocks.sorted, t.blocks.sortedN = nil, 0
		t.blocks.overlayMu.Unlock()
		t.blocks.blockCapture.Store(true)
		for t.blocks.preGate.Load() != 0 {
			runtime.Gosched()
		}
		// Seed the overlay with history already applied above the seal.
		seeded := t.collectRetainedAbove(seal)
		estimate := int(max(0, t.puts.Load()-t.deletes.Load())) // of the live entries
		if len(seeded) >= t.blockRebuildThreshold(estimate) {
			t.blocks.blockCapture.Store(false)
			t.noteBlockSkip(seal, len(seeded))
			return false, nil
		}
		t.blocks.overlayMu.Lock()
		t.blocks.overlay = append(seeded, t.blocks.overlay...)
		t.blocks.overlayMu.Unlock()

		// Content scan at the seal. MVCC makes this a consistent cut for
		// epoch trees; for sync trees any op racing the scan is captured in
		// the overlay, and replaying it over the block is idempotent. The
		// pairs alias page memory, which is immutable, until the encode
		// below has copied them.
		content := make([]op, 0, estimate)
		err := t.ScanAt(nil, nil, 0, seal, func(k, v []byte) bool {
			content = append(content, op{key: k, val: v})
			return true
		})
		if err == nil {
			img, err = mergeEncode(emptyLeaf, content, nil, nil, horizonAll)
		}
		if err != nil {
			t.blocks.blockCapture.Store(false)
			return false, err
		}
	} else {
		// A rebuild is the block's consolidation: the old image with the
		// overlay folded in at the new seal — exactly the content readers at
		// that seal are being served already, so no leaf is read. An op
		// appended after this snapshot stays in the overlay whatever its
		// stamp (its writer may have been mid-capture).
		t.blocks.overlayMu.Lock()
		cut = len(t.blocks.overlay)
		ov := t.sortedOverlayLocked()
		t.blocks.overlayMu.Unlock()
		// A rebuild that cannot shrink the overlay below the rebuild
		// threshold (pins holding the floor down) would retrigger forever;
		// skip it until the floor moves.
		above := 0
		for _, o := range ov {
			if o.lsn > seal {
				above++
			}
		}
		if above >= t.blockRebuildThreshold(old.image.count()) {
			t.noteBlockSkip(seal, above)
			return false, nil
		}
		var err error
		if img, err = mergeEncode(old.image, ov, nil, nil, seal); err != nil {
			return false, err
		}
	}

	// Install: swap the block in and cut the overlay down to the ops the
	// new seal still needs — everything above it, plus everything that
	// arrived once the image's content was taken (replaying one the image
	// already has is idempotent). The old slice may be referenced by
	// in-flight readers, so build a fresh one.
	t.blocks.overlayMu.Lock()
	kept := make([]op, 0, len(t.blocks.overlay)-cut+8)
	for i, o := range t.blocks.overlay {
		if o.lsn > seal || i >= cut {
			kept = append(kept, o)
		}
	}
	t.blocks.overlay = kept
	t.blocks.sorted, t.blocks.sortedN = nil, 0
	t.blocks.overlayLen.Store(int64(len(kept)))
	t.blocks.block.Store(&edgeBlock{seal: seal, image: img})
	t.blocks.overlayMu.Unlock()
	t.blocks.lastSkipSeal.Store(0)

	t.m.noteBlockBuilt(img.count(), int64(len(img)))
	if old != nil {
		t.m.noteBlockDropped(old.image.count(), int64(len(old.image)))
	}
	return true, nil
}

// noteBlockSkip records a pin-skipped build: the metric always, the log
// line once per distinct seal (a silent skip would mask why p99 never
// improves while an old pin is held).
func (t *Tree) noteBlockSkip(seal wal.LSN, retained int) {
	t.m.blockSkips.Add(1)
	if t.blocks.lastSkipSeal.Swap(uint64(seal)+1) != uint64(seal)+1 {
		log.Printf("bwtree: tree %d: edge block build skipped: %d retained ops above floor %d (active pins hold the floor; will retry once it advances)", t.id, retained, seal)
	}
}

// EdgeBlockInfo is a diagnostic snapshot of a tree's packed block.
type EdgeBlockInfo struct {
	Seal    wal.LSN
	Entries int
	Bytes   int64 // resident size of the image
	Overlay int
}

// EdgeBlock returns the current block's shape, or ok=false when the tree
// has none.
func (t *Tree) EdgeBlock() (EdgeBlockInfo, bool) {
	blk := t.blocks.block.Load()
	if blk == nil {
		return EdgeBlockInfo{}, false
	}
	return EdgeBlockInfo{
		Seal:    blk.seal,
		Entries: blk.image.count(),
		Bytes:   int64(len(blk.image)),
		Overlay: int(t.blocks.overlayLen.Load()),
	}, true
}
