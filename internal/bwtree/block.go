package bwtree

import (
	"bytes"
	"log"
	"runtime"
	"slices"
	"sort"
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
// traffic. Writes since the seal accumulate in an overlay patched over the
// image at read time; when the overlay outgrows EdgeBlockRebuildOps the block
// is consolidated like a leaf: the overlay is folded into the next image at a
// newer seal (mergeEncode).
//
// The overlay is read by reference; the writer pays for the copy, and only for
// the part it touches:
//
//   - Invariant: the ops stand in a directory of runs (never empty; only run
//     0 may be), each a leaf-overlay-shaped []op — key-sorted, a key's ops in
//     arrival = LSN order — of at most blockRunOps ops, ascending, no key in
//     two of them: run i owns the keys from its first key up to run i+1's, run
//     0 everything below run 1's. Nothing a reader may hold is ever edited:
//     not a run built before the last take of the directory, nor a directory
//     that was taken.
//   - Mechanism: a write (captureLocked) merges the ops of its leaf run into
//     the run(s) that own them — into a fresh copy of a run if a directory
//     holding it was taken since it was built (born), in place otherwise (a
//     load nobody reads copies nothing) — and swaps the result into the
//     directory, itself copied first if it was taken since the last write. A
//     read (blockView) takes the directory as it stands, O(1), and reads the
//     image under one run after the other (edgeBlock.scan).
//   - Rebuild: there is no second, arrival-ordered copy. A rebuild copies the
//     runs out flat, folds that into the next image, and keeps exactly the ops
//     stamped above the new seal or arrived since the copy (their writers may
//     have been mid-capture): a key's later ops stand behind its earlier ones,
//     so walking the runs as they are then beside the copy tells the two
//     apart. The runs are cut afresh from what it kept.
//   - Pinned by blockRunsGap after every step of
//     TestDifferentialAgainstVersionMap, TestBlockRunDirectoryMatchesFlatOverlay,
//     TestStressOverlayReadersRaceWriters (-race) and
//     TestBlockWriteThenScanAllocatesBounded.
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
//   - The first build seeds the overlay before it scans the content at S,
//     and consolidation goes on meanwhile: pins may close and the floor rise
//     to F > S. The floor only rises (Source.PinAt refuses epochs below it,
//     and new pins are taken at the current epoch), so once a leaf folds at
//     F no reader below F is left. An op above S folded before both walks is
//     in the image alone, and every reader is above it; one folded between
//     them is in the image and the seeded overlay (replay is idempotent); one
//     folded after both is in the seeded overlay. A rebuild reads no leaf.
//     Pinned by TestFirstBuildAtARisenFloor.
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
	runs       []blockRun // the overlay: a directory of key-sorted runs (above)
	takes      uint64     // times a reader was handed the directory, to hold for good
	runsBorn   uint64     // takes when the directory's array was built
	overlayLen atomic.Int64

	blockBuildMu sync.Mutex    // serializes builds (TryLock)
	buildSpawned atomic.Bool   // one background build goroutine at a time
	lastSkipSeal atomic.Uint64 // seal+1 of the last pin-skipped build (0 = none)
}

// blockRun is one run of the overlay directory. born is blockState.takes when
// its array was built: while that stands no reader can hold the run, and a
// write may edit it in place.
type blockRun struct {
	ops  []op
	born uint64
}

// blockRunOps is the most ops a run of the overlay directory is cut to (a
// single key's ops alone take one past it), so what a write into a packed tree
// copies: 8 KiB. A constant, not a Config field: a smaller run costs a full
// scan two more binary searches per run, a larger one every write its copy,
// and no caller knows a better trade.
const blockRunOps = 128

// blockView returns the block and the overlay's run directory serving horizon
// h — blk.scan(runs, ...) is the read — or ok=false when the read must walk
// the leaves: no block, a pinned horizon with a writer mid-capture, or a
// (defensive) horizon below the seal.
func (t *Tree) blockView(h wal.LSN) (*edgeBlock, []blockRun, bool) {
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
	runs := t.blocks.runs
	t.blocks.takes++
	t.blocks.overlayMu.Unlock()
	if blk == nil {
		return nil, nil, false
	}
	if h < blk.seal {
		t.m.blockFallbacks.Add(1)
		return nil, nil, false
	}
	t.m.blockHits.Add(1)
	return blk, runs, true
}

// scan is the read of a block under a run directory: scanPage over the image
// one run at a time, each over the keys the run owns, with the limit and fn's
// stop carried from run to run.
func (b *edgeBlock) scan(runs []blockRun, from, to []byte, limit int, h wal.LSN, fn func(k, v []byte) bool) {
	i, j := runOf(runs, from), len(runs)-1
	if to != nil {
		j = runOf(runs, to)
	}
	for ; ; i++ {
		hi := to
		if i < j {
			hi = runs[i+1].ops[0].key
		}
		n, stopped := scanPage(b.image, runs[i].ops, from, hi, limit, h, fn)
		if stopped || i >= j || (limit > 0 && n >= limit) {
			return
		}
		from, limit = hi, limit-n
	}
}

// runOf returns the index of the run that owns key: the last one whose first
// key is at or below it, run 0 for a key below them all.
func runOf(runs []blockRun, key []byte) int {
	return sort.Search(len(runs)-1, func(i int) bool { return bytes.Compare(runs[i+1].ops[0].key, key) > 0 })
}

// cutRuns appends ops — key-sorted, each key's ops in arrival order — to dst
// as the fewest runs of at most blockRunOps ops, evenly sized, each ending
// where a key ends (no ops: one empty run). The runs alias ops, whose array
// was built at born; the last keeps its spare room, for writes in place.
func cutRuns(dst []blockRun, ops []op, born uint64) []blockRun {
	for pieces := max(1, (len(ops)+blockRunOps-1)/blockRunOps); ; pieces-- {
		n := (len(ops) + pieces - 1) / pieces
		for n < len(ops) && bytes.Equal(ops[n].key, ops[n-1].key) {
			n++
		}
		if n == len(ops) {
			return append(dst, blockRun{ops, born})
		}
		dst, ops = append(dst, blockRun{ops[:n:n], born}), ops[n:]
	}
}

// flatten returns the ops of runs as one overlay.
func flatten(runs []blockRun) []op {
	ops := make([]op, 0, len(runs)*blockRunOps/2)
	for _, r := range runs {
		ops = append(ops, r.ops...)
	}
	return ops
}

// captureLocked adds the ops a leaf run applied — key-sorted, each key's in
// arrival order — to the overlay: each stretch that one run owns is merged
// into that run (insertOps, the leaf overlay's own merge) — a copy of it if a
// reader may hold it — and the result, cut in two if it outgrew blockRunOps,
// takes its place. overlayMu must be held.
func (st *blockState) captureLocked(applied []op) {
	if st.runsBorn != st.takes {
		st.runs, st.runsBorn = slices.Clone(st.runs), st.takes
	}
	for len(applied) > 0 {
		i, n := runOf(st.runs, applied[0].key), len(applied)
		if i+1 < len(st.runs) {
			n = searchOps(applied, st.runs[i+1].ops[0].key)
		}
		run := st.runs[i].ops
		if st.runs[i].born != st.takes {
			run = append(make([]op, 0, len(run)+n), run...)
		}
		var pieces [2]blockRun
		st.runs = slices.Replace(st.runs, i, i+1, cutRuns(pieces[:0], insertOps(run, applied[:n]), st.takes)...)
		applied = applied[n:]
	}
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
			t.blocks.captureLocked(applied)
			t.addOverlayLen(int64(len(applied)))
			t.blocks.overlayMu.Unlock()
		}
		t.blocks.blockWriters.Add(-1)
	}
}

// collectRetainedAbove walks the leaf chain (left to right, per-leaf
// latch, structure read-locked) collecting every
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
	var ov []op // the overlay as a rebuild copied it: the ops in img if stamped at or below the seal
	if old == nil {
		estimate, ok := t.beginFirstBuild(seal)
		if !ok {
			return false, nil
		}
		var err error
		if img, err = t.contentAt(seal, estimate); err != nil {
			t.blocks.blockCapture.Store(false)
			return false, err
		}
	} else {
		// A rebuild is the block's consolidation: the old image with the
		// overlay folded in at the new seal — exactly the content readers at
		// that seal are being served already, so no leaf is read. An op
		// captured after this copy stays in the overlay whatever its stamp
		// (its writer may have been mid-capture).
		t.blocks.overlayMu.Lock()
		ov = flatten(t.blocks.runs)
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
	t.installBlock(old, seal, img, ov)
	return true, nil
}

// beginFirstBuild starts the first build at seal: it clears debris from any
// previously aborted capture, turns capture on and drains the writers that
// entered before they could see it — from here every applied op lands in the
// overlay — and seeds the overlay with the history the leaves retain above
// seal. It returns the live-entry estimate, or ok=false when that history
// already reaches the rebuild threshold (pins hold the floor down), with
// capture off again.
func (t *Tree) beginFirstBuild(seal wal.LSN) (estimate int, ok bool) {
	t.blocks.overlayMu.Lock()
	t.blocks.runs = make([]blockRun, 1)
	t.addOverlayLen(-t.blocks.overlayLen.Load())
	t.blocks.overlayMu.Unlock()
	t.blocks.blockCapture.Store(true)
	for t.blocks.preGate.Load() != 0 {
		runtime.Gosched()
	}
	seeded := t.collectRetainedAbove(seal)
	estimate = int(max(0, t.puts.Load()-t.deletes.Load()))
	if len(seeded) >= t.blockRebuildThreshold(estimate) {
		t.blocks.blockCapture.Store(false)
		t.noteBlockSkip(seal, len(seeded))
		return 0, false
	}
	t.blocks.overlayMu.Lock()
	t.blocks.runs = cutRuns(nil, sortOps(append(seeded, flatten(t.blocks.runs)...)), t.blocks.takes)
	t.blocks.overlayMu.Unlock()
	return estimate, true
}

// contentAt is the first build's content scan: the tree at seal as one image.
// MVCC makes this a consistent cut for epoch trees — consolidation may fold
// ops above seal meanwhile, once the floor has risen past them, and then no
// reader below the floor is left to tell (the correctness protocol at the top
// of this file); for sync trees
// any op racing the scan is captured in the overlay, and replaying it over the
// block is idempotent. The pairs alias page memory, which is immutable, until
// the encode has copied them.
func (t *Tree) contentAt(seal wal.LSN, estimate int) (leafImage, error) {
	content := make([]op, 0, estimate)
	if err := t.ScanAt(nil, nil, 0, seal, func(k, v []byte) bool {
		content = append(content, op{key: k, val: v})
		return true
	}); err != nil {
		return nil, err
	}
	return mergeEncode(emptyLeaf, content, nil, nil, horizonAll)
}

// installBlock swaps the block at seal in and cuts the overlay down to the
// ops the new seal still needs — everything above it, plus everything that
// arrived once the image's content was taken (replaying one the image already
// has is idempotent). ov is the overlay a rebuild copied, nil for a first
// build. The runs hold ov's ops in ov's order with the later arrivals of a key
// behind them, so an op is one of ov's exactly when ov's next is of its key.
// The runs are cut afresh from what is kept: readers may hold the old ones.
func (t *Tree) installBlock(old *edgeBlock, seal wal.LSN, img leafImage, ov []op) {
	t.blocks.overlayMu.Lock()
	var kept []op
	for _, run := range t.blocks.runs {
		for _, o := range run.ops {
			if len(ov) > 0 && bytes.Equal(ov[0].key, o.key) {
				if ov = ov[1:]; o.lsn <= seal {
					continue
				}
			}
			kept = append(kept, o)
		}
	}
	t.blocks.runs, t.blocks.runsBorn = cutRuns(nil, kept, t.blocks.takes), t.blocks.takes
	t.addOverlayLen(int64(len(kept)) - t.blocks.overlayLen.Load())
	t.blocks.block.Store(&edgeBlock{seal: seal, image: img})
	t.blocks.overlayMu.Unlock()
	t.blocks.lastSkipSeal.Store(0)

	t.m.noteBlockBuilt(img.count(), int64(len(img)))
	if old != nil {
		t.m.noteBlockDropped(old.image.count(), int64(len(old.image)))
	}
}

// addOverlayLen moves the overlay's published size — what the build triggers
// read without overlayMu — and with it the mapping's gauge over all trees.
func (t *Tree) addOverlayLen(d int64) {
	t.blocks.overlayLen.Add(d)
	t.m.blockOverlay.Add(d)
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
