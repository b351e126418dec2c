package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Packed edge blocks (ISSUE 8): the sequential-adjacency layout for
// super-vertex dedicated trees. Once a tree's adjacency outgrows
// EdgeBlockMinEntries, its whole content as of a sealed LSN (the MVCC
// retention floor) is materialized into one immutable, sorted, packed
// array — scanned with a binary-search entry and a branch-free linear
// walk instead of page-at-a-time delta-chain reconstruction. Writes since
// the seal accumulate in a small overlay patched over the block at read
// time; when the overlay outgrows EdgeBlockRebuildOps the block is
// rebuilt at a newer seal. The encoded block is persisted to the base
// stream as CRC-framed parts whose extents GC treats as pinned until the
// block is superseded.
//
// Correctness protocol (MVCC, PR 7 semantics preserved exactly):
//
//   - Seal S = retention floor at build time. Every live pin's horizon is
//     >= the floor, so pinned readers never fall below the block; reads at
//     h < S (defensive) walk the leaves instead (page.go).
//   - The overlay holds every op with LSN > S. The first build turns on
//     capture, drains writers that entered before capture (preGate), and
//     seeds the overlay from the leaf chains' retained history above S;
//     rebuilds inherit the continuously captured overlay, filtered to the
//     new seal.
//   - A writer between LSN assignment and its overlay append is counted
//     in blockWriters; readers observing a nonzero count walk the leaves
//     instead, so an op can never be visible at a released epoch without
//     being in the overlay.
//   - During a build, consolidation is clamped to fold nothing above S
//     (buildClamp), so the content scan at S stays reconstructible even
//     if every pin is released mid-build.
//
// Blocks are an RW-node read-path acceleration: they are rebuilt lazily
// after recovery rather than restored, and replicas (which apply WAL
// records through their own page structures) never build them.

// ErrCorruptBlock reports an undecodable edge-block part. Decoding is
// fail-stop: a truncated or bit-flipped part yields this error and the
// reader stays on the delta path — never a wrong scan.
var ErrCorruptBlock = errors.New("bwtree: corrupt edge block")

// edgeBlockMagic heads every encoded part ("EBK2": edge block, v2 frame).
var edgeBlockMagic = [4]byte{'E', 'B', 'K', '2'}

// edgeBlockHeaderSize = magic[4] crc[4] seal[8] part[4] nparts[4] count[4].
const edgeBlockHeaderSize = 28

// edgeBlock is an immutable packed snapshot of a tree's full content at
// the sealed LSN. entries are sorted and private to the block; readers
// iterate them with no per-entry decode or branching.
type edgeBlock struct {
	seal    wal.LSN
	entries []kv
	tags    []uint64 // storage tags of the durable parts (PageID space)
	bytes   int64    // total encoded size of all parts
}

// blockState is the per-tree edge-block machinery embedded in Tree.
type blockState struct {
	block        atomic.Pointer[edgeBlock]
	blockCapture atomic.Bool
	preGate      atomic.Int64 // writers that entered before capture was on
	blockWriters atomic.Int64 // capturing writers between LSN assignment and overlay append

	overlayMu  sync.Mutex
	overlay    []op // append order; rebuilds rely on indices (scanStart)
	overlayLen atomic.Int64

	// sorted is a read-side snapshot of overlay stably sorted by key
	// (per-key append order preserved), refreshed lazily in blockView so
	// scans binary-search their range instead of filtering and sorting
	// the whole overlay per read. sortedN is the overlay length it covers;
	// -1 forces a full rebuild after the overlay is structurally replaced.
	sorted  []op
	sortedN int

	blockBuildMu sync.Mutex    // serializes builds (TryLock)
	buildSpawned atomic.Bool   // one background build goroutine at a time
	buildClamp   atomic.Uint64 // seal+1 while a build is in flight (0 = none)
	lastSkipSeal atomic.Uint64 // seal+1 of the last pin-skipped build (0 = none)
}

// encodeEdgeBlockPart encodes one part:
//
//	magic[4] crc[4] seal[8] part[4] nparts[4] count[4] { klen[4] vlen[4] key val }*
//
// crc is IEEE over everything after the crc field, so a flip anywhere —
// header or payload — is caught.
func encodeEdgeBlockPart(entries []kv, seal wal.LSN, part, nparts uint32) []byte {
	size := edgeBlockHeaderSize
	for _, e := range entries {
		size += 8 + len(e.key) + len(e.val)
	}
	buf := make([]byte, 8, size)
	copy(buf, edgeBlockMagic[:])
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seal))
	buf = binary.LittleEndian.AppendUint32(buf, part)
	buf = binary.LittleEndian.AppendUint32(buf, nparts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.val)))
		buf = append(buf, e.key...)
		buf = append(buf, e.val...)
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// decodeEdgeBlockPart is the fail-stop inverse: any framing violation —
// short buffer, bad magic, CRC mismatch, inconsistent count, trailing
// garbage, unsorted keys — returns ErrCorruptBlock.
func decodeEdgeBlockPart(buf []byte) (entries []kv, seal wal.LSN, part, nparts uint32, err error) {
	fail := func(what string) ([]kv, wal.LSN, uint32, uint32, error) {
		return nil, 0, 0, 0, fmt.Errorf("%w: %s", ErrCorruptBlock, what)
	}
	if len(buf) < edgeBlockHeaderSize {
		return fail("short header")
	}
	if !bytes.Equal(buf[:4], edgeBlockMagic[:]) {
		return fail("bad magic")
	}
	if crc32.ChecksumIEEE(buf[8:]) != binary.LittleEndian.Uint32(buf[4:8]) {
		return fail("crc mismatch")
	}
	seal = wal.LSN(binary.LittleEndian.Uint64(buf[8:16]))
	part = binary.LittleEndian.Uint32(buf[16:20])
	nparts = binary.LittleEndian.Uint32(buf[20:24])
	count := binary.LittleEndian.Uint32(buf[24:28])
	if nparts == 0 || part >= nparts {
		return fail("part index out of range")
	}
	rest := buf[edgeBlockHeaderSize:]
	entries = make([]kv, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 8 {
			return fail("truncated entry header")
		}
		klen := binary.LittleEndian.Uint32(rest)
		vlen := binary.LittleEndian.Uint32(rest[4:])
		rest = rest[8:]
		if uint64(len(rest)) < uint64(klen)+uint64(vlen) {
			return fail("truncated entry body")
		}
		key := append([]byte(nil), rest[:klen]...)
		val := append([]byte(nil), rest[klen:klen+vlen]...)
		rest = rest[klen+vlen:]
		if len(entries) > 0 && bytes.Compare(entries[len(entries)-1].key, key) >= 0 {
			return fail("keys out of order")
		}
		entries = append(entries, kv{key: key, val: val})
	}
	if len(rest) != 0 {
		return fail("trailing bytes")
	}
	return entries, seal, part, nparts, nil
}

// splitEdgeBlockParts greedily packs entries into encoded parts no larger
// than maxPart bytes each, so every part fits one storage extent.
func splitEdgeBlockParts(entries []kv, seal wal.LSN, maxPart int) ([][]byte, error) {
	var ranges [][]kv
	start, size := 0, edgeBlockHeaderSize
	for i, e := range entries {
		es := 8 + len(e.key) + len(e.val)
		if edgeBlockHeaderSize+es > maxPart {
			return nil, fmt.Errorf("bwtree: edge block entry of %d bytes exceeds extent size %d", es, maxPart)
		}
		if size+es > maxPart {
			ranges = append(ranges, entries[start:i])
			start, size = i, edgeBlockHeaderSize
		}
		size += es
	}
	ranges = append(ranges, entries[start:]) // possibly empty: a block always has >= 1 part
	parts := make([][]byte, len(ranges))
	for i, r := range ranges {
		parts[i] = encodeEdgeBlockPart(r, seal, uint32(i), uint32(len(ranges)))
	}
	return parts, nil
}

// blockView returns the packed block and the key-sorted overlay snapshot
// serving horizon h, or ok=false when the read must walk the leaves: no
// block, a writer mid-capture, or a (defensive) horizon below the seal.
func (t *Tree) blockView(h wal.LSN) (*edgeBlock, []op, bool) {
	if t.blocks.block.Load() == nil {
		return nil, nil, false
	}
	t.blocks.overlayMu.Lock()
	if t.blocks.blockWriters.Load() != 0 {
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

// sortedOverlayLocked returns the overlay stably sorted by key, refreshing
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
	if st.sortedN < 0 || st.sortedN > n {
		st.sorted, st.sortedN = nil, 0
	}
	tail := append([]op(nil), st.overlay[st.sortedN:]...)
	sort.SliceStable(tail, func(i, j int) bool { return bytes.Compare(tail[i].key, tail[j].key) < 0 })
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

// searchKV binary-searches sorted entries for key.
func searchKV(entries []kv, key []byte) (int, bool) {
	idx := sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].key, key) >= 0
	})
	return idx, idx < len(entries) && bytes.Equal(entries[idx].key, key)
}

// scanEdgeBlock is ScanAt over the packed array: binary-search the entry
// point, then a linear walk. With an empty overlay range (the common case
// for a sealed super-vertex) the loop touches each entry with no
// per-entry branching beyond the callback; otherwise it streams a
// two-pointer merge of block and key-sorted overlay, collapsing each
// overlay key run to its last op visible at h (per-key order is LSN
// order) on the fly — nothing is materialized, and a limited read stops
// after limit entries no matter how large the overlay is.
func (t *Tree) scanEdgeBlock(blk *edgeBlock, ov []op, from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	entries := blk.entries
	start := 0
	if len(from) > 0 {
		start, _ = searchKV(entries, from)
	}
	end := len(entries)
	if to != nil {
		if i, _ := searchKV(entries, to); i < end {
			end = i
		}
	}
	lo := 0
	if len(from) > 0 {
		lo = sort.Search(len(ov), func(i int) bool { return bytes.Compare(ov[i].key, from) >= 0 })
	}
	hi := len(ov)
	if to != nil {
		hi = lo + sort.Search(len(ov)-lo, func(i int) bool { return bytes.Compare(ov[lo+i].key, to) >= 0 })
	}
	if lo == hi {
		if limit > 0 && end-start > limit {
			end = start + limit
		}
		for _, e := range entries[start:end] {
			if !fn(e.key, e.val) {
				return nil
			}
		}
		return nil
	}
	// cur is the next overlay patch op: the last instance visible at h of
	// the key run starting at j. Runs with no visible instance drop out.
	j := lo
	var cur op
	curOK := false
	advance := func() {
		curOK = false
		for j < hi && !curOK {
			k, last := j, -1
			for ; k < hi && bytes.Equal(ov[k].key, ov[j].key); k++ {
				if ov[k].lsn <= h {
					last = k
				}
			}
			if last >= 0 {
				cur = ov[last]
				curOK = true
			}
			j = k
		}
	}
	advance()
	delivered := 0
	emit := func(k, v []byte) bool {
		delivered++
		if !fn(k, v) {
			return false
		}
		return limit <= 0 || delivered < limit
	}
	i := start
	for i < end && curOK {
		switch c := bytes.Compare(entries[i].key, cur.key); {
		case c < 0:
			if !emit(entries[i].key, entries[i].val) {
				return nil
			}
			i++
		case c == 0:
			if !cur.del && !emit(cur.key, cur.val) {
				return nil
			}
			i++
			advance()
		default:
			if !cur.del && !emit(cur.key, cur.val) {
				return nil
			}
			advance()
		}
	}
	for ; i < end; i++ {
		if !emit(entries[i].key, entries[i].val) {
			return nil
		}
	}
	for ; curOK; advance() {
		if !cur.del && !emit(cur.key, cur.val) {
			return nil
		}
	}
	return nil
}

// blockWriteEnter is called by applyWrite before the op's WAL record is
// logged (before its LSN exists). It returns which gate the writer holds:
// 0 = none (blocks disabled), 1 = preGate, 2 = capturing.
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

// blockWriteExit completes the capture protocol after the op was applied
// (applied=false on error paths: the gate is released, nothing captured).
// Called with the page latch still held, so per-key overlay order is
// per-key latch order — LSN order.
func (t *Tree) blockWriteExit(gate int, o op, applied bool) {
	switch gate {
	case 1:
		t.blocks.preGate.Add(-1)
	case 2:
		if applied {
			t.blocks.overlayMu.Lock()
			t.blocks.overlay = append(t.blocks.overlay, o)
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
	return t.blocks.overlayLen.Load() >= int64(t.blockRebuildThreshold(len(blk.entries)))
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
	first := old == nil

	// Seal at the retention floor and clamp consolidation there for the
	// duration of the build: the content scan at the seal must stay
	// reconstructible even if every pin is released mid-build. Sync trees
	// (no epoch clock) stamp every op LSN 0 and seal at 0.
	var seal wal.LSN
	if t.cfg.Epochs != nil {
		seal = wal.LSN(t.cfg.Epochs.Floor())
		t.blocks.buildClamp.Store(uint64(seal) + 1)
		defer t.blocks.buildClamp.Store(0)
	}
	if old != nil && seal < old.seal {
		seal = old.seal
	}

	var scanStart int
	if first {
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
		if len(seeded) >= t.blockRebuildThreshold(int(t.puts.Load()-t.deletes.Load())) {
			t.blocks.blockCapture.Store(false)
			t.noteBlockSkip(seal, len(seeded))
			return false, nil
		}
		if len(seeded) > 0 {
			t.blocks.overlayMu.Lock()
			t.blocks.overlay = append(seeded, t.blocks.overlay...)
			t.blocks.overlayLen.Store(int64(len(t.blocks.overlay)))
			t.blocks.sorted, t.blocks.sortedN = nil, -1 // indices shifted
			t.blocks.overlayMu.Unlock()
		}
	} else {
		// A rebuild that cannot shrink the overlay below the rebuild
		// threshold (pins holding the floor down) would retrigger forever;
		// skip it until the floor moves.
		above := 0
		t.blocks.overlayMu.Lock()
		for _, o := range t.blocks.overlay {
			if o.lsn > seal {
				above++
			}
		}
		t.blocks.overlayMu.Unlock()
		if above >= t.blockRebuildThreshold(len(old.entries)) {
			t.noteBlockSkip(seal, above)
			return false, nil
		}
	}

	abort := func() {
		if first {
			t.blocks.blockCapture.Store(false)
		}
	}

	// Content scan at the seal. MVCC makes this a consistent cut for
	// epoch trees; for sync trees any op racing the scan is captured in
	// the overlay, and replaying it over the block is idempotent.
	t.blocks.overlayMu.Lock()
	scanStart = len(t.blocks.overlay)
	t.blocks.overlayMu.Unlock()
	var entries []kv
	err := t.ScanAt(nil, nil, 0, seal, func(k, v []byte) bool {
		entries = append(entries, kv{
			key: append([]byte(nil), k...),
			val: append([]byte(nil), v...),
		})
		return true
	})
	if err != nil {
		abort()
		return false, err
	}

	// Persist the packed layout: CRC-framed parts, one extent each at
	// most, tagged from the page-ID space so GC relocation can find them.
	parts, err := splitEdgeBlockParts(entries, seal, t.store.ExtentSize())
	if err != nil {
		abort()
		return false, err
	}
	tags := make([]uint64, len(parts))
	locs := make([]storage.Loc, len(parts))
	var total int64
	for i, p := range parts {
		tags[i] = uint64(t.m.allocPageID())
		loc, err := t.flushAppend(storage.StreamBase, tags[i], p)
		if err != nil {
			for j := 0; j < i; j++ {
				t.store.Invalidate(locs[j])
			}
			abort()
			return false, err
		}
		locs[i] = loc
		total += int64(len(p))
	}
	t.m.registerBlockParts(tags, locs)

	// Install: swap the block in and cut the overlay down to the ops the
	// new seal still needs — everything above it, plus everything that
	// arrived once the content scan was underway (a racing writer's op
	// may or may not be in the scan; replaying it is idempotent). The old
	// slice may be referenced by in-flight readers, so build a fresh one.
	blk := &edgeBlock{seal: seal, entries: entries, tags: tags, bytes: total}
	t.blocks.overlayMu.Lock()
	if !first {
		kept := make([]op, 0, len(t.blocks.overlay)-scanStart+8)
		for i, o := range t.blocks.overlay {
			if o.lsn > seal || i >= scanStart {
				kept = append(kept, o)
			}
		}
		t.blocks.overlay = kept
		t.blocks.sorted, t.blocks.sortedN = nil, -1 // indices shifted
	}
	t.blocks.overlayLen.Store(int64(len(t.blocks.overlay)))
	t.blocks.block.Store(blk)
	t.blocks.overlayMu.Unlock()
	t.blocks.lastSkipSeal.Store(0)

	t.m.noteBlockBuilt(len(entries), total, len(tags))
	if old != nil {
		for _, loc := range t.m.dropBlockParts(old.tags) {
			t.store.Invalidate(loc)
		}
		t.m.noteBlockDropped(len(old.entries), old.bytes, len(old.tags))
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
	Parts   int
	Bytes   int64
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
		Entries: len(blk.entries),
		Parts:   len(blk.tags),
		Bytes:   blk.bytes,
		Overlay: int(t.blocks.overlayLen.Load()),
	}, true
}
