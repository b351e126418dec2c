package bwtree

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"bg3/internal/wal"
)

// Packed edge blocks: the sequential-adjacency layout of super-vertex
// dedicated trees (§3.2.1). Once a tree holds EdgeBlockMinEntries live keys, a
// build copies it into one chunk per leaf — the leaf's content at ∞ as one
// resident leaf image (encode.go), read by the merge every leaf is read by
// (scanPage) — and publishes the array at once. A scan walks the chunks in key
// order: no routing, no page cache, no overlay to merge.
//
// The block is a cache of its leaves, and writers touch nothing of it:
//
//   - Invariant: a chunk is its leaf's content at ∞ while the leaf's version is
//     the one the chunk recorded, and that content is the leaf's content at
//     every horizon at or above the highest LSN the leaf's overlay held then
//     (a base holds nothing above the retention floor, no live pin is below
//     it). Every path that changes a leaf's content or range bumps its version
//     under the latch it holds: applyRun, halve (a leader's split and an
//     applier's), ApplyRecord and takeOver.
//   - Read rule (chunk.serves): a chunk serves a read at h when h is at or
//     above its LSN and its leaf's version, checked under the leaf's latch, is
//     unchanged; its image is then walked unlatched, as scanLeaf walks a leaf
//     it cut. A writer assigns its LSNs and applies its ops under that latch,
//     so no op a reader's epoch covers can be on its way into a leaf the check
//     finds clean. Any other chunk's range takes the ordinary leaf step, one
//     leaf at a time (scanBlock's callers), each counted as a fallback.
//   - Build (edgeBlockWanted says when): the current chunks are walked; a
//     clean one is kept as it is, and the leaves that now cover a stale one's
//     range (leaves only ever narrow) are re-read one latch at a time. The
//     first build is one stale chunk over the whole tree. A clean leaf is
//     never loaded.
//   - Residency (standsIn): a leaf a scan walked in place of a stale chunk is
//     marked, and so is each half it splits into. The page cache does not
//     evict a marked leaf while it stands in for a stale chunk, so scans
//     beside writers do not read it from storage again and the rebuild finds
//     it resident; a leaf no scan walks is evicted like any other. The
//     rebuild cadence bounds what that keeps resident.
//   - Pinned by TestDifferentialAgainstVersionMap (blockGap: every chunk clean
//     at a live horizon reads as the version map there, and scans count a hit
//     per clean chunk and a fallback per leaf of a stale one),
//     TestEachChangeStalesItsOwnChunk, TestFirstBuildCapturesEveryWriter,
//     TestScansRebuildAStaleBlock, TestRebuildLoadsNoCleanLeaf,
//     TestStressOverlayReadersRaceWriters and
//     TestStressLatestBlockReadsDoNotFallBack (-race).
//
// Blocks are an RW-node read-path acceleration held in memory only: nothing
// reads a block back from storage, so nothing is written there; after
// recovery they are rebuilt lazily from the thresholds, and replicas (which
// apply WAL records through their own page structures) never build them.

// chunk is one leaf as a build found it.
type chunk struct {
	e       *pageEntry
	version uint64    // e.version at the build
	lsn     wal.LSN   // the highest LSN in e's overlay at the build
	lo, hi  []byte    // e's range at the build
	image   leafImage // e's content at ∞ inside [lo, hi)
}

// clean reports whether c's leaf is unchanged since the build.
func (c *chunk) clean() bool {
	c.e.mu.Lock()
	clean := c.e.version == c.version
	c.e.mu.Unlock()
	return clean
}

// serves is the read rule: c answers a read at h.
func (c *chunk) serves(h wal.LSN) bool { return h >= c.lsn && c.clean() }

// standsIn reports whether leaf e stands in for a stale chunk of the tree's
// block: it changed since the build, or split off a leaf since. Scans walk
// such a leaf in the chunk's place until the next build re-reads it, so the
// page cache keeps one they walked (e.walked) resident until then
// (noteCached). e.mu must be held.
func (t *Tree) standsIn(e *pageEntry) bool {
	blk := t.blocks.block.Load()
	if blk == nil {
		return false
	}
	c := &blk.chunks[blk.chunkAt(e.lo)]
	return c.e != e || c.version != e.version
}

// edgeBlock is a tree's packed adjacency: its chunks in key order, tiling the
// key space. Immutable once published.
type edgeBlock struct {
	chunks  []chunk
	entries int
	bytes   int64
	writes  int64        // the tree's puts and deletes when the build began
	walked  atomic.Int64 // leaves scans walked for stale chunks since
}

// chunkAt returns the index of the chunk whose range holds key.
func (b *edgeBlock) chunkAt(key []byte) int {
	return sort.Search(len(b.chunks)-1, func(i int) bool { return bytes.Compare(b.chunks[i].hi, key) > 0 })
}

// blockState is the per-tree edge-block machinery embedded in Tree.
type blockState struct {
	block        atomic.Pointer[edgeBlock]
	blockBuildMu sync.Mutex  // serializes builds (TryLock)
	buildSpawned atomic.Bool // one background build goroutine at a time
}

// scanBlock is the block's part of a range read: from the chunk holding from
// on, it delivers the pairs of [from, to) of every chunk that serves h, at most
// owed of them (<= 0: unlimited), and reports whether the scan is done — fn
// stopped it, the limit or to was reached. Otherwise it stopped at a chunk
// that does not serve h, from resume on, and the caller walks that leaf. A
// tree with no block serves nothing.
func (t *Tree) scanBlock(from, to []byte, owed int, h wal.LSN, fn func(k, v []byte) bool) (n int, resume []byte, done bool) {
	blk := t.blocks.block.Load()
	if blk == nil {
		return 0, from, false
	}
	hits := int64(0)
	defer func() { t.m.blockHits.Add(hits) }()
	end := len(blk.chunks) - 1 // the last chunk [from, to) reaches into
	if to != nil {
		end = sort.Search(end, func(i int) bool { return bytes.Compare(blk.chunks[i].hi, to) >= 0 })
	}
	// An image holds nothing outside its chunk's range, so only a bound inside
	// it is searched for: from in the first chunk, to in the last.
	for i, lo := blk.chunkAt(from), from; ; i, lo = i+1, nil {
		c := &blk.chunks[i]
		if !c.serves(h) {
			t.m.blockFallbacks.Add(1)
			if h >= c.lsn { // stale: a rebuild would serve it
				blk.walked.Add(1)
			}
			if lo == nil {
				lo = c.lo
			}
			return n, lo, false
		}
		hits++
		var hi []byte
		last := i >= end
		if last {
			hi = to
		}
		k, stopped := scanPage(c.image, nil, lo, hi, owed-n, horizonAll, fn)
		if n += k; stopped || last || (owed > 0 && n >= owed) {
			return n, nil, true
		}
	}
}

// maybeBuildEdgeBlock is the flush-time build trigger: it checks the
// thresholds cheaply and runs the build inline (the flusher's goroutine).
func (t *Tree) maybeBuildEdgeBlock() {
	if !t.edgeBlockWanted() {
		return
	}
	_, _ = t.TryBuildEdgeBlock()
}

// maybeSpawnEdgeBlockBuild is the trigger every write and range read ends
// with. It fires on every tree — async-flushed ones too, beside their
// flush-time trigger; a sync-flushed tree has no other: when the thresholds
// say a build is due, it spawns at most one background build goroutine.
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

// edgeBlockWanted reports whether a build is due: no block yet and the tree
// holds EdgeBlockMinEntries live keys, or a block that the tree has taken
// max(64, entries/4) writes past — so rebuild work stays bounded at a few
// entry copies per write on big trees — or whose stale chunks have cost
// scans as many leaf walks as it has chunks: a rebuild re-reads each stale
// leaf once, so it costs no more than the walks it saves. Without that,
// writes scattered over a packed tree after its last build would leave it
// read through its leaves until the next write-count rebuild, however long
// reads go on.
func (t *Tree) edgeBlockWanted() bool {
	if t.cfg.EdgeBlockMinEntries <= 0 {
		return false
	}
	if blk := t.blocks.block.Load(); blk != nil {
		return t.writes()-blk.writes >= int64(max(64, blk.entries/4)) || blk.walked.Load() >= int64(len(blk.chunks))
	}
	return t.keys.Load() >= int64(t.cfg.EdgeBlockMinEntries)
}

// writes returns the puts and deletes the tree has applied.
func (t *Tree) writes() int64 { return t.puts.Load() + t.deletes.Load() }

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
// a build in flight — the one the write path spawns at the threshold, which
// may have walked the leaves before the latest writes — instead of skipping
// the tree, so the caller's first call packs all of it.
func (t *Tree) BuildEdgeBlock() (bool, error) {
	if t.cfg.EdgeBlockMinEntries <= 0 {
		return false, nil
	}
	t.blocks.blockBuildMu.Lock()
	defer t.blocks.blockBuildMu.Unlock()
	return t.buildEdgeBlockLocked()
}

// buildEdgeBlockLocked is the one build (the protocol at the top of this
// file). A build that fails installs nothing.
func (t *Tree) buildEdgeBlockLocked() (bool, error) {
	old := t.blocks.block.Load()
	stale := []chunk{{}} // the first build: one stale chunk over the whole tree
	if old != nil {
		stale = old.chunks
	}
	blk := &edgeBlock{
		chunks: make([]chunk, 0, max(len(stale), int(t.keys.Load())/t.cfg.MaxPageEntries)),
		writes: t.writes(),
	}
	for _, c := range stale {
		if c.e != nil && c.clean() {
			blk.add(c)
			continue
		}
		for from := c.lo; ; {
			nc, err := t.readChunk(from)
			if err != nil {
				return false, err
			}
			blk.add(nc)
			if nc.hi == nil || (c.hi != nil && bytes.Compare(nc.hi, c.hi) >= 0) {
				break
			}
			from = nc.hi
		}
	}
	t.blocks.block.Store(blk)
	t.m.noteBlockBuilt(blk.entries, blk.bytes)
	if old != nil {
		t.m.noteBlockDropped(old.entries, old.bytes)
	}
	return true, nil
}

// add appends c to a block being built.
func (b *edgeBlock) add(c chunk) {
	b.chunks = append(b.chunks, c)
	b.entries += c.image.count()
	b.bytes += int64(len(c.image))
}

// readChunk latches the leaf covering from (nil: the first) and takes its
// chunk.
func (t *Tree) readChunk(from []byte) (chunk, error) {
	if from == nil {
		from = []byte{}
	}
	e := t.latchLeaf(from)
	defer e.mu.Unlock()
	base, _, err := t.materialize(e, false)
	if err != nil {
		return chunk{}, err
	}
	img, err := mergeEncode(nil, base, e.overlay, e.lo, e.hi, horizonAll)
	if err != nil {
		return chunk{}, err
	}
	c := chunk{e: e, version: e.version, lo: e.lo, hi: e.hi, image: img}
	for _, o := range e.overlay {
		c.lsn = max(c.lsn, o.lsn)
	}
	return c, nil
}

// EdgeBlockInfo is a diagnostic snapshot of a tree's packed block.
type EdgeBlockInfo struct {
	Entries int
	Bytes   int64 // resident size of the chunks' images
}

// EdgeBlock returns the current block's shape, or ok=false when the tree
// has none.
func (t *Tree) EdgeBlock() (EdgeBlockInfo, bool) {
	blk := t.blocks.block.Load()
	if blk == nil {
		return EdgeBlockInfo{}, false
	}
	return EdgeBlockInfo{Entries: blk.entries, Bytes: blk.bytes}, true
}
