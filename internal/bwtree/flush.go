package bwtree

import (
	"fmt"
	"slices"

	"bg3/internal/storage"
)

// flushAppend persists one record on the flush path with the store's bounded
// retry, leaving the page dirty for the next cycle when it gives up, and
// returns where it lies and the stored record.
func (t *Tree) flushAppend(stream storage.StreamID, tag uint64, data []byte) (storage.Loc, []byte, error) {
	var loc storage.Loc
	var rec []byte
	err := t.store.Retry().Do("bwtree: flush append", func() error {
		var aerr error
		loc, rec, aerr = t.store.AppendEpoch(stream, 0, tag, data)
		return aerr
	})
	return loc, rec, err
}

// idleScratch is a bounded free list of the flush's encode buffers. A base
// image or a delta record is encoded into one and appended, and the buffer
// goes back: storage keeps its own copy, and the page keeps that
// (persistBase). It is not a sync.Pool, for the reason idleFrontiers (graph)
// gives; four serve the flusher beside a few sync writers, and a buffer past
// maxKeptScratch is let go, as the WAL lets a large frame go.
var idleScratch = make(chan []byte, 4)

const maxKeptScratch = 64 << 10

// takeScratch returns an idle encode buffer, or nil when none is idle.
func takeScratch() []byte {
	select {
	case b := <-idleScratch:
		return b
	default:
		return nil
	}
}

// putScratch keeps b idle, unless it is over maxKeptScratch or the free list
// is full. Nothing may read b afterwards.
func putScratch(b []byte) {
	if cap(b) == 0 || cap(b) > maxKeptScratch {
		return
	}
	select {
	case idleScratch <- b[:0]:
	default:
	}
}

// MappingUpdate describes the durable records of one leaf — where a flush or
// a GC move left them. The RW node encodes these into the checkpoint WAL
// record (§3.4 step 8) so RO nodes can advance their page tables. A Named
// update is the rolling checkpoint naming the leaf whole (NameLeaves): it
// also carries the leaf's low key and its tree's role in the forest, which
// is what a follower that never saw the leaf created places it by.
type MappingUpdate struct {
	Tree   TreeID
	Page   PageID
	Base   storage.Loc
	Deltas []storage.Loc

	Named bool
	Lo    []byte // the leaf's low key; nil on its tree's leftmost leaf
	Init  bool   // the tree is the forest's INIT tree
	Owned bool   // the tree is Owner's dedicated tree
	Owner uint64
}

// NameLeaves names every leaf whose page ID is bucket modulo k and that has
// durable records: their locations and its low key, read under its latch
// (the tree's role is the forest's to add). A leaf no flush has written yet
// — a split half, or a new tree's root, before its first flush — has nothing
// durable to name; the record that created it is what a follower learns it
// from. Any k consecutive buckets name every leaf that existed before the
// first of them and was flushed since. The updates are appended to dst.
func (m *Mapping) NameLeaves(dst []MappingUpdate, bucket, k int) []MappingUpdate {
	m.mu.RLock()
	var named []*pageEntry
	for id, e := range m.pages {
		if e.isLeaf && uint64(id)%uint64(k) == uint64(bucket) {
			named = append(named, e)
		}
	}
	m.mu.RUnlock()
	for _, e := range named {
		e.mu.Lock()
		if !e.baseLoc.IsZero() {
			dst = append(dst, MappingUpdate{
				Tree: e.tree.id, Page: e.id, Base: e.baseLoc,
				Deltas: slices.Clone(e.deltaLocs), Named: true, Lo: e.lo,
			})
		}
		e.mu.Unlock()
	}
	return dst
}

// DirtyCount returns the number of pages awaiting a flush.
func (t *Tree) DirtyCount() int {
	t.dirtyMu.Lock()
	defer t.dirtyMu.Unlock()
	return len(t.dirtySet)
}

// FlushDirty persists every dirty page (the group commit of §3.4: "dirty
// pages are flushed by a background thread once they reach a threshold";
// this repository's flusher runs on its interval alone, FlushInterval) and
// appends to dst the mapping updates describing the new durable locations.
// Safe for concurrent callers (the background flusher and a manual
// checkpoint or snapshot may overlap).
func (t *Tree) FlushDirty(dst []MappingUpdate) ([]MappingUpdate, error) {
	return t.flushPages(dst, t.takeDirty())
}

// takeDirty empties the dirty set and returns the pages that were in it.
func (t *Tree) takeDirty() []PageID {
	t.dirtyMu.Lock()
	defer t.dirtyMu.Unlock()
	ids := make([]PageID, 0, len(t.dirtySet))
	for id := range t.dirtySet {
		ids = append(ids, id)
	}
	clear(t.dirtySet)
	return ids
}

func (t *Tree) flushPages(updates []MappingUpdate, ids []PageID) ([]MappingUpdate, error) {
	for i := 0; i < len(ids); i++ {
		e := t.m.get(ids[i])
		if e == nil {
			continue // a sibling not linked in yet: its page's flush chases it
		}
		e.mu.Lock()
		if (e.splitPending || e.lends) && e.next != 0 {
			// This flush narrows the page's durable records to its own
			// range, and replicas read the sibling it split off through them
			// until the sibling has records of its own. A sibling split off
			// after ids was taken is not in this cycle: flush it with its
			// parent (a no-op if it is clean or comes up anyway), or the
			// checkpoint takes its range away from replicas for a cycle.
			ids = append(ids, e.next)
		}
		flushed, err := t.flushPageLocked(e, nil)
		if flushed {
			updates = append(updates, MappingUpdate{
				Tree: t.id, Page: e.id, Base: e.baseLoc,
				Deltas: append([]storage.Loc(nil), e.deltaLocs...),
			})
		}
		e.mu.Unlock()
		if err != nil {
			// Put the failed page and every page not yet attempted back in
			// the dirty set: a flush aborted by a storage failure must stay
			// retryable, or those pages would never reach durable storage.
			t.dirtyMu.Lock()
			for _, rid := range ids[i:] {
				t.dirtySet[rid] = struct{}{}
			}
			t.dirtyMu.Unlock()
			return updates, fmt.Errorf("bwtree: flush page %d: %w", ids[i], err)
		}
	}
	return updates, nil
}

// dirtied is the one way a leaf changed under its latch heads for storage —
// a write run (applyRun), the halves a split changed, a page handed over
// (TakeOver): it is marked dirty, and the logger decides only when
// flushPageLocked writes it. A tree with one leaves it in the dirty set for the
// flusher. A tree without one flushes it now, under the latch, from base — the image
// the change was made over, which a cache-disabled tree keeps nowhere else
// (nil: the page's own) — and caches a base it wrote as a load would
// (noteCached); a write run that overfills its leaf is the one change it does
// not see, for the split's writes persist it (applyRun). A failed sync flush
// leaves e dirty and out of the dirty set: the caller undoes the change or
// files the page (markDirty).
func (t *Tree) dirtied(e *pageEntry, base leafImage) error {
	filed := e.dirty
	e.dirty = true
	if t.logger != nil {
		t.markDirty(e.id)
		return nil
	}
	old := e.baseLoc
	_, err := t.flushPageLocked(e, base)
	if e.baseLoc != old {
		t.m.noteCached(e)
	}
	if filed && err == nil {
		t.unfile(e.id)
	}
	return err
}

// markDirty files page id in the dirty set.
func (t *Tree) markDirty(id PageID) {
	t.dirtyMu.Lock()
	t.dirtySet[id] = struct{}{}
	t.dirtyMu.Unlock()
}

// unfile takes page id out of the dirty set.
func (t *Tree) unfile(id PageID) {
	t.dirtyMu.Lock()
	delete(t.dirtySet, id)
	t.dirtyMu.Unlock()
}

// appendDeltas persists ops (overlay order) as the fewest delta records
// that each fit one extent — almost always one; a long-pinned page's
// retained history can need several — and returns their locations, oldest
// first. Records already written are orphaned when a later one fails.
func (t *Tree) appendDeltas(id PageID, ops []op) ([]storage.Loc, error) {
	var locs []storage.Loc
	buf := takeScratch()
	defer func() { putScratch(buf) }()
	for max := t.store.ExtentSize(); len(ops) > 0; {
		n, size := 0, 4
		for n < len(ops) && (n == 0 || size+ops[n].size() <= max) {
			size += ops[n].size()
			n++
		}
		buf = encodeOps(buf[:0], ops[:n])
		loc, _, err := t.flushAppend(storage.StreamDelta, uint64(id), buf)
		if err != nil {
			for _, l := range locs {
				t.store.Invalidate(l)
			}
			return nil, err
		}
		locs, ops = append(locs, loc), ops[n:]
	}
	return locs, nil
}

// persistBase writes img as e's new base record and ops (overlay order,
// all durable after this) as its whole delta chain, retires the records
// they replace and installs both in memory: the base as the stored record,
// so img is the caller's again afterwards (the flush's scratch). An image
// too large for one extent (splits disabled, or huge values) keeps the
// leading entries that fit and spills the rest into the chain as LSN-0 puts,
// which every horizon sees; those join the overlay, so they are copies of
// their own, and the leading entries are encoded over img. e.mu must
// be held; on error nothing changed.
func (t *Tree) persistBase(e *pageEntry, img leafImage, ops []op) error {
	if max := t.store.ExtentSize(); len(img) > max {
		full := leafImage(slices.Clone(img))
		shape, spill := imageShape{}, []op(nil)
		shape.kb, shape.vb = full.prefixes()
		jn := joiner{raw: true}
		scanPage(&jn, full, nil, nil, nil, 0, horizonAll, func(k, v []byte) bool {
			if spill == nil {
				shape.add(k, v, jn.in)
				if size, err := shape.size(); err == nil && size <= max {
					return true
				}
			}
			ks, vs := splitOf(shape.kb, shape.vb, k, v, jn.in) // the whole image does not fit: one does
			spill = append(spill, op{key: ks.bytes(), val: vs.bytes()})
			return true
		})
		var err error
		if img, err = mergeEncode(img[:0], full, nil, nil, spill[0].key, horizonAll); err != nil {
			return err
		}
		ops = sortOps(append(spill, ops...))
	}
	loc, rec, err := t.flushAppend(storage.StreamBase, uint64(e.id), img)
	if err != nil {
		return err
	}
	dlocs, err := t.appendDeltas(e.id, ops)
	if err != nil {
		t.store.Invalidate(loc) // orphan the just-written base
		return err
	}
	if !e.baseLoc.IsZero() {
		t.store.Invalidate(e.baseLoc)
	}
	for _, old := range e.deltaLocs {
		t.store.Invalidate(old)
	}
	e.baseLoc, e.deltaLocs, e.base, e.overlay, e.shared = loc, dlocs, rec, ops, false
	return nil
}

// flushPageLocked persists one dirty page and reports whether it did — BG3's
// Algorithm 1, and the only code that writes a leaf to storage, whenever
// dirtied has it run: a page with no durable image yet, or a split
// half, is written whole as a fresh base (lines 2–8); an overlay past
// ConsolidateNum is consolidated into one (lines 21–27); anything else becomes
// one merged delta (read-optimized, lines 19–31) or one more delta holding the
// pending ops (traditional). base is the image the page's content is over
// when the caller holds one, else nil: e's resident image, or a load. e.mu
// must be held; on error nothing changed.
//
// Consolidation respects the MVCC retention floor: only overlay ops at or
// below the oldest pinned epoch may be folded into the new base; newer
// ("retained") ops stay on the delta chain, stamps intact, so pinned
// snapshots can keep reconstructing the versions between the floor and
// the head. Without an epoch clock the floor is +inf and the whole
// overlay folds. The dirty flag clears only once every record landed.
func (t *Tree) flushPageLocked(e *pageEntry, base leafImage) (bool, error) {
	if !e.dirty {
		return false, nil
	}
	if base == nil {
		base = e.base
	}
	if base == nil && e.baseLoc.IsZero() {
		return false, fmt.Errorf("bwtree: dirty page %d lost its content", e.id)
	}
	floor := t.retentionFloor()
	retained := opsAbove(e.overlay, floor)
	switch {
	case e.splitPending || e.baseLoc.IsZero() ||
		(len(e.overlay) > t.cfg.ConsolidateNum && len(retained) < len(e.overlay)):
		// One merge-encode pass, into scratch, emits the next base record,
		// which the page then caches as stored. The retained suffix must be
		// durable alongside it, or a crash would roll the page back past
		// released commits. A page handed over dirty (TakeOver) may not be
		// resident.
		if base == nil {
			var err error
			if base, _, err = t.materialize(e, false); err != nil {
				return false, err
			}
		}
		img, err := mergeEncode(takeScratch(), base, e.overlay, e.lo, e.hi, floor)
		if err != nil {
			return false, err
		}
		rewrite := !e.splitPending && !e.baseLoc.IsZero()
		err = t.persistBase(e, img, retained)
		putScratch(img)
		if err != nil {
			return false, err
		}
		if rewrite {
			t.consolidations.Add(1)
		}
	case t.cfg.Policy == ReadOptimized:
		locs, err := t.appendDeltas(e.id, e.overlay)
		if err != nil {
			return false, err
		}
		for _, old := range e.deltaLocs {
			t.store.Invalidate(old)
		}
		e.deltaLocs = locs
	default:
		var pending []op
		for _, o := range e.overlay {
			if o.pending {
				pending = append(pending, o)
			}
		}
		locs, err := t.appendDeltas(e.id, pending)
		if err != nil {
			return false, err
		}
		e.deltaLocs = append(e.deltaLocs, locs...)
	}
	for i := range e.ownOverlay(0) {
		e.overlay[i].pending = false
	}
	e.dirty, e.splitPending, e.lends = false, false, false
	return true, nil
}
