package bwtree

import (
	"bytes"
	"time"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// RangeScan names one range read of a multi-scan: the keys of Tree in
// [From, To). A nil From starts at the first key, a nil To is open.
type RangeScan struct {
	Tree     *Tree
	From, To []byte
}

// maxBatchLeaves caps the distinct leaves one batched load resolves,
// fetches and holds at once. It bounds the transient memory of a hop (the
// held images, ~6 KiB each at the default page size) and nothing else: a
// frontier larger than this is served in several loads of this size, a
// smaller one in one. It is a constant rather than a Config field because
// no caller has a reason to pick a different bound — the cache capacity is
// the knob for resident memory, and this is not resident.
const maxBatchLeaves = 256

// heldLeaf is one distinct leaf of a batched load. The load keeps img alive
// itself: with a cache smaller than the hop, an installed image is evicted
// again before the scans that need it are reached, so the hop — not the
// cache — holds what it fetched until its scans have run. img stays valid
// for the page exactly as long as the records a load reads (pageEntry.locs)
// are still the ones it was snapshotted under.
type heldLeaf struct {
	e      *pageEntry
	img    leafImage     // resident at resolve time, or fetched by this load; nil: neither
	base   storage.Loc   // the records to read, snapshotted under the latch
	deltas []storage.Loc // (sub-slice of the load's loc arena)
	fresh  bool          // fetched by this load and not yet offered to the cache
}

// manyScan is the progress of one RangeScan.
type manyScan struct {
	from      []byte // resume key, inclusive
	delivered int
	leaf      int // index of the covering leaf in the current load
}

// ScanManyAt runs every scan as of horizon h, making the batch — not the
// page — the unit of storage I/O: each round resolves the pending scans to
// the leaves covering their resume keys (one leaf latched at a time, never
// two), de-duplicates them, fetches every non-resident leaf in ONE
// storage.ReadBatch, and walks each scan over the images the round holds
// with the same per-leaf step ScanAt takes (scanLeaf);
// a scan whose range continues past its leaf joins the next round. A
// traversal hop over N cold pages therefore waits on one overlapped
// storage round (plus one per continuation depth) instead of N serial ones.
// The records read per cold page are exactly the single-page path's
// (pageEntry.locs).
//
// fn receives the index of the scan a pair belongs to. Each scan's pairs
// arrive in key order and limit (<= 0: unlimited) applies per scan, but
// scans interleave: cross-scan order is unspecified. fn returning false
// stops the whole multi-scan, and no further round is issued. All trees
// must share m and one store.
func (m *Mapping) ScanManyAt(scans []RangeScan, limit int, h wal.LSN, fn func(i int, key, value []byte) bool) error {
	var (
		state   = make([]manyScan, len(scans))
		queue   = make([]int, len(scans))
		round   []int // scans resolved into the current load
		leaves  []heldLeaf
		index   = make(map[*pageEntry]int)
		arena   []storage.Loc
		cur     int // scan whose leaf is being walked
		stopped bool
	)
	emit := func(k, v []byte) bool {
		if !fn(cur, k, v) {
			stopped = true
		}
		return !stopped
	}
	for i, s := range scans {
		s.Tree.scans.Add(1)
		queue[i] = i
		if state[i].from = s.From; s.From == nil {
			state[i].from = []byte{}
		}
	}
	for len(queue) > 0 {
		// (1) Resolve: scans off the front of the queue until the load holds
		// maxBatchLeaves distinct leaves.
		round, leaves, arena = round[:0], leaves[:0], arena[:0]
		clear(index)
		n := 0
		for ; n < len(queue) && len(leaves) < maxBatchLeaves; n++ {
			cur = queue[n]
			s, t := &state[cur], scans[cur].Tree
			// A packed super-vertex tree answers from memory.
			if blk, runs, ok := t.blockView(h); ok {
				if blk.scan(runs, s.from, scans[cur].To, limit-s.delivered, h, emit); stopped {
					return nil
				}
				continue
			}
			e := t.latchLeaf(s.from)
			li, seen := index[e]
			if !seen {
				li, index[e] = len(leaves), len(leaves)
				base, deltas := e.locs()
				start := len(arena)
				arena = append(arena, deltas...)
				leaves = append(leaves, heldLeaf{e: e, img: e.base, base: base, deltas: arena[start:len(arena):len(arena)]})
				// One cache lookup per distinct leaf: several scans on one
				// leaf are one lookup, because that is what happens, and a
				// leaf whose fetched image cannot be used is still this one.
				if e.base == nil {
					m.misses.Add(1)
				} else {
					m.hits.Add(1)
					m.fanout.Observe(0)
					m.touch(e)
				}
			}
			e.mu.Unlock()
			s.leaf = li
			round = append(round, cur)
		}
		queue = queue[n:]

		// (2) Fetch every cold leaf of the load in one storage round.
		m.loadHeld(leaves)

		// (3) Walk each scan over the images the load holds.
		for _, cur = range round {
			s, sc := &state[cur], scans[cur]
			more, err := sc.Tree.scanHeld(&leaves[s.leaf], s, sc.To, limit, h, emit)
			if err != nil || stopped {
				return err
			}
			if more {
				queue = append(queue, cur)
			}
		}
	}
	return nil
}

// loadHeld fetches the records locs named for every cold leaf among leaves
// (the ones resolved without an image) in one storage.ReadBatchEach and
// turns them into images (Mapping.image). It is the one load that runs
// unlatched — a hop cannot hold every page's latch across its round trip —
// so what it fetched counts for a page only while the page still sits where
// it was read (pageEntry.sitsAt, checked under the latch by scanLeaf). A leaf
// whose round trip failed (its extent was reclaimed between the snapshot and
// the read) or whose image does not decode is left without one: scanLeaf
// materializes that page alone, which reads under the latch and reports.
func (m *Mapping) loadHeld(leaves []heldLeaf) {
	var locs []storage.Loc
	var store *storage.Store
	cold := 0
	for i := range leaves {
		if h := &leaves[i]; h.img == nil {
			cold++
			store = h.e.tree.store
			locs = appendPageLocs(locs, h.base, h.deltas)
		}
	}
	if cold == 0 {
		return
	}
	m.batchLoadPages.Observe(int64(cold))
	start := time.Now()
	bufs, errs := store.ReadBatchEach(locs)
	off := 0
	for i := range leaves {
		h := &leaves[i]
		if h.img != nil {
			continue
		}
		n := len(h.deltas) // records this page rode the batch with
		if !h.base.IsZero() {
			n++
		}
		m.fanout.Observe(int64(n))
		failed := false
		if errs != nil {
			for _, err := range errs[off : off+n] {
				failed = failed || err != nil
			}
		}
		if !failed {
			if img, err := m.image(bufs[off:off+n], !h.base.IsZero()); err == nil {
				h.img, h.fresh = img, true
			}
		}
		off += n
	}
	m.materializeLat.Observe(time.Since(start))
}

// scanHeld walks one scan over its leaf of the current load and reports
// whether the scan continues past it (s.from then names the resume key).
func (t *Tree) scanHeld(hl *heldLeaf, s *manyScan, to []byte, limit int, h wal.LSN, emit func(k, v []byte) bool) (more bool, err error) {
	e := hl.e
	e.mu.Lock()
	if !e.covers(s.from) {
		// A split narrowed the leaf since it was resolved: resolve again.
		e.mu.Unlock()
		return true, nil
	}
	n, resume, done, err := t.scanLeaf(e, hl, s.from, to, limit-s.delivered, h, emit)
	s.from, s.delivered = resume, s.delivered+n
	return !done, err
}

// cut is what a scan takes from a latched leaf before walking it unlatched:
// the range [from, to) clipped to the page, the overlay ops inside it — the
// overlay itself, by reference: the page is marked shared, and whoever edits
// the overlay in place next takes a copy first (ownOverlay) — and whether the
// scan ends in this leaf — its bound does, or, as far as can be told without
// walking, the limit will: the base entries in range outnumber the owed pairs
// (<= 0: unlimited) even if every overlay op in range deleted one.
func (e *pageEntry) cut(base leafImage, from, to []byte, owed int) (lo, hi []byte, ov []op, ended bool) {
	lo, hi = clipBounds(from, to, e.lo, e.hi)
	ov, e.shared = opsInRange(e.overlay, lo, hi), true
	ended = e.next == 0 || (to != nil && bytes.Equal(hi, to))
	if !ended && owed > 0 {
		ended = base.bound(hi)-base.search(lo)-len(ov) > owed
	}
	return lo, hi, ov, ended
}

// appendPageLocs appends a page's durable records to locs: the base image
// first when there is one, then the delta chain.
func appendPageLocs(locs []storage.Loc, base storage.Loc, deltas []storage.Loc) []storage.Loc {
	if !base.IsZero() {
		locs = append(locs, base)
	}
	return append(locs, deltas...)
}
