package bwtree

import (
	"bytes"
	"fmt"

	"bg3/internal/storage"
)

// TakeOver hands an applier's page table the leader's role, in place: the same
// entries, cache, page and tree IDs go on serving, now written by Tree.Apply.
// It is how a leader recovers and how a follower is promoted — the caller has
// applied the log to its durable end, applies nothing more, and writes nothing
// before TakeOver returns — so the applier is the one thing that turns WAL
// records into pages. cfg yields each tree's leader configuration, and logger
// is every tree's from here on (nil: each flushes what it dirties at once).
//
// What a leader's entry promises and an applier's does not is settled per leaf,
// under its latch:
//
//  1. The records the log names are live, whatever flush no checkpoint logged
//     superseded them (storage.Store.Revalidate). A page no checkpoint gave
//     records of its own is materialized now, as the
//     dead leader held it: a fresh tree's root from nothing, and a split
//     sibling from the records of the page it split off from (origin), which
//     only an applier's load knows how to find. The sibling is marked dirty
//     and splitPending: the next flush writes its base.
//  2. The overlay is what the applier was told since the last checkpoint; no
//     page record is known to hold it. Its ops become pending and the page
//     dirty, in its tree's dirty set. The page need not be resident: its
//     content is its records under its overlay, and a flush that has to fold
//     them loads the base then.
//  3. The mirror is restored: the delta chain is read and merged under those
//     ops, each key's chain ops before its newer ones, and an op the chain
//     already carries is durable, not pending. From the flip on a cold load
//     skips the chain (mirrorsChain); an op left on a chain below the last
//     checkpoint and in no overlay would be gone.
//
// Each tree's size estimate (puts − deletes, the edge-block trigger) starts at
// the sum of its leaves' live counts, which an applier keeps from a tree's
// creation on (ApplyRecord); a leaf it never saw created (a bootstrap from a
// trimmed log) counts as unknown (-1), and is counted at its first write. The
// leading records of a checkpoint whose last record never came are dropped,
// and the allocators move past every leaf and tree ID the log named. The role flips
// last: until then a load still folds the chain, under an overlay that may
// already mirror it, which reads the same. Dirty pages go where any leader's
// go (dirtied): to the flusher, or with no logger to storage now.
func (m *Mapping) TakeOver(cfg func(TreeID) Config, logger WALLogger) error {
	leaves := m.leaves()
	var maxPage PageID
	var maxTree TreeID
	led := make(map[*Tree]bool)
	for _, e := range leaves {
		if t := e.tree; !led[t] {
			if err := t.lead(cfg(t.id), logger); err != nil {
				return err
			}
			led[t] = true
		}
		maxPage, maxTree = max(maxPage, e.id), max(maxTree, e.tree.id)
	}

	// (1), for every sibling before any origin is forgotten: origins chain.
	sizes := make(map[*Tree]int64)
	for _, e := range leaves {
		e.mu.Lock()
		e.tree.store.Revalidate(e.baseLoc)
		for _, l := range e.deltaLocs {
			e.tree.store.Revalidate(l)
		}
		if e.live > 0 {
			sizes[e.tree] += int64(e.live)
		}
		if e.baseLoc.IsZero() {
			if _, _, err := e.tree.materialize(e, false); err != nil {
				e.mu.Unlock()
				return fmt.Errorf("bwtree: take over: %w", err)
			}
			// Dirty, so no eviction drops the image before (2) files it.
			e.dirty, e.splitPending = e.origin != 0 || len(e.overlay) > 0, e.origin != 0
		}
		e.mu.Unlock()
	}
	for t := range led {
		t.puts.Store(sizes[t])
		t.deletes.Store(0)
	}

	// (2) and (3), the chains of maxBatchLeaves leaves in one storage round.
	// Nothing moves a record of a table that has stopped applying, so the
	// locations hold from the read to the latch.
	for ; len(leaves) > 0; leaves = leaves[min(maxBatchLeaves, len(leaves)):] {
		batch := leaves[:min(maxBatchLeaves, len(leaves))]
		var locs []storage.Loc
		for _, e := range batch {
			e.mu.Lock()
			locs = append(locs, e.deltaLocs...)
			e.mu.Unlock()
		}
		bufs, err := batch[0].tree.store.ReadBatch(locs)
		if err != nil {
			return fmt.Errorf("bwtree: take over: read delta chains: %w", err)
		}
		// The chains' ops join overlays, which outlive the records' extents
		// (a storage read is a view): they are decoded from copies.
		for i, b := range bufs {
			bufs[i] = bytes.Clone(b)
		}
		for _, e := range batch {
			e.mu.Lock()
			n := len(e.deltaLocs)
			err := e.takeOver(bufs[:n])
			e.mu.Unlock()
			if bufs = bufs[n:]; err != nil {
				return fmt.Errorf("bwtree: take over page %d: %w", e.id, err)
			}
		}
	}

	m.ckptUpdates = nil
	m.nextPage.Store(max(m.nextPage.Load(), uint64(maxPage)))
	m.nextTree.Store(max(m.nextTree.Load(), uint64(maxTree)))
	m.applier = false
	return nil
}

// takeOver is steps 2 and 3 of TakeOver for one leaf; chain holds its delta
// records. e.mu must be held.
func (e *pageEntry) takeOver(chain [][]byte) error {
	durable, err := decodeDeltas(chain)
	if err != nil {
		return err
	}
	ov := e.ownOverlay(0)
	for i := range ov {
		ov[i].pending = true
	}
	pending := len(ov)
	if len(durable) > 0 {
		merged, j := make([]op, 0, len(durable)+len(ov)), 0
		// Clipped to the page: the left half of a split keeps the pre-split
		// delta records, ops beyond its range included, until its next flush.
		for _, c := range opsInRange(durable, e.lo, e.hi) {
			for ; j < len(ov) && bytes.Compare(ov[j].key, c.key) < 0; j++ {
				merged = append(merged, ov[j])
			}
			dup := false
			for i := j; i < len(ov) && !dup && bytes.Equal(ov[i].key, c.key); i++ {
				if dup = ov[i].lsn == c.lsn; dup {
					ov[i].pending = false
					pending--
				}
			}
			if !dup {
				merged = append(merged, c)
			}
		}
		e.overlay = append(merged, ov[j:]...)
	}
	e.origin = 0
	if !e.dirty && pending == 0 {
		return nil
	}
	return e.tree.dirtied(e, nil)
}
