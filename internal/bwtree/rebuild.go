package bwtree

import (
	"fmt"

	"bg3/internal/storage"
)

// EnsureIDsBeyond advances the mapping's ID allocators past the given page
// and tree IDs — required before rebuilding trees whose IDs come from a
// snapshot, so freshly allocated IDs never collide.
func (m *Mapping) EnsureIDsBeyond(page PageID, tree TreeID) {
	for {
		cur := m.nextPage.Load()
		if cur >= uint64(page) || m.nextPage.CompareAndSwap(cur, uint64(page)) {
			break
		}
	}
	for {
		cur := m.nextTree.Load()
		if cur >= uint64(tree) || m.nextTree.CompareAndSwap(cur, uint64(tree)) {
			break
		}
	}
}

// Rebuild reconstructs a tree from a snapshot's leaf directory: leaf page
// entries keep their snapshot IDs and durable locations (content loads
// lazily from storage), a leader's delta mirrors are read back eagerly so
// the read-optimized merge path stays correct and a cold load may go on
// skipping the chain (an applier keeps no mirror and reads nothing here), and
// fresh inner nodes are built bottom-up
// over the directory. The tree keeps its snapshot ID so subsequent WAL
// records stay routable. On a leader's mapping the caller must have called
// EnsureIDsBeyond over every snapshot ID first.
func Rebuild(m *Mapping, store *storage.Store, cfg Config, logger WALLogger, id TreeID, leaves []LeafInfo) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("bwtree: rebuild tree %d: empty leaf directory", id)
	}
	cfg = cfg.withDefaults()
	t := &Tree{
		id:     id,
		store:  store,
		m:      m,
		cfg:    cfg,
		logger: logger,
	}
	if cfg.FlushMode == FlushAsync {
		t.dirtySet = make(map[PageID]struct{})
	}

	// Leaf level: entries with snapshot IDs, ranges, sibling links.
	entries := make([]*pageEntry, len(leaves))
	for i, lf := range leaves {
		e := &pageEntry{
			id:      lf.Page,
			tree:    t,
			isLeaf:  true,
			baseLoc: lf.Base,
			live:    -1,
			lo:      append([]byte(nil), lf.Lo...),
		}
		if i+1 < len(leaves) {
			e.hi = append([]byte(nil), leaves[i+1].Lo...)
			e.next = leaves[i+1].Page
		}
		if len(e.lo) == 0 {
			e.lo = nil
		}
		if len(e.hi) == 0 {
			e.hi = nil
		}
		e.deltaLocs = append(e.deltaLocs, lf.Deltas...)
		if !m.applier {
			// Restore the overlay from the delta chain; Algorithm 1's merge
			// path and every read depend on it. Clip to the leaf's directory
			// range: the left half of a split keeps the pre-split delta
			// records (ops beyond hi included) until its next flush, and
			// replaying those here would plant phantom out-of-range keys in
			// the rebuilt tree.
			bufs, err := store.ReadBatch(lf.Deltas)
			if err != nil {
				return nil, fmt.Errorf("bwtree: rebuild tree %d: read deltas of page %d: %w", id, lf.Page, err)
			}
			ops, err := decodeDeltas(bufs)
			if err != nil {
				return nil, err
			}
			e.overlay = opsInRange(ops, e.lo, e.hi)
		}
		m.register(e)
		entries[i] = e
	}

	// Inner levels: group children into nodes of at most MaxInnerEntries,
	// promoting each group's first low key, until one root remains.
	type child struct {
		id PageID
		lo []byte
	}
	level := make([]child, len(entries))
	for i, e := range entries {
		level[i] = child{id: e.id, lo: e.lo}
	}
	for len(level) > 1 {
		var next []child
		for start := 0; start < len(level); start += cfg.MaxInnerEntries {
			end := start + cfg.MaxInnerEntries
			if end > len(level) {
				end = len(level)
			}
			group := level[start:end]
			n := &innerNode{}
			for i, c := range group {
				n.children = append(n.children, c.id)
				if i > 0 {
					n.keys = append(n.keys, c.lo)
				}
			}
			inner := &pageEntry{id: m.allocPageID(), tree: t, inner: n}
			m.register(inner)
			if err := t.flushInner(inner); err != nil {
				return nil, err
			}
			next = append(next, child{id: inner.id, lo: group[0].lo})
		}
		level = next
	}
	t.root = level[0].id
	return t, nil
}

// SetLogger attaches (or replaces) the tree's WAL logger. Used by recovery:
// the WAL suffix replays with no logger, then the real logger attaches
// before the tree serves writes.
func (t *Tree) SetLogger(l WALLogger) { t.logger = l }

// NewEmptyWithID creates an empty tree carrying a predetermined ID —
// recovery uses it to replay RecordNewTree entries from the WAL suffix so
// later records keep routing. Nothing is logged. The caller must have
// called EnsureIDsBeyond(.., id) first.
func NewEmptyWithID(m *Mapping, store *storage.Store, cfg Config, id TreeID) (*Tree, error) {
	cfg = cfg.withDefaults()
	t := &Tree{
		id:    id,
		store: store,
		m:     m,
		cfg:   cfg,
	}
	if cfg.FlushMode == FlushAsync {
		if cfg.NoCache {
			return nil, fmt.Errorf("bwtree: async flushing requires the page cache")
		}
		t.dirtySet = make(map[PageID]struct{})
	}
	rootEntry := &pageEntry{
		id:     m.allocPageID(),
		tree:   t,
		isLeaf: true,
		base:   emptyLeaf,
	}
	m.register(rootEntry)
	t.root = rootEntry.id
	return t, nil
}
