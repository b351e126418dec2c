package bwtree

import (
	"slices"
	"sync"
	"sync/atomic"

	"bg3/internal/metrics"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// PageID identifies a logical page across all trees sharing one mapping
// table. 0 is never assigned.
type PageID uint64

// TreeID identifies a Bw-tree within a forest. 0 is never assigned.
type TreeID uint64

// innerNode is the content of an inner (index) page: children[i] routes keys
// in [keys[i-1], keys[i]). Inner nodes are memory, on every node: an index over
// the leaves the log names, grown by the splits a node makes or applies and
// rebuilt from a snapshot's leaf directory (Rebuild). Nothing stores them.
type innerNode struct {
	keys     [][]byte
	children []PageID
}

// innerPageBase is where inner pages' IDs start. They come from a counter of
// their own (allocInnerID), out of the way of the leaf IDs the leader allocates
// and its log carries: an applier grows its own index beside the leaves it is
// told of, and a hand-over (TakeOver) has one ID space to carry on, not two.
const innerPageBase = 1 << 62

// pageEntry is one slot of the Bw-tree mapping table. The per-entry mutex
// is the paper's "classic lightweight locking mechanism": writers latch the
// page for the duration of the update; concurrent writers to the same page
// serialize here, which is exactly the write-conflict phenomenon the
// Bw-tree forest (§3.2.1) is designed to dilute.
type pageEntry struct {
	mu   sync.Mutex
	id   PageID
	tree *Tree

	inner *innerNode // inner pages only

	// Durable state (leaf pages).
	baseLoc   storage.Loc
	deltaLocs []storage.Loc // oldest first

	// Content (leaf pages, page.go): base is the immutable flat image at
	// baseLoc — or, until the first flush of a fresh page or split half,
	// the image it was created from — and nil when evicted. overlay holds
	// every op base does not: the ops the durable deltas carry plus the
	// pending ones, key-sorted. It stays resident across evictions (the
	// write path re-merges it into the next delta without a read). shared
	// marks an overlay whose array a scan walks unlatched (cut): it is edited
	// in place only through ownOverlay, which copies it first; installing a
	// fresh slice clears the mark, halve hands it to both halves.
	base    leafImage
	overlay []op
	live    int    // live keys at horizon ∞ inside [lo, hi), resident or not; -1 = not counted
	version uint64 // changes to the content or range: a chunk of the leaf (block.go) serves reads while it stands
	shared  bool

	// The flags sit together: apart, each would pad out a word.
	isLeaf       bool
	dirty        bool // has changes no durable record holds yet (dirtied)
	splitPending bool // the page split in memory; next flush must rewrite its base
	lends        bool // an append split gave the sibling ops its delta records or a taken dirty set still hold: flushPages takes the sibling along (Tree.split)

	lo, hi []byte // key range covered: [lo, hi), hi == nil means +inf
	next   PageID // right sibling, 0 at the rightmost leaf

	// origin is set on an applier only (applier.go), on a split sibling no
	// checkpoint has given durable records yet: the page it split off from,
	// whose records it reads through its own range (locs).
	origin PageID

	// lruPrev and lruNext link the page into the recency list of a bounded
	// cache while the cache tracks its content (lruList). They are guarded by
	// the list's mutex, not by mu.
	lruPrev, lruNext *pageEntry
}

// lruList is the recency list of a bounded leaf-content cache, one for the
// whole mapping. It is intrusive — linked through the pages' own
// lruPrev/lruNext — so tracking a page, touching it and re-queueing a pinned
// victim allocate nothing.
type lruList struct {
	mu         sync.Mutex
	head, tail *pageEntry // head = most recent
	n          int        // pages on the list
}

// holds reports whether e is on the list. l.mu must be held.
func (l *lruList) holds(e *pageEntry) bool { return e.lruPrev != nil || l.head == e }

// pushFront puts e, not on the list, at its front. l.mu must be held.
func (l *lruList) pushFront(e *pageEntry) {
	e.lruPrev, e.lruNext = nil, l.head
	if l.head != nil {
		l.head.lruPrev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.n++
}

// remove takes e off the list. l.mu must be held.
func (l *lruList) remove(e *pageEntry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		l.head = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		l.tail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
	l.n--
}

// moveToFront makes e, on the list, its most recent page. l.mu must be held.
func (l *lruList) moveToFront(e *pageEntry) {
	if l.head != e {
		l.remove(e)
		l.pushFront(e)
	}
}

// Mapping is the shared mapping table: PageID -> page entry. A forest of
// trees shares a single Mapping (and its page cache), mirroring BG3 where
// the mapping table is a node-wide structure.
type Mapping struct {
	mu    sync.RWMutex
	pages map[PageID]*pageEntry

	nextPage  atomic.Uint64 // leaf IDs
	nextInner atomic.Uint64 // inner IDs, above innerPageBase
	nextTree  atomic.Uint64

	// Leaf-content cache. Entries hold their content in pageEntry.base; a
	// bounded cache (capacity > 0) tracks their recency in lru and evicts
	// beyond capacity, an unbounded one tracks nothing.
	capacity int
	disabled bool
	lru      lruList

	// applier marks the page table of an RO node (applier.go): its entries
	// are written by WAL records instead of Tree.Apply, and nothing in it
	// ever appends to the shared store, until TakeOver clears the mark.
	// ckptUpdates holds the mapping updates of a checkpoint whose last record
	// is still to come, written under fence epoch ckptEpoch (applyCheckpoint);
	// the goroutine applying the log is their only user.
	applier     bool
	ckptUpdates []MappingUpdate
	ckptEpoch   uint64
	cut         atomic.Uint64 // CutLSN

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// fanout records the storage reads each read paid to materialize a leaf:
	// 0 on a cache hit, on a miss 1 on a leader (mirrorsChain) and, Fig. 9's
	// per-read I/O, 1 + chain length on an applier or with the cache disabled
	// (at most 2 under the read-optimized delta policy).
	fanout metrics.IntHistogram

	// materializeLat records the wall time of every Get/Scan-path cache
	// miss — the load a reader ran under the page latch — and of every
	// multi-leaf load of ScanManyAt, once.
	materializeLat metrics.Histogram

	// batchLoadPages records the distinct cold leaves each multi-leaf load
	// of ScanManyAt fetched in its one storage round.
	batchLoadPages metrics.IntHistogram

	// writeRunOps records the ops each leaf run applied under its one latch
	// and one persist (Tree.applyRun) — the grouping factor writes get.
	writeRunOps metrics.IntHistogram

	// relocated tracks pages whose durable locations GC moved since the
	// last TakeRelocated call; checkpoints ship them to replicas.
	relocMu   sync.Mutex
	relocated map[PageID]struct{}

	// Edge-block accounting (block.go): the block_* counters and gauges of
	// the registry.
	blockBuilds    atomic.Int64
	blockHits      atomic.Int64
	blockFallbacks atomic.Int64
	blockEntries   atomic.Int64 // live packed entries across all blocks
	blockBytes     atomic.Int64 // resident image bytes across all blocks

	walks atomic.Int64 // memory's walks of the table, each taking every page latch
}

// NewMapping returns an empty mapping table. capacity bounds the number of
// leaf pages with resident content (0 = unlimited); disabled turns the cache
// off entirely.
func NewMapping(capacity int, disabled bool) *Mapping {
	return &Mapping{
		pages:     make(map[PageID]*pageEntry),
		capacity:  capacity,
		disabled:  disabled,
		relocated: make(map[PageID]struct{}),
	}
}

// NewMappingShards is NewMapping: the page cache is one LRU.
//
// Deprecated: shards is ignored; use NewMapping.
func NewMappingShards(capacity int, disabled bool, shards int) *Mapping {
	return NewMapping(capacity, disabled)
}

// allocPageID reserves a fresh leaf page ID.
func (m *Mapping) allocPageID() PageID {
	return PageID(m.nextPage.Add(1))
}

// allocInnerID reserves a fresh inner page ID.
func (m *Mapping) allocInnerID() PageID {
	return PageID(innerPageBase + m.nextInner.Add(1))
}

// allocTreeID reserves a fresh tree ID.
func (m *Mapping) allocTreeID() TreeID {
	return TreeID(m.nextTree.Add(1))
}

func (m *Mapping) register(e *pageEntry) {
	m.mu.Lock()
	m.pages[e.id] = e
	m.mu.Unlock()
}

func (m *Mapping) get(id PageID) *pageEntry {
	m.mu.RLock()
	e := m.pages[id]
	m.mu.RUnlock()
	return e
}

// RegisterMetrics exposes the mapping table's cache and fan-out accounting
// under the "bwtree." prefix. The gauges that walk the page table — memory
// by kind, resident leaves, and with a retention floor the history retained
// above it (bwtree.retained_bytes) — are fed by one walk per Snapshot.
func (m *Mapping) RegisterMetrics(r *metrics.Registry, floor func() wal.LSN) {
	r.CounterFunc("bwtree.cache_hits", m.hits.Load)
	r.CounterFunc("bwtree.cache_misses", m.misses.Load)
	r.CounterFunc("bwtree.cache_evictions", m.evictions.Load)
	r.RatioFunc("bwtree.cache_hit_ratio", func() float64 {
		h, ms := m.hits.Load(), m.misses.Load()
		if h+ms == 0 {
			return 0
		}
		return float64(h) / float64(h+ms)
	})
	r.RegisterIntHistogram("bwtree.read_fanout", &m.fanout)
	r.RegisterIntHistogram("bwtree.batch_load_pages", &m.batchLoadPages)
	r.RegisterIntHistogram("bwtree.write_run_ops", &m.writeRunOps)
	r.RegisterHistogram("bwtree.materialize_us", &m.materializeLat)
	r.GaugeFunc("bwtree.pages", func() int64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return int64(len(m.pages))
	})
	walked := []string{"bwtree.memory_bytes", "bwtree.memory_base_bytes", "bwtree.memory_overlay_bytes",
		"bwtree.memory_inner_bytes", "bwtree.cache_resident_pages", "bwtree.retained_bytes"}
	if floor == nil {
		walked, floor = walked[:len(walked)-1], func() wal.LSN { return horizonAll }
	}
	r.GaugesFunc(walked, func() []int64 {
		k := m.memory(floor())
		return []int64{k.total(), k.base, k.overlay, k.inner, k.resident, k.retained}
	})
	r.CounterFunc("bwtree.block_builds", m.blockBuilds.Load)
	r.CounterFunc("bwtree.block_hits", m.blockHits.Load)
	r.CounterFunc("bwtree.block_fallbacks", m.blockFallbacks.Load)
	r.GaugeFunc("bwtree.block_entries", m.blockEntries.Load)
	r.GaugeFunc("bwtree.block_bytes", m.blockBytes.Load)
}

func (m *Mapping) noteBlockBuilt(entries int, bytes int64) {
	m.blockBuilds.Add(1)
	m.blockEntries.Add(int64(entries))
	m.blockBytes.Add(bytes)
}

func (m *Mapping) noteBlockDropped(entries int, bytes int64) {
	m.blockEntries.Add(-int64(entries))
	m.blockBytes.Add(-bytes)
}

// BlockStats is a snapshot of the edge-block counters shared by all trees
// of the mapping.
type BlockStats struct {
	Builds    int64 // blocks built or rebuilt
	Hits      int64 // chunks served from a packed block
	Fallbacks int64 // leaves a block-consulting scan walked instead: a stale chunk's, or one read below its chunk's LSN
	Entries   int64 // live packed entries
	Bytes     int64 // resident image bytes
}

// BlockStatsSnapshot returns the current edge-block counters.
func (m *Mapping) BlockStatsSnapshot() BlockStats {
	return BlockStats{
		Builds:    m.blockBuilds.Load(),
		Hits:      m.blockHits.Load(),
		Fallbacks: m.blockFallbacks.Load(),
		Entries:   m.blockEntries.Load(),
		Bytes:     m.blockBytes.Load(),
	}
}

// noteCached records that e's content is resident and, in a bounded cache,
// evicts least recently used victims beyond its capacity. Caller must NOT hold
// e.mu of potential victims — we only evict entries whose latch we can take
// without blocking, skipping busy or dirty pages.
func (m *Mapping) noteCached(e *pageEntry) {
	if m.disabled {
		e.base = nil // caller materialized transiently; drop content
		return
	}
	if m.capacity <= 0 {
		return // never evicts, so tracks nothing
	}
	l := &m.lru
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holds(e) {
		l.moveToFront(e)
	} else {
		l.pushFront(e)
	}
	// Bounded sweep: pinned (dirty or latch-busy) victims re-enter the
	// front, so without a bound a fully pinned cache would spin here.
	for attempts := l.n; l.n > m.capacity && attempts > 0; attempts-- {
		victim := l.tail
		if victim == e {
			// Never evict the page we just touched — but keep it tracked,
			// or its content would stay resident yet invisible to every
			// future sweep.
			l.moveToFront(victim)
			continue
		}
		if victim.mu.TryLock() {
			if !victim.dirty {
				// A clean page's image is the record at its base location.
				// (Dirty pages — including unflushed split halves whose
				// image is not yet durable — are never evicted.)
				victim.base = nil
				l.remove(victim)
				m.evictions.Add(1)
			} else {
				// Pinned pages are re-queued at the front so they are not
				// immediately re-considered.
				l.moveToFront(victim)
			}
			victim.mu.Unlock()
		} else {
			// The victim's latch is busy (a writer holds it): keep it
			// tracked at the front — dropping it here would leave its
			// content resident but invisible to future eviction.
			l.moveToFront(victim)
		}
	}
}

// touch moves a page to the LRU front on access.
func (m *Mapping) touch(e *pageEntry) {
	if m.disabled || m.capacity <= 0 {
		return
	}
	l := &m.lru
	l.mu.Lock()
	if l.holds(e) {
		l.moveToFront(e)
	}
	l.mu.Unlock()
}

// Relocate is the storage.RelocateFunc for GC: it repoints the durable
// location tag -> old to new in the owning leaf's entry. It returns false if
// the page no longer references old (the record went stale mid-move).
// Relocated pages are remembered for TakeRelocated. A resident image that is
// the moved base record where it lay, was, becomes the record where it lies
// now, rec (DESIGN §8), so the cache keeps no reclaimed extent in memory; an
// image that is not that record — a base merged with its chain at load — is
// content of its own and stays.
func (m *Mapping) Relocate(tag uint64, old, new storage.Loc, was, rec []byte) bool {
	e := m.get(PageID(tag))
	if e == nil || !e.isLeaf {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.baseLoc == old {
		e.baseLoc = new
		if e.base.is(was) {
			e.base = rec
		}
	} else if i := slices.Index(e.deltaLocs, old); i >= 0 {
		e.deltaLocs[i] = new
	} else {
		return false
	}
	m.relocMu.Lock()
	m.relocated[e.id] = struct{}{}
	m.relocMu.Unlock()
	return true
}

// TakeRelocated drains the set of pages GC has moved since the last call
// and appends their current durable locations to dst — the RW node folds
// them into its next checkpoint so replicas repoint before the condemned
// extents are released.
func (m *Mapping) TakeRelocated(dst []MappingUpdate) []MappingUpdate {
	m.relocMu.Lock()
	ids := make([]PageID, 0, len(m.relocated))
	for id := range m.relocated {
		ids = append(ids, id)
	}
	m.relocated = make(map[PageID]struct{})
	m.relocMu.Unlock()

	for _, id := range ids {
		e := m.get(id)
		if e == nil || !e.isLeaf {
			continue
		}
		e.mu.Lock()
		up := MappingUpdate{
			Page: e.id, Base: e.baseLoc,
			Deltas: append([]storage.Loc(nil), e.deltaLocs...),
		}
		if e.tree != nil {
			up.Tree = e.tree.id
		}
		e.mu.Unlock()
		dst = append(dst, up)
	}
	return dst
}

// leaves snapshots the registered leaf entries. Whoever walks the table
// takes page latches only after letting go of m.mu: a splitter holds its
// page latch while registering the new sibling (which needs m.mu), so holding
// m.mu across e.mu would deadlock against it.
func (m *Mapping) leaves() []*pageEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pages := make([]*pageEntry, 0, len(m.pages))
	for _, e := range m.pages {
		if e.isLeaf {
			pages = append(pages, e)
		}
	}
	return pages
}

// RetainedBytes sums the bytes of history ops stamped above h — the delta
// memory the retention floor is holding back from consolidation for the
// benefit of pinned snapshots. O(pages); intended for metrics snapshots.
func (m *Mapping) RetainedBytes(h wal.LSN) int64 { return m.memory(h).retained }

// OverlayOps counts the ops in every leaf's overlay. On an applier that is
// the lazy-replay backlog — the WAL records no checkpoint has covered yet,
// the memory §3.4's checkpoint exists to bound. O(pages).
func (m *Mapping) OverlayOps() int {
	n := 0
	for _, e := range m.leaves() {
		e.mu.Lock()
		n += len(e.overlay)
		e.mu.Unlock()
	}
	return n
}

// memoryKinds is the resident bytes of the mapping table by kind, and what
// the same walk counts besides.
type memoryKinds struct {
	base    int64 // leaves' base images, as stored (offset table included)
	overlay int64 // leaves' overlay ops
	inner   int64 // inner nodes' keys and children
	entries int64 // every entry's own overhead: struct, map slot, latch, key range, durable locations

	resident int64 // leaves whose base image is cached
	retained int64 // the bytes of the overlay ops stamped above the walk's horizon
}

// total is every resident byte.
func (k memoryKinds) total() int64 { return k.base + k.overlay + k.inner + k.entries }

// memory walks the table once and sums its resident bytes by kind, counting
// the history retained above h on the way.
func (m *Mapping) memory(h wal.LSN) memoryKinds {
	const entryOverhead = 160 // struct, map slot, latch
	m.walks.Add(1)
	// Same lock-order discipline as leaves: never m.mu across a page latch.
	m.mu.RLock()
	pages := make([]*pageEntry, 0, len(m.pages))
	for _, e := range m.pages {
		pages = append(pages, e)
	}
	m.mu.RUnlock()
	var k memoryKinds
	for _, e := range pages {
		e.mu.Lock()
		k.base += int64(len(e.base))
		if e.isLeaf && e.base != nil {
			k.resident++
		}
		for _, o := range e.overlay {
			size := int64(len(o.key)+len(o.val)) + opOverhead
			k.overlay += size
			if o.lsn > h {
				k.retained += size
			}
		}
		k.entries += entryOverhead + int64(len(e.lo)+len(e.hi)+16*len(e.deltaLocs))
		if e.inner != nil {
			k.inner += int64(8 * len(e.inner.children))
			for _, key := range e.inner.keys {
				k.inner += int64(len(key) + 24)
			}
		}
		e.mu.Unlock()
	}
	return k
}

// MemoryUsage sums the resident bytes of the mapping table and all cached
// page content — each resident base image as stored (offset table
// included) plus the overlay ops — the space measurement of the Fig. 11
// experiment.
func (m *Mapping) MemoryUsage() int64 { return m.memory(horizonAll).total() }
