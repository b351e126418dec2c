package bwtree

import (
	"runtime"
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

	// lruPrev and lruNext link the page into its cache shard's recency list
	// while the shard tracks its content (cacheShard). They are guarded by
	// the shard's mutex, not by mu.
	lruPrev, lruNext *pageEntry
}

// cacheShard is one lock stripe of the leaf-content cache. Hashing pages
// across shards replaces the old global cacheMu: cache touches on different
// shards never contend, and each shard evicts independently against its
// slice of the total capacity. Its recency list is intrusive — linked
// through the pages' own lruPrev/lruNext — so tracking a page, touching it
// and re-queueing a pinned victim allocate nothing.
type cacheShard struct {
	mu         sync.Mutex
	head, tail *pageEntry // head = most recent
	n          int        // pages on the list
	capacity   int        // per-shard slice of the budget; 0 = unlimited
}

// holds reports whether e is on the shard's list. s.mu must be held.
func (s *cacheShard) holds(e *pageEntry) bool { return e.lruPrev != nil || s.head == e }

// pushFront puts e, not on the list, at its front. s.mu must be held.
func (s *cacheShard) pushFront(e *pageEntry) {
	e.lruPrev, e.lruNext = nil, s.head
	if s.head != nil {
		s.head.lruPrev = e
	} else {
		s.tail = e
	}
	s.head = e
	s.n++
}

// remove takes e off the list. s.mu must be held.
func (s *cacheShard) remove(e *pageEntry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		s.head = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		s.tail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
	s.n--
}

// moveToFront makes e, on the list, its most recent page. s.mu must be held.
func (s *cacheShard) moveToFront(e *pageEntry) {
	if s.head != e {
		s.remove(e)
		s.pushFront(e)
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

	// Leaf-content cache, lock-striped by page ID. Entries hold their
	// content in pageEntry.base; the shards only track recency.
	shards    []*cacheShard
	shardMask uint64
	disabled  bool

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
}

// defaultShardCount derives the lock-stripe count from the host's
// parallelism: the next power of two at or above 2×GOMAXPROCS, clamped to
// [2, 64]. Twice the core count keeps collision probability low when every
// core runs a reader; the power-of-two lets shard selection mask instead of
// divide.
func defaultShardCount() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewMapping returns an empty mapping table with the shard count derived
// from GOMAXPROCS. capacity bounds the number of leaf pages with resident
// content (0 = unlimited); disabled turns the cache off entirely.
func NewMapping(capacity int, disabled bool) *Mapping {
	return NewMappingShards(capacity, disabled, 0)
}

// NewMappingShards is NewMapping with an explicit cache shard count.
// shards is rounded up to a power of two; <= 0 selects the GOMAXPROCS
// heuristic. The capacity budget is split evenly across shards.
func NewMappingShards(capacity int, disabled bool, shards int) *Mapping {
	if shards <= 0 {
		shards = defaultShardCount()
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	// A shard needs a capacity slice of at least 2: page splits note both
	// halves while the left one is latched, and a single-slot shard has no
	// headroom to absorb that without overflowing its budget. Tiny caches
	// therefore collapse to fewer shards (capacity 2 = one shard = the
	// classic single LRU).
	for capacity > 0 && n > 1 && capacity/n < 2 {
		n >>= 1
	}
	m := &Mapping{
		pages:     make(map[PageID]*pageEntry),
		shards:    make([]*cacheShard, n),
		shardMask: uint64(n - 1),
		disabled:  disabled,
		relocated: make(map[PageID]struct{}),
	}
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + n - 1) / n
	}
	for i := range m.shards {
		m.shards[i] = &cacheShard{capacity: perShard}
	}
	return m
}

// shard selects the stripe for a page. The Fibonacci multiplier spreads the
// sequential IDs the allocator hands out; the high bits feed the mask
// because the low bits of the product mix poorly.
func (m *Mapping) shard(id PageID) *cacheShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return m.shards[(h>>32)&m.shardMask]
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

// shardEntrySpread returns the smallest and largest resident-entry counts
// across shards — a live view of how evenly the hash spreads the working
// set.
func (m *Mapping) shardEntrySpread() (min, max int64) {
	for i, s := range m.shards {
		s.mu.Lock()
		n := int64(s.n)
		s.mu.Unlock()
		if i == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}

// RegisterMetrics exposes the mapping table's cache and fan-out accounting
// under the "bwtree." prefix.
func (m *Mapping) RegisterMetrics(r *metrics.Registry) {
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
	r.GaugeFunc("bwtree.cache_shard_count", func() int64 { return int64(len(m.shards)) })
	r.GaugeFunc("bwtree.cache_shard_entries_min", func() int64 { min, _ := m.shardEntrySpread(); return min })
	r.GaugeFunc("bwtree.cache_shard_entries_max", func() int64 { _, max := m.shardEntrySpread(); return max })
	r.RegisterIntHistogram("bwtree.read_fanout", &m.fanout)
	r.RegisterIntHistogram("bwtree.batch_load_pages", &m.batchLoadPages)
	r.RegisterIntHistogram("bwtree.write_run_ops", &m.writeRunOps)
	r.RegisterHistogram("bwtree.materialize_us", &m.materializeLat)
	r.GaugeFunc("bwtree.pages", func() int64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return int64(len(m.pages))
	})
	r.GaugeFunc("bwtree.memory_bytes", m.MemoryUsage)
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

// noteCached records that e's content is resident and evicts LRU victims
// beyond the shard's capacity. Caller must NOT hold e.mu of potential
// victims — we only evict entries whose latch we can take without blocking,
// skipping busy or dirty pages.
func (m *Mapping) noteCached(e *pageEntry) {
	if m.disabled {
		e.base = nil // caller materialized transiently; drop content
		return
	}
	s := m.shard(e.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holds(e) {
		s.moveToFront(e)
	} else {
		s.pushFront(e)
	}
	if s.capacity <= 0 {
		return
	}
	// Bounded sweep: pinned (dirty or latch-busy) victims re-enter the
	// front, so without a bound a fully pinned shard would spin here.
	for attempts := s.n; s.n > s.capacity && attempts > 0; attempts-- {
		victim := s.tail
		if victim == e {
			// Never evict the page we just touched — but keep it tracked,
			// or its content would stay resident yet invisible to every
			// future sweep.
			s.moveToFront(victim)
			continue
		}
		if victim.mu.TryLock() {
			if !victim.dirty {
				// A clean page's image is the record at its base location.
				// (Dirty pages — including unflushed split halves whose
				// image is not yet durable — are never evicted.)
				victim.base = nil
				s.remove(victim)
				m.evictions.Add(1)
			} else {
				// Pinned pages are re-queued at the front so they are not
				// immediately re-considered.
				s.moveToFront(victim)
			}
			victim.mu.Unlock()
		} else {
			// The victim's latch is busy (a writer holds it): keep it
			// tracked at the front — dropping it here would leave its
			// content resident but invisible to future eviction.
			s.moveToFront(victim)
		}
	}
}

// touch moves a page to its shard's LRU front on access.
func (m *Mapping) touch(e *pageEntry) {
	if m.disabled {
		return
	}
	s := m.shard(e.id)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	if s.holds(e) {
		s.moveToFront(e)
	}
	s.mu.Unlock()
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
func (m *Mapping) RetainedBytes(h wal.LSN) int64 {
	var total int64
	for _, e := range m.leaves() {
		e.mu.Lock()
		for _, o := range e.overlay {
			if o.lsn > h {
				total += int64(len(o.key)+len(o.val)) + opOverhead
			}
		}
		e.mu.Unlock()
	}
	return total
}

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

// MemoryUsage sums the resident bytes of the mapping table and all cached
// page content — each resident base image as stored (offset table
// included) plus the overlay ops — the space measurement of the Fig. 11
// experiment.
func (m *Mapping) MemoryUsage() int64 {
	const entryOverhead = 160 // struct, map slot, latch
	// Same lock-order discipline as leaves: never m.mu across a page latch.
	m.mu.RLock()
	pages := make([]*pageEntry, 0, len(m.pages))
	for _, e := range m.pages {
		pages = append(pages, e)
	}
	m.mu.RUnlock()
	var total int64
	for _, e := range pages {
		total += entryOverhead
		e.mu.Lock()
		total += int64(len(e.base))
		for _, o := range e.overlay {
			total += int64(len(o.key)+len(o.val)) + opOverhead
		}
		total += int64(len(e.lo) + len(e.hi) + 16*len(e.deltaLocs))
		if e.inner != nil {
			total += int64(8 * len(e.inner.children))
			for _, k := range e.inner.keys {
				total += int64(len(k) + 24)
			}
		}
		e.mu.Unlock()
	}
	return total
}
