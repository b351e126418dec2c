package bwtree

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a Bw-tree forest (§3.4). It consumes the
// RW node's WAL records and serves reads with strong consistency:
//
//   - Structural records (new tree, new page, split) are applied eagerly to
//     the replica's routing directory — they are tiny.
//   - Data records (put/delete) go into their page's overlay — the paper's
//     "lazy replay mechanism", indexed by page number: a key-sorted,
//     LSN-stamped op list exactly like the RW tree's (page.go), merged over
//     the page's image by the same scanPage at read time, never replayed
//     into a copy.
//   - On a cache miss, the replica fetches the page's *old* durable version
//     via the old mapping as its image. Pages created by splits that have
//     no durable image yet read their split origin's image through their
//     own key range.
//   - Checkpoint records carry the new durable locations (mapping-table
//     update, §3.4 step 8); the replica adopts them and drops the overlay
//     ops at or below the checkpoint LSN, folding them into the image of a
//     resident page first.
type Replica struct {
	store *storage.Store

	mu    sync.RWMutex
	trees map[TreeID]*replicaTree
	pages map[PageID]*replicaPage

	cacheMu  sync.Mutex
	lru      *list.List
	lruIndex map[PageID]*list.Element
	capacity int // cached pages; 0 = unlimited

	lsnMu   sync.Mutex
	highLSN wal.LSN // highest LSN applied or buffered
}

// replicaTree holds the routing directory of one tree: leaves sorted by
// low key; leaves[0] covers (−∞, leaves[1].lo).
type replicaTree struct {
	leaves []replicaLeafRef
}

type replicaLeafRef struct {
	lo   []byte // nil on the first leaf
	page PageID
}

// replicaPage mirrors one leaf page on the RO node.
type replicaPage struct {
	mu     sync.Mutex
	id     PageID
	base   storage.Loc
	deltas []storage.Loc
	origin PageID // reconstruct from this page's image when base is zero
	lo, hi []byte

	image   leafImage // resident base image; nil when evicted
	overlay []op      // lazy replay log: WAL ops the image (evicted: the durable state) lacks
}

// NewReplica returns an empty replica reading page data from store.
// capacity bounds the cached leaf pages (0 = unlimited).
func NewReplica(store *storage.Store, capacity int) *Replica {
	return &Replica{
		store:    store,
		trees:    make(map[TreeID]*replicaTree),
		pages:    make(map[PageID]*replicaPage),
		lru:      list.New(),
		lruIndex: make(map[PageID]*list.Element),
		capacity: capacity,
	}
}

// HighLSN returns the highest WAL LSN the replica has incorporated.
func (r *Replica) HighLSN() wal.LSN {
	r.lsnMu.Lock()
	defer r.lsnMu.Unlock()
	return r.highLSN
}

func (r *Replica) noteLSN(l wal.LSN) {
	r.lsnMu.Lock()
	if l > r.highLSN {
		r.highLSN = l
	}
	r.lsnMu.Unlock()
}

// Apply incorporates one WAL record. Records must arrive in LSN order.
func (r *Replica) Apply(rec *wal.Record) error {
	defer r.noteLSN(rec.LSN)
	return r.applyRecord(rec)
}

// ApplyGroup incorporates one commit group. Records apply in order, but the
// published high LSN advances only after the whole group is in, so readers
// gated on HighLSN (WaitVisible) never observe a half-applied batch — the
// follower-side counterpart of the leader's all-or-nothing group append.
func (r *Replica) ApplyGroup(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.applyRecord(rec); err != nil {
			return err
		}
	}
	if n := len(recs); n > 0 {
		r.noteLSN(recs[n-1].LSN)
	}
	return nil
}

// ApplyDeferred incorporates one record without advancing the published
// high LSN. Layered replicas (the forest) replay a group record by record
// this way and call PublishLSN once at the group boundary.
func (r *Replica) ApplyDeferred(rec *wal.Record) error { return r.applyRecord(rec) }

// PublishLSN advances the published high LSN to l (group boundary).
func (r *Replica) PublishLSN(l wal.LSN) { r.noteLSN(l) }

func (r *Replica) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordNewTree:
		return r.applyNewTree(rec)
	case wal.RecordNewPage:
		return r.applyNewPage(rec)
	case wal.RecordSplit:
		return r.applySplit(rec)
	case wal.RecordPut, wal.RecordDelete:
		return r.applyData(rec)
	case wal.RecordNewRoot:
		return nil // routing is directory-based; inner structure not mirrored
	case wal.RecordOwnerAssign:
		return nil // consumed by the forest-level replica wrapper
	case wal.RecordTxnPrepare, wal.RecordTxnCommit, wal.RecordTxnAbort, wal.RecordTxnApplied:
		// Cross-shard transaction control records: decided payloads are
		// re-logged as ordinary data records, so replicas track nothing here.
		return nil
	case wal.RecordCheckpoint:
		return r.applyCheckpoint(rec)
	default:
		return fmt.Errorf("bwtree: replica: unknown record type %v", rec.Type)
	}
}

// ApplyAll incorporates a batch of records in order.
func (r *Replica) ApplyAll(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			return err
		}
	}
	return nil
}

func (r *Replica) applyNewTree(rec *wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := PageID(rec.AuxPage)
	r.trees[TreeID(rec.TreeID)] = &replicaTree{
		leaves: []replicaLeafRef{{lo: nil, page: root}},
	}
	if _, ok := r.pages[root]; !ok {
		r.pages[root] = &replicaPage{id: root}
	}
	return nil
}

func (r *Replica) applyNewPage(rec *wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := PageID(rec.PageID)
	if _, ok := r.pages[id]; !ok {
		r.pages[id] = &replicaPage{id: id}
	}
	return nil
}

func (r *Replica) applySplit(rec *wal.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tree := r.trees[TreeID(rec.TreeID)]
	left := r.pages[PageID(rec.PageID)]
	right := r.pages[PageID(rec.AuxPage)]
	if tree == nil || left == nil || right == nil {
		return fmt.Errorf("bwtree: replica: split %d->%d references unknown state", rec.PageID, rec.AuxPage)
	}
	sep := rec.Key

	left.mu.Lock()
	right.mu.Lock()
	right.lo = sep
	right.hi = left.hi
	left.hi = sep
	if right.base.IsZero() {
		right.origin = left.id
	}
	// The halves share the left page's immutable image (resident for free,
	// §3.4 step 4), each reading it through its own key range; the replay
	// log is cut at the separator.
	cut := searchOps(left.overlay, sep)
	right.overlay = sortOps(append(right.overlay, left.overlay[cut:]...))
	left.overlay = left.overlay[:cut:cut]
	if right.image = left.image; right.image != nil {
		r.noteCachedPage(right)
	}
	right.mu.Unlock()
	left.mu.Unlock()

	// Insert the new leaf into the routing directory.
	idx := sort.Search(len(tree.leaves), func(i int) bool {
		return tree.leaves[i].lo != nil && bytes.Compare(tree.leaves[i].lo, sep) > 0
	})
	tree.leaves = append(tree.leaves, replicaLeafRef{})
	copy(tree.leaves[idx+1:], tree.leaves[idx:])
	tree.leaves[idx] = replicaLeafRef{lo: sep, page: right.id}
	return nil
}

func (r *Replica) applyData(rec *wal.Record) error {
	r.mu.RLock()
	p := r.pages[PageID(rec.PageID)]
	r.mu.RUnlock()
	if p == nil {
		return fmt.Errorf("bwtree: replica: data record for unknown page %d", rec.PageID)
	}
	p.mu.Lock()
	p.overlay = insertOp(p.overlay, op{del: rec.Type == wal.RecordDelete, key: rec.Key, val: rec.Value, lsn: rec.LSN})
	p.mu.Unlock()
	return nil
}

func (r *Replica) applyCheckpoint(rec *wal.Record) error {
	updates, err := DecodeMappingUpdates(rec.Value)
	if err != nil {
		return err
	}
	for _, up := range updates {
		r.mu.RLock()
		p := r.pages[up.Page]
		r.mu.RUnlock()
		if p == nil {
			// The checkpoint may describe pages of trees created before
			// this replica attached; register them lazily.
			r.mu.Lock()
			p = r.pages[up.Page]
			if p == nil {
				p = &replicaPage{id: up.Page}
				r.pages[up.Page] = p
			}
			r.mu.Unlock()
		}
		p.mu.Lock()
		p.base = up.Base
		p.deltas = append(p.deltas[:0], up.Deltas...)
		p.origin = 0
		p.mu.Unlock()
	}
	// Drop the overlay ops the durable state now covers. A resident image
	// predates them, so they fold into it first.
	r.mu.RLock()
	pages := make([]*replicaPage, 0, len(r.pages))
	for _, p := range r.pages {
		pages = append(pages, p)
	}
	r.mu.RUnlock()
	for _, p := range pages {
		p.mu.Lock()
		if keep := opsAbove(p.overlay, rec.CkptLSN); len(keep) < len(p.overlay) {
			if p.image != nil {
				img, err := mergeEncode(p.image, p.overlay, p.lo, p.hi, rec.CkptLSN)
				if err != nil {
					p.mu.Unlock()
					return err
				}
				p.image = img
			}
			p.overlay = keep
		}
		p.mu.Unlock()
	}
	return nil
}

// routeLeaf finds the page covering key in the tree's directory.
func (r *Replica) routeLeaf(tree TreeID, key []byte) (*replicaPage, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.trees[tree]
	if t == nil {
		return nil, fmt.Errorf("bwtree: replica: unknown tree %d", tree)
	}
	// Find the last leaf whose lo <= key.
	idx := sort.Search(len(t.leaves), func(i int) bool {
		return t.leaves[i].lo != nil && bytes.Compare(t.leaves[i].lo, key) > 0
	})
	ref := t.leaves[idx-1]
	p := r.pages[ref.page]
	if p == nil {
		return nil, fmt.Errorf("bwtree: replica: dangling leaf %d", ref.page)
	}
	return p, nil
}

// loadDurable reads the durable state backing page p — the base record as
// an aliased image plus the delta chain's ops in overlay order — following
// split origins when p has no image of its own yet. Intermediate pages on
// the origin chain may have been narrowed by later splits, so nothing is
// clipped here: readers clip to p's own range. It does not consult the
// replay log. p.mu must be held by the caller; origin pages' durable fields
// are copied under their own locks (origin edges point strictly to older
// pages, so child-before-parent ordering is deadlock-free).
func (r *Replica) loadDurable(p *replicaPage) (leafImage, []op, error) {
	base := p.base
	deltas := append([]storage.Loc(nil), p.deltas...)
	origin := p.origin
	hops := 0
	for base.IsZero() && origin != 0 {
		r.mu.RLock()
		orig := r.pages[origin]
		r.mu.RUnlock()
		if orig == nil {
			return nil, nil, fmt.Errorf("bwtree: replica: page %d lost split origin %d", p.id, origin)
		}
		orig.mu.Lock()
		base = orig.base
		deltas = append(deltas[:0], orig.deltas...)
		origin = orig.origin
		orig.mu.Unlock()
		if hops++; hops > 1<<20 {
			return nil, nil, fmt.Errorf("bwtree: replica: origin cycle at page %d", p.id)
		}
	}
	// Base + delta chain in one batched call: the streams differ, so the
	// two round trips overlap just like on the RW node's read path.
	locs := make([]storage.Loc, 0, len(deltas)+1)
	if !base.IsZero() {
		locs = append(locs, base)
	}
	locs = append(locs, deltas...)
	if len(locs) == 0 {
		return emptyLeaf, nil, nil
	}
	bufs, err := r.store.ReadBatch(locs)
	if err != nil {
		return nil, nil, fmt.Errorf("bwtree: replica: read page %d: %w", p.id, err)
	}
	img := emptyLeaf
	if !base.IsZero() {
		if img, err = decodeLeaf(bufs[0]); err != nil {
			return nil, nil, err
		}
		bufs = bufs[1:]
	}
	ops, err := decodeDeltas(bufs)
	return img, ops, err
}

// load makes p resident (§3.4 steps 5–6) and returns its image; the page's
// content is the image merged with p.overlay inside [p.lo, p.hi) — the
// durable image may predate splits that narrowed this page (the shared
// store still holds the old version until the next checkpoint). A delta
// chain is folded into the image once here: the overlay is the replay log
// alone, so eviction and checkpoints never have to tell the two apart.
// p.mu must be held.
func (r *Replica) load(p *replicaPage) (leafImage, error) {
	if p.image != nil {
		r.touchPage(p)
		return p.image, nil
	}
	img, ops, err := r.loadDurable(p)
	if err != nil {
		return nil, err
	}
	if len(ops) > 0 {
		if img, err = mergeEncode(img, ops, p.lo, p.hi, horizonAll); err != nil {
			return nil, err
		}
	}
	p.image = img
	r.noteCachedPage(p)
	return img, nil
}

// Get returns the value of key in tree, reflecting every WAL record the
// replica has incorporated.
func (r *Replica) Get(tree TreeID, key []byte) ([]byte, bool, error) {
	for {
		p, err := r.routeLeaf(tree, key)
		if err != nil {
			return nil, false, err
		}
		p.mu.Lock()
		// A concurrent split may have narrowed the page after routing.
		if p.hi != nil && bytes.Compare(key, p.hi) >= 0 {
			p.mu.Unlock()
			continue
		}
		img, err := r.load(p)
		if err != nil {
			p.mu.Unlock()
			return nil, false, err
		}
		v, found := lookup(img, p.overlay, key, horizonAll)
		if found {
			v = append([]byte(nil), v...)
		}
		p.mu.Unlock()
		return v, found, nil
	}
}

// Scan iterates keys of tree in [from, to) in order, like Tree.Scan: each
// page's image and in-range overlay ops are taken under its latch and the
// latch released before the merge walk runs callbacks, so fn may safely
// re-enter the replica.
func (r *Replica) Scan(tree TreeID, from, to []byte, limit int, fn func(key, value []byte) bool) error {
	if from == nil {
		from = []byte{}
	}
	delivered := 0
	cur := from
	for {
		p, err := r.routeLeaf(tree, cur)
		if err != nil {
			return err
		}
		p.mu.Lock()
		if p.hi != nil && bytes.Compare(cur, p.hi) >= 0 {
			p.mu.Unlock()
			continue
		}
		img, err := r.load(p)
		if err != nil {
			p.mu.Unlock()
			return err
		}
		lo, hi := clipBounds(cur, to, p.lo, p.hi)
		ov := append([]op(nil), opsInRange(p.overlay, lo, hi)...)
		next := p.hi
		p.mu.Unlock()

		n, stopped := scanPage(img, ov, lo, hi, limit-delivered, horizonAll, fn)
		delivered += n
		if stopped || next == nil || (to != nil && bytes.Compare(next, to) >= 0) || (limit > 0 && delivered >= limit) {
			return nil
		}
		cur = next
	}
}

// BufferedRecords returns the total number of records waiting in lazy
// replay buffers — the memory the checkpoint mechanism bounds.
func (r *Replica) BufferedRecords() int {
	r.mu.RLock()
	pages := make([]*replicaPage, 0, len(r.pages))
	for _, p := range r.pages {
		pages = append(pages, p)
	}
	r.mu.RUnlock()
	n := 0
	for _, p := range pages {
		p.mu.Lock()
		n += len(p.overlay)
		p.mu.Unlock()
	}
	return n
}

// noteCachedPage registers p as resident and evicts beyond capacity.
func (r *Replica) noteCachedPage(p *replicaPage) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if el, ok := r.lruIndex[p.id]; ok {
		r.lru.MoveToFront(el)
	} else {
		r.lruIndex[p.id] = r.lru.PushFront(p)
	}
	if r.capacity <= 0 {
		return
	}
	for r.lru.Len() > r.capacity {
		el := r.lru.Back()
		if el == nil {
			break
		}
		victim := el.Value.(*replicaPage)
		r.lru.Remove(el)
		delete(r.lruIndex, victim.id)
		if victim == p {
			continue
		}
		if victim.mu.TryLock() {
			victim.image = nil
			victim.mu.Unlock()
		}
	}
}

func (r *Replica) touchPage(p *replicaPage) {
	if r.capacity <= 0 {
		return
	}
	r.cacheMu.Lock()
	if el, ok := r.lruIndex[p.id]; ok {
		r.lru.MoveToFront(el)
	}
	r.cacheMu.Unlock()
}

// EncodeMappingUpdates serializes mapping updates for a checkpoint record:
//
//	count[4] { tree[8] page[8] base[17] ndeltas[2] deltas[17]* }
//
// where a Loc is stream[1] extent[8] offset[4] length[4].
func EncodeMappingUpdates(ups []MappingUpdate) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ups)))
	for _, up := range ups {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(up.Tree))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(up.Page))
		buf = AppendLoc(buf, up.Base)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(up.Deltas)))
		for _, d := range up.Deltas {
			buf = AppendLoc(buf, d)
		}
	}
	return buf
}

// AppendLoc appends l's 17-byte wire form (stream[1] extent[8] offset[4]
// length[4], little-endian) — shared by checkpoint mapping updates and
// snapshot records, which both ship durable page locations.
func AppendLoc(buf []byte, l storage.Loc) []byte {
	buf = append(buf, byte(l.Stream))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Extent))
	buf = binary.LittleEndian.AppendUint32(buf, l.Offset)
	buf = binary.LittleEndian.AppendUint32(buf, l.Length)
	return buf
}

// ReadLoc parses one AppendLoc-encoded location off the front of buf and
// returns the remainder.
func ReadLoc(buf []byte) (storage.Loc, []byte, error) {
	if len(buf) < 17 {
		return storage.Loc{}, nil, fmt.Errorf("%w: truncated loc", ErrCorruptPage)
	}
	l := storage.Loc{
		Stream: storage.StreamID(buf[0]),
		Extent: storage.ExtentID(binary.LittleEndian.Uint64(buf[1:])),
		Offset: binary.LittleEndian.Uint32(buf[9:]),
		Length: binary.LittleEndian.Uint32(buf[13:]),
	}
	return l, buf[17:], nil
}

// DecodeMappingUpdates parses the payload of a checkpoint record.
func DecodeMappingUpdates(buf []byte) ([]MappingUpdate, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: truncated mapping updates", ErrCorruptPage)
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	ups := make([]MappingUpdate, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(buf) < 16 {
			return nil, fmt.Errorf("%w: truncated mapping update %d", ErrCorruptPage, i)
		}
		up := MappingUpdate{
			Tree: TreeID(binary.LittleEndian.Uint64(buf)),
			Page: PageID(binary.LittleEndian.Uint64(buf[8:])),
		}
		buf = buf[16:]
		var err error
		up.Base, buf, err = ReadLoc(buf)
		if err != nil {
			return nil, err
		}
		if len(buf) < 2 {
			return nil, fmt.Errorf("%w: truncated delta count %d", ErrCorruptPage, i)
		}
		nd := binary.LittleEndian.Uint16(buf)
		buf = buf[2:]
		for j := uint16(0); j < nd; j++ {
			var d storage.Loc
			d, buf, err = ReadLoc(buf)
			if err != nil {
				return nil, err
			}
			up.Deltas = append(up.Deltas, d)
		}
		ups = append(ups, up)
	}
	return ups, nil
}
