package bwtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// WALLogger receives the tree's write-ahead records: the RW node of §3.4
// plugs its group committer in; standalone trees leave it nil, and flush every
// page they dirty at once. LogAsync assigns the record its LSN at once — the
// caller's page latch is held only for that instant — and returns the wait
// that blocks until the record is durable; LSN 0 means the record was refused
// and nothing was enqueued, and the wait returns why. A write enqueues every
// record it causes before it invokes the first wait (Tree.Apply), so
// concurrent writers of one page, and a write's own records, share commit
// round trips instead of serializing on them. A logger keeps no pointer to
// rec once LogAsync returned: a write run reuses one record for its ops.
type WALLogger interface {
	LogAsync(rec *wal.Record) (wal.LSN, func() error)
}

// AsyncWALLogger is WALLogger under its former name, which the benchmark
// harness still uses.
type AsyncWALLogger = WALLogger

// existedKey is the AuxPage of a put or delete record whose key was live when
// it applied.
const existedKey = 1

// Stats is a snapshot of a tree's operation counters.
type Stats struct {
	Puts           int64
	Gets           int64
	Scans          int64 // range reads: ScanAt calls plus the scans of a Mapping.ScanManyAt
	Deletes        int64
	Consolidations int64
	Splits         int64
}

// Tree is one Bw-tree. Multiple trees (a forest) share a Mapping and a
// storage.Store. All methods are safe for concurrent use.
type Tree struct {
	id     TreeID
	store  *storage.Store
	m      *Mapping
	cfg    Config
	logger WALLogger

	// structMu guards the inner-node structure and root pointer: readers
	// (routing) take the read lock, splits take the write lock.
	structMu sync.RWMutex
	root     PageID

	keys           atomic.Int64 // live keys: moved by each write run's net change
	puts           atomic.Int64
	gets           atomic.Int64
	scans          atomic.Int64
	deletes        atomic.Int64
	consolidations atomic.Int64
	splits         atomic.Int64

	// dirty pages awaiting the flusher (dirtied): a sync tree's only while a
	// flush of theirs failed.
	dirtyMu  sync.Mutex
	dirtySet map[PageID]struct{}

	// blocks is the packed edge-block state (block.go); inert unless
	// cfg.EdgeBlockMinEntries is set.
	blocks blockState
}

// New creates an empty tree registered in m, persisting to store, and waits
// until its creation record is durable.
func New(m *Mapping, store *storage.Store, cfg Config, logger WALLogger) (*Tree, error) {
	var waits wal.Waits
	t, err := NewDeferred(m, store, cfg, logger, &waits)
	if werr := waits.Drain(); err == nil && werr != nil {
		return nil, werr
	}
	return t, err
}

// NewDeferred is New inside a write that causes more records: the creation
// record's durability wait is appended to waits, for the write to drain with
// its others (Apply). The tree is usable at once.
func NewDeferred(m *Mapping, store *storage.Store, cfg Config, logger WALLogger, waits *wal.Waits) (*Tree, error) {
	t := &Tree{id: m.allocTreeID(), store: store, m: m}
	if err := t.lead(cfg, logger); err != nil {
		return nil, err
	}
	rootEntry := &pageEntry{
		id:     m.allocPageID(),
		tree:   t,
		isLeaf: true,
		base:   emptyLeaf,
	}
	m.register(rootEntry)
	t.root = rootEntry.id
	if logger != nil {
		if _, err := t.log(&wal.Record{
			Type: wal.RecordNewTree, TreeID: uint64(t.id), AuxPage: uint64(rootEntry.id),
		}, waits); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// lead gives the tree a leader's configuration, logger and dirty set — at
// creation (New), or when an applier's tree takes over (Mapping.TakeOver).
func (t *Tree) lead(cfg Config, logger WALLogger) error {
	t.cfg, t.dirtySet = cfg.withDefaults(), make(map[PageID]struct{})
	return t.SetLogger(logger)
}

// SetLogger makes l the tree's WAL logger. A tree with one leaves its dirty
// pages to the flusher, so it needs its mapping's page cache to keep them, and
// only its epoch clock can advance as the log commits.
func (t *Tree) SetLogger(l WALLogger) error {
	if async := l != nil; async && t.m.disabled || !async && t.cfg.Epochs != nil {
		return fmt.Errorf("bwtree: a logger defers flushes, which needs the page cache and is what an epoch clock rides")
	}
	t.logger = l
	return nil
}

// ID returns the tree's identifier.
func (t *Tree) ID() TreeID { return t.id }

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats returns a snapshot of the operation counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Puts:           t.puts.Load(),
		Gets:           t.gets.Load(),
		Scans:          t.scans.Load(),
		Deletes:        t.deletes.Load(),
		Consolidations: t.consolidations.Load(),
		Splits:         t.splits.Load(),
	}
}

// Keys returns the number of live keys the tree's writes have left: each
// write run moves it by the keys it added less the keys it removed, and a
// hand-over seeds it from the leaves (Mapping.TakeOver).
func (t *Tree) Keys() int64 { return t.keys.Load() }

// covers reports whether e's key range contains key.
func (e *pageEntry) covers(key []byte) bool {
	if e.lo != nil && bytes.Compare(key, e.lo) < 0 {
		return false
	}
	if e.hi != nil && bytes.Compare(key, e.hi) >= 0 {
		return false
	}
	return true
}

// childIndex returns the index of the child covering key.
func (n *innerNode) childIndex(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) > 0
	})
}

// route descends from the root to the leaf whose range covers key.
// The returned entry is unlatched; callers must latch it and re-check
// coverage (a racing split may have narrowed the leaf).
func (t *Tree) route(key []byte) *pageEntry {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	return t.descend(key)
}

// descend is route under a structure lock its caller holds.
func (t *Tree) descend(key []byte) *pageEntry {
	id := t.root
	for {
		e := t.m.get(id)
		if e == nil {
			panic(fmt.Sprintf("bwtree: dangling page %d in tree %d", id, t.id))
		}
		if e.isLeaf {
			return e
		}
		id = e.inner.children[e.inner.childIndex(key)]
	}
}

// latchLeaf routes to and latches the leaf covering key, chasing right
// siblings if a concurrent split moved the key. The caller must unlock the
// returned entry's mutex.
func (t *Tree) latchLeaf(key []byte) *pageEntry {
	for {
		e := t.route(key)
		e.mu.Lock()
		for !e.covers(key) {
			next := e.next
			e.mu.Unlock()
			if next == 0 {
				e = nil
				break
			}
			ne := t.m.get(next)
			if ne == nil {
				e = nil
				break
			}
			ne.mu.Lock()
			e = ne
		}
		if e != nil {
			return e
		}
	}
}

// install makes img the page's resident base. e.mu must be held.
func (t *Tree) install(e *pageEntry, img leafImage) leafImage {
	e.base = img
	t.m.noteCached(e) // clears e.base again when the cache is disabled
	return img
}

// countLive returns the number of live keys of base ⊕ overlay inside the
// page's range: counted once, tracked by every write and split after that,
// and unaffected by eviction, which drops the image and not the content.
func (e *pageEntry) countLive(base leafImage) int {
	if e.live < 0 {
		e.live, _ = scanPage(base, e.overlay, e.lo, e.hi, 0, horizonAll, func(_, _ []byte) bool { return true })
	}
	return e.live
}

// materialize returns the page's base image and the storage reads it cost:
// none when the image is resident, else one per record locs names — the base
// page and, where no overlay mirrors it, the delta chain, fetched through one
// batched storage call so their round trips overlap instead of paying
// ReadLatency in sequence (base and delta live in different streams and
// therefore different extents). With the chain that count is the logical
// fan-out Fig. 9 measures — the traditional policy pays 1+n, the read-optimized
// policy at most 2 — however many round trips the batch coalesced them into.
// What becomes of the records is image's.
//
// e.mu must be held and stays held across the load. This is the only way a
// single page is loaded — by writers and splits, which cannot let go of the
// latch mid-update, and by readers alike — and the latch is what makes it
// simple: nothing can move the page's records (Relocate takes the same
// latch) or narrow its range under the read, so there is nothing to validate
// afterwards, and whoever else wants the page meanwhile queues on e.mu and
// finds the image resident, so concurrent misses on one page cost one load.
// The image is resident in the cache afterwards unless the cache is
// disabled, in which case it is transient and owned by the caller. The
// page's content is the image merged with e.overlay.
//
// Each call is one page lookup and counts one hit or one miss. counted marks
// a miss already counted: a ScanManyAt round counts each of its leaves when
// it resolves them, and one that has to come back here is still that lookup.
func (t *Tree) materialize(e *pageEntry, counted bool) (leafImage, int, error) {
	if e.base != nil {
		t.m.hits.Add(1)
		t.m.touch(e)
		return e.base, 0, nil
	}
	if !counted {
		t.m.misses.Add(1)
	}
	base, deltas := e.locs()
	img, nlocs := emptyLeaf, len(deltas)
	if !base.IsZero() {
		nlocs++
	}
	if nlocs > 0 {
		bufs, err := t.store.ReadBatch(appendPageLocs(make([]storage.Loc, 0, nlocs), base, deltas))
		if err != nil {
			return nil, nlocs, fmt.Errorf("bwtree: read page %d: %w", e.id, err)
		}
		if img, err = t.m.image(bufs, !base.IsZero()); err != nil {
			return nil, nlocs, err
		}
	}
	return t.install(e, img), nlocs, nil
}

// mirrorsChain is the one rule of a cold load that differs by role. A leader's
// overlay mirrors its delta chain — every op of the page's range on the chain
// is also in the overlay, durable and under the same stamp; the overlay
// survives eviction, and the hand-over that makes an applier a leader restores
// it first (TakeOver) — so a leader's load reads the base record alone. An applier's overlay is the replay log above the last
// checkpoint: the ops at or below it were cut when the checkpoint arrived, and
// those of them the leader left on the chain exist nowhere else, so its load
// reads and folds the chain. So does a cache-disabled node's, which stands
// for one that holds nothing (Fig. 9's configuration).
func (m *Mapping) mirrorsChain() bool { return !m.applier && !m.disabled }

// locs returns the durable records a load of the page reads: the base record
// and, unless the overlay mirrors it (mirrorsChain), the delta chain. They are
// the page's own — except, on an applier, a split sibling no checkpoint has
// given records yet, which reads those of the page it split off from through
// its own range (the shared store holds the pre-split version until the
// leader's next flush). That page may itself still be waiting (chained
// splits), so the chase follows origins to the first page that has records.
// e.mu must be held; each origin is latched alone, for the copy. Origins are
// strictly older pages, and the only one to latch an older page before a newer
// one is the split creating the newer one, which no reader can reach yet.
func (e *pageEntry) locs() (storage.Loc, []storage.Loc) {
	if e.tree.m.mirrorsChain() {
		return e.baseLoc, nil
	}
	base, deltas := e.baseLoc, e.deltaLocs
	for id := e.origin; base.IsZero() && id != 0; {
		o := e.tree.m.get(id)
		if o == nil {
			break
		}
		o.mu.Lock()
		base, deltas, id = o.baseLoc, slices.Clone(o.deltaLocs), o.origin
		o.mu.Unlock()
	}
	return base, deltas
}

// image is the one "records to image" step of a cold load, single-page
// (materialize) and batched (loadHeld): bufs are the page's records as
// appendPageLocs orders them. The base record is validated and aliased as the
// image, never copied; a chain — read only where no overlay mirrorsChain — is
// folded into it, unclipped: loadHeld runs unlatched, and every reader clips.
func (m *Mapping) image(bufs [][]byte, hasBase bool) (img leafImage, err error) {
	img = emptyLeaf
	if hasBase {
		if img, err = decodeLeaf(bufs[0]); err != nil {
			return nil, err
		}
		bufs = bufs[1:]
	}
	if len(bufs) == 0 {
		return img, nil
	}
	ops, err := decodeDeltas(bufs)
	if err != nil {
		return nil, err
	}
	return mergeEncode(nil, img, ops, nil, nil, horizonAll)
}

// materializeRead is materialize on behalf of a reader — GetAt and the scans'
// per-leaf step — with the two measurements that describe reads alone: the
// lookup's storage fan-out and, on a miss, how long the reader waited for the
// page. A writer's miss enters neither, so bwtree.read_fanout and
// bwtree.materialize_us keep meaning what a read paid.
func (t *Tree) materializeRead(e *pageEntry, counted bool) (leafImage, error) {
	if e.base == nil {
		defer func(start time.Time) { t.m.materializeLat.Observe(time.Since(start)) }(time.Now())
	}
	img, reads, err := t.materialize(e, counted)
	if err == nil {
		t.m.fanout.Observe(int64(reads))
	}
	return img, err
}

// sitsAt reports whether the records a load of the page reads (locs) are still
// exactly the ones at (base, deltas) — the rule by which an image read
// unlatched at those locations may be installed or used once the latch is
// back; on a leader a write that only replaced the delta leaves it valid.
// e.mu must be held.
func (e *pageEntry) sitsAt(base storage.Loc, deltas []storage.Loc) bool {
	b, d := e.locs()
	return b == base && slices.Equal(d, deltas)
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	return t.GetAt(key, horizonAll)
}

// GetAt returns the value stored under key as of horizon h: the effect of
// every op committed at or below h and nothing newer. The value is a copy the
// caller owns.
func (t *Tree) GetAt(key []byte, h wal.LSN) ([]byte, bool, error) {
	t.gets.Add(1)
	e := t.latchLeaf(key)
	defer e.mu.Unlock()
	base, err := t.materializeRead(e, false)
	if err != nil {
		return nil, false, err
	}
	v, found := lookup(base, e.overlay, key, h)
	if found {
		v = append([]byte(nil), v...)
	}
	return v, found, nil
}

// Write is one mutation handed to Tree.Apply: an upsert of Key=Value, or the
// removal of Key when Delete is set. The tree owns Key and Value from the call
// on — they become the overlay op and the WAL record without a copy — and
// answers in Existed whether the key was live when the write applied: callers
// that keep size accounting (the forest) must not count an upsert as growth
// nor the delete of an absent key as shrinkage.
type Write struct {
	Key, Value []byte
	Delete     bool
	Existed    bool
}

// Put upserts a key-value pair.
func (t *Tree) Put(key, value []byte) error {
	_, err := t.PutEx(key, value)
	return err
}

// PutEx upserts a key-value pair and reports whether the key already existed.
func (t *Tree) PutEx(key, value []byte) (existed bool, err error) {
	return t.applyOne(Write{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)})
}

// Delete removes key. Deleting an absent key is not an error.
func (t *Tree) Delete(key []byte) error {
	_, err := t.DeleteEx(key)
	return err
}

// DeleteEx removes key and reports whether it was present.
func (t *Tree) DeleteEx(key []byte) (existed bool, err error) {
	return t.applyOne(Write{Key: append([]byte(nil), key...), Delete: true})
}

// applyOne is Apply of a run of one.
func (t *Tree) applyOne(w Write) (existed bool, err error) {
	ws := [1]Write{w}
	_, err = t.Apply(ws[:], nil)
	return ws[0].Existed, err
}

// Apply applies ws in order and returns how many took effect in memory:
// ws[:n] carry their Existed, ws[n:] were not attempted, and n < len(ws) only
// beside an error. The unit of work is the leaf run — the longest stretch of
// ws in ascending key order (writes of one key stay in the order given) that
// lands in one leaf — which is latched, materialized, logged and persisted
// once (applyRun). A caller that sorts its batch by key therefore pays per
// leaf touched, not per write; an unsorted batch degrades to shorter runs,
// never to a different result.
//
// Every record the call causes — its writes' and its splits' — gets its
// durability wait appended to waits instead of blocking: the caller drains
// them once, after its own last record is enqueued, so the whole write shares
// storage appends. Nothing is durable until its wait returned nil. A nil waits
// drains them here, after the last latch was released, so concurrent writers
// of one page still share a commit round trip.
func (t *Tree) Apply(ws []Write, waits *wal.Waits) (n int, err error) {
	var own wal.Waits
	if waits == nil {
		waits = &own
	}
	for locked := false; n < len(ws) && err == nil; {
		var e *pageEntry
		if locked {
			e = t.descend(ws[n].Key) // no split can move the key meanwhile
			e.mu.Lock()
		} else {
			e = t.latchLeaf(ws[n].Key)
		}
		k, needSplit, rerr := t.applyRun(e, ws[n:], waits, locked)
		id := e.id
		e.mu.Unlock()
		if locked {
			t.structMu.Unlock()
		}
		n, err, locked = n+k, rerr, false
		switch {
		case err != nil || !needSplit:
		case k == 0:
			// A sync run that overfills its leaf goes again under the
			// structure lock, which its split needs (applyRun).
			t.structMu.Lock()
			locked = true
		default:
			// Splits take the structure lock, so one runs between two runs,
			// and the rest of ws is routed through the halves.
			err = t.splitPage(id, waits)
		}
	}
	if werr := own.Drain(); err == nil {
		err = werr
	}
	return n, err
}

// idleRecords is a bounded free list of the WAL records write runs fill: a
// run takes one and reuses it for each of its ops, since LogAsync keeps no
// pointer to the record it is handed. It is not a sync.Pool, for the reason
// idleScratch gives; four cover the writers a node typically runs at once,
// and a run beyond them allocates one.
var idleRecords = make(chan *wal.Record, 4)

// takeRecord returns an idle record, or a new one when none is idle.
func takeRecord() *wal.Record {
	select {
	case r := <-idleRecords:
		return r
	default:
		return new(wal.Record)
	}
}

// putRecord clears r and keeps it idle, unless the free list is full.
func putRecord(r *wal.Record) {
	*r = wal.Record{}
	select {
	case idleRecords <- r:
	default:
	}
}

// applyRun is Algorithm 1 on a latched leaf, for a run instead of an op. It
// takes ws[:n]: the writes that follow each other in ascending key order
// inside the leaf's range, until the leaf's live count passes MaxPageEntries —
// but at least one, or a leaf already past the limit would never be written,
// and only a write gets it split. They are applied under this one latch with
// one materialization and one count of the live keys: each op gets its WAL
// record and LSN, in run order, and its Existed; then the run is merged into
// the overlay as pending ops and the page dirtied once — which, on a sync tree,
// is one flush of it (dirtied). On a logged tree needSplit reports a leaf past
// MaxPageEntries; the caller splits it once the latch is released.
//
// A sync run that leaves its leaf past the limit is not flushed: the leaf
// splits under this latch and the writes of its halves persist the run
// (split), or, if it does not split, the page is flushed whole. A split needs
// structMu, taken before the latch: called without it (locked false), such a
// run applies nothing and reports needSplit with n = 0, for the caller to
// call again holding both.
//
// An error leaves ws[:n] applied when the log refused the op after them or
// the split failed after the run was durable, and nothing applied (n = 0, the
// page unchanged) when the sync flush failed.
func (t *Tree) applyRun(e *pageEntry, ws []Write, waits *wal.Waits, locked bool) (n int, needSplit bool, err error) {
	base, _, err := t.materialize(e, false)
	if err != nil {
		return 0, false, err
	}
	live, limit := e.countLive(base), t.cfg.MaxPageEntries
	if t.cfg.DisableSplit {
		limit = math.MaxInt
	}
	wasLive, wasDirty := live, e.dirty
	logged := t.logger != nil
	var rec *wal.Record
	if logged {
		rec = takeRecord()
		defer putRecord(rec)
	}

	var buf [8]op
	run, dels := buf[:0], 0
	for n < len(ws) && (n == 0 || live <= limit) {
		w, order := &ws[n], -1
		if n > 0 {
			order = bytes.Compare(run[n-1].key, w.Key)
			if order > 0 || (order < 0 && e.hi != nil && bytes.Compare(w.Key, e.hi) >= 0) {
				break
			}
		}
		o := op{del: w.Delete, pending: true, key: w.Key, val: w.Value}
		existed := false
		if order == 0 {
			existed = !run[n-1].del // the run's previous op decided this key
		} else {
			_, existed = lookup(base, e.overlay, o.key, horizonAll)
		}
		if logged {
			// Write-ahead: the record enters the WAL (and receives its LSN)
			// before any page state changes (§3.4 step 2). It says whether the
			// key was live, so an applier counts live keys as this leaf does.
			*rec = wal.Record{Type: wal.RecordPut, TreeID: uint64(t.id), PageID: uint64(e.id), Key: o.key, Value: o.val}
			if o.del {
				rec.Type = wal.RecordDelete
			}
			if existed {
				rec.AuxPage = existedKey
			}
			if o.lsn, err = t.log(rec, waits); err != nil {
				break
			}
		}
		w.Existed = existed
		if o.del {
			dels++
		}
		if w.Existed && o.del {
			live--
		} else if !w.Existed && !o.del {
			live++
		}
		run, n = append(run, o), n+1
	}
	overfull := live > limit
	if n > 0 && overfull && !logged && !locked {
		return 0, true, nil
	}

	if n > 0 {
		e.overlay, e.live = insertOps(e.ownOverlay(len(run)), run), live
		e.version++ // the leaf's edge-block chunk is stale (block.go)
		split, serr := false, error(nil)
		if overfull && !logged {
			split, serr = t.split(e, base, waits)
		}
		if !split {
			if ferr := t.dirtied(e, base); ferr != nil {
				// Only a sync flush fails here, and a sync tree's pending ops are
				// this run's: dropping them puts the page back as it was.
				e.overlay = slices.DeleteFunc(e.overlay, func(o op) bool { return o.pending })
				e.live, e.dirty, n, err, serr = wasLive, wasDirty, 0, ferr, nil
			}
		}
		if err == nil {
			err = serr
		}
	}
	if n == 0 {
		return 0, false, err
	}
	t.m.writeRunOps.Observe(int64(n))
	t.keys.Add(int64(live - wasLive))
	t.puts.Add(int64(n - dels))
	t.deletes.Add(int64(dels))
	return n, overfull && logged, err
}

// Len returns the total number of live keys (walks every leaf; intended
// for tests and small trees). When the tree has an epoch clock it counts
// under a pinned snapshot, so concurrent splits cannot double-count keys
// relocated rightward mid-walk.
func (t *Tree) Len() (int, error) {
	h := horizonAll
	if t.cfg.Epochs != nil {
		p := t.cfg.Epochs.Pin()
		defer p.Close()
		h = wal.LSN(p.Epoch())
	}
	n := 0
	err := t.ScanAt(nil, nil, 0, h, func(k, v []byte) bool { n++; return true })
	return n, err
}

// Scan iterates keys in [from, to) in order, invoking fn for each pair
// until fn returns false or limit pairs have been delivered (limit <= 0
// means unlimited). Each leaf's immutable image and the overlay ops inside
// the range are taken under its latch and the latch released before the
// merge walk runs callbacks, so fn may safely re-enter the tree (e.g. a
// traversal that looks up the vertices it discovers). The callback must not
// retain its arguments.
func (t *Tree) Scan(from, to []byte, limit int, fn func(key, value []byte) bool) error {
	return t.ScanAt(from, to, limit, horizonAll, fn)
}

// ScanAt is Scan as of horizon h: every leaf's content is reconstructed
// at the same commit point, so the whole iteration observes one
// group-commit boundary.
func (t *Tree) ScanAt(from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	t.scans.Add(1)
	defer t.maybeBuildEdgeBlock() // the leaves it walked may have made a build due
	if from == nil {
		from = []byte{}
	}
	// A packed super-vertex tree serves what its clean chunks hold from
	// memory (block.go); a leaf whose chunk cannot is walked.
	for delivered := 0; ; {
		n, resume, done := t.scanBlock(from, to, limit-delivered, h, fn)
		if done {
			return nil
		}
		delivered += n
		n, resume, done, err := t.scanLeaf(t.latchLeaf(resume), nil, resume, to, limit-delivered, h, fn)
		if done || err != nil {
			return err
		}
		from, delivered = resume, delivered+n
	}
}

// scanLeaf is the per-leaf step of every range read, ScanAt's and
// ScanManyAt's: deliver the pairs of [from, to) that latched leaf e holds, at
// most owed of them (<= 0: unlimited), and report the key to resume from and
// whether the scan is done — fn stopped it, its bound or its limit was
// reached, or e is the last leaf. e covers from and is unlatched on return:
// the image and the overlay ops in range are taken under the latch (cut), fn
// runs without it.
//
// hl is the leaf's slot in a ScanManyAt round, nil for a single-page reader,
// which simply materializes. The round looked the page up when it resolved
// it and fetched it unlatched, so its step takes the resident image if there
// is one, else the round's own — installed on first use, and used from the
// round's hands after the cache evicted it again — provided the page still
// sits at the locations that image was read at. A page that moved, or whose
// extent was reclaimed under the round's read, alone is materialized here.
func (t *Tree) scanLeaf(e *pageEntry, hl *heldLeaf, from, to []byte, owed int, h wal.LSN, fn func(k, v []byte) bool) (n int, resume []byte, done bool, err error) {
	img := e.base
	switch {
	case hl == nil:
		img, err = t.materializeRead(e, false)
	case img != nil:
	case hl.img != nil && e.sitsAt(hl.base, hl.deltas):
		img = hl.img
		if hl.fresh {
			hl.fresh = false
			t.install(e, img)
		}
	default:
		img, err = t.materializeRead(e, true)
	}
	if err != nil {
		e.mu.Unlock()
		return 0, nil, true, err
	}
	var buf [scanCopyOps]op
	lo, hi, ov, ended := e.cut(img, from, to, owed, buf[:0])
	e.mu.Unlock()

	n, stopped := scanPage(img, ov, lo, hi, owed, h, fn)
	return n, hi, stopped || ended || (owed > 0 && n >= owed), nil
}

// log enqueues a WAL record and returns its LSN, deferring the durability
// wait into waits — the page latch or the structure lock is released before
// anyone blocks, so neither same-page writers nor splits stall for a commit
// round trip.
func (t *Tree) log(rec *wal.Record, waits *wal.Waits) (wal.LSN, error) {
	lsn, w := t.logger.LogAsync(rec)
	if lsn == 0 {
		// Admission failed (stopped or poisoned committer, or an oversized
		// record): no LSN exists and nothing was enqueued, so the caller
		// must fail before any in-memory state changes. An op stamped 0
		// would otherwise sit below every snapshot horizon and leak an
		// unlogged write into pinned reads.
		return 0, w()
	}
	waits.Add(w)
	return lsn, nil
}

// splitPage splits the leaf id if it is past MaxPageEntries (split); the
// split record's durability wait joins waits. It re-checks the size under the
// structure lock, so spurious calls are harmless.
func (t *Tree) splitPage(id PageID, waits *wal.Waits) error {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	e := t.m.get(id)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	base, _, err := t.materialize(e, false)
	if err != nil {
		return err
	}
	if e.countLive(base) <= t.cfg.MaxPageEntries {
		return nil // a concurrent split already handled it
	}
	_, err = t.split(e, base, waits)
	return err
}

// split is every split of a leader's leaf: latched leaf e, whose content is
// base ⊕ e.overlay, hands the keys from a separator up to a new sibling, and
// its parents are updated (insertParent). It reports whether the leaf split;
// on a logged tree the split record's durability wait joins waits. structMu
// must be held exclusively.
//
// A split writes the half that changed. A leaf that only grew at its right
// end (appended) splits at its first overlay op: its left half is exactly its
// durable base — same records, no overlay, not dirty — and only the sibling,
// which holds the new keys, is dirtied splitPending, for its next flush to
// write its base (§3.4 step 7). The left half's delta records then hold the
// sibling's ops alone: a sync tree retires them once the sibling's base has
// landed, a logged tree keeps them named until the left half's next flush —
// every reader clips records to its range, and followers and recovery read
// the sibling through them until its own base is checkpointed — which takes
// the sibling along (lends, flushPages). Any other leaf splits at its middle
// live key and both halves are dirtied splitPending.
//
// On a sync tree the halves are written now, from the image the split read,
// and the sibling's first, before anyone can reach it: a failure there leaves
// the leaf unsplit. A failed write of the narrowed page leaves the split
// standing, and the page dirty until its next write.
func (t *Tree) split(e *pageEntry, base leafImage, waits *wal.Waits) (bool, error) {
	n := e.countLive(base)
	left, appended := e.appended(base)
	var sep []byte
	if appended {
		sep = e.overlay[0].key
	} else {
		left = n / 2
		scanPage(base, e.overlay, e.lo, e.hi, left+1, horizonAll, func(k, _ []byte) bool {
			sep = k
			return true
		})
	}
	sep = append([]byte(nil), sep...)
	rightID := t.m.allocPageID()

	if t.logger != nil {
		// The one record of a split: it names the sibling and the live keys
		// left behind, and an applier grows its own parents from it
		// (applySplit).
		if _, err := t.log(&wal.Record{
			Type: wal.RecordSplit, TreeID: uint64(t.id), PageID: uint64(e.id),
			AuxPage: uint64(rightID), Key: sep, Value: binary.AppendUvarint(nil, uint64(left)),
		}, waits); err != nil {
			return false, err
		}
	}

	ov := e.overlay
	right := e.halve(sep, rightID)
	right.splitPending = true
	if err := t.dirtied(right, base); err != nil {
		e.overlay = ov
		return false, err
	}
	e.live, right.live = left, n-left
	t.adopt(e, right)
	t.insertParent(e.id, sep, right.id)
	if appended {
		if t.logger == nil {
			for _, l := range e.deltaLocs {
				t.store.Invalidate(l)
			}
			e.deltaLocs = nil
		} else {
			// A flush cycle that took e's pending ops, now the sibling's, or
			// that replaces e's delta records must write the sibling too.
			e.lends = e.dirty || len(e.deltaLocs) > 0
		}
		e.dirty = false
		t.unfile(e.id)
		return true, nil
	}
	e.splitPending = true
	if err := t.dirtied(e, base); err != nil {
		// Split, and dirty until its next flush: meanwhile its old records
		// still cover its range, and every reader clips them to it.
		t.markDirty(e.id)
		return true, err
	}
	return true, nil
}

// appended reports whether leaf e, whose content is base ⊕ e.overlay, only
// grew at its right end — it has a durable base of its own, and every overlay
// op lies above that base's last key in the leaf's range — and how many live
// keys the base holds there: the left half of an append split, which must
// hold at least one key and fit a leaf. e.mu must be held.
func (e *pageEntry) appended(base leafImage) (int, bool) {
	if e.splitPending || e.baseLoc.IsZero() || len(e.overlay) == 0 {
		return 0, false
	}
	i, j := base.search(e.lo), base.bound(e.hi)
	left := j - i
	return left, left > 0 && left <= e.tree.cfg.MaxPageEntries &&
		bytes.Compare(base.key(j-1), e.overlay[0].key) < 0
}

// halve is the in-memory body of every split — a leader's, whose flushes then
// write the halves, and an applier's of a RecordSplit: the right half
// shares the page's immutable image (nil when the page is not resident),
// each half reading it through its own key range, and the overlay — stamps
// intact, so a horizon still reconstructs pre-split versions of keys that
// move right — is cut at the separator: the halves alias one array, so a scan
// that holds it (shared) holds both; a left half left with no op holds none of
// it. e's range narrows, so its edge-block chunk is stale. The sibling is not
// linked in yet (adopt). e.mu must be held.
func (e *pageEntry) halve(sep []byte, id PageID) *pageEntry {
	cut := searchOps(e.overlay, sep)
	right := &pageEntry{
		id: id, tree: e.tree, isLeaf: true, lo: sep, hi: e.hi, next: e.next, live: -1,
		base: e.base, overlay: e.overlay[cut:], shared: e.shared,
	}
	if e.overlay = e.overlay[:cut:cut]; cut == 0 {
		e.overlay = nil
	}
	e.version++
	return right
}

// adopt links right in as the sibling e split off at right.lo and registers
// it. e.mu and structMu must be held.
func (t *Tree) adopt(e, right *pageEntry) {
	e.hi, e.next = right.lo, right.id
	t.m.register(right)
	if e.base != nil {
		t.m.noteCached(e)
		t.m.noteCached(right)
	}
	t.splits.Add(1)
}

// insertParent inserts the separator (sep -> right) into the parent of
// leaf/inner page left, splitting inner nodes upward as needed and growing a
// new root above a root that split. Memory only (innerNode). Caller holds
// structMu exclusively.
func (t *Tree) insertParent(left PageID, sep []byte, right PageID) {
	// Collect the path from root to the node `left` by routing on sep;
	// before the parent is updated, sep still routes into `left`'s subtree.
	var path []*pageEntry
	id := t.root
	for id != left {
		e := t.m.get(id)
		if e == nil || e.isLeaf {
			break
		}
		path = append(path, e)
		id = e.inner.children[e.inner.childIndex(sep)]
	}
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		n := path[lvl].inner
		idx := n.childIndex(sep)
		n.keys = slices.Insert(n.keys, idx, sep)
		n.children = slices.Insert(n.children, idx+1, right)
		if len(n.children) <= t.cfg.MaxInnerEntries {
			return
		}
		// Split the inner node and continue upward with the promoted key.
		mid := len(n.keys) / 2
		rightInner := &pageEntry{
			id:   t.m.allocInnerID(),
			tree: t,
			inner: &innerNode{
				keys:     append([][]byte(nil), n.keys[mid+1:]...),
				children: append([]PageID(nil), n.children[mid+1:]...),
			},
		}
		left, sep, right = path[lvl].id, n.keys[mid], rightInner.id
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		t.m.register(rightInner)
	}
	// left is the root, a leaf or an inner node that just split: grow a new
	// root above it.
	newRoot := &pageEntry{
		id:    t.m.allocInnerID(),
		tree:  t,
		inner: &innerNode{keys: [][]byte{sep}, children: []PageID{left, right}},
	}
	t.m.register(newRoot)
	t.root = newRoot.id
}

// Height returns the number of levels in the tree (1 = a single leaf).
func (t *Tree) Height() int {
	t.structMu.RLock()
	defer t.structMu.RUnlock()
	h := 1
	id := t.root
	for {
		e := t.m.get(id)
		if e == nil || e.isLeaf {
			return h
		}
		h++
		id = e.inner.children[0]
	}
}
