// Package forest implements BG3's space-optimized Bw-tree forest (§3.2.1).
//
// All owners (e.g. users in the Douyin-follow workload) start out sharing a
// single INIT Bw-tree, keyed by owner|key composites. When an owner's edge
// count crosses a configurable threshold, its data migrates to a dedicated
// Bw-tree whose keys drop the owner prefix (the paper's key shortening):
// hot owners stop contending on shared leaf pages, while the long tail of
// cold owners avoids per-tree space overhead. When the INIT tree itself
// grows past a size threshold, the owner with the most edges in it is
// evicted into a dedicated tree to keep INIT queries efficient.
//
// Locking: the forest-wide mutex guards only the owner and tree
// directories (brief map accesses). Write-vs-migration exclusion is
// per-owner, so a migration blocks only its own owner's writers — and the
// data path never holds a forest-wide lock across a tree operation, which
// matters because tree operations can park in WAL group commit.
package forest

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"bg3/internal/bwtree"
	"bg3/internal/metrics"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// OwnerID identifies the entity whose edges group together (a user, a
// vertex). The forest's hash directory is keyed by OwnerID.
type OwnerID uint64

// Config parameterizes a Forest.
type Config struct {
	// Tree configures every Bw-tree in the forest.
	Tree bwtree.Config

	// SplitThreshold is the number of keys an owner accumulates before its
	// data moves to a dedicated tree. 0 disables per-owner splitting
	// (everything stays in INIT — the "1 Bw-tree" end of Fig. 11).
	SplitThreshold int

	// InitSizeThreshold caps the INIT tree's total key count; beyond it,
	// the owner with the most INIT-resident keys is evicted to a dedicated
	// tree. 0 disables the cap.
	InitSizeThreshold int
}

// initTree is the configuration of the shared INIT tree, which never gets a
// packed edge block: it holds many owners' composite keys and churns through
// migrations, while blocks target large single-owner dedicated trees.
func (c Config) initTree() bwtree.Config {
	t := c.Tree
	t.EdgeBlockMinEntries = 0
	return t
}

// ownerState tracks one owner's tree assignment and approximate key count.
// Counts are maintained by Put/Delete deltas; in the insert-dominated
// workloads the forest targets (§3.2.1), this tracks edge count closely.
type ownerState struct {
	// mu excludes this owner's writers during its migration. Readers rely
	// on the tree pointer being published only after the dedicated copy is
	// complete.
	mu    sync.RWMutex
	tree  atomic.Pointer[bwtree.Tree] // nil while the owner lives in INIT
	count atomic.Int64

	// since is the LSN of the owner-assignment record: tree holds the
	// owner's complete state at every horizon from it on, INIT at every
	// horizon below (view.go). Written before tree is published, never
	// after; 0 without a WAL and for assignments a snapshot carried, which
	// no surviving pin can predate.
	since wal.LSN
}

// Forest is the Bw-tree forest: the RW node's, written through Apply, and in
// the applier role (applier.go) an RO node's, written by the leader's WAL. It
// is safe for concurrent use.
type Forest struct {
	store  *storage.Store
	m      *bwtree.Mapping
	logger bwtree.WALLogger
	cfg    Config

	// mu guards the owner and tree directories (map access only). ownerOf
	// is the owner each dedicated tree is published for.
	mu      sync.RWMutex
	owners  map[OwnerID]*ownerState
	trees   map[bwtree.TreeID]*bwtree.Tree
	ownerOf map[bwtree.TreeID]OwnerID

	// migrateMu serializes migrations (rare, heavyweight).
	migrateMu sync.Mutex

	init       *bwtree.Tree
	initKeys   atomic.Int64
	migrations atomic.Int64

	applied atomic.Uint64 // applier role only (applier.go): the published read horizon
}

// New creates a forest with a fresh INIT tree.
func New(m *bwtree.Mapping, store *storage.Store, cfg Config, logger bwtree.WALLogger) (*Forest, error) {
	f := &Forest{
		store:   store,
		m:       m,
		logger:  logger,
		cfg:     cfg,
		owners:  make(map[OwnerID]*ownerState),
		trees:   make(map[bwtree.TreeID]*bwtree.Tree),
		ownerOf: make(map[bwtree.TreeID]OwnerID),
	}
	init, err := bwtree.New(m, store, cfg.initTree(), logger)
	if err != nil {
		return nil, err
	}
	f.init = init
	f.trees[init.ID()] = init
	return f, nil
}

// BuildEdgeBlocks synchronously builds (or rebuilds) the packed edge
// block of every dedicated tree that has blocks enabled — the operator
// path benchmarks and bulk loads use to pack super-vertices before their
// first scan, which would otherwise build them. It returns how many
// blocks were installed.
func (f *Forest) BuildEdgeBlocks() (int, error) {
	built := 0
	var firstErr error
	f.Trees(func(t *bwtree.Tree) bool {
		if t == f.init {
			return true
		}
		ok, err := t.BuildEdgeBlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			built++
		}
		return true
	})
	return built, firstErr
}

// InitTreeID returns the ID of the shared INIT tree.
func (f *Forest) InitTreeID() bwtree.TreeID { return f.init.ID() }

// appendCompositeKey appends owner's INIT-tree key for key to buf: the
// big-endian owner ID, then key, which keeps each owner's keys together and
// in order. It is the one builder of composite keys — a write run's, a point
// read's, a range's bounds (appendOwnerRange) — so each caller decides where
// they live: an arena, or a buffer on its stack.
func appendCompositeKey(buf []byte, owner OwnerID, key []byte) []byte {
	return append(binary.BigEndian.AppendUint64(buf, uint64(owner)), key...)
}

// appendOwnerRange appends to buf the bounds of the INIT-tree range holding
// [from, to) of owner's key space (nil: unbounded) and returns them as
// capacity-clipped slices of the extended buf. An open to ends at the next
// owner's first key; past the last owner, hi is nil (+inf).
func appendOwnerRange(buf []byte, owner OwnerID, from, to []byte) (_, lo, hi []byte) {
	start := len(buf)
	buf = appendCompositeKey(buf, owner, from)
	mid := len(buf)
	switch {
	case to != nil:
		buf = appendCompositeKey(buf, owner, to)
	case owner != ^OwnerID(0):
		buf = appendCompositeKey(buf, owner+1, nil)
	default:
		return buf, buf[start:mid:mid], nil
	}
	return buf, buf[start:mid:mid], buf[mid:len(buf):len(buf)]
}

// lookupOwner returns the owner's state or nil.
func (f *Forest) lookupOwner(owner OwnerID) *ownerState {
	f.mu.RLock()
	st := f.owners[owner]
	f.mu.RUnlock()
	return st
}

// ownerStateFor returns (creating on demand) the owner's state.
func (f *Forest) ownerStateFor(owner OwnerID) *ownerState {
	if st := f.lookupOwner(owner); st != nil {
		return st
	}
	f.mu.Lock()
	st := f.owners[owner]
	if st == nil {
		st = &ownerState{}
		f.owners[owner] = st
	}
	f.mu.Unlock()
	return st
}

// addToFloor atomically adds d to v, clamping at zero, and returns the new
// value — the check and the update are one CAS, so concurrent deleters
// cannot drive a count negative the way a load-then-add would.
func addToFloor(v *atomic.Int64, d int64) int64 {
	for {
		cur := v.Load()
		next := max(cur+d, 0)
		if v.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Write is one mutation handed to Forest.Apply: an upsert of Key=Value under
// Owner, or the removal of Key when Delete is set. The forest owns Key and
// Value from the call on (bwtree.Write).
type Write struct {
	Owner      OwnerID
	Key, Value []byte
	Delete     bool
}

// Put upserts key=value under owner, migrating the owner to a dedicated
// tree when it crosses the split threshold.
func (f *Forest) Put(owner OwnerID, key, value []byte) error {
	return f.Apply([]Write{{Owner: owner, Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)}}, nil)
}

// Delete removes key under owner. Deleting an absent key is not an error.
func (f *Forest) Delete(owner OwnerID, key []byte) error {
	return f.Apply([]Write{{Owner: owner, Key: append([]byte(nil), key...), Delete: true}}, nil)
}

// Get returns the latest value of key under owner.
func (f *Forest) Get(owner OwnerID, key []byte) ([]byte, bool, error) {
	return f.GetAt(owner, key, horizonAll)
}

// Apply applies ws in order: every stretch of consecutive writes of one owner
// goes to the tree holding that owner as one bwtree.Apply — composite-keyed
// when that is the INIT tree — so a batch sorted by (owner, key) costs one
// latch, one materialization and one persist per leaf each owner touches. An
// INIT leaf that k owners of the batch share is persisted k times, once per
// owner's bwtree.Apply. It stops at
// the first error; the writes before it are applied. waits collects the WAL
// durability waits of every record the writes cause — splits' and migrations'
// included — for the caller to drain once (bwtree.Tree.Apply); a nil waits
// drains them here, once, after the last record. LSN order is commit order, so
// no follower and no pinned reader reaches a migrated owner's new tree before
// its copy is durable (ownerState.since).
func (f *Forest) Apply(ws []Write, waits *wal.Waits) error {
	var own wal.Waits
	if waits == nil {
		waits = &own
	}
	var err error
	for len(ws) > 0 && err == nil {
		n := 1
		for n < len(ws) && ws[n].Owner == ws[0].Owner {
			n++
		}
		err = f.applyOwner(ws[0].Owner, ws[:n], waits)
		ws = ws[n:]
	}
	if werr := own.Drain(); err == nil {
		err = werr
	}
	return err
}

// applyOwner applies one owner's writes to its tree and settles the owner
// and INIT counts once for all of them. Only real inserts and real removals
// move a count — an upsert of an existing key must not, or the counts drift
// above true owner size and trigger premature migrations — and the
// thresholds are checked after the writes: a migration fires at most once,
// on the counts all of them left behind.
func (f *Forest) applyOwner(owner OwnerID, ws []Write, waits *wal.Waits) error {
	st := f.ownerStateFor(owner)
	st.mu.RLock()
	tree := st.tree.Load()
	inInit := tree == nil
	var buf [4]bwtree.Write // keeps a short run off the heap
	run := buf[:min(len(ws), len(buf))]
	if len(ws) > len(buf) {
		run = make([]bwtree.Write, len(ws))
	}
	if inInit {
		tree = f.init
		size := 0
		for _, w := range ws {
			size += 8 + len(w.Key)
		}
		keys := make([]byte, 0, size) // one arena for the run's composite keys
		for i, w := range ws {
			keys = appendCompositeKey(keys, owner, w.Key)
			run[i] = bwtree.Write{Key: keys[len(keys)-8-len(w.Key) : len(keys) : len(keys)], Value: w.Value, Delete: w.Delete}
		}
	} else {
		for i, w := range ws {
			run[i] = bwtree.Write{Key: w.Key, Value: w.Value, Delete: w.Delete}
		}
	}
	n, err := tree.Apply(run, waits)
	// Count adjustments happen before the owner latch is released: a
	// migration (which rewrites both counts under the exclusive latch)
	// cannot interleave with them, and the captured tree pointer stays
	// authoritative for where the writes landed.
	var grown int64
	for _, w := range run[:n] {
		if w.Delete && w.Existed {
			grown--
		} else if !w.Delete && !w.Existed {
			grown++
		}
	}
	var count, initKeys int64
	if grown != 0 {
		count = addToFloor(&st.count, grown)
		if inInit {
			initKeys = addToFloor(&f.initKeys, grown)
		}
	}
	st.mu.RUnlock()
	if err != nil || grown <= 0 {
		return err
	}

	needOwnerSplit := inInit && f.cfg.SplitThreshold > 0 && count > int64(f.cfg.SplitThreshold)
	needEvict := inInit && f.cfg.InitSizeThreshold > 0 && initKeys > int64(f.cfg.InitSizeThreshold)
	if !needOwnerSplit && !needEvict {
		return nil
	}
	f.migrateMu.Lock()
	defer f.migrateMu.Unlock()
	if needOwnerSplit {
		return f.migrate(owner, waits)
	}
	// Re-check under the migration lock: a concurrent migration may have
	// already relieved the INIT pressure.
	if f.initKeys.Load() <= int64(f.cfg.InitSizeThreshold) {
		return nil
	}
	return f.migrate(f.largestInitOwner(), waits)
}

// Scan iterates owner's latest keys in [from, to) in order. from/to are
// in the owner's (shortened) key space; nil means unbounded.
func (f *Forest) Scan(owner OwnerID, from, to []byte, limit int, fn func(key, value []byte) bool) error {
	return f.ScanAt(owner, from, to, limit, horizonAll, fn)
}

// largestInitOwner returns the INIT-resident owner with the most keys.
func (f *Forest) largestInitOwner() OwnerID {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var best OwnerID
	bestCount := int64(-1)
	for id, st := range f.owners {
		if c := st.count.Load(); st.tree.Load() == nil && c > bestCount {
			best, bestCount = id, c
		}
	}
	return best
}

// migrate moves an owner's keys from INIT into a fresh dedicated tree.
// Caller holds migrateMu. The owner's own writers are excluded via the
// per-owner latch; other owners proceed undisturbed. Readers switch over
// when the tree pointer is published, which happens only after the copy is
// complete and before the INIT originals are deleted, so every read sees a
// complete view on either side of the switch. Replicas and pinned readers
// get the same guarantee from the position of the owner-assignment record in
// the WAL. Every record of the migration joins waits: the write that caused
// it drains them with its own.
func (f *Forest) migrate(owner OwnerID, waits *wal.Waits) error {
	st := f.ownerStateFor(owner)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tree.Load() != nil {
		return nil
	}
	tree, err := bwtree.NewDeferred(f.m, f.store, f.cfg.Tree, f.logger, waits)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.trees[tree.ID()] = tree
	f.mu.Unlock()

	// Copy the owner's keys out of INIT: one put-run into the new tree, and,
	// once the assignment is published, one delete-run out of INIT. The copy
	// is the real I/O cost of a migration; it is intentionally visible in the
	// storage metrics. Each INIT key is copied once and serves both runs, the
	// dedicated tree's key being the composite one without its owner prefix.
	var puts, dels []bwtree.Write
	_, lo, hi := appendOwnerRange(nil, owner, nil, nil)
	err = f.init.Scan(lo, hi, 0, func(k, v []byte) bool {
		k = append([]byte(nil), k...)
		puts = append(puts, bwtree.Write{Key: k[8:], Value: append([]byte(nil), v...)})
		dels = append(dels, bwtree.Write{Key: k, Delete: true})
		return true
	})
	if err == nil {
		_, err = tree.Apply(puts, waits)
	}
	if err == nil && f.logger != nil {
		st.since, err = f.log(&wal.Record{
			Type: wal.RecordOwnerAssign, TreeID: uint64(tree.ID()),
			Key: binary.BigEndian.AppendUint64(nil, uint64(owner)),
		}, waits)
	}
	if err != nil {
		// The owner stays in INIT, complete: forget the half-built tree, or
		// the retry's tree would sit beside an orphan that Trees, FlushDirty
		// and BuildEdgeBlocks walk for the life of the forest.
		f.mu.Lock()
		delete(f.trees, tree.ID())
		f.mu.Unlock()
		return err
	}
	// Publish the assignment, then clean INIT.
	st.tree.Store(tree)
	f.mu.Lock()
	f.ownerOf[tree.ID()] = owner
	f.mu.Unlock()
	st.count.Store(int64(len(puts)))
	addToFloor(&f.initKeys, -int64(len(puts)))
	f.migrations.Add(1)
	_, err = f.init.Apply(dels, waits)
	return err
}

// log enqueues rec with its durability wait deferred into waits and returns
// its LSN; a record the logger refused fails here, before anything depends on
// it (bwtree.Tree.Apply).
func (f *Forest) log(rec *wal.Record, waits *wal.Waits) (wal.LSN, error) {
	lsn, wait := f.logger.LogAsync(rec)
	if lsn == 0 {
		return 0, wait()
	}
	waits.Add(wait)
	return lsn, nil
}

// Stats reports forest-level shape metrics (the Fig. 11 measurements).
type Stats struct {
	Trees       int   // total Bw-trees including INIT
	Owners      int   // owners seen
	InitKeys    int   // keys resident in the INIT tree
	Migrations  int   // owners moved to dedicated trees
	MemoryBytes int64 // resident memory estimate (mapping table + caches)
}

// Stats returns a snapshot.
func (f *Forest) Stats() Stats {
	f.mu.RLock()
	s := Stats{
		Trees:      len(f.trees),
		Owners:     len(f.owners),
		InitKeys:   int(f.initKeys.Load()),
		Migrations: int(f.migrations.Load()),
	}
	f.mu.RUnlock()
	s.MemoryBytes = f.m.MemoryUsage()
	return s
}

// SetLogger makes l the WAL logger of the forest and every tree.
func (f *Forest) SetLogger(l bwtree.WALLogger) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.trees {
		if err := t.SetLogger(l); err != nil {
			return err
		}
	}
	f.logger = l
	return nil
}

// OwnerCount returns the forest's key-count estimate for owner.
func (f *Forest) OwnerCount(owner OwnerID) int {
	if st := f.lookupOwner(owner); st != nil {
		return int(st.count.Load())
	}
	return 0
}

// RegisterMetrics exposes the forest's shape accounting (Fig. 11) under
// the "forest." prefix.
func (f *Forest) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("forest.trees", func() int64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return int64(len(f.trees))
	})
	r.GaugeFunc("forest.owners", func() int64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return int64(len(f.owners))
	})
	r.GaugeFunc("forest.init_keys", f.initKeys.Load)
	r.CounterFunc("forest.migrations", f.migrations.Load)
}

// Trees calls fn for every tree in the forest (INIT included) until fn
// returns false. Used by the flusher to sweep dirty pages.
func (f *Forest) Trees(fn func(*bwtree.Tree) bool) {
	f.mu.RLock()
	trees := make([]*bwtree.Tree, 0, len(f.trees))
	for _, t := range f.trees {
		trees = append(trees, t)
	}
	f.mu.RUnlock()
	for _, t := range trees {
		if !fn(t) {
			return
		}
	}
}

// FlushDirty flushes every tree's dirty pages (async mode), appending the
// mapping updates to dst. On a failure it returns those of every page
// written before it too: those pages are clean now, and no later flush names
// them again.
func (f *Forest) FlushDirty(dst []bwtree.MappingUpdate) ([]bwtree.MappingUpdate, error) {
	all := dst
	var firstErr error
	f.Trees(func(t *bwtree.Tree) bool {
		var err error
		all, err = t.FlushDirty(all)
		if err != nil {
			firstErr = fmt.Errorf("forest: flush tree %d: %w", t.ID(), err)
			return false
		}
		return true
	})
	return all, firstErr
}

// DirtyCount sums dirty pages across all trees.
func (f *Forest) DirtyCount() int {
	n := 0
	f.Trees(func(t *bwtree.Tree) bool {
		n += t.DirtyCount()
		return true
	})
	return n
}

// OwnerAssignment records one owner served by a dedicated tree.
type OwnerAssignment struct {
	Owner OwnerID
	Tree  bwtree.TreeID
}

// OwnerAssignments returns every owner currently served by a dedicated
// tree — part of the state a snapshot must capture.
func (f *Forest) OwnerAssignments() []OwnerAssignment {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]OwnerAssignment, 0)
	for id, st := range f.owners {
		if tree := st.tree.Load(); tree != nil {
			out = append(out, OwnerAssignment{Owner: id, Tree: tree.ID()})
		}
	}
	return out
}

// Dedicate moves an owner to a dedicated tree immediately, regardless of
// the split threshold — operators pin known-hot users this way, and the
// Fig. 11 experiment uses it to set an exact tree count.
func (f *Forest) Dedicate(owner OwnerID) error {
	var waits wal.Waits
	f.migrateMu.Lock()
	err := f.migrate(owner, &waits)
	f.migrateMu.Unlock()
	if werr := waits.Drain(); err == nil {
		err = werr
	}
	return err
}

// Rebuild puts an applier's forest together over its INIT tree and the
// dedicated trees of dedicated's owners. Owner counts start from zero — they
// are estimates that only feed future threshold decisions — as they do on
// every applier.
func Rebuild(m *bwtree.Mapping, store *storage.Store, init *bwtree.Tree, dedicated map[OwnerID]*bwtree.Tree) *Forest {
	f := &Forest{
		store:   store,
		m:       m,
		owners:  make(map[OwnerID]*ownerState),
		trees:   map[bwtree.TreeID]*bwtree.Tree{init.ID(): init},
		ownerOf: make(map[bwtree.TreeID]OwnerID),
		init:    init,
	}
	for owner, tree := range dedicated {
		st := &ownerState{}
		st.tree.Store(tree)
		f.owners[owner] = st
		f.trees[tree.ID()], f.ownerOf[tree.ID()] = tree, owner
	}
	return f
}

// AdoptTree registers the tree a RecordNewTree created, so a later owner
// assignment can bind it.
func (f *Forest) AdoptTree(t *bwtree.Tree) {
	f.mu.Lock()
	f.trees[t.ID()] = t
	f.mu.Unlock()
}

// TreeByID returns a forest tree by ID.
func (f *Forest) TreeByID(id bwtree.TreeID) *bwtree.Tree {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.trees[id]
}

// BindOwner points owner at an existing forest tree — an owner-assignment
// record applied. since is the record's LSN: reads at horizons below it can
// still arrive.
func (f *Forest) BindOwner(owner OwnerID, id bwtree.TreeID, since wal.LSN) error {
	tree := f.TreeByID(id)
	if tree == nil {
		return fmt.Errorf("forest: bind owner %d: unknown tree %d", owner, id)
	}
	st := f.ownerStateFor(owner)
	st.mu.Lock()
	st.since = since
	st.tree.Store(tree)
	st.mu.Unlock()
	f.mu.Lock()
	f.ownerOf[id] = owner
	f.mu.Unlock()
	return nil
}
