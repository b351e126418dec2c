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
	// after; 0 without a WAL and for assignments recovered from one, which
	// no surviving pin can predate.
	since wal.LSN
}

// Forest is the RW-side Bw-tree forest. It is safe for concurrent use.
type Forest struct {
	store  *storage.Store
	m      *bwtree.Mapping
	logger bwtree.WALLogger
	cfg    Config

	// mu guards the owner and tree directories (map access only).
	mu     sync.RWMutex
	owners map[OwnerID]*ownerState
	trees  map[bwtree.TreeID]*bwtree.Tree

	// migrateMu serializes migrations (rare, heavyweight).
	migrateMu sync.Mutex

	init       *bwtree.Tree
	initKeys   atomic.Int64
	migrations atomic.Int64
}

// New creates a forest with a fresh INIT tree.
func New(m *bwtree.Mapping, store *storage.Store, cfg Config, logger bwtree.WALLogger) (*Forest, error) {
	f := &Forest{
		store:  store,
		m:      m,
		logger: logger,
		cfg:    cfg,
		owners: make(map[OwnerID]*ownerState),
		trees:  make(map[bwtree.TreeID]*bwtree.Tree),
	}
	// The shared INIT tree never gets a packed edge block: it holds many
	// owners' composite keys and churns through migrations, while blocks
	// target large single-owner dedicated trees.
	initCfg := cfg.Tree
	initCfg.EdgeBlockMinEntries = 0
	initCfg.EdgeBlockRebuildOps = 0
	init, err := bwtree.New(m, store, initCfg, logger)
	if err != nil {
		return nil, err
	}
	f.init = init
	f.trees[init.ID()] = init
	return f, nil
}

// BuildEdgeBlocks synchronously builds (or rebuilds) the packed edge
// block of every dedicated tree that has blocks enabled — the operator
// path benchmarks and bulk loads use to pack super-vertices without
// waiting for the background triggers. It returns how many blocks were
// installed.
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

// compositeKey prefixes key with the big-endian owner ID, preserving
// per-owner key order inside the INIT tree.
func compositeKey(owner OwnerID, key []byte) []byte {
	buf := make([]byte, 8+len(key))
	binary.BigEndian.PutUint64(buf, uint64(owner))
	copy(buf[8:], key)
	return buf
}

// ownerUpperBound is the exclusive upper bound of an owner's INIT keyspace.
func ownerUpperBound(owner OwnerID) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(owner)+1)
	if owner == ^OwnerID(0) {
		return nil // +inf
	}
	return buf
}

// ownerRange maps [from, to) in an owner's key space (nil: unbounded) to
// the composite-key range holding it in the INIT tree.
func ownerRange(owner OwnerID, from, to []byte) (lo, hi []byte) {
	lo = compositeKey(owner, from)
	if to != nil {
		return lo, compositeKey(owner, to)
	}
	return lo, ownerUpperBound(owner)
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

// decToFloor atomically decrements v unless it is already at (or somehow
// below) zero — the check and the decrement are one CAS, so concurrent
// decrementers cannot drive the value negative the way a load-then-add
// would.
func decToFloor(v *atomic.Int64) {
	for {
		cur := v.Load()
		if cur <= 0 {
			return
		}
		if v.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// subToFloor atomically subtracts n from v, clamping at zero.
func subToFloor(v *atomic.Int64, n int64) {
	for {
		cur := v.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Put upserts key=value under owner, migrating the owner to a dedicated
// tree when it crosses the split threshold. Only real inserts adjust the
// owner and INIT counts — an upsert of an existing key must not, or the
// counts drift above true owner size and trigger premature migrations.
func (f *Forest) Put(owner OwnerID, key, value []byte) error {
	return f.putWith(owner, key, value, nil)
}

// PutDeferred is Put with deferred WAL durability: the record's wait
// function is appended to waits instead of being drained inline, so a batch
// of writes shares commit groups (see bwtree.PutExDeferred). Migrations
// triggered by the write still commit synchronously — they are rare and
// structural, and replicas must never route to a tree whose copy is not
// durable.
func (f *Forest) PutDeferred(owner OwnerID, key, value []byte, waits *[]func() error) error {
	return f.putWith(owner, key, value, waits)
}

func (f *Forest) putWith(owner OwnerID, key, value []byte, waits *[]func() error) error {
	st := f.ownerStateFor(owner)
	st.mu.RLock()
	tree := st.tree.Load()
	inInit := tree == nil
	var existed bool
	var err error
	if tree != nil {
		existed, err = tree.PutExDeferred(key, value, waits)
	} else {
		existed, err = f.init.PutExDeferred(compositeKey(owner, key), value, waits)
	}
	// Count adjustments happen before the owner latch is released: a
	// migration (which rewrites both counts under the exclusive latch)
	// cannot interleave with them, and the captured tree pointer stays
	// authoritative for where the write landed.
	var count, initKeys int64
	if err == nil && !existed {
		count = st.count.Add(1)
		if inInit {
			initKeys = f.initKeys.Add(1)
		}
	}
	st.mu.RUnlock()
	if err != nil || existed {
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
		return f.migrate(owner)
	}
	// Re-check under the migration lock: a concurrent migration may have
	// already relieved the INIT pressure.
	if f.initKeys.Load() <= int64(f.cfg.InitSizeThreshold) {
		return nil
	}
	return f.migrate(f.largestInitOwner())
}

// Get returns the latest value of key under owner.
func (f *Forest) Get(owner OwnerID, key []byte) ([]byte, bool, error) {
	return f.GetAt(owner, key, horizonAll)
}

// Delete removes key under owner. Counts shrink only when the key was
// actually present, via CAS decrements that floor at zero — the old
// load-then-add pattern let concurrent deleters (or deletes of absent
// keys) drive counts negative.
func (f *Forest) Delete(owner OwnerID, key []byte) error {
	return f.deleteWith(owner, key, nil)
}

// DeleteDeferred is Delete with PutDeferred's deferred durability contract.
func (f *Forest) DeleteDeferred(owner OwnerID, key []byte, waits *[]func() error) error {
	return f.deleteWith(owner, key, waits)
}

func (f *Forest) deleteWith(owner OwnerID, key []byte, waits *[]func() error) error {
	st := f.ownerStateFor(owner)
	st.mu.RLock()
	tree := st.tree.Load()
	var existed bool
	var err error
	if tree != nil {
		existed, err = tree.DeleteExDeferred(key, waits)
	} else {
		existed, err = f.init.DeleteExDeferred(compositeKey(owner, key), waits)
	}
	if err == nil && existed {
		decToFloor(&st.count)
		if tree == nil {
			decToFloor(&f.initKeys)
		}
	}
	st.mu.RUnlock()
	return err
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
// complete view on either side of the switch. Replicas get the same
// guarantee from the position of the owner-assignment record in the WAL.
func (f *Forest) migrate(owner OwnerID) error {
	st := f.ownerStateFor(owner)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tree.Load() != nil {
		return nil
	}
	tree, err := bwtree.New(f.m, f.store, f.cfg.Tree, f.logger)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.trees[tree.ID()] = tree
	f.mu.Unlock()

	// Copy the owner's keys out of INIT. The copy is the real I/O cost of
	// a migration; it is intentionally visible in the storage metrics.
	type pair struct{ k, v []byte }
	var pairs []pair
	lo, hi := ownerRange(owner, nil, nil)
	err = f.init.Scan(lo, hi, 0, func(k, v []byte) bool {
		pairs = append(pairs, pair{
			k: append([]byte(nil), k[8:]...),
			v: append([]byte(nil), v...),
		})
		return true
	})
	if err != nil {
		return err
	}
	for _, p := range pairs {
		if err := tree.Put(p.k, p.v); err != nil {
			return err
		}
	}
	if f.logger != nil {
		ownerKey := make([]byte, 8)
		binary.BigEndian.PutUint64(ownerKey, uint64(owner))
		if st.since, err = f.logger.Log(&wal.Record{
			Type: wal.RecordOwnerAssign, TreeID: uint64(tree.ID()), Key: ownerKey,
		}); err != nil {
			return err
		}
	}
	// Publish the assignment, then clean INIT.
	st.tree.Store(tree)
	st.count.Store(int64(len(pairs)))
	subToFloor(&f.initKeys, int64(len(pairs)))
	for _, p := range pairs {
		if err := f.init.Delete(compositeKey(owner, p.k)); err != nil {
			return err
		}
	}
	f.migrations.Add(1)
	return nil
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

// FlushDirty flushes every tree's dirty pages (async mode), returning the
// combined mapping updates.
func (f *Forest) FlushDirty() ([]bwtree.MappingUpdate, error) {
	var all []bwtree.MappingUpdate
	var firstErr error
	f.Trees(func(t *bwtree.Tree) bool {
		ups, err := t.FlushDirty()
		if err != nil {
			firstErr = fmt.Errorf("forest: flush tree %d: %w", t.ID(), err)
			return false
		}
		all = append(all, ups...)
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
	f.migrateMu.Lock()
	defer f.migrateMu.Unlock()
	return f.migrate(owner)
}

// Rebuild reconstructs a forest from recovered trees: init is the INIT
// tree, dedicated maps each owner to its recovered tree. Owner counts are
// approximate after recovery (they re-accumulate from zero), which only
// affects future threshold decisions, not correctness.
func Rebuild(m *bwtree.Mapping, store *storage.Store, cfg Config, init *bwtree.Tree, dedicated map[OwnerID]*bwtree.Tree) *Forest {
	f := &Forest{
		store:  store,
		m:      m,
		cfg:    cfg,
		owners: make(map[OwnerID]*ownerState),
		trees:  make(map[bwtree.TreeID]*bwtree.Tree),
	}
	f.init = init
	f.trees[init.ID()] = init
	for owner, tree := range dedicated {
		st := &ownerState{}
		st.tree.Store(tree)
		f.owners[owner] = st
		f.trees[tree.ID()] = tree
	}
	return f
}

// AdoptTree registers a tree created during WAL-suffix replay (a
// RecordNewTree after the snapshot) so a later owner assignment can bind
// it.
func (f *Forest) AdoptTree(t *bwtree.Tree) {
	f.mu.Lock()
	f.trees[t.ID()] = t
	f.mu.Unlock()
}

// TreeByID returns a forest tree by ID (replay routing).
func (f *Forest) TreeByID(id bwtree.TreeID) *bwtree.Tree {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.trees[id]
}

// BindOwner points owner at an existing forest tree (replaying an
// owner-assignment record during recovery).
func (f *Forest) BindOwner(owner OwnerID, id bwtree.TreeID) error {
	f.mu.RLock()
	tree := f.trees[id]
	f.mu.RUnlock()
	if tree == nil {
		return fmt.Errorf("forest: bind owner %d: unknown tree %d", owner, id)
	}
	st := f.ownerStateFor(owner)
	st.mu.Lock()
	st.tree.Store(tree)
	st.mu.Unlock()
	return nil
}

// SetLogger attaches the WAL logger to the forest and every tree —
// recovery replays with no logger, then attaches the real one.
func (f *Forest) SetLogger(l bwtree.WALLogger) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logger = l
	for _, t := range f.trees {
		t.SetLogger(l)
	}
}
