package forest

import (
	"math"
	"slices"
	"sync"

	"bg3/internal/bwtree"
	"bg3/internal/wal"
)

// horizonAll marks an unpinned read: every committed op is visible.
const horizonAll = wal.LSN(math.MaxUint64)

// Snapshot reads.
//
// A pinned read at horizon h must see the forest as of group-commit
// boundary h even when an owner migrated (INIT → dedicated tree) around
// the pin. Migration order decides which tree that is: the owner's keys
// are copied into the dedicated tree, the owner-assignment record is
// logged at LSN A, the assignment is published, and only then are the INIT
// originals deleted — all while the owner's per-owner latch is held
// exclusively, so no user write to the owner lands between the copy scan
// and the last INIT delete. Every copy is stamped below A and every INIT
// delete above it, hence:
//
//   - at h < A the INIT tree holds the owner's complete state (no delete
//     is visible yet), and whatever copies the dedicated tree shows are
//     duplicates of it;
//   - at h >= A the dedicated tree holds the owner's complete state (every
//     copy is visible, every later write went there), and whatever INIT
//     still shows are originals awaiting their delete.
//
// So one tree answers at any horizon, ownerState.since (= A) picks it, and
// no read ever merges the two. treeAt is that decision, made once for
// GetAt, ScanAt and ScanManyAt.

// treeAt returns the dedicated tree holding owner's keys as of horizon h,
// or nil when the INIT tree holds them (under owner-prefixed keys).
func (f *Forest) treeAt(owner OwnerID, h wal.LSN) *bwtree.Tree {
	st := f.lookupOwner(owner)
	if st == nil {
		return nil
	}
	tree := st.tree.Load()
	if tree != nil && h < st.since {
		return nil // the pin predates the owner's assignment record
	}
	return tree
}

// keyBufSize is the stack buffer a point read or a range read on an INIT
// owner builds its composite keys in: an edge key (graph.EdgeKey, 10 bytes)
// and its owner prefix fit twice over. A longer key spills to the heap.
const keyBufSize = 40

// GetAt returns the value of key under owner as of horizon h, in a copy the
// caller owns.
func (f *Forest) GetAt(owner OwnerID, key []byte, h wal.LSN) ([]byte, bool, error) {
	if tree := f.treeAt(owner, h); tree != nil {
		return tree.GetAt(key, h)
	}
	var buf [keyBufSize]byte
	return f.init.GetAt(appendCompositeKey(buf[:0], owner, key), h)
}

// ScanAt iterates owner's keys in [from, to) as of horizon h, in order.
// from/to are in the owner's (shortened) key space; nil means unbounded.
func (f *Forest) ScanAt(owner OwnerID, from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	if tree := f.treeAt(owner, h); tree != nil {
		return tree.ScanAt(from, to, limit, h, fn)
	}
	var buf [2 * keyBufSize]byte
	_, lo, hi := appendOwnerRange(buf[:0], owner, from, to)
	return f.init.ScanAt(lo, hi, limit, h, func(k, v []byte) bool {
		return fn(k[8:], v) // strip the owner prefix
	})
}

// scanScratch is one ScanManyAt's range list and the arena its INIT owners'
// bounds are built in, kept across calls in scanPool. It goes back with no
// tree and no bound in it.
type scanScratch struct {
	scans []bwtree.RangeScan
	keys  []byte
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// ScanManyAt is ScanAt for a whole traversal frontier at one horizon, with
// the frontier — not the owner — as the unit of storage I/O: every owner
// is resolved to the one tree holding it at h, and the Bw-tree layer
// fetches all the cold leaves those scans start on in a single
// storage.ReadBatch per round (bwtree.Mapping.ScanManyAt; continuations
// past a first leaf ride the next round). limit applies per owner; fn
// returning false stops the whole multi-scan. Each owner's keys arrive in
// order and a duplicate owner is scanned once per mention, but owners
// interleave: cross-owner order is unspecified.
//
// owners may be of any ID type over uint64 (a graph's vertex IDs are owners
// as they are), so a caller hands its frontier over without converting it;
// the scans and their bounds live in a pooled scanScratch.
func ScanManyAt[ID ~uint64](f *Forest, owners []ID, from, to []byte, limit int, h wal.LSN, fn func(owner ID, key, value []byte) bool) error {
	sc := scanPool.Get().(*scanScratch)
	defer func() {
		clear(sc.scans)
		sc.scans, sc.keys = sc.scans[:0], sc.keys[:0]
		scanPool.Put(sc)
	}()
	// Room for every owner's bounds up front: the arena never moves while
	// the scans point into it.
	sc.keys = slices.Grow(sc.keys, len(owners)*(16+len(from)+len(to)))
	for _, owner := range owners {
		if tree := f.treeAt(OwnerID(owner), h); tree != nil {
			sc.scans = append(sc.scans, bwtree.RangeScan{Tree: tree, From: from, To: to})
			continue
		}
		var lo, hi []byte
		sc.keys, lo, hi = appendOwnerRange(sc.keys, OwnerID(owner), from, to)
		sc.scans = append(sc.scans, bwtree.RangeScan{Tree: f.init, From: lo, To: hi})
	}
	return f.m.ScanManyAt(sc.scans, limit, h, func(i int, k, v []byte) bool {
		if sc.scans[i].Tree == f.init {
			k = k[8:] // strip the owner prefix
		}
		return fn(owners[i], k, v)
	})
}
