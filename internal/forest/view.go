package forest

import (
	"math"

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

// GetAt returns the value of key under owner as of horizon h.
func (f *Forest) GetAt(owner OwnerID, key []byte, h wal.LSN) ([]byte, bool, error) {
	if tree := f.treeAt(owner, h); tree != nil {
		return tree.GetAt(key, h)
	}
	return f.init.GetAt(compositeKey(owner, key), h)
}

// ScanAt iterates owner's keys in [from, to) as of horizon h, in order.
// from/to are in the owner's (shortened) key space; nil means unbounded.
func (f *Forest) ScanAt(owner OwnerID, from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	if tree := f.treeAt(owner, h); tree != nil {
		return tree.ScanAt(from, to, limit, h, fn)
	}
	lo, hi := ownerRange(owner, from, to)
	return f.init.ScanAt(lo, hi, limit, h, func(k, v []byte) bool {
		return fn(k[8:], v) // strip the owner prefix
	})
}

// ScanManyAt is ScanAt for a whole traversal frontier at one horizon, with
// the frontier — not the owner — as the unit of storage I/O: every owner
// is resolved to the one tree holding it at h, and the Bw-tree layer
// fetches all the cold leaves those scans start on in a single
// storage.ReadBatch per round (bwtree.Mapping.ScanManyAt; continuations
// past a first leaf ride the next round). limit applies per owner; fn
// returning false stops the whole multi-scan. Each owner's keys arrive in
// order and a duplicate owner is scanned once per mention, but owners
// interleave: cross-owner order is unspecified.
func (f *Forest) ScanManyAt(owners []OwnerID, from, to []byte, limit int, h wal.LSN, fn func(owner OwnerID, key, value []byte) bool) error {
	scans := make([]bwtree.RangeScan, len(owners))
	for i, owner := range owners {
		if tree := f.treeAt(owner, h); tree != nil {
			scans[i] = bwtree.RangeScan{Tree: tree, From: from, To: to}
			continue
		}
		lo, hi := ownerRange(owner, from, to)
		scans[i] = bwtree.RangeScan{Tree: f.init, From: lo, To: hi}
	}
	return f.m.ScanManyAt(scans, limit, h, func(i int, k, v []byte) bool {
		if scans[i].Tree == f.init {
			k = k[8:] // strip the owner prefix
		}
		return fn(owners[i], k, v)
	})
}
