package forest

import (
	"bytes"
	"math"

	"bg3/internal/bwtree"
	"bg3/internal/wal"
)

// horizonAll marks an unpinned read: every committed op is visible. At
// this horizon a dedicated owner can have no INIT residue (migration
// deletes the originals before releasing the owner latch), so the
// fallback/merge paths below are skipped and reads cost exactly what
// they did before MVCC horizons existed.
const horizonAll = wal.LSN(math.MaxUint64)

// Snapshot reads.
//
// A pinned read at horizon h must see the forest as of group-commit
// boundary h even when an owner migrated (INIT → dedicated tree) around
// the pin. Migration order matters here: the owner's keys are copied into
// the dedicated tree, the assignment is published, and only then are the
// INIT originals deleted — all while the owner's per-owner latch is held
// exclusively, so no user write to the dedicated tree can be stamped
// before the INIT deletes. Two consequences:
//
//   - A key visible in both views at h (copied but not yet deleted at h)
//     carries the same value on both sides, so preferring the dedicated
//     copy is always correct.
//   - A key visible only in INIT at h (deleted above h, or never copied
//     because the pin predates the migration) must come from INIT.
//
// GetAt therefore falls back to INIT on a dedicated miss, and ScanAt
// merges the dedicated stream with the owner's INIT residue at h. The
// residue is bounded by the owner's pre-migration size (at most the split
// threshold plus in-flight writes), so materializing it is cheap.

// GetAt returns the value of key under owner as of horizon h.
func (f *Forest) GetAt(owner OwnerID, key []byte, h wal.LSN) ([]byte, bool, error) {
	if st := f.lookupOwner(owner); st != nil {
		if tree := st.tree.Load(); tree != nil {
			v, ok, err := tree.GetAt(key, h)
			if err != nil || ok || h == horizonAll {
				return v, ok, err
			}
			// Miss in the dedicated view: the pin may predate the
			// migration's INIT cleanup (or the migration itself).
		}
	}
	return f.init.GetAt(compositeKey(owner, key), h)
}

// ScanAt iterates owner's keys in [from, to) as of horizon h, in order.
// from/to are in the owner's (shortened) key space; nil means unbounded.
func (f *Forest) ScanAt(owner OwnerID, from, to []byte, limit int, h wal.LSN, fn func(key, value []byte) bool) error {
	var tree *bwtree.Tree
	if st := f.lookupOwner(owner); st != nil {
		tree = st.tree.Load()
	}
	if tree != nil && h == horizonAll {
		return tree.ScanAt(from, to, limit, h, fn)
	}
	lo, hi := ownerRange(owner, from, to)
	if tree == nil {
		return f.init.ScanAt(lo, hi, limit, h, func(k, v []byte) bool {
			return fn(k[8:], v) // strip the owner prefix
		})
	}

	// Dedicated tree: merge with whatever of the owner's keys is still
	// visible in INIT at h (a migration after h deleted them above the
	// horizon). Bounded by the owner's pre-migration size.
	// Each side needs at most the caller's limit: the merge delivers the
	// first `limit` keys of the union, which can only come from the first
	// `limit` of either side — bounded hops stop decoding past the limit.
	type pair struct{ k, v []byte }
	var residue []pair
	err := f.init.ScanAt(lo, hi, limit, h, func(k, v []byte) bool {
		residue = append(residue, pair{
			k: append([]byte(nil), k[8:]...),
			v: append([]byte(nil), v...),
		})
		return true
	})
	if err != nil {
		return err
	}
	if len(residue) == 0 {
		return tree.ScanAt(from, to, limit, h, fn)
	}

	// Sorted merge, dedicated side preferred on equal keys (the values are
	// identical by the migration ordering argument above; preferring one
	// side just deduplicates).
	delivered := 0
	stopped := false
	deliver := func(k, v []byte) bool {
		if stopped {
			return false
		}
		delivered++
		if !fn(k, v) || (limit > 0 && delivered >= limit) {
			stopped = true
			return false
		}
		return true
	}
	i := 0
	err = tree.ScanAt(from, to, limit, h, func(k, v []byte) bool {
		for i < len(residue) && bytes.Compare(residue[i].k, k) < 0 {
			if !deliver(residue[i].k, residue[i].v) {
				return false
			}
			i++
		}
		if i < len(residue) && bytes.Equal(residue[i].k, k) {
			i++ // duplicate: dedicated copy wins
		}
		return deliver(k, v)
	})
	if err != nil || stopped {
		return err
	}
	for ; i < len(residue); i++ {
		if !deliver(residue[i].k, residue[i].v) {
			break
		}
	}
	return nil
}

// ScanManyAt runs ScanAt for each owner in order at one horizon — the
// batched frontier read behind scatter-gather traversal. limit applies
// per owner (perVertexLimit pushdown into each owner's scan); fn
// returning false stops the whole multi-scan. Owner latching, dedicated
// tree lookup, and INIT-residue merging are exactly ScanAt's, per owner.
func (f *Forest) ScanManyAt(owners []OwnerID, from, to []byte, limit int, h wal.LSN, fn func(owner OwnerID, key, value []byte) bool) error {
	stopped := false
	for _, owner := range owners {
		o := owner
		err := f.ScanAt(o, from, to, limit, h, func(k, v []byte) bool {
			if !fn(o, k, v) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}
