package forest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The applier role: the RO node's forest (§3.4) is a Forest over an applier
// page table (bwtree.NewApplierMapping) that is written by the leader's WAL
// instead of Apply. Its reads are the leader's GetAt / ScanAt / ScanManyAt at
// AppliedLSN, so treeAt resolves a migration on a follower exactly as it does
// under a pin, and nothing in view.go knows which role it runs in.

// firstID is what a fresh Mapping's allocators hand out first: Forest.New's
// INIT tree and its root page, and so the first RecordNewTree of a log. An
// applier starts out holding that tree, empty, which is what the log says at
// LSN 0.
const firstID = 1

// NewApplier returns the forest of a follower that replays the log from its
// beginning. One that starts past a trimmed prefix is Bootstrap's.
func NewApplier(m *bwtree.Mapping, store *storage.Store) *Forest {
	return Rebuild(m, store, bwtree.NewApplierTree(m, store, firstID, firstID), nil)
}

// TakeOver hands the applier the leader's role under cfg, once the log has
// been applied to its durable end: the page table changes hands in place
// (bwtree.Mapping.TakeOver), the forest starts enforcing cfg's thresholds and
// writes through Apply from here on. The count of a dedicated tree's owner and
// INIT's key count go on from the tree sizes the hand-over seeded from the
// leaves' live counts; an owner still in INIT counts from zero, for INIT's
// leaves do not say whose keys they hold. Reads through the applied LSN see
// the leader's latest state from now on, and every tree logs through logger.
func (f *Forest) TakeOver(cfg Config, logger bwtree.WALLogger) error {
	f.cfg, f.logger = cfg, logger
	err := f.m.TakeOver(func(id bwtree.TreeID) bwtree.Config {
		if id == f.init.ID() {
			return cfg.initTree()
		}
		return cfg.Tree
	}, logger)
	if err != nil {
		return err
	}
	for _, st := range f.owners {
		if t := st.tree.Load(); t != nil {
			st.count.Store(t.Keys())
		}
	}
	f.initKeys.Store(f.init.Keys())
	f.applied.Store(uint64(horizonAll))
	return nil
}

// NameLeaves is bwtree.Mapping.NameLeaves over the forest's trees, each leaf
// named with its tree's role: INIT, the dedicated tree of an owner, or neither
// — a tree whose owner assignment is not published (mid-migration, or a failed
// migration's on a follower that saw it created). A tree the forest let go of
// (a failed migration's, on its leader) is not named.
func (f *Forest) NameLeaves(dst []bwtree.MappingUpdate, bucket, k int) []bwtree.MappingUpdate {
	named := f.m.NameLeaves(dst, bucket, k)
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := named[:len(dst)]
	for _, up := range named[len(dst):] {
		if f.trees[up.Tree] == nil {
			continue
		}
		owner, owned := f.ownerOf[up.Tree]
		up.Init, up.Owned, up.Owner = up.Tree == f.init.ID(), owned, uint64(owner)
		out = append(out, up)
	}
	return out
}

// ErrRotationIncomplete fails a Bootstrap whose log does not name every
// leaf yet.
var ErrRotationIncomplete = errors.New("forest: the log past its trimmed prefix names no whole rotation")

// Bootstrap is the applier of a log whose records at or below floor may be
// gone (wal.NewReaderAtHead): from groups, the log past floor, it registers
// the forest as it stood at floor and publishes floor, and the caller applies
// groups next, as any follower applies the log. Every checkpoint names one
// bucket of the leader's leaves whole (bwtree.Mapping.NameLeaves) and every
// one in groups was taken past floor, so once groups name every bucket they
// name every leaf that existed at floor: its ID, low key and durable records,
// and its tree's role, if it has one yet. A leaf or tree the log past floor creates is left out:
// its record creates it. What is registered is cold; nothing is read.
//
// The leaves are named at different points past floor, some after splits the
// log past floor carries and under later records than floor's. None is read
// before groups are applied, and applying them brings every leaf to the
// records of the last checkpoint that named or moved it, as on a follower that
// tailed the log all along. A checkpoint whose last record is missing names
// nothing (bwtree applyCheckpoint).
func Bootstrap(m *bwtree.Mapping, store *storage.Store, floor wal.LSN, groups [][]*wal.Record) (*Forest, error) {
	bornTree, bornPage := make(map[bwtree.TreeID]bool), make(map[bwtree.PageID]bool)
	named := make(map[bwtree.PageID]bwtree.MappingUpdate)
	buckets := make(map[uint64]bool)
	var rotation, epoch uint64
	var chunks []bwtree.MappingUpdate
	for _, grp := range groups {
		for _, rec := range grp {
			switch rec.Type {
			case wal.RecordNewTree:
				bornTree[bwtree.TreeID(rec.TreeID)] = true
			case wal.RecordSplit:
				bornPage[bwtree.PageID(rec.AuxPage)] = true
			case wal.RecordCheckpoint:
				ups, err := bwtree.DecodeMappingUpdates(rec.Value)
				if err != nil {
					return nil, err
				}
				if rec.Epoch != epoch {
					chunks, epoch = nil, rec.Epoch
				}
				if chunks = append(chunks, ups...); rec.TreeID != 0 {
					continue
				}
				for _, up := range chunks {
					if up.Named {
						named[up.Page] = up
					}
				}
				if chunks = nil; rec.AuxPage > 0 {
					rotation, buckets[rec.PageID] = rec.AuxPage, true
				}
			}
		}
	}
	if rotation == 0 || uint64(len(buckets)) < rotation {
		return nil, fmt.Errorf("%w: %d of %d buckets named past lsn %d", ErrRotationIncomplete, len(buckets), rotation, floor)
	}

	byTree := make(map[bwtree.TreeID][]bwtree.MappingUpdate)
	for _, up := range named {
		if !bornTree[up.Tree] && !bornPage[up.Page] {
			byTree[up.Tree] = append(byTree[up.Tree], up)
		}
	}
	var init *bwtree.Tree
	var unbound []*bwtree.Tree
	dedicated := make(map[OwnerID]*bwtree.Tree)
	for id, leaves := range byTree {
		slices.SortFunc(leaves, func(a, b bwtree.MappingUpdate) int { return bytes.Compare(a.Lo, b.Lo) })
		if leaves[0].Lo != nil {
			return nil, fmt.Errorf("forest: bootstrap: tree %d named without its leftmost leaf", id)
		}
		t, err := bwtree.Rebuild(m, store, id, leaves)
		if err != nil {
			return nil, err
		}
		// A tree's owner may be published between two of its leaves' namings;
		// the assignment record past floor binds it either way.
		switch i := slices.IndexFunc(leaves, func(up bwtree.MappingUpdate) bool { return up.Init || up.Owned }); {
		case i < 0:
			unbound = append(unbound, t)
		case leaves[i].Init:
			init = t
		default:
			dedicated[OwnerID(leaves[i].Owner)] = t
		}
	}
	if init == nil {
		return nil, fmt.Errorf("forest: bootstrap: no INIT tree named past lsn %d", floor)
	}
	f := Rebuild(m, store, init, dedicated)
	for _, t := range unbound {
		f.AdoptTree(t)
	}
	f.Publish(floor)
	return f, nil
}

// AppliedLSN returns the published read horizon of an applier: the last LSN
// of the last commit group that is completely in.
func (f *Forest) AppliedLSN() wal.LSN { return wal.LSN(f.applied.Load()) }

// Publish advances the applied LSN to l. Records are applied from one
// goroutine at a time (they arrive in LSN order), so there is one publisher.
func (f *Forest) Publish(l wal.LSN) {
	if uint64(l) > f.applied.Load() {
		f.applied.Store(uint64(l))
	}
}

// ApplyGroup incorporates one commit group, in LSN order. Its ops are stamped
// above AppliedLSN, which advances only once the whole group is in: a reader
// never observes half of a leader batch — the follower-side counterpart of
// the leader's all-or-nothing group append. The group's checkpoints are
// applied after that. A checkpoint's records hold ops up to its own LSN
// without their stamps (a flush runs beside writers), so they may become the
// page's state only when all of those are visible anyway.
func (f *Forest) ApplyGroup(recs []*wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	var ckpts []*wal.Record
	for _, rec := range recs {
		var err error
		switch rec.Type {
		case wal.RecordNewTree:
			if id := bwtree.TreeID(rec.TreeID); f.TreeByID(id) == nil {
				f.AdoptTree(bwtree.NewApplierTree(f.m, f.store, id, bwtree.PageID(rec.AuxPage)))
			}
		case wal.RecordOwnerAssign:
			if len(rec.Key) != 8 {
				return fmt.Errorf("forest: apply: malformed owner assignment key (%d bytes)", len(rec.Key))
			}
			err = f.BindOwner(OwnerID(binary.BigEndian.Uint64(rec.Key)), bwtree.TreeID(rec.TreeID), rec.LSN)
		case wal.RecordCheckpoint:
			ckpts = append(ckpts, rec)
		default:
			err = f.m.ApplyRecord(rec)
		}
		if err != nil {
			return err
		}
	}
	f.Publish(recs[len(recs)-1].LSN)
	for _, rec := range ckpts {
		if err := f.m.ApplyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}
