package forest

import (
	"encoding/binary"
	"fmt"

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
// beginning. One bootstrapped from a snapshot is Rebuild over the snapshot's
// trees (bwtree.Rebuild), then Publish of the snapshot's horizon.
func NewApplier(m *bwtree.Mapping, store *storage.Store) *Forest {
	return Rebuild(m, store, bwtree.NewApplierTree(m, store, firstID, firstID), nil)
}

// TakeOver hands the applier the leader's role under cfg, once the log has
// been applied to its durable end: the page table changes hands in place
// (bwtree.Mapping.TakeOver), the forest starts enforcing cfg's thresholds and
// writes through Apply from here on. Owner counts go on from zero, so a
// migration or an edge block waits for that many new writes, as after any
// bootstrap from a snapshot. Reads through the applied LSN see the leader's
// latest state from now on. The logger is attached afterwards (SetLogger).
func (f *Forest) TakeOver(cfg Config) error {
	f.cfg = cfg
	err := f.m.TakeOver(func(id bwtree.TreeID) bwtree.Config {
		if id == f.init.ID() {
			return cfg.initTree()
		}
		return cfg.Tree
	})
	if err == nil {
		f.applied.Store(uint64(horizonAll))
	}
	return err
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
