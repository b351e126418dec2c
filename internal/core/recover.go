package core

import (
	"fmt"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// RecoverWithStore reconstructs an engine from a snapshot's durable state
// on an existing store: every tree is rebuilt from its leaf directory
// (with its snapshot ID), the forest's owner assignments are restored, and
// background reclamation is wired as in NewWithStore. The caller replays
// the WAL suffix beyond the snapshot with ReplayRecord before attaching a
// logger and serving writes.
func RecoverWithStore(st *storage.Store, opts Options, state SnapshotState) (*Engine, error) {
	opts.Tree.Epochs = opts.Epochs
	m := bwtree.NewMappingShards(opts.Tree.CacheCapacity, opts.Tree.NoCache, opts.Tree.CacheShards)
	var maxPage bwtree.PageID
	var maxTree bwtree.TreeID
	for _, ts := range state.Trees {
		maxTree = max(maxTree, ts.Tree)
		for _, lf := range ts.Leaves {
			maxPage = max(maxPage, lf.Page)
		}
	}
	m.EnsureIDsBeyond(maxPage, maxTree)
	f, err := rebuildForest(m, st, opts.forestConfig(), state)
	if err != nil {
		return nil, err
	}
	return assemble(st, m, f, opts), nil
}

// rebuildForest is the Mapping-and-trees half of a bootstrap from a snapshot,
// a recovering leader's and a follower's (NewReplicaFromSnapshot) alike:
// every tree rebuilt over its leaf directory under its snapshot ID, and the
// forest over them with the owner assignments restored.
func rebuildForest(m *bwtree.Mapping, st *storage.Store, cfg forest.Config, state SnapshotState) (*forest.Forest, error) {
	var init *bwtree.Tree
	dedicated := make(map[forest.OwnerID]*bwtree.Tree)
	for _, ts := range state.Trees {
		t, err := bwtree.Rebuild(m, st, cfg.Tree, nil, ts.Tree, ts.Leaves)
		if err != nil {
			return nil, fmt.Errorf("core: recover tree %d: %w", ts.Tree, err)
		}
		switch {
		case ts.Tree == state.Init:
			init = t
		case ts.HasOwner:
			dedicated[ts.Owner] = t
		default:
			return nil, fmt.Errorf("core: recover: tree %d is neither INIT nor owned", ts.Tree)
		}
	}
	if init == nil {
		return nil, fmt.Errorf("core: recover: snapshot has no INIT tree")
	}
	return forest.Rebuild(m, st, cfg, init, dedicated), nil
}

// ReplayRecord applies one WAL-suffix record to a recovering engine. Data
// records apply logically (by key, through the owning tree, which re-splits
// as needed); tree creations and owner assignments restore the forest
// directory; physical records (splits, new pages, checkpoints) are skipped
// — the rebuilt trees form their own physical structure.
func (e *Engine) ReplayRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordNewTree:
		e.mapping.EnsureIDsBeyond(bwtree.PageID(rec.AuxPage), bwtree.TreeID(rec.TreeID))
		t, err := bwtree.NewEmptyWithID(e.mapping, e.store, e.opts.Tree, bwtree.TreeID(rec.TreeID))
		if err != nil {
			return err
		}
		e.edges.AdoptTree(t)
		return nil
	case wal.RecordOwnerAssign:
		if len(rec.Key) != 8 {
			return fmt.Errorf("core: replay: malformed owner assignment")
		}
		owner := forest.OwnerID(beUint64(rec.Key))
		return e.edges.BindOwner(owner, bwtree.TreeID(rec.TreeID), 0)
	case wal.RecordPut, wal.RecordDelete:
		t := e.edges.TreeByID(bwtree.TreeID(rec.TreeID))
		if t == nil {
			return fmt.Errorf("core: replay: record for unknown tree %d", rec.TreeID)
		}
		if rec.Type == wal.RecordDelete {
			return t.Delete(rec.Key)
		}
		return t.Put(rec.Key, rec.Value)
	default:
		return nil // structural/checkpoint records: physical, skipped
	}
}

func beUint64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// ReplayWAL drains the reader and applies every record with LSN beyond
// horizon to the recovering engine, returning the highest LSN applied (the
// point a resumed WAL writer continues from). Torn entry tails and retry
// duplicates are absorbed by the reader; an LSN gap aborts the recovery —
// a hole beyond the snapshot horizon means acknowledged writes are gone,
// and restarting into silent data loss is worse than failing loudly.
func (e *Engine) ReplayWAL(r *wal.Reader, horizon wal.LSN) (wal.LSN, error) {
	r.SetBase(horizon)
	max := horizon
	for {
		recs, err := r.Poll()
		for _, rec := range recs {
			if rec.LSN > max {
				max = rec.LSN
			}
			if aerr := e.ReplayRecord(rec); aerr != nil {
				return max, fmt.Errorf("core: recover: replay LSN %d: %w", rec.LSN, aerr)
			}
		}
		if err != nil {
			return max, fmt.Errorf("core: recover: WAL suffix beyond lsn %d: %w", horizon, err)
		}
		if len(recs) == 0 {
			return max, nil
		}
	}
}

// AttachLogger wires the WAL logger into the recovered forest once replay
// is complete.
func (e *Engine) AttachLogger(l bwtree.WALLogger) {
	e.opts.Logger = l
	e.edges.SetLogger(l)
}
