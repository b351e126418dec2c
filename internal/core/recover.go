package core

import (
	"fmt"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/gc"
	"bg3/internal/metrics"
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
		if ts.Tree > maxTree {
			maxTree = ts.Tree
		}
		for _, lf := range ts.Leaves {
			if lf.Page > maxPage {
				maxPage = lf.Page
			}
		}
	}
	m.EnsureIDsBeyond(maxPage, maxTree)

	var init *bwtree.Tree
	dedicated := make(map[forest.OwnerID]*bwtree.Tree)
	for _, ts := range state.Trees {
		t, err := bwtree.Rebuild(m, st, opts.Tree, nil, ts.Tree, ts.Leaves)
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
	f := forest.Rebuild(m, st, forest.Config{
		Tree:              opts.Tree,
		SplitThreshold:    opts.SplitThreshold,
		InitSizeThreshold: opts.InitSizeThreshold,
	}, init, dedicated)

	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &Engine{graphReads: graphReads{forest: f, horizon: latest}, store: st, mapping: m, edges: f, opts: opts, reg: reg}
	policy := opts.GCPolicy
	if policy == nil {
		policy = gc.WorkloadAware{TTL: opts.TTL}
	}
	for _, stream := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
		r := gc.NewReclaimer(st, stream, policy, m.Relocate)
		r.TTL = opts.TTL
		if opts.Epochs != nil {
			r.Pins = opts.Epochs
		}
		if opts.Now != nil {
			r.Now = opts.Now
		}
		e.reclaimers = append(e.reclaimers, r)
		if opts.GCInterval > 0 {
			batch := opts.GCBatch
			if batch <= 0 {
				batch = 1
			}
			r.Start(opts.GCInterval, batch)
		}
	}
	e.registerMetrics(reg)
	return e, nil
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
		return e.edges.BindOwner(owner, bwtree.TreeID(rec.TreeID))
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
