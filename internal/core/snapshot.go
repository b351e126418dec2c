package core

import (
	"bg3/internal/bwtree"
	"bg3/internal/forest"
)

// TreeSnapshot captures one Bw-tree's durable shape for a snapshot: its
// leaf directory in key order with each leaf's durable locations, plus the
// forest owner it serves (if dedicated).
type TreeSnapshot struct {
	Tree     bwtree.TreeID
	Owner    forest.OwnerID
	HasOwner bool
	Leaves   []bwtree.LeafInfo
}

// SnapshotState is everything a fresh RO node needs to route and read
// without replaying the WAL prefix: the INIT tree, every tree's directory,
// and the owner assignments.
type SnapshotState struct {
	Init  bwtree.TreeID
	Trees []TreeSnapshot
}

// SnapshotState captures the engine's current durable shape. Callers must
// have quiesced writes and flushed dirty pages first (the replication
// layer's WriteSnapshot does both), or the snapshot will lag memory.
func (e *Engine) SnapshotState() SnapshotState {
	owners := map[bwtree.TreeID]forest.OwnerID{}
	for _, a := range e.edges.OwnerAssignments() {
		owners[a.Tree] = a.Owner
	}
	state := SnapshotState{Init: e.edges.InitTreeID()}
	e.edges.Trees(func(t *bwtree.Tree) bool {
		ts := TreeSnapshot{Tree: t.ID(), Leaves: t.LeafDirectory()}
		if owner, ok := owners[t.ID()]; ok {
			ts.Owner = owner
			ts.HasOwner = true
		}
		state.Trees = append(state.Trees, ts)
		return true
	})
	return state
}
