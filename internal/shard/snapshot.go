package shard

import (
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
)

// Vector is a pinned cross-shard epoch vector: component i is the
// released group-commit boundary shard i was pinned at. Together the
// components name one consistent cut — each shard's state is a gapless
// WAL prefix ending exactly at its component.
type Vector []mvcc.Epoch

// Snapshot is a consistent cross-shard cut: one pinned ReadView per
// shard, every read routed to the owner and evaluated at that shard's
// pinned horizon. It implements graph.Reader, so graph.KHop,
// pattern.Match and pattern.FindCycles run against it unchanged, and
// graph.FrontierReader (routed.NeighborsMany), so every KHop hop over it
// is one parallel scatter to the shards the frontier touches.
//
// A Snapshot holds every shard's retention floor down until closed;
// close it promptly. Safe for concurrent readers; Close is idempotent.
type Snapshot struct {
	routed // every read at its owner's pinned horizon
	views  []*core.ReadView
}

var _ graph.Reader = (*Snapshot)(nil)

func newSnapshot(router *Router, views []*core.ReadView) *Snapshot {
	return &Snapshot{
		routed: routed{router, func(i int) graph.Reader { return views[i] }},
		views:  views,
	}
}

// Epochs returns the pinned epoch vector (component i = shard i's
// group-commit boundary).
func (s *Snapshot) Epochs() Vector {
	v := make(Vector, len(s.views))
	for i, view := range s.views {
		v[i] = view.Epoch()
	}
	return v
}

// View returns shard i's pinned read view (the per-shard gather unit).
func (s *Snapshot) View(i int) *core.ReadView { return s.views[i] }

// Shards returns the number of shards in the cut.
func (s *Snapshot) Shards() int { return len(s.views) }

// Close releases every shard's pin. Idempotent; safe on nil.
func (s *Snapshot) Close() {
	if s == nil {
		return
	}
	for _, v := range s.views {
		v.Close()
	}
}
