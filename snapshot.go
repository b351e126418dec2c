package bg3

import (
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/shard"
)

// Snapshot is a snapshot-isolated read handle: every read through it
// observes each shard exactly as of one group-commit boundary of its own
// WAL, no matter how many writes commit, pages consolidate, owners migrate
// or leaders fail over while it is open. Together the boundaries are a
// consistent cut: a traversal never sees half of a cross-shard batch.
//
//	s := db.Snapshot()
//	defer s.Close()
//	reached, err := s.KHop(user, bg3.ETypeFollow, 3, 100)
//
// On a bare engine there is no WAL and no epoch clock, so the snapshot
// degrades to latest-state reads.
//
// A Snapshot holds Bw-tree history and invalidated extents alive until
// closed; close it promptly. Safe for concurrent use by multiple readers;
// Close is idempotent.
type Snapshot struct {
	reads                 // every read and traversal evaluates at the pinned epochs
	view  *core.ReadView  // a bare engine's pin
	cut   *shard.Snapshot // a leader set's pins, one per shard
}

var _ graph.Reader = (*Snapshot)(nil)

// Snapshot pins each shard's current released read epoch and returns the
// consistent read handle. The caller must Close it.
func (db *DB) Snapshot() *Snapshot {
	if db.group == nil {
		view := db.engine.View()
		return &Snapshot{reads: reads{view}, view: view}
	}
	cut := db.group.Snapshot()
	return &Snapshot{reads: reads{cut}, cut: cut}
}

// SnapshotAt re-attaches a cut from an encoded epoch vector (see
// Snapshot.Vector). It fails closed: truncated or corrupt vectors, wrong
// shard counts, components ahead of a shard's released horizon, retired
// below its retention floor, or naming mid-group LSNs are all rejected with
// no pins leaked. The original snapshot must stay open until the re-attach
// returns, or its epochs may retire.
func (db *DB) SnapshotAt(vector []byte) (*Snapshot, error) {
	if db.group == nil {
		return nil, ErrNotReplicated
	}
	v, err := shard.DecodeVector(vector)
	if err != nil {
		return nil, err
	}
	cut, err := db.group.SnapshotAt(v)
	if err != nil {
		return nil, err
	}
	return &Snapshot{reads: reads{cut}, cut: cut}, nil
}

func (s *Snapshot) epochs() shard.Vector {
	if s.cut == nil {
		return shard.Vector{s.view.Epoch()}
	}
	return s.cut.Epochs()
}

// Epochs returns the pinned epoch vector: component i is shard i's
// group-commit boundary, the WAL LSN of the last record in the last group
// the snapshot observes (0 on a bare engine).
func (s *Snapshot) Epochs() []uint64 {
	v := s.epochs()
	out := make([]uint64, len(v))
	for i, e := range v {
		out[i] = uint64(e)
	}
	return out
}

// Vector returns the cut as a checksummed wire-format vector that
// SnapshotAt on a handle over the same shards can re-pin.
func (s *Snapshot) Vector() []byte { return s.epochs().Encode() }

// Close releases every shard's pin. Idempotent.
func (s *Snapshot) Close() {
	if s.cut == nil {
		s.view.Close()
		return
	}
	s.cut.Close()
}
