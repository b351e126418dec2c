package bg3

import (
	"bg3/internal/core"
	"bg3/internal/graph"
)

// Snapshot is a snapshot-isolated read handle: every read through it
// observes the graph exactly as of one group-commit boundary, no matter
// how many writes commit, pages consolidate, or owners migrate while it
// is open.
//
//	s := db.Snapshot()
//	defer s.Close()
//	reached, err := s.KHop(user, bg3.ETypeFollow, 3, 100)
//
// On a DB opened without Options.Replicated there is no WAL and no epoch
// clock, so the snapshot degrades to latest-state reads.
//
// A Snapshot holds Bw-tree history and invalidated extents alive until
// closed; close it promptly. Safe for concurrent use by multiple readers;
// Close is idempotent.
type Snapshot struct {
	reads // every read and traversal evaluates at the pinned epoch
	view  *core.ReadView
}

var _ graph.Reader = (*Snapshot)(nil)

// Snapshot pins the current read epoch and returns a consistent read
// handle. The caller must Close it.
func (db *DB) Snapshot() *Snapshot {
	view := db.eng().View()
	return &Snapshot{reads: reads{view}, view: view}
}

// Epoch returns the pinned group-commit boundary (the WAL LSN of the last
// record in the last group this snapshot observes; 0 in non-replicated
// mode).
func (s *Snapshot) Epoch() uint64 { return uint64(s.view.Epoch()) }

// Close releases the snapshot's epoch pin. Idempotent.
func (s *Snapshot) Close() { s.view.Close() }
