package core

import (
	"bg3/internal/graph"
	"bg3/internal/mvcc"
	"bg3/internal/wal"
)

// ReadView is a snapshot-isolated read handle over the engine: every read
// through it observes the graph exactly as of one group-commit boundary
// (the pinned epoch), no matter how many batches commit, pages split,
// owners migrate, or extents get reclaimed while it is open. It implements
// graph.Reader, so traversals (KHop, the pattern matcher) run against it
// unchanged.
//
// On an engine without an epoch clock (no replication / sync flush) the
// view degrades to unpinned latest-state reads — the exact pre-MVCC
// behavior.
//
// A ReadView holds the MVCC retention floor down while open: close it
// promptly, or consolidation backs up behind the pin: the history above it
// stays in delta records.
type ReadView struct {
	graphReads           // over the forest as of the pinned horizon
	pin        *mvcc.Pin // nil without an epoch clock
}

var _ graph.Reader = (*ReadView)(nil)

// newView builds the read handle for pin (nil: unpinned latest state).
func (e *Engine) newView(pin *mvcc.Pin) *ReadView {
	return &ReadView{
		graphReads: graphReads{forest: e.edges, horizon: wal.LSN(pin.ReadHorizon())},
		pin:        pin,
	}
}

// View pins the current read epoch and returns a snapshot read handle.
// The caller must Close it.
func (e *Engine) View() *ReadView {
	if e.opts.Epochs == nil {
		return e.newView(nil)
	}
	return e.newView(e.opts.Epochs.Pin())
}

// ReadEpoch returns the engine's current released read epoch (0 without
// an epoch clock). It is the component a cross-shard coordinator samples
// into a consistent-cut vector.
func (e *Engine) ReadEpoch() mvcc.Epoch {
	if e.opts.Epochs == nil {
		return 0
	}
	return e.opts.Epochs.Current()
}

// Epoch returns the pinned group-commit boundary (0 when the engine has no
// epoch clock and the view reads latest state).
func (v *ReadView) Epoch() mvcc.Epoch {
	if v.pin == nil {
		return 0
	}
	return v.pin.Epoch()
}

// Close releases the pin, letting the retention floor advance. Idempotent;
// safe on a nil view.
func (v *ReadView) Close() {
	if v == nil {
		return
	}
	v.pin.Close() // nil-safe, idempotent
}
