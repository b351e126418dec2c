// Package bwtree implements BG3's Bw-tree-like graph storage engine (§3.2):
// a B-tree of logical pages indirected through a mapping table, with
// out-of-place base+delta persistence on append-only shared storage.
//
// Two delta policies are provided:
//
//   - Traditional: the classic Bw-tree (and SLED) behaviour. Every flush
//     appends one delta record of the updates since the last to the page's
//     chain; a page with n deltas costs 1+n random storage reads to
//     materialize on a cache miss.
//   - ReadOptimized: BG3's Algorithm 1. Updates are merged with the page's
//     existing delta so each page carries at most one delta; a cache miss
//     costs at most two storage reads, at the price of slightly more bytes
//     written (the delta is rewritten on every flush).
//
// Those read counts are what a node that holds nothing pays: an applier (RO
// node) or a tree with the cache disabled (Fig. 9's configuration). A caching
// leader keeps every leaf's delta ops resident across eviction, so its cache
// miss reads the base record alone under either policy.
//
// Concurrency follows the paper: classic lightweight latches (one per
// mapping-table entry) rather than lock-free CAS chains, plus a tree-level
// RW latch protecting the inner-node structure during splits.
package bwtree

import "bg3/internal/mvcc"

// DeltaPolicy selects how updates are persisted.
type DeltaPolicy int

const (
	// ReadOptimized keeps at most one (merged) delta per page — BG3's
	// policy (§3.2.2, Algorithm 1).
	ReadOptimized DeltaPolicy = iota
	// Traditional chains one delta per flush, consolidating after
	// ConsolidateNum deltas — the SLED-like baseline.
	Traditional
)

// String returns the policy name.
func (p DeltaPolicy) String() string {
	if p == Traditional {
		return "traditional"
	}
	return "read-optimized"
}

// Config parameterizes a Tree. The zero value gives a read-optimized tree
// with an unlimited cache. When a dirty page reaches storage is the logger's
// to say: a tree with one leaves it to a background flusher (§3.4 "I/O
// Efficiency"), a tree without one flushes it under the latch of the write or
// split that dirtied it (Algorithm 1's inline Flush calls).
type Config struct {
	// Policy is the delta policy (default ReadOptimized).
	Policy DeltaPolicy

	// ConsolidateNum is the delta count that triggers consolidation into a
	// fresh base page. The paper's micro-benchmarks use 10. Default 10.
	ConsolidateNum int

	// MaxPageEntries is the number of keys a leaf holds before splitting.
	// Default 128.
	MaxPageEntries int

	// MaxInnerEntries is the fan-out of inner nodes before they split.
	// Default 128.
	MaxInnerEntries int

	// CacheCapacity bounds the number of leaf pages with resident content.
	// 0 means unlimited.
	CacheCapacity int

	// CacheShards is ignored: the page cache is one LRU.
	//
	// Deprecated: ignored.
	CacheShards int

	// DisableSplit prevents page splits ("we restricted BG3 from splitting
	// the Bw-tree", §4.3.1). Pages grow without bound; use only in
	// controlled experiments.
	DisableSplit bool

	// Epochs, when set, is the MVCC read-epoch clock the tree serves
	// snapshot reads against: ops are stamped with their WAL LSN, ScanAt /
	// GetAt filter history by a pinned horizon, and consolidation folds
	// only ops at or below the clock's retention floor (the oldest pinned
	// epoch) into page bases. Nil disables retention entirely — every
	// reader sees the latest state and consolidation folds everything,
	// today's single-node behaviour.
	Epochs *mvcc.Source

	// EdgeBlockMinEntries, when positive, enables the packed edge-block
	// layout (block.go): the first range read of a tree holding that many
	// live keys copies each leaf's content into an immutable chunk, and scans
	// walk the chunks in order, taking the leaf step only where a leaf
	// changed since the build; a scan rebuilds the block once scans have
	// walked as many leaves for stale chunks as it has chunks. Writes and
	// flushes build nothing. 0 disables blocks (the forest keeps them off for
	// the shared INIT tree; dedicated super-vertex trees are the target).
	EdgeBlockMinEntries int
}

func (c Config) withDefaults() Config {
	if c.ConsolidateNum <= 0 {
		c.ConsolidateNum = 10
	}
	if c.MaxPageEntries <= 0 {
		c.MaxPageEntries = 128
	}
	if c.MaxInnerEntries <= 0 {
		c.MaxInnerEntries = 128
	}
	return c
}
