// Package bg3 is a from-scratch reproduction of BG3 (ByteGraph 3.0), the
// cost-effective and I/O-efficient graph database described in "BG3: A
// Cost Effective and I/O Efficient Graph Database in ByteDance"
// (SIGMOD-Companion 2024).
//
// A DB stores a property graph — typed vertices and directed, typed edges,
// both carrying binary property lists — on an append-only shared storage
// substrate through a forest of read-optimized Bw-trees:
//
//	db, err := bg3.Open(&bg3.Options{ForestSplitThreshold: 1000})
//	...
//	db.AddEdge(bg3.Edge{Src: user, Dst: video, Type: bg3.ETypeLike})
//	db.Neighbors(user, bg3.ETypeLike, 0, func(dst bg3.VertexID, _ bg3.Properties) bool {
//	    ...
//	    return true
//	})
//
// Opening the database with Options.Replicated enables the paper's
// I/O-efficient leader-follower synchronization: every write is
// group-committed to a write-ahead log on the shared store, and read-only
// replicas attached with DB.OpenReplica tail that log, providing strongly
// consistent reads that scale out (§3.4). Options.Shards splits the vertex
// space across that many such leaders (§3.1), behind the same DB.
package bg3

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/pattern"
	"bg3/internal/replication"
	"bg3/internal/shard"
)

// Re-exported graph model types; see the graph package for details.
type (
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// VertexType partitions vertices (user, video, ...).
	VertexType = graph.VertexType
	// EdgeType partitions a vertex's adjacency lists. Type 0xFFFF is
	// reserved.
	EdgeType = graph.EdgeType
	// Vertex is a typed vertex with properties.
	Vertex = graph.Vertex
	// Edge is a typed directed edge with properties.
	Edge = graph.Edge
	// Property is one named property value.
	Property = graph.Property
	// Properties is an ordered property list: at most 65,535 properties,
	// each name at most 255 bytes and each value under 4 GiB. A write
	// carrying a longer list fails and logs nothing.
	Properties = graph.Properties
	// Store is the engine-neutral graph API.
	Store = graph.Store
	// Mutation is one element of a batched write (DB.ApplyBatch).
	Mutation = graph.Mutation
	// MutationKind discriminates batched mutations.
	MutationKind = graph.MutationKind
)

// Mutation constructors, re-exported for DB.ApplyBatch callers.
var (
	// AddVertexMut builds a vertex-upsert mutation.
	AddVertexMut = graph.AddVertexMut
	// AddEdgeMut builds an edge-upsert mutation.
	AddEdgeMut = graph.AddEdgeMut
	// DeleteEdgeMut builds an edge-deletion mutation.
	DeleteEdgeMut = graph.DeleteEdgeMut
)

// Convenience type constants mirroring the example workloads.
const (
	VTypeUser  = graph.VTypeUser
	VTypeVideo = graph.VTypeVideo

	ETypeFollow   = graph.ETypeFollow
	ETypeLike     = graph.ETypeLike
	ETypeTransfer = graph.ETypeTransfer
)

// ErrNotReplicated is returned by the calls that need a write-ahead log
// (OpenReplica, Failover, WriteSnapshot, ApplyBatchEx) on a DB that runs a
// bare engine.
var ErrNotReplicated = errors.New("bg3: database opened without replication")

// DB is a BG3 database handle. Open builds one of two shapes behind it, and
// every method serves both:
//
//   - a bare engine (Options.Replicated unset, Options.Shards <= 1): no WAL,
//     every write persisted at once, reads at the latest state;
//   - a leader set of Options.Shards shards (one if unset): the vertex space
//     split by hash (§3.1), each shard a single-leader unit with its own
//     shared-storage volume, WAL stream, group committer, MVCC epoch clock
//     and failover, followed by the read-only replicas OpenReplica attaches
//     (§3.4). Writes route to the owning shard, a batch over several shards
//     commits by two-phase commit, and traversals pin a consistent cut.
//
// Per-shard calls (Failover, Epoch) take a shard index; a bare engine is
// shard 0. Maintenance calls (RunGC, BuildEdgeBlocks, Checkpoint,
// WriteSnapshot, TrimWAL) act on every shard.
//
// GetVertex, GetEdge, Neighbors and Degree (the embedded reads) see the
// latest state on the owning shard's current leader; edges live with their
// source. All methods are safe for concurrent use.
type DB struct {
	reads
	// writes is the engine or the shard group, so a leader's apply barrier
	// and WAL are engaged and a failover re-routes writes in place.
	writes graph.BatchStore
	reg    *metrics.Registry // what Metrics returns

	engine *core.Engine // a bare engine; nil on a leader set
	group  *shard.Group // a leader set; nil on a bare engine
	cfg    layers       // OpenReplica reads the follower settings, Metrics the fault plan

	mu       sync.Mutex // guards replicas
	replicas []*Replica
}

var (
	_ graph.Store      = (*DB)(nil)
	_ graph.BatchStore = (*DB)(nil)
)

// Open creates a new in-process BG3 database. A nil opts uses defaults.
func Open(opts *Options) (*DB, error) {
	o := *cmp.Or(opts, &Options{})
	return open(o, o.layers())
}

// open builds the shape o names from cfg, o translated for the layers below.
// Tests set what Options does not expose in between (see layers).
func open(o Options, cfg layers) (*DB, error) {
	db := &DB{cfg: cfg}
	if !o.Replicated && o.Shards <= 1 {
		co := cfg.rw.Engine
		co.Storage = &cfg.storage
		engine, err := core.New(co)
		if err != nil {
			return nil, err
		}
		db.reads, db.writes, db.reg, db.engine = reads{engine}, engine, engine.Metrics(), engine
	} else {
		// One shard keeps one registry for the DB's life, the group's
		// instruments beside its leader's: a promoted leader registers its
		// engine and WAL instruments over its predecessor's. More keep one
		// per leader, and Metrics is the group's.
		if o.Shards <= 1 {
			cfg.rw.Engine.Metrics = metrics.NewRegistry()
		}
		g, err := shard.Open(max(o.Shards, 1), &cfg.storage, cfg.rw)
		if err != nil {
			return nil, fmt.Errorf("bg3: open: %w", err)
		}
		db.reads, db.writes, db.reg, db.group = reads{g}, g, g.Metrics(), g
	}
	db.registerMetrics()
	return db, nil
}

// ShardedDB is DB.
//
// Deprecated: Open serves every shape; use DB.
type ShardedDB = DB

// OpenSharded is Open with Options.Replicated set.
//
// Deprecated: use Open.
func OpenSharded(opts *Options) (*DB, error) {
	o := *cmp.Or(opts, &Options{})
	o.Replicated = true
	return Open(&o)
}

// Close stops every attached replica, then every shard's committer, flusher
// and engine.
func (db *DB) Close() {
	if db.group == nil {
		db.engine.Close()
		return
	}
	for _, r := range db.attached() {
		r.Stop()
	}
	db.group.Close()
}

// leader returns shard i's current RW node, nil on a bare engine.
func (db *DB) leader(i int) *replication.RWNode {
	if db.group == nil {
		return nil
	}
	return db.group.Leader(i)
}

// eng returns shard i's current engine.
func (db *DB) eng(i int) *core.Engine {
	if rw := db.leader(i); rw != nil {
		return rw.Engine()
	}
	return db.engine
}

// Shards returns the shard count: 1 on a bare engine.
func (db *DB) Shards() int {
	if db.group == nil {
		return 1
	}
	return db.group.Shards()
}

// Group exposes the shard group for tests and tooling; nil on a bare engine.
func (db *DB) Group() *shard.Group { return db.group }

// AddVertex upserts a vertex on its owning shard.
func (db *DB) AddVertex(v Vertex) error { return db.writes.AddVertex(v) }

// AddEdge upserts a directed edge on its source's owning shard.
func (db *DB) AddEdge(e Edge) error { return db.writes.AddEdge(e) }

// DeleteEdge removes one edge; an absent one is not an error. The reserved
// edge type 0xFFFF is rejected, on every shape, and nothing is logged for it.
func (db *DB) DeleteEdge(src VertexID, typ EdgeType, dst VertexID) error {
	return db.writes.DeleteEdge(src, typ, dst)
}

// ApplyBatch applies a group of mutations under the graph.BatchStore
// contract — mutations of one key in call order, everything else in
// (owner, key) order, so every page the batch touches is latched and written
// once; a failed batch may have applied any subset — and commits them as
// shared WAL groups: every record is enqueued on the group committer before
// the first durability wait starts, so the whole batch pays for a handful of
// storage round trips instead of one per mutation. Replicas replay each
// commit group as a unit. No mutation is acknowledged before the batch's WAL
// records are durable. It is the bulk-load path on a bare engine too: there
// is no WAL to share, but each leaf still reaches storage once per batch
// instead of once per mutation.
//
// A batch over several shards commits atomically: a lightweight two-phase
// commit over the per-shard group committers (prepare intents on every
// participant, the decision on the coordinator's stream, then apply), so no
// pinned cut observes half of it and recovery resolves in-doubt prepares
// from the coordinator's durable prefix. An error wrapping
// shard.ErrTxnAborted means it aborted cleanly (nothing applied anywhere)
// and can simply be retried.
func (db *DB) ApplyBatch(muts []Mutation) error { return db.writes.ApplyBatch(muts) }

// ShardOutcome reports one shard's fate in a batch: committed, aborted,
// fenced by a concurrent failover, skipped (not touched), or unknown.
type ShardOutcome = shard.ShardOutcome

// ApplyBatchEx is ApplyBatch with per-shard outcomes: one entry per shard,
// index-aligned with the shard order, covering the fate of every participant
// even when the batch fails partway (no silent partial fan-out). The error is
// nil only when every touched shard committed.
func (db *DB) ApplyBatchEx(muts []Mutation) ([]ShardOutcome, error) {
	if db.group == nil {
		return nil, ErrNotReplicated
	}
	return db.group.ApplyBatchEx(muts)
}

// KHop expands hops levels of out-neighbors from start, returning the set
// of vertices reached (excluding start). perVertexLimit bounds per-vertex
// fan-out (<= 0: unlimited). The map is freshly allocated, at its final
// size, and belongs to the caller.
//
// The whole traversal runs against one Snapshot: every hop sees each shard
// as of the same group-commit boundary, so concurrent batches cannot tear a
// multi-hop read, and each hop reads the shards its frontier touches in
// parallel.
func (db *DB) KHop(start VertexID, typ EdgeType, hops, perVertexLimit int) (map[VertexID]struct{}, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.KHop(start, typ, hops, perVertexLimit)
}

// Pattern is a small query graph for MatchPattern; see pattern.Pattern.
type Pattern = pattern.Pattern

// PatternEdge is one pattern edge between pattern-vertex indices.
type PatternEdge = pattern.PEdge

// MatchPattern finds up to maxMatches embeddings of p anchored at the
// seed vertices. Like KHop, the whole match runs at one Snapshot.
func (db *DB) MatchPattern(p Pattern, seeds []VertexID, maxMatches int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.MatchPattern(p, seeds, maxMatches)
}

// FindCycles returns simple cycles through start of length 2..maxLen —
// the risk-control loop detection. Runs at one Snapshot.
func (db *DB) FindCycles(start VertexID, typ EdgeType, maxLen, maxCycles int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.FindCycles(start, typ, maxLen, maxCycles)
}

// RunGC triggers one synchronous space-reclamation cycle on every shard
// (batch extents per data stream) and returns the bytes moved.
func (db *DB) RunGC(batch int) (int64, error) {
	var moved int64
	for i := range db.Shards() {
		n, err := db.eng(i).RunGC(batch)
		if moved += n; err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// BuildEdgeBlocks eagerly packs every dedicated tree that is past the
// edge-block threshold (Options.EdgeBlockThreshold) into its CSR-style
// packed block, returning the number of blocks built. Blocks are normally
// built opportunistically at flush/consolidation time; this forces the
// work now — useful after a bulk load, before a read-heavy phase.
func (db *DB) BuildEdgeBlocks() (int, error) {
	built := 0
	for i := range db.Shards() {
		n, err := db.eng(i).Forest().BuildEdgeBlocks()
		if built += n; err != nil {
			return built, err
		}
	}
	return built, nil
}

// Checkpoint flushes dirty pages and publishes a WAL checkpoint on every
// shard. On a bare engine, which persists every write at once, it is a
// no-op.
func (db *DB) Checkpoint() error {
	if db.group == nil {
		return nil
	}
	return db.group.Checkpoint()
}

// Metrics exposes the database's metrics registry, for scraping or for
// registering application gauges. On one shard every subsystem (storage,
// WAL, cache, forest, GC, replication) registers its instruments here, for
// the DB's whole life. On more it is the group's registry (routing,
// scatter-gather, snapshots, transactions, failovers, replicas) and each
// leader keeps its own, Group().Leader(i).Engine().Metrics().
func (db *DB) Metrics() *metrics.Registry { return db.reg }
