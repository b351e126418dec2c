package bg3

import (
	"fmt"

	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/shard"
)

// ShardedDB is a horizontally partitioned BG3 deployment (§3.1): the
// vertex space is split by hash across Options.Shards shard groups, each
// a full single-leader engine with its own shared-storage volume, WAL
// stream, group committer, MVCC epoch clock, and failover machinery.
// Writes route to the owning shard (batches fan out as per-shard commit
// groups); consistent cross-shard reads pin a per-shard epoch vector (a
// consistent cut) and traversals run over it. Attach ReadView instances
// to scale strongly consistent reads across follower nodes.
//
// GetVertex, GetEdge, Neighbors and Degree (the embedded reads) see the
// latest state on the owning shard's current leader; edges live with
// their source.
//
// All methods are safe for concurrent use.
type ShardedDB struct {
	reads
	*leaderSet
}

var (
	_ graph.Store      = (*ShardedDB)(nil)
	_ graph.BatchStore = (*ShardedDB)(nil)
)

// OpenSharded creates an in-process sharded BG3 database with
// opts.Shards shard groups (nil opts or Shards <= 1: one shard). Sharded
// mode always runs the replicated write path — each shard needs a WAL
// stream to own an epoch clock.
func OpenSharded(opts *Options) (*ShardedDB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	ls, err := openLeaderSet(o.Shards, o.layers())
	if err != nil {
		return nil, fmt.Errorf("bg3: open sharded: %w", err)
	}
	return &ShardedDB{reads: reads{ls.group}, leaderSet: ls}, nil
}

// Close stops every attached read view and every shard's committer,
// flusher, and engine.
func (db *ShardedDB) Close() { db.close() }

// Shards returns the shard count.
func (db *ShardedDB) Shards() int { return db.group.Shards() }

// Group exposes the shard group for tests and tooling.
func (db *ShardedDB) Group() *shard.Group { return db.group }

// Metrics returns the group-level metrics registry (routing fan-out,
// scatter-gather counters, snapshot accounting, failovers).
func (db *ShardedDB) Metrics() *metrics.Registry { return db.group.Metrics() }

// AddVertex writes the vertex on its owning shard.
func (db *ShardedDB) AddVertex(v Vertex) error { return db.group.AddVertex(v) }

// AddEdge writes the edge on its source's owning shard.
func (db *ShardedDB) AddEdge(e Edge) error { return db.group.AddEdge(e) }

// DeleteEdge removes the edge on its source's owning shard.
func (db *ShardedDB) DeleteEdge(src VertexID, typ EdgeType, dst VertexID) error {
	return db.group.DeleteEdge(src, typ, dst)
}

// ApplyBatch commits the batch atomically — across shards. A batch
// touching one shard commits as that shard's ordinary group-commit; a
// multi-shard batch runs a lightweight two-phase commit over the
// per-shard group committers (prepare intents on every participant,
// commit decision on the coordinator's stream, then apply), so readers
// never observe half a batch at any pinned cut and recovery resolves
// in-doubt prepares from the coordinator's durable prefix. An error
// wrapping shard.ErrTxnAborted means the transaction aborted cleanly
// (nothing applied anywhere) and the batch can simply be retried. Within a
// shard the sub-batch applies under the graph.BatchStore contract: mutations
// of one key in call order, everything else in (owner, key) order.
func (db *ShardedDB) ApplyBatch(muts []Mutation) error { return db.group.ApplyBatch(muts) }

// ShardOutcome reports one shard's fate in a batch: committed, aborted,
// fenced by a concurrent failover, skipped (not touched), or unknown.
type ShardOutcome = shard.ShardOutcome

// ApplyBatchEx is ApplyBatch with per-shard outcomes: one entry per
// shard, index-aligned with the shard order, covering the fate of every
// participant even when the batch fails partway (no silent partial
// fan-out). The error is nil only when every touched shard committed.
func (db *ShardedDB) ApplyBatchEx(muts []Mutation) ([]ShardOutcome, error) {
	return db.group.ApplyBatchEx(muts)
}

// ShardSnapshot is a consistent cross-shard cut: one pinned read epoch
// per shard. Every read through it observes each shard exactly at that
// shard's pinned group-commit boundary — a scatter-gather traversal
// never sees a torn cross-shard state, no matter how many writes commit
// or which leaders fail over while it is open.
//
// It holds every shard's MVCC retention floor down until closed; close
// it promptly. Safe for concurrent readers; Close is idempotent.
type ShardSnapshot struct {
	reads // every read routes to its owner's pinned horizon
	snap  *shard.Snapshot
}

var _ graph.Reader = (*ShardSnapshot)(nil)

func newShardSnapshot(snap *shard.Snapshot) *ShardSnapshot {
	return &ShardSnapshot{reads: reads{snap}, snap: snap}
}

// Snapshot pins each shard's current released read epoch and returns the
// cut. The caller must Close it.
func (db *ShardedDB) Snapshot() *ShardSnapshot { return newShardSnapshot(db.group.Snapshot()) }

// SnapshotAt re-attaches a cut from an encoded epoch vector (see
// ShardSnapshot.Vector). It fails closed: truncated or corrupt vectors,
// wrong shard counts, components ahead of a shard's released horizon,
// retired below its retention floor, or naming mid-group LSNs are all
// rejected with no pins leaked. The original snapshot must stay open
// until the re-attach returns, or its epochs may retire.
func (db *ShardedDB) SnapshotAt(vector []byte) (*ShardSnapshot, error) {
	v, err := shard.DecodeVector(vector)
	if err != nil {
		return nil, err
	}
	snap, err := db.group.SnapshotAt(v)
	if err != nil {
		return nil, err
	}
	return newShardSnapshot(snap), nil
}

// Epochs returns the pinned epoch vector: component i is shard i's
// group-commit boundary.
func (s *ShardSnapshot) Epochs() []uint64 {
	v := s.snap.Epochs()
	out := make([]uint64, len(v))
	for i, e := range v {
		out[i] = uint64(e)
	}
	return out
}

// Vector returns the cut as a checksummed wire-format vector that
// SnapshotAt on another handle over the same shards can re-pin.
func (s *ShardSnapshot) Vector() []byte { return s.snap.Epochs().Encode() }

// Close releases every shard's pin. Idempotent.
func (s *ShardSnapshot) Close() { s.snap.Close() }

// KHop is the one-shot traversal: it pins a cut, expands over it — each
// hop splits the frontier by owner and reads the touched shards in
// parallel — and releases the cut: one traversal, one consistent
// cross-shard boundary vector.
func (db *ShardedDB) KHop(start VertexID, typ EdgeType, hops, perVertexLimit int) (map[VertexID]struct{}, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.KHop(start, typ, hops, perVertexLimit)
}

// MatchPattern pins a cut and matches over it.
func (db *ShardedDB) MatchPattern(p Pattern, seeds []VertexID, maxMatches int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.MatchPattern(p, seeds, maxMatches)
}

// FindCycles pins a cut and enumerates cycles over it.
func (db *ShardedDB) FindCycles(start VertexID, typ EdgeType, maxLen, maxCycles int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.FindCycles(start, typ, maxLen, maxCycles)
}

// Failover fences shard i's leader and promotes a follower of the shard's
// log in its place; see DB.Failover for the sequence and guarantees. Other
// shards keep serving; snapshots pinned on the deposed leader stay exact
// (their horizons exclude anything the fence cut off), and attached read
// views go on tailing shard i's log.
func (db *ShardedDB) Failover(i int) error { return db.failover(i) }

// Checkpoint flushes dirty pages and publishes a WAL checkpoint on every
// shard.
func (db *ShardedDB) Checkpoint() error { return db.group.Checkpoint() }

// ReadView is a strongly consistent, read-only view of a ShardedDB: one
// follower node per shard tailing that shard's WAL, reads routed by the
// group's vertex hash. Multiple views scale read throughput.
type ReadView struct {
	reads
	f *followers
}

// OpenReadView attaches one follower node per shard.
func (db *ShardedDB) OpenReadView() (*ReadView, error) {
	f, err := db.attach()
	if err != nil {
		return nil, err
	}
	return &ReadView{reads: reads{f.reader}, f: f}, nil
}

// Stop detaches the view's followers.
func (v *ReadView) Stop() { v.f.stop() }

// Sync drains every shard's WAL so subsequent reads observe everything
// acknowledged so far.
func (v *ReadView) Sync() error { return v.f.sync() }

// ShardedStats is a point-in-time summary of a sharded deployment.
type ShardedStats struct {
	// Shards is the shard-group count.
	Shards int `json:"shards"`
	// Epochs is each shard's released read epoch (its consistent-cut
	// component at sampling time).
	Epochs []uint64 `json:"epochs"`
	// LastLSNs is each shard's assigned-LSN horizon.
	LastLSNs []uint64 `json:"last_lsns"`
	// Failovers counts leader replacements across all shards.
	Failovers int64 `json:"failovers"`
	// BatchesRouted counts ApplyBatch calls fanned out by the router.
	BatchesRouted int64 `json:"batches_routed"`
	// BatchFanoutMean is the mean number of shards touched per batch.
	BatchFanoutMean float64 `json:"batch_fanout_mean"`
	// ScatterHops / ScatterShardReads count scatter-gather hop rounds and
	// the parallel per-shard reads they issued.
	ScatterHops       int64 `json:"scatter_hops"`
	ScatterShardReads int64 `json:"scatter_shard_reads"`
	// Snapshots counts consistent cuts taken; SnapshotRejects counts
	// vectors refused fail-closed by SnapshotAt.
	Snapshots       int64 `json:"snapshots"`
	SnapshotRejects int64 `json:"snapshot_rejects"`
	// Txns counts multi-shard transactions started (2PC path);
	// TxnCommits and TxnAborts their decisions. TxnResolved counts
	// in-doubt prepares settled by a failover's resolution pass, and
	// TxnReapplied how many of those re-applied a committed payload.
	Txns         int64 `json:"txns"`
	TxnCommits   int64 `json:"txn_commits"`
	TxnAborts    int64 `json:"txn_aborts"`
	TxnResolved  int64 `json:"txn_resolved"`
	TxnReapplied int64 `json:"txn_reapplied"`
}

// Stats samples the sharded deployment.
func (db *ShardedDB) Stats() ShardedStats {
	g := db.group
	snap := g.Metrics().Snapshot()
	st := ShardedStats{
		Shards:   g.Shards(),
		Epochs:   make([]uint64, g.Shards()),
		LastLSNs: make([]uint64, g.Shards()),
	}
	for i, e := range g.ReadEpochs() {
		st.Epochs[i] = uint64(e)
		st.LastLSNs[i] = uint64(g.Leader(i).LastLSN())
	}
	st.Failovers = snap["shard.failovers"].Value
	st.BatchesRouted = snap["shard.batches_routed"].Value
	st.ScatterHops = snap["shard.scatter_hops"].Value
	st.ScatterShardReads = snap["shard.scatter_shard_reads"].Value
	st.Snapshots = snap["shard.snapshots"].Value
	st.SnapshotRejects = snap["shard.snapshot_rejects"].Value
	st.Txns = snap["shard.txns"].Value
	st.TxnCommits = snap["shard.txn_commits"].Value
	st.TxnAborts = snap["shard.txn_aborts"].Value
	st.TxnResolved = snap["shard.txn_indoubt_resolved"].Value
	st.TxnReapplied = snap["shard.txn_resolve_reapplied"].Value
	if h := snap["shard.batch_fanout"].IntHistogram; h != nil {
		st.BatchFanoutMean = h.Mean
	}
	return st
}
