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
// consistent reads that scale out (§3.4).
package bg3

import (
	"errors"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/pattern"
	"bg3/internal/replication"
	"bg3/internal/storage"
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
	// Properties is an ordered property list.
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

// ErrNotReplicated is returned by OpenReplica on a DB opened without
// Options.Replicated.
var ErrNotReplicated = errors.New("bg3: database opened without replication")

// DB is a BG3 database handle: a bare engine, or with Options.Replicated a
// one-shard leader set — the same leader, WAL, failover and follower
// machinery a ShardedDB runs per shard. All methods are safe for
// concurrent use.
//
// GetVertex, GetEdge, Neighbors and Degree (the embedded reads) see the
// latest state, on the current leader in replicated mode.
type DB struct {
	reads
	// writes is the engine, or in replicated mode the one-shard group, so
	// the leader's apply barrier and WAL are engaged and a failover
	// re-routes writes in place.
	writes graph.BatchStore
	store  *storage.Store

	engine *core.Engine // unreplicated mode
	ls     *leaderSet   // replicated mode
}

// leader returns the current RW node, nil outside replicated mode.
func (db *DB) leader() *replication.RWNode {
	if db.ls == nil {
		return nil
	}
	return db.ls.group.Leader(0)
}

// eng returns the current engine (the leader's in replicated mode).
func (db *DB) eng() *core.Engine {
	if rw := db.leader(); rw != nil {
		return rw.Engine()
	}
	return db.engine
}

var _ graph.Store = (*DB)(nil)

// Open creates a new in-process BG3 database. A nil opts uses defaults.
func Open(opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	cfg := o.layers()
	if !o.Replicated {
		co := cfg.rw.Engine
		co.Storage = &cfg.storage
		engine, err := core.New(co)
		if err != nil {
			return nil, err
		}
		return &DB{reads: reads{engine}, writes: engine, store: engine.Store(), engine: engine}, nil
	}
	// One registry for the DB's lifetime: a promoted leader registers its
	// engine and WAL instruments over its predecessor's, next to the
	// follower gauges registered here once.
	cfg.rw.Engine.Metrics = metrics.NewRegistry()
	ls, err := openLeaderSet(1, cfg)
	if err != nil {
		return nil, err
	}
	ls.registerMetrics(cfg.rw.Engine.Metrics)
	return &DB{reads: reads{ls.group}, writes: ls.group, store: ls.group.Store(0), ls: ls}, nil
}

// Close stops background work and releases the database.
func (db *DB) Close() {
	if db.ls != nil {
		db.ls.close()
		return
	}
	db.engine.Close()
}

// AddVertex upserts a vertex.
func (db *DB) AddVertex(v Vertex) error { return db.writes.AddVertex(v) }

// AddEdge upserts a directed edge.
func (db *DB) AddEdge(e Edge) error { return db.writes.AddEdge(e) }

// DeleteEdge removes one edge.
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
// records are durable. It is the bulk-load path in non-replicated mode too:
// there is no WAL to share, but each leaf still reaches storage once per
// batch instead of once per mutation.
func (db *DB) ApplyBatch(muts []Mutation) error { return db.writes.ApplyBatch(muts) }

// KHop expands hops levels of out-neighbors from start, returning the set
// of vertices reached (excluding start). perVertexLimit bounds per-vertex
// fan-out (<= 0: unlimited).
//
// The whole traversal runs against one pinned read epoch: every hop sees
// the graph as of the same group-commit boundary, so concurrent batches
// can no longer tear a multi-hop read (observing a later hop's state from
// after a commit the earlier hops predate).
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
// seed vertices. Like KHop, the whole match runs at one pinned read epoch.
func (db *DB) MatchPattern(p Pattern, seeds []VertexID, maxMatches int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.MatchPattern(p, seeds, maxMatches)
}

// FindCycles returns simple cycles through start of length 2..maxLen —
// the risk-control loop detection. Runs at one pinned read epoch.
func (db *DB) FindCycles(start VertexID, typ EdgeType, maxLen, maxCycles int) ([][]VertexID, error) {
	s := db.Snapshot()
	defer s.Close()
	return s.FindCycles(start, typ, maxLen, maxCycles)
}

// RunGC triggers one synchronous space-reclamation cycle (batch extents
// per data stream) and returns the bytes moved.
func (db *DB) RunGC(batch int) (int64, error) { return db.eng().RunGC(batch) }

// BuildEdgeBlocks eagerly packs every dedicated tree that is past the
// edge-block threshold (Options.EdgeBlockThreshold) into its CSR-style
// packed block, returning the number of blocks built. Blocks are normally
// built opportunistically at flush/consolidation time; this forces the
// work now — useful after a bulk load, before a read-heavy phase.
func (db *DB) BuildEdgeBlocks() (int, error) {
	return db.eng().Forest().BuildEdgeBlocks()
}

// Checkpoint flushes dirty pages and publishes a WAL checkpoint
// (replicated mode). In non-replicated mode it is a no-op.
func (db *DB) Checkpoint() error {
	if db.leader() == nil {
		return nil
	}
	return db.leader().Checkpoint()
}

// Stats summarizes the database's I/O, space, cache, WAL, and replication
// accounting, grouped by subsystem. The struct marshals cleanly to JSON;
// StatsJSON and StatsText render the full metrics registry instead (every
// registered instrument, including ones not surfaced here).
type Stats struct {
	Storage     StorageStats     `json:"storage"`
	WAL         WALStats         `json:"wal"`
	Cache       CacheStats       `json:"cache"`
	Forest      ForestStats      `json:"forest"`
	EdgeBlocks  EdgeBlockStats   `json:"edge_blocks"`
	GC          GCStats          `json:"gc"`
	MVCC        MVCCStats        `json:"mvcc"`
	Replication ReplicationStats `json:"replication"`
}

// StorageStats is the shared store's I/O, space, and fault accounting.
type StorageStats struct {
	ReadOps         int64 `json:"read_ops"`
	WriteOps        int64 `json:"write_ops"`
	BytesRead       int64 `json:"bytes_read"`
	BytesWritten    int64 `json:"bytes_written"`
	BatchReads      int64 `json:"batch_reads"`
	BatchLocs       int64 `json:"batch_locs"`
	BatchRoundTrips int64 `json:"batch_round_trips"`
	LiveBytes       int64 `json:"live_bytes"`
	TotalBytes      int64 `json:"total_bytes"`
	ExtentCount     int64 `json:"extent_count"`
	FaultsInjected  int64 `json:"faults_injected"`
	FaultRetries    int64 `json:"fault_retries"`
	FaultRecoveries int64 `json:"fault_recoveries"`
}

// WALStats covers the append and group-commit pipelines. All zero on a DB
// opened without Options.Replicated (no WAL runs).
type WALStats struct {
	Appends       int64          `json:"appends"`
	AppendLatency HistogramStats `json:"append_latency"`
	CommitBatches int64          `json:"commit_batches"`
	CommitRecords int64          `json:"commit_records"`
	CommitLatency HistogramStats `json:"commit_latency"`
	// GroupSize is the records-per-flush distribution: its mean is the
	// write-side amortization factor (records acked per storage round
	// trip, §3.4).
	GroupSize FanoutStats `json:"group_size"`
	// GroupStall is the backpressure writers paid on a full commit queue.
	GroupStall HistogramStats `json:"group_stall"`
	// InflightGroups is the number of sealed WAL group appends in flight at
	// the instant of the stats snapshot; PipelineDepth is how many the
	// committer allows (Options.CommitPipelineDepth; 1 when unset).
	InflightGroups int `json:"inflight_groups"`
	PipelineDepth  int `json:"pipeline_depth"`
	// AckReorder is how long durable groups waited for their predecessors
	// before their acks could release in LSN order — the cost of in-order
	// release under out-of-order pipelined completion.
	AckReorder HistogramStats `json:"ack_reorder"`
	// PipelineUtilization is the distribution of concurrently in-flight
	// appends observed at each dispatch (mean > 1 means round trips
	// actually overlap).
	PipelineUtilization FanoutStats `json:"pipeline_utilization"`
	LastLSN             uint64      `json:"last_lsn"`
	Checkpoints         int64       `json:"checkpoints"`
}

// CacheStats is the page cache's hit accounting plus the per-read storage
// fan-out distribution (Fig. 9: at most 2 under the read-optimized policy).
type CacheStats struct {
	Hits           int64          `json:"hits"`
	Misses         int64          `json:"misses"`
	HitRatio       float64        `json:"hit_ratio"`
	Shards         int            `json:"shards"`
	Evictions      int64          `json:"evictions"`
	ReadFanout     FanoutStats    `json:"read_fanout"`
	MaterializeLat HistogramStats `json:"materialize_latency"`
	Pages          int64          `json:"pages"`
	MemoryBytes    int64          `json:"memory_bytes"`
}

// ForestStats is the Bw-tree forest's shape (Fig. 11).
type ForestStats struct {
	Trees      int `json:"trees"`
	Owners     int `json:"owners"`
	InitKeys   int `json:"init_keys"`
	Migrations int `json:"migrations"`
}

// EdgeBlockStats is the packed CSR edge-block accounting (§3.2.1
// super-vertices): blocks built, scans served from a block (hits) versus
// forced back to the merged delta path (fallbacks), the resident footprint
// of the live blocks, and the ops written since they were sealed: an overlay
// that stays large says a rebuild is being held back (an old pin).
type EdgeBlockStats struct {
	Builds      int64 `json:"builds"`
	SkippedPins int64 `json:"skipped_pins"`
	Hits        int64 `json:"hits"`
	Fallbacks   int64 `json:"fallbacks"`
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	OverlayOps  int64 `json:"overlay_ops"`
}

// GCStats is the space-reclamation accounting. WriteAmp is bytes moved per
// byte freed — the cost metric the workload-aware policy of §3.3 minimizes.
type GCStats struct {
	BytesMoved       int64   `json:"bytes_moved"`
	BytesReclaimed   int64   `json:"bytes_reclaimed"`
	WriteAmp         float64 `json:"write_amp"`
	Runs             int64   `json:"runs"`
	ExtentsReclaimed int64   `json:"extents_reclaimed"`
	ExtentsExpired   int64   `json:"extents_expired"`
	// PinDeferred counts extent picks the reclaimer skipped because a
	// pinned snapshot may still read their invalidated records.
	PinDeferred int64 `json:"pin_deferred"`
	// BlockPinned is always 0: packed edge blocks own no extents. The
	// benchmark harness still reads the field.
	BlockPinned int64 `json:"block_pinned"`
}

// MVCCStats is the read-epoch clock's accounting. All zero on a DB opened
// without Options.Replicated (no WAL, no epochs: reads are latest-state).
type MVCCStats struct {
	// ReadEpoch is the current read epoch: the highest group-released WAL
	// LSN. A snapshot pinned now observes exactly this boundary.
	ReadEpoch uint64 `json:"read_epoch"`
	// PinnedEpochs is the number of live snapshot pins.
	PinnedEpochs int64 `json:"pinned_epochs"`
	// EpochLag is ReadEpoch minus the oldest pinned epoch (LSN distance):
	// how much history the oldest snapshot holds back from consolidation.
	EpochLag uint64 `json:"epoch_lag"`
	// PinsTotal counts snapshots taken over the DB's lifetime.
	PinsTotal int64 `json:"pins_total"`
	// RetainedBytes is the in-memory size of delta-chain history kept above
	// the retention floor for pinned snapshots.
	RetainedBytes int64 `json:"retained_bytes"`
}

// ReplicationStats covers the attached read-only replicas and leader
// failover. AppliedLSNLag is the worst lag across replicas: the leader's
// last assigned LSN minus the replica's applied LSN (Fig. 13). Epoch is the
// WAL fence token the current leader appends under (0 until the first
// failover); FencedAppends counts appends the shared store rejected with
// storage.ErrFenced — each one a deposed leader's write that fencing kept
// out of the log.
type ReplicationStats struct {
	Replicas      int    `json:"replicas"`
	AppliedLSNLag uint64 `json:"applied_lsn_lag"`
	Resyncs       int64  `json:"resyncs"`
	Epoch         uint64 `json:"epoch"`
	Failovers     int64  `json:"failovers"`
	FencedAppends int64  `json:"fenced_appends"`
}

// HistogramStats summarizes a latency distribution in microseconds.
type HistogramStats struct {
	Count  int64 `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// FanoutStats summarizes a small-integer distribution (storage reads per
// page materialization).
type FanoutStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

func histogramStats(s metrics.HistogramSnapshot) HistogramStats {
	return HistogramStats{Count: s.Count, MeanUS: s.MeanUS, P50US: s.P50US, P99US: s.P99US, MaxUS: s.MaxUS}
}

func fanoutStats(s metrics.IntHistogramSnapshot) FanoutStats {
	return FanoutStats{Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	ss := db.store.Stats()
	fs := db.eng().Forest().Stats()
	m := db.eng().Mapping()
	hits, misses := m.CacheStats()
	var ratio float64
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	gcs := db.eng().GCStats()
	s := Stats{
		Storage: StorageStats{
			ReadOps:         ss.ReadOps,
			WriteOps:        ss.WriteOps,
			BytesRead:       ss.BytesRead,
			BytesWritten:    ss.BytesWritten,
			BatchReads:      ss.BatchReads,
			BatchLocs:       ss.BatchLocs,
			BatchRoundTrips: ss.BatchRoundTrips,
			LiveBytes:       ss.LiveBytes,
			TotalBytes:      ss.TotalBytes,
			ExtentCount:     ss.ExtentCount,
			FaultsInjected:  metrics.Faults.FaultsInjected.Load(),
			FaultRetries:    metrics.Faults.Retries.Load(),
			FaultRecoveries: metrics.Faults.Recoveries.Load(),
		},
		Cache: CacheStats{
			Hits:           hits,
			Misses:         misses,
			HitRatio:       ratio,
			Shards:         m.ShardCount(),
			Evictions:      m.Evictions(),
			ReadFanout:     fanoutStats(m.ReadFanout().Summary()),
			MaterializeLat: histogramStats(m.MaterializeLatency().Summary()),
			Pages:          int64(m.PageCount()),
			MemoryBytes:    fs.MemoryBytes,
		},
		Forest: ForestStats{
			Trees:      fs.Trees,
			Owners:     fs.Owners,
			InitKeys:   fs.InitKeys,
			Migrations: fs.Migrations,
		},
		EdgeBlocks: func() EdgeBlockStats {
			bs := m.BlockStatsSnapshot()
			return EdgeBlockStats{
				Builds:      bs.Builds,
				SkippedPins: bs.SkippedPins,
				Hits:        bs.Hits,
				Fallbacks:   bs.Fallbacks,
				Entries:     bs.Entries,
				Bytes:       bs.Bytes,
				OverlayOps:  bs.OverlayOps,
			}
		}(),
		GC: GCStats{
			BytesMoved:       ss.GCBytesMoved,
			BytesReclaimed:   ss.GCBytesReclaimed,
			WriteAmp:         ss.GCWriteAmp(),
			Runs:             gcs.Runs,
			ExtentsReclaimed: ss.ExtentsReclaimed,
			ExtentsExpired:   ss.ExtentsExpired,
			PinDeferred:      gcs.PinDeferred,
		},
	}
	if src := db.eng().Epochs(); src != nil {
		es := src.Stats()
		s.MVCC = MVCCStats{
			ReadEpoch:     uint64(es.Current),
			PinnedEpochs:  es.Pinned,
			EpochLag:      es.Lag,
			PinsTotal:     es.PinsTotal,
			RetainedBytes: db.eng().RetainedBytes(),
		}
	}
	if rw := db.leader(); rw != nil {
		batches, records := rw.LoggerStats()
		s.WAL = WALStats{
			Appends:             rw.Writer().Appends(),
			AppendLatency:       histogramStats(rw.Writer().AppendLatency().Summary()),
			CommitBatches:       batches,
			CommitRecords:       records,
			CommitLatency:       histogramStats(rw.Logger().CommitLatency().Summary()),
			GroupSize:           fanoutStats(rw.Logger().GroupSize().Summary()),
			GroupStall:          histogramStats(rw.Logger().StallLatency().Summary()),
			InflightGroups:      rw.Logger().InflightGroups(),
			PipelineDepth:       rw.Logger().PipelineDepth(),
			AckReorder:          histogramStats(rw.Logger().AckReorder().Summary()),
			PipelineUtilization: fanoutStats(rw.Logger().InflightUtilization().Summary()),
			LastLSN:             uint64(rw.LastLSN()),
			Checkpoints:         rw.Checkpoints(),
		}
		s.Replication = ReplicationStats{
			Replicas:      len(db.ls.followers()),
			AppliedLSNLag: db.ls.lag(),
			Resyncs:       db.ls.resyncs(),
			Epoch:         rw.Epoch(),
			Failovers:     db.Failovers(),
			FencedAppends: ss.FencedAppends,
		}
	}
	return s
}

// Metrics exposes the database's metrics registry: every subsystem
// (storage, WAL, cache, forest, GC, replication) registers its instruments
// here. Useful for scraping or registering additional application gauges.
func (db *DB) Metrics() *metrics.Registry { return db.eng().Metrics() }

// StatsJSON renders the full metrics registry as stable, sorted JSON.
func (db *DB) StatsJSON() ([]byte, error) { return db.eng().Metrics().Snapshot().JSON() }

// StatsText renders the full metrics registry as sorted, aligned text.
func (db *DB) StatsText() string { return db.eng().Metrics().Snapshot().Text() }
