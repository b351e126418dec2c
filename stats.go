package bg3

import "bg3/internal/metrics"

// Stats summarizes the database's I/O, space, cache, WAL, replication and
// shard accounting, grouped by subsystem. Counters and distributions are
// summed over the shards; what is a position on one shard's log is in Shards,
// one entry per shard. The struct marshals cleanly to JSON; StatsJSON and
// StatsText render the full metrics registry instead (every registered
// instrument, including ones not surfaced here).
type Stats struct {
	Storage     StorageStats     `json:"storage"`
	WAL         WALStats         `json:"wal"`
	Cache       CacheStats       `json:"cache"`
	Forest      ForestStats      `json:"forest"`
	EdgeBlocks  EdgeBlockStats   `json:"edge_blocks"`
	GC          GCStats          `json:"gc"`
	MVCC        MVCCStats        `json:"mvcc"`
	Replication ReplicationStats `json:"replication"`
	Shards      ShardStats       `json:"shards"`
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

// WALStats covers the append and group-commit pipelines. All zero on a bare
// engine (no WAL runs).
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
	// the instant of the stats snapshot; PipelineDepth is how many one
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
	Checkpoints         int64       `json:"checkpoints"`
}

// CacheStats is the page cache's hit accounting plus the per-read storage
// fan-out distribution (Fig. 9: at most 2 under the read-optimized policy).
// Shards is the lock-stripe count of one cache.
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

// MVCCStats is the read-epoch clocks' accounting (each shard's read epoch is
// in ShardStats). All zero on a bare engine (no WAL, no epochs: reads are
// latest-state).
type MVCCStats struct {
	// PinnedEpochs is the number of live snapshot pins.
	PinnedEpochs int64 `json:"pinned_epochs"`
	// EpochLag is the largest read epoch minus oldest pinned epoch (LSN
	// distance) of any shard: how much history the oldest snapshot holds
	// back from consolidation.
	EpochLag uint64 `json:"epoch_lag"`
	// PinsTotal counts epoch pins over the DB's lifetime.
	PinsTotal int64 `json:"pins_total"`
	// RetainedBytes is the in-memory size of delta-chain history kept above
	// the retention floor for pinned snapshots.
	RetainedBytes int64 `json:"retained_bytes"`
}

// ReplicationStats covers the attached read-only replicas and leader
// failover. AppliedLSNLag is the worst lag of any replica's follower behind
// its shard leader's last assigned LSN (Fig. 13). FencedAppends counts
// appends the shared store rejected with storage.ErrFenced — each one a
// deposed leader's write that fencing kept out of the log.
type ReplicationStats struct {
	Replicas      int    `json:"replicas"`
	AppliedLSNLag uint64 `json:"applied_lsn_lag"`
	Resyncs       int64  `json:"resyncs"`
	Failovers     int64  `json:"failovers"`
	FencedAppends int64  `json:"fenced_appends"`
}

// ShardStats is the shard axis: where each shard stands on its own log, and
// the router's and cross-shard transactions' counters. A bare engine is one
// shard at position 0 with nothing routed.
type ShardStats struct {
	Count int `json:"count"`
	// ReadEpochs is each shard's released read epoch: the WAL LSN of the last
	// record in the last group a snapshot pinned now observes.
	ReadEpochs []uint64 `json:"read_epochs"`
	// LastLSNs is each shard's assigned-LSN horizon.
	LastLSNs []uint64 `json:"last_lsns"`
	// Epochs is the WAL fence token each shard's leader appends under: 0
	// until its first failover, incremented by each one.
	Epochs []uint64 `json:"epochs"`
	// BatchesRouted counts ApplyBatch calls routed, BatchFanoutMean the mean
	// number of shards one touched.
	BatchesRouted   int64   `json:"batches_routed"`
	BatchFanoutMean float64 `json:"batch_fanout_mean"`
	// ScatterHops / ScatterShardReads count scatter-gather hop rounds and
	// the parallel per-shard reads they issued.
	ScatterHops       int64 `json:"scatter_hops"`
	ScatterShardReads int64 `json:"scatter_shard_reads"`
	// Snapshots counts consistent cuts taken; SnapshotRejects counts
	// vectors refused fail-closed by SnapshotAt.
	Snapshots       int64 `json:"snapshots"`
	SnapshotRejects int64 `json:"snapshot_rejects"`
	// Txns counts multi-shard transactions started (2PC path); TxnCommits
	// and TxnAborts their decisions. TxnResolved counts in-doubt prepares
	// settled by a failover's resolution pass, and TxnReapplied how many of
	// those re-applied a committed payload.
	Txns         int64 `json:"txns"`
	TxnCommits   int64 `json:"txn_commits"`
	TxnAborts    int64 `json:"txn_aborts"`
	TxnResolved  int64 `json:"txn_resolved"`
	TxnReapplied int64 `json:"txn_reapplied"`
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

func histogramStats(h *metrics.Histogram) HistogramStats {
	s := h.Summary()
	return HistogramStats{Count: s.Count, MeanUS: s.MeanUS, P50US: s.P50US, P99US: s.P99US, MaxUS: s.MaxUS}
}

func fanoutStats(h *metrics.IntHistogram) FanoutStats {
	s := h.Summary()
	return FanoutStats{Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	n := db.Shards()
	s := Stats{Shards: ShardStats{Count: n, ReadEpochs: make([]uint64, n), LastLSNs: make([]uint64, n), Epochs: make([]uint64, n)}}
	// Each distribution is merged over the shards and summarized once.
	var fanout, groupSize, inflight metrics.IntHistogram
	var materialize, appendLat, commitLat, stall, reorder metrics.Histogram
	for i := range n {
		e := db.eng(i)
		ss := e.Store().Stats()
		s.Storage.ReadOps += ss.ReadOps
		s.Storage.WriteOps += ss.WriteOps
		s.Storage.BytesRead += ss.BytesRead
		s.Storage.BytesWritten += ss.BytesWritten
		s.Storage.BatchReads += ss.BatchReads
		s.Storage.BatchLocs += ss.BatchLocs
		s.Storage.BatchRoundTrips += ss.BatchRoundTrips
		s.Storage.LiveBytes += ss.LiveBytes
		s.Storage.TotalBytes += ss.TotalBytes
		s.Storage.ExtentCount += ss.ExtentCount
		s.GC.BytesMoved += ss.GCBytesMoved
		s.GC.BytesReclaimed += ss.GCBytesReclaimed
		s.GC.ExtentsReclaimed += ss.ExtentsReclaimed
		s.GC.ExtentsExpired += ss.ExtentsExpired
		s.Replication.FencedAppends += ss.FencedAppends
		gcs := e.GCStats()
		s.GC.Runs += gcs.Runs
		s.GC.PinDeferred += gcs.PinDeferred

		m, fs := e.Mapping(), e.Forest().Stats()
		hits, misses := m.CacheStats()
		s.Cache.Hits += hits
		s.Cache.Misses += misses
		s.Cache.Shards = m.ShardCount()
		s.Cache.Evictions += m.Evictions()
		fanout.Merge(m.ReadFanout())
		materialize.Merge(m.MaterializeLatency())
		s.Cache.Pages += int64(m.PageCount())
		s.Cache.MemoryBytes += fs.MemoryBytes
		s.Forest.Trees += fs.Trees
		s.Forest.Owners += fs.Owners
		s.Forest.InitKeys += fs.InitKeys
		s.Forest.Migrations += fs.Migrations
		bs := m.BlockStatsSnapshot()
		s.EdgeBlocks.Builds += bs.Builds
		s.EdgeBlocks.SkippedPins += bs.SkippedPins
		s.EdgeBlocks.Hits += bs.Hits
		s.EdgeBlocks.Fallbacks += bs.Fallbacks
		s.EdgeBlocks.Entries += bs.Entries
		s.EdgeBlocks.Bytes += bs.Bytes
		s.EdgeBlocks.OverlayOps += bs.OverlayOps

		if src := e.Epochs(); src != nil {
			es := src.Stats()
			s.Shards.ReadEpochs[i] = uint64(es.Current)
			s.MVCC.PinnedEpochs += es.Pinned
			s.MVCC.EpochLag = max(s.MVCC.EpochLag, es.Lag)
			s.MVCC.PinsTotal += es.PinsTotal
			s.MVCC.RetainedBytes += e.RetainedBytes()
		}
		if rw := db.leader(i); rw != nil {
			l := rw.Logger()
			batches, records := rw.LoggerStats()
			s.WAL.Appends += rw.Writer().Appends()
			appendLat.Merge(rw.Writer().AppendLatency())
			s.WAL.CommitBatches += batches
			s.WAL.CommitRecords += records
			commitLat.Merge(l.CommitLatency())
			groupSize.Merge(l.GroupSize())
			stall.Merge(l.StallLatency())
			s.WAL.InflightGroups += l.InflightGroups()
			s.WAL.PipelineDepth = l.PipelineDepth()
			reorder.Merge(l.AckReorder())
			inflight.Merge(l.InflightUtilization())
			s.WAL.Checkpoints += rw.Checkpoints()
			s.Shards.LastLSNs[i] = uint64(rw.LastLSN())
			s.Shards.Epochs[i] = rw.Epoch()
		}
	}
	s.Storage.FaultsInjected = metrics.Faults.FaultsInjected.Load()
	s.Storage.FaultRetries = metrics.Faults.Retries.Load()
	s.Storage.FaultRecoveries = metrics.Faults.Recoveries.Load()
	s.Cache.HitRatio = ratio(s.Cache.Hits, s.Cache.Hits+s.Cache.Misses)
	s.Cache.ReadFanout, s.Cache.MaterializeLat = fanoutStats(&fanout), histogramStats(&materialize)
	s.GC.WriteAmp = ratio(s.GC.BytesMoved, s.GC.BytesReclaimed)
	if db.group == nil {
		return s
	}
	s.WAL.AppendLatency, s.WAL.CommitLatency = histogramStats(&appendLat), histogramStats(&commitLat)
	s.WAL.GroupSize, s.WAL.GroupStall = fanoutStats(&groupSize), histogramStats(&stall)
	s.WAL.AckReorder, s.WAL.PipelineUtilization = histogramStats(&reorder), fanoutStats(&inflight)
	s.Replication.Replicas = len(db.attached())
	s.Replication.AppliedLSNLag = db.lag()
	s.Replication.Resyncs = db.resyncs()
	s.Replication.Failovers = db.group.Failovers()

	g := db.group.Metrics().Snapshot()
	s.Shards.BatchesRouted = g["shard.batches_routed"].Value
	if h := g["shard.batch_fanout"].IntHistogram; h != nil {
		s.Shards.BatchFanoutMean = h.Mean
	}
	s.Shards.ScatterHops = g["shard.scatter_hops"].Value
	s.Shards.ScatterShardReads = g["shard.scatter_shard_reads"].Value
	s.Shards.Snapshots = g["shard.snapshots"].Value
	s.Shards.SnapshotRejects = g["shard.snapshot_rejects"].Value
	s.Shards.Txns = g["shard.txns"].Value
	s.Shards.TxnCommits = g["shard.txn_commits"].Value
	s.Shards.TxnAborts = g["shard.txn_aborts"].Value
	s.Shards.TxnResolved = g["shard.txn_indoubt_resolved"].Value
	s.Shards.TxnReapplied = g["shard.txn_resolve_reapplied"].Value
	return s
}
