package bg3

import (
	"fmt"
	"reflect"
	"strings"

	"bg3/internal/metrics"
)

// Stats is a typed view of the database's metrics registries: Metrics and,
// on more than one shard, each leader's registry. Every field reads the
// instrument its metric tag names. A plain name is that instrument's reading
// folded over the registries (metrics.Fold: counters and gauges summed,
// histograms merged bucket-wise); ",max" is its largest reading on any shard
// and ",each" one reading per shard. A field with no tag is derived, as its
// comment says. The struct marshals cleanly to JSON; StatsJSON and StatsText
// render the registries themselves (every instrument, including ones not
// surfaced here).
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
// FaultsInjected counts the faults the storage fault plan injected (every
// shard's store shares it); FaultRetries the transient failures WAL appends
// and page flushes retried; FaultRecoveries the leader promotions and
// replica resyncs that recovered from a fault. BytesWrittenBase,
// BytesWrittenDelta and BytesWrittenWAL split BytesWritten by the stream the
// bytes went to.
type StorageStats struct {
	ReadOps           int64 `json:"read_ops" metric:"storage.read_ops"`
	WriteOps          int64 `json:"write_ops" metric:"storage.write_ops"`
	BytesRead         int64 `json:"bytes_read" metric:"storage.bytes_read"`
	BytesWritten      int64 `json:"bytes_written" metric:"storage.bytes_written"`
	BytesWrittenBase  int64 `json:"bytes_written_base" metric:"storage.bytes_written_base"`
	BytesWrittenDelta int64 `json:"bytes_written_delta" metric:"storage.bytes_written_delta"`
	BytesWrittenWAL   int64 `json:"bytes_written_wal" metric:"storage.bytes_written_wal"`
	BatchReads        int64 `json:"batch_reads" metric:"storage.batch_reads"`
	BatchLocs         int64 `json:"batch_locs" metric:"storage.batch_locs"`
	BatchRoundTrips   int64 `json:"batch_round_trips" metric:"storage.batch_round_trips"`
	LiveBytes         int64 `json:"live_bytes" metric:"storage.live_bytes"`
	TotalBytes        int64 `json:"total_bytes" metric:"storage.total_bytes"`
	ExtentCount       int64 `json:"extent_count" metric:"storage.extent_count"`
	FaultsInjected    int64 `json:"faults_injected" metric:"faults.injected"`
	FaultRetries      int64 `json:"fault_retries" metric:"faults.retries"`
	FaultRecoveries   int64 `json:"fault_recoveries" metric:"faults.recoveries"`
}

// WALStats covers the append and group-commit pipelines. All zero on a bare
// engine (no WAL runs).
type WALStats struct {
	Appends       int64          `json:"appends" metric:"wal.appends"`
	AppendLatency HistogramStats `json:"append_latency" metric:"wal.append_us"`
	CommitBatches int64          `json:"commit_batches" metric:"wal.commit_batches"`
	CommitRecords int64          `json:"commit_records" metric:"wal.commit_records"`
	CommitLatency HistogramStats `json:"commit_latency" metric:"wal.commit_us"`
	// GroupSize is the records-per-flush distribution: its mean is the
	// write-side amortization factor (records acked per storage round
	// trip, §3.4).
	GroupSize   FanoutStats `json:"group_size" metric:"wal.group_size"`
	Checkpoints int64       `json:"checkpoints" metric:"wal.checkpoints"`
}

// CacheStats is the page cache's hit accounting plus the per-read storage
// fan-out distribution (Fig. 9: at most 2 under the read-optimized policy).
// HitRatio is Hits / (Hits + Misses). MemoryBytes is the mapping tables'
// resident bytes: BaseBytes of leaves' base images, OverlayBytes of their
// overlay ops and InnerBytes of inner nodes, plus each entry's own overhead
// (edge-block chunk images are EdgeBlocks.Bytes).
type CacheStats struct {
	Hits           int64          `json:"hits" metric:"bwtree.cache_hits"`
	Misses         int64          `json:"misses" metric:"bwtree.cache_misses"`
	HitRatio       float64        `json:"hit_ratio"`
	Evictions      int64          `json:"evictions" metric:"bwtree.cache_evictions"`
	ReadFanout     FanoutStats    `json:"read_fanout" metric:"bwtree.read_fanout"`
	MaterializeLat HistogramStats `json:"materialize_latency" metric:"bwtree.materialize_us"`
	Pages          int64          `json:"pages" metric:"bwtree.pages"`
	MemoryBytes    int64          `json:"memory_bytes" metric:"bwtree.memory_bytes"`
	BaseBytes      int64          `json:"base_bytes" metric:"bwtree.memory_base_bytes"`
	OverlayBytes   int64          `json:"overlay_bytes" metric:"bwtree.memory_overlay_bytes"`
	InnerBytes     int64          `json:"inner_bytes" metric:"bwtree.memory_inner_bytes"`
}

// ForestStats is the Bw-tree forest's shape (Fig. 11).
type ForestStats struct {
	Trees      int `json:"trees" metric:"forest.trees"`
	Owners     int `json:"owners" metric:"forest.owners"`
	InitKeys   int `json:"init_keys" metric:"forest.init_keys"`
	Migrations int `json:"migrations" metric:"forest.migrations"`
}

// EdgeBlockStats is the packed CSR edge-block accounting (§3.2.1
// super-vertices): blocks built, chunks served from a block (hits) versus
// leaves a block-consulting scan walked instead (fallbacks), and the resident
// footprint of the live blocks. A fallback is a leaf written since its block
// was built, or read below the newest LSN its chunk holds (a read pinned
// before the leaf's last write); no pin holds a build back.
type EdgeBlockStats struct {
	Builds    int64 `json:"builds" metric:"bwtree.block_builds"`
	Hits      int64 `json:"hits" metric:"bwtree.block_hits"`
	Fallbacks int64 `json:"fallbacks" metric:"bwtree.block_fallbacks"`
	Entries   int64 `json:"entries" metric:"bwtree.block_entries"`
	Bytes     int64 `json:"bytes" metric:"bwtree.block_bytes"`
}

// GCStats is the space-reclamation accounting. WriteAmp is bytes moved per
// byte freed, BytesMoved / BytesReclaimed — the cost metric the
// workload-aware policy of §3.3 minimizes. The policy's picks (RunGC) count
// apart from compaction: the extents a write left with at most 1/32 of their
// bytes live, which the writer (bare engine) or the next flush cycle (leader)
// relocates without a pick.
type GCStats struct {
	BytesMoved        int64   `json:"bytes_moved" metric:"storage.gc_bytes_moved"`
	BytesReclaimed    int64   `json:"bytes_reclaimed" metric:"storage.gc_bytes_reclaimed"`
	WriteAmp          float64 `json:"write_amp"`
	Runs              int64   `json:"runs" metric:"gc.runs"`
	ExtentsReclaimed  int64   `json:"extents_reclaimed" metric:"storage.extents_reclaimed"`
	ExtentsExpired    int64   `json:"extents_expired" metric:"storage.extents_expired"`
	ExtentsCompacted  int64   `json:"extents_compacted" metric:"storage.extents_compacted"`
	CompactBytesMoved int64   `json:"compact_bytes_moved" metric:"storage.compact_bytes_moved"`
	// BlockPinned is always 0: packed edge blocks own no extents. The
	// benchmark harness still reads the field.
	BlockPinned int64 `json:"block_pinned"`
}

// MVCCStats is the read-epoch clocks' accounting (each shard's read epoch is
// in ShardStats). All zero on a bare engine (no WAL, no epochs: reads are
// latest-state).
type MVCCStats struct {
	// PinnedEpochs is the number of live snapshot pins.
	PinnedEpochs int64 `json:"pinned_epochs" metric:"mvcc.pinned_epochs"`
	// EpochLag is the largest read epoch minus oldest pinned epoch (LSN
	// distance) of any shard: how much history the oldest snapshot holds
	// back from consolidation.
	EpochLag uint64 `json:"epoch_lag" metric:"mvcc.epoch_lag,max"`
	// PinsTotal counts epoch pins over the DB's lifetime.
	PinsTotal int64 `json:"pins_total" metric:"mvcc.pins_total"`
	// RetainedBytes is the in-memory size of delta-chain history kept above
	// the retention floor for pinned snapshots.
	RetainedBytes int64 `json:"retained_bytes" metric:"bwtree.retained_bytes"`
}

// ReplicationStats covers the attached read-only replicas and leader
// failover. AppliedLSNLag is the worst lag of any replica's follower behind
// its shard leader's last assigned LSN (Fig. 13). FencedAppends counts
// appends the shared store rejected with storage.ErrFenced — each one a
// deposed leader's write that fencing kept out of the log.
type ReplicationStats struct {
	Replicas      int    `json:"replicas" metric:"replication.replicas"`
	AppliedLSNLag uint64 `json:"applied_lsn_lag" metric:"replication.applied_lsn_lag"`
	Resyncs       int64  `json:"resyncs" metric:"replication.resyncs"`
	Failovers     int64  `json:"failovers" metric:"shard.failovers"`
	FencedAppends int64  `json:"fenced_appends" metric:"storage.fenced_appends"`
}

// ShardStats is the shard axis: where each shard stands on its own log, and
// the router's and cross-shard transactions' counters. A bare engine is one
// shard at position 0 with nothing routed.
type ShardStats struct {
	// Count is the shard count, 1 on a bare engine.
	Count int `json:"count"`
	// ReadEpochs is each shard's released read epoch: the WAL LSN of the last
	// record in the last group a snapshot pinned now observes.
	ReadEpochs []uint64 `json:"read_epochs" metric:"mvcc.read_epoch,each"`
	// LastLSNs is each shard's assigned-LSN horizon.
	LastLSNs []uint64 `json:"last_lsns" metric:"wal.last_lsn,each"`
	// Epochs is the WAL fence token each shard's leader appends under: 0
	// until its first failover, incremented by each one.
	Epochs []uint64 `json:"epochs" metric:"wal.epoch,each"`
	// BatchesRouted counts ApplyBatch calls routed, BatchFanoutMean the mean
	// number of shards one touched (the mean of shard.batch_fanout).
	BatchesRouted   int64   `json:"batches_routed" metric:"shard.batches_routed"`
	BatchFanoutMean float64 `json:"batch_fanout_mean"`
	// ScatterHops / ScatterShardReads count scatter-gather hop rounds and
	// the parallel per-shard reads they issued.
	ScatterHops       int64 `json:"scatter_hops" metric:"shard.scatter_hops"`
	ScatterShardReads int64 `json:"scatter_shard_reads" metric:"shard.scatter_shard_reads"`
	// Snapshots counts consistent cuts taken.
	Snapshots int64 `json:"snapshots" metric:"shard.snapshots"`
	// Txns counts multi-shard transactions started (2PC path); TxnCommits
	// and TxnAborts their decisions. TxnResolved counts in-doubt prepares
	// settled by a failover's resolution pass, and TxnReapplied how many of
	// those re-applied a committed payload.
	Txns         int64 `json:"txns" metric:"shard.txns"`
	TxnCommits   int64 `json:"txn_commits" metric:"shard.txn_commits"`
	TxnAborts    int64 `json:"txn_aborts" metric:"shard.txn_aborts"`
	TxnResolved  int64 `json:"txn_resolved" metric:"shard.txn_indoubt_resolved"`
	TxnReapplied int64 `json:"txn_reapplied" metric:"shard.txn_resolve_reapplied"`
}

// HistogramStats summarizes a latency distribution in microseconds.
type HistogramStats = metrics.HistogramSnapshot

// FanoutStats summarizes a small-integer distribution (storage reads per
// page materialization).
type FanoutStats = metrics.IntHistogramSnapshot

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	var s Stats
	regs := db.registries()
	shards := regs[len(regs)-db.Shards():]
	sum := metrics.Fold(regs...)
	fill(reflect.ValueOf(&s).Elem(), sum, shards)
	s.Cache.HitRatio = ratio(s.Cache.Hits, s.Cache.Hits+s.Cache.Misses)
	s.GC.WriteAmp = ratio(s.GC.BytesMoved, s.GC.BytesReclaimed)
	s.Shards.Count = len(shards)
	if h := sum["shard.batch_fanout"].IntHistogram; h != nil {
		s.Shards.BatchFanoutMean = h.Mean
	}
	return s
}

// fill sets every field of the struct v that has a metric tag from the
// reading it names (see Stats), and recurses into the untagged structs.
func fill(v reflect.Value, sum metrics.Snapshot, shards []*metrics.Registry) {
	for i := range v.NumField() {
		f := v.Field(i)
		name, how, _ := strings.Cut(v.Type().Field(i).Tag.Get("metric"), ",")
		switch {
		case name == "":
			if f.Kind() == reflect.Struct {
				fill(f, sum, shards)
			}
		case how == "each":
			each := make([]uint64, len(shards))
			for j, sh := range shards {
				each[j] = uint64(sh.Read(name).Value)
			}
			f.Set(reflect.ValueOf(each))
		case how == "max":
			var most int64
			for _, sh := range shards {
				most = max(most, sh.Read(name).Value)
			}
			setInt(f, most)
		default:
			switch r := sum[name]; f.Addr().Interface().(type) {
			case *HistogramStats:
				if r.Histogram != nil {
					f.Set(reflect.ValueOf(*r.Histogram))
				}
			case *FanoutStats:
				if r.IntHistogram != nil {
					f.Set(reflect.ValueOf(*r.IntHistogram))
				}
			default:
				setInt(f, r.Value)
			}
		}
	}
}

func setInt(f reflect.Value, n int64) {
	if f.CanInt() {
		f.SetInt(n)
	} else {
		f.SetUint(uint64(n))
	}
}

// shardMetrics returns shard i's registry: its current leader's (Metrics on
// one shard, where the DB keeps one registry for its life).
func (db *DB) shardMetrics(i int) *metrics.Registry {
	if db.Shards() == 1 {
		return db.reg
	}
	return db.eng(i).Metrics()
}

// registries returns everything Stats reads: Metrics, which is shard 0's on
// one shard, and on more every leader's registry after it, in shard order.
func (db *DB) registries() []*metrics.Registry {
	regs := []*metrics.Registry{db.reg}
	if n := db.Shards(); n > 1 {
		for i := range n {
			regs = append(regs, db.shardMetrics(i))
		}
	}
	return regs
}

// registerMetrics wires the DB's own instruments into Metrics: the faults
// its storage fault plan injected, the recoveries (leader promotions and
// replica resyncs) and, on a leader set, the attached replicas.
func (db *DB) registerMetrics() {
	plan := db.cfg.storage.Faults
	db.reg.CounterFunc("faults.injected", func() int64 {
		if plan == nil {
			return 0
		}
		return plan.Stats().Total()
	})
	db.reg.CounterFunc("faults.recoveries", func() int64 { return db.Failovers() + db.resyncs() })
	if db.group == nil {
		return
	}
	db.reg.GaugeFunc("replication.replicas", func() int64 { return int64(len(db.attached())) })
	db.reg.GaugeFunc("replication.applied_lsn_lag", func() int64 { return int64(db.lag()) })
	db.reg.CounterFunc("replication.resyncs", db.resyncs)
}

// StatsJSON renders the full metrics registry as stable, sorted JSON: Metrics
// and, on more than one shard, every leader's registry beside it, each name
// suffixed with its shard ("storage.read_ops{shard=2}").
func (db *DB) StatsJSON() ([]byte, error) { return db.snapshot().JSON() }

// StatsText renders what StatsJSON does as sorted, aligned text.
func (db *DB) StatsText() string { return db.snapshot().Text() }

func (db *DB) snapshot() metrics.Snapshot {
	snap := db.reg.Snapshot()
	if db.Shards() == 1 {
		return snap
	}
	for i := range db.Shards() {
		for name, v := range db.shardMetrics(i).Snapshot() {
			snap[fmt.Sprintf("%s{shard=%d}", name, i)] = v
		}
	}
	return snap
}
