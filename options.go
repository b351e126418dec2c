package bg3

import (
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/gc"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

// DeltaPolicy selects how the Bw-tree persists updates.
type DeltaPolicy int

// Delta policies.
const (
	// ReadOptimized keeps at most one merged delta per page, capping a
	// cold read at two storage accesses (BG3's default, §3.2.2).
	ReadOptimized DeltaPolicy = iota
	// Traditional chains one delta per update (the classic Bw-tree / SLED
	// behaviour), provided for comparison.
	Traditional
)

// GCPolicy selects the space-reclamation policy.
type GCPolicy int

// Space reclamation policies (§3.3).
const (
	// GCWorkloadAware prefers cold extents (low update gradient), breaks
	// ties by fragmentation, and skips extents TTL is about to free.
	GCWorkloadAware GCPolicy = iota
	// GCDirtyRatio always reclaims the most fragmented extent (ArkDB).
	GCDirtyRatio
	// GCFIFO reclaims the oldest extent (traditional Bw-tree systems).
	GCFIFO
)

// Options configures a DB. The zero value is a usable single-node,
// non-replicated database with BG3's defaults.
type Options struct {
	// DeltaPolicy selects the Bw-tree delta strategy. Default ReadOptimized.
	DeltaPolicy DeltaPolicy

	// ConsolidateNum is the delta count triggering page consolidation.
	// Default 10.
	ConsolidateNum int

	// MaxPageEntries is the leaf-page split threshold. Default 128.
	MaxPageEntries int

	// CacheCapacity bounds the number of leaf pages with resident content
	// (0 = unlimited).
	CacheCapacity int

	// CacheShards is the number of lock stripes in the page cache (rounded
	// up to a power of two). 0 derives the count from GOMAXPROCS.
	CacheShards int

	// ForestSplitThreshold moves a vertex to a dedicated Bw-tree once its
	// edge count exceeds it (§3.2.1). 0 keeps all vertices in the shared
	// INIT tree.
	ForestSplitThreshold int

	// ForestInitSizeThreshold caps the INIT tree's total key count,
	// evicting the largest vertex beyond it. 0 disables.
	ForestInitSizeThreshold int

	// EdgeBlockThreshold packs a dedicated tree's adjacency into a
	// contiguous CSR-style edge block once its live entry count exceeds
	// this value (§3.2.1 super-vertices). 0 uses the default (1024);
	// negative disables edge blocks entirely.
	EdgeBlockThreshold int

	// GC selects the reclamation policy. Default GCWorkloadAware.
	GC GCPolicy

	// GCInterval runs background reclamation at this period (0: manual
	// via RunGC only). GCBatch extents are reclaimed per cycle.
	GCInterval time.Duration
	GCBatch    int

	// TTL expires data wholesale after this lifetime (0: keep forever).
	TTL time.Duration

	// ExtentSize is the shared-store extent capacity in bytes.
	// Default 1 MiB.
	ExtentSize int

	// StorageReadLatency / StorageWriteLatency simulate cloud-storage
	// round trips (0: none).
	StorageReadLatency  time.Duration
	StorageWriteLatency time.Duration

	// Replicated enables the WAL pipeline so read-only replicas can be
	// attached with DB.OpenReplica. Writes are group-committed to the WAL
	// and pages are flushed in the background. Unset with Shards <= 1, the
	// DB is a bare engine that persists every write at once.
	Replicated bool

	// Shards partitions the vertex space by hash across this many shards,
	// each with its own shared-storage volume, WAL stream, group committer,
	// MVCC epoch clock, and leader. 0 or 1 means a single shard. More than
	// one implies Replicated: the WAL pipeline is what gives each shard its
	// epoch clock, and a batch over several shards its two-phase commit.
	Shards int

	// CommitWindow is the WAL group-commit accumulation window
	// (replicated mode; 0: commit as soon as the queue drains).
	CommitWindow time.Duration

	// CommitMaxBatch caps a WAL commit group and doubles as the size
	// trigger that cuts a flush before CommitWindow elapses (replicated
	// mode; 0: 64).
	CommitMaxBatch int

	// CommitPipelineDepth keeps up to this many WAL group appends in
	// flight concurrently (BtrLog-style commit pipelining). Storage
	// completions may land out of order, but commit acks always release in
	// LSN order (replicated mode; 0 or 1: serial appends, today's
	// behaviour).
	CommitPipelineDepth int

	// FlushInterval drives the background dirty-page flusher (replicated
	// mode; default 50ms). FlushThreshold additionally triggers a flush at
	// that many dirty pages. Every flush publishes a checkpoint that also
	// names a slice of the pages, and trims the WAL before the last rotation
	// of them: that bounds both the log a new replica reads and the space the
	// WAL occupies, with no snapshot to take.
	FlushInterval  time.Duration
	FlushThreshold int

	// ReplicaPollInterval is how often replicas tail the WAL.
	// Default 5ms.
	ReplicaPollInterval time.Duration

	// ReplicaCacheCapacity bounds each replica's page cache
	// (0 = unlimited).
	ReplicaCacheCapacity int
}

// layers is Options translated for the layers below the root API. Both
// shapes Open builds start from it — a bare engine from rw.Engine over
// storage, a leader set by handing storage and rw to the shard group — so
// each knob is mapped, and each default stated, exactly once.
type layers struct {
	storage storage.Options
	rw      replication.RWOptions

	// followerPoll and followerCache configure attached read-only nodes.
	followerPoll  time.Duration
	followerCache int
}

func (o Options) layers() layers {
	policy := bwtree.ReadOptimized
	if o.DeltaPolicy == Traditional {
		policy = bwtree.Traditional
	}
	blockMin := o.EdgeBlockThreshold
	if blockMin == 0 {
		blockMin = 1024
	}
	if blockMin < 0 {
		blockMin = 0 // disabled
	}
	var gcPolicy gc.Policy
	switch o.GC {
	case GCDirtyRatio:
		gcPolicy = gc.DirtyRatio{}
	case GCFIFO:
		gcPolicy = gc.FIFO{}
	default:
		gcPolicy = gc.WorkloadAware{TTL: o.TTL}
	}
	flush := o.FlushInterval
	if flush <= 0 {
		flush = 50 * time.Millisecond
	}
	poll := o.ReplicaPollInterval
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	return layers{
		storage: storage.Options{
			ExtentSize:   o.ExtentSize,
			ReadLatency:  o.StorageReadLatency,
			WriteLatency: o.StorageWriteLatency,
		},
		rw: replication.RWOptions{
			Engine: core.Options{
				Tree: bwtree.Config{
					Policy:              policy,
					ConsolidateNum:      o.ConsolidateNum,
					MaxPageEntries:      o.MaxPageEntries,
					CacheCapacity:       o.CacheCapacity,
					CacheShards:         o.CacheShards,
					EdgeBlockMinEntries: blockMin,
				},
				SplitThreshold:    o.ForestSplitThreshold,
				InitSizeThreshold: o.ForestInitSizeThreshold,
				GCPolicy:          gcPolicy,
				TTL:               o.TTL,
				GCInterval:        o.GCInterval,
				GCBatch:           o.GCBatch,
			},
			CommitWindow:   o.CommitWindow,
			MaxBatch:       o.CommitMaxBatch,
			PipelineDepth:  o.CommitPipelineDepth,
			FlushInterval:  flush,
			FlushThreshold: o.FlushThreshold,
		},
		followerPoll:  poll,
		followerCache: o.ReplicaCacheCapacity,
	}
}
