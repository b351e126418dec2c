package bg3

import (
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

// Options configures a DB. The zero value is a usable single-node,
// non-replicated database with BG3's defaults.
type Options struct {
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

	// EdgeBlockThreshold: the first scan of a dedicated tree holding this
	// many live edges (§3.2.1 super-vertices; overwrites do not count) packs
	// its adjacency into a CSR-style edge block — one resident image per
	// leaf, which serves scans while its leaf is unwritten. Writes build
	// none. 0 uses the default (1024); negative disables edge blocks.
	EdgeBlockThreshold int

	// GCInterval runs background reclamation at this period (0: manual
	// via RunGC only). GCBatch extents are reclaimed per cycle.
	GCInterval time.Duration
	GCBatch    int

	// TTL expires data wholesale after this lifetime (0: keep forever).
	TTL time.Duration

	// ExtentSize is the shared-store extent capacity in bytes.
	// Default 1 MiB.
	ExtentSize int

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

	// CommitPipelineDepth is ignored: a group committer keeps one WAL group
	// append in the air.
	//
	// Deprecated: ignored.
	CommitPipelineDepth int

	// FlushInterval drives the background dirty-page flusher (replicated
	// mode; default 50ms). Every flush publishes a checkpoint that also
	// names a slice of the pages, and trims the WAL before the last rotation
	// of them: that bounds both the log a new replica reads and the space the
	// WAL occupies, with no snapshot to take.
	FlushInterval time.Duration

	// ReplicaPollInterval is how often replicas tail the WAL.
	// Default 5ms.
	ReplicaPollInterval time.Duration
}

// layers is Options translated for the layers below the root API. Both
// shapes Open builds start from it — a bare engine from rw.Engine over
// storage, a leader set by handing storage and rw to the shard group — so
// each knob is mapped, and each default stated, exactly once. A setting no
// deployment makes has no Options field: the tests that need one set it here
// and open through open — storage.Faults and storage.WriteLatency,
// rw.CommitWindow, rw.MaxBatch, rw.Engine.InitSizeThreshold and
// followerCache.
type layers struct {
	storage storage.Options
	rw      replication.RWOptions

	// followerPoll and followerCache configure attached read-only nodes
	// (followerCache 0: an unbounded page cache).
	followerPoll  time.Duration
	followerCache int
}

func (o Options) layers() layers {
	blockMin := o.EdgeBlockThreshold
	if blockMin == 0 {
		blockMin = 1024
	}
	if blockMin < 0 {
		blockMin = 0 // disabled
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
		storage: storage.Options{ExtentSize: o.ExtentSize},
		rw: replication.RWOptions{
			Engine: core.Options{
				Tree: bwtree.Config{
					ConsolidateNum:      o.ConsolidateNum,
					MaxPageEntries:      o.MaxPageEntries,
					CacheCapacity:       o.CacheCapacity,
					CacheShards:         o.CacheShards,
					EdgeBlockMinEntries: blockMin,
				},
				SplitThreshold: o.ForestSplitThreshold,
				TTL:            o.TTL,
				GCInterval:     o.GCInterval,
				GCBatch:        o.GCBatch,
			},
			FlushInterval: flush,
		},
		followerPoll: poll,
	}
}
