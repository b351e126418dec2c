// Package core assembles BG3's storage engine from its substrates: the
// Bw-tree forest over append-only shared storage, workload-aware space
// reclamation, and the WAL hooks the leader–follower synchronization of
// §3.4 attaches to. It exposes the property-graph API of graph.Store.
//
// Layout on the forest: every vertex is an owner; its adjacency lists and
// its own property record share the per-owner keyspace. Edge keys are
// etype[2] dst[8]; vertex records use the reserved edge-type 0xFFFF as
// their prefix (applications therefore cannot use edge type 65535).
package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/gc"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// vertexPrefix is the reserved edge-type prefix under which a vertex's own
// record is stored in its keyspace.
const vertexPrefix = graph.EdgeType(0xFFFF)

// vertexKeyLen is the length of a vertex record's key.
const vertexKeyLen = 4

// appendVertexKey appends the in-owner key of a vertex record to dst:
// vertexPrefix[2] type[2].
func appendVertexKey(dst []byte, typ graph.VertexType) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(vertexPrefix))
	return binary.BigEndian.AppendUint16(dst, uint16(typ))
}

// Options configures a BG3 engine.
type Options struct {
	// Storage configures the shared store created by New. Ignored by
	// NewWithStore.
	Storage *storage.Options

	// Tree configures every Bw-tree (delta policy, cache).
	Tree bwtree.Config

	// SplitThreshold and InitSizeThreshold configure the Bw-tree forest
	// (§3.2.1). Zero values disable forest splitting.
	SplitThreshold    int
	InitSizeThreshold int

	// GCPolicy selects the space-reclamation policy; nil defaults to the
	// workload-aware policy of §3.3 (with TTL wired in when TTL is set).
	GCPolicy gc.Policy

	// TTL expires data wholesale after this lifetime; zero keeps data
	// forever.
	TTL time.Duration

	// GCInterval and GCBatch run background reclamation when GCInterval is
	// non-zero.
	GCInterval time.Duration
	GCBatch    int

	// Logger receives WAL records (set by the replication RW node).
	Logger bwtree.WALLogger

	// Epochs is the MVCC epoch clock (set by the replication RW node whose
	// group committer advances it). It is threaded into every Bw-tree (as
	// the consolidation retention floor and snapshot-read horizon source).
	// Nil disables snapshot reads: views see the latest state, exactly as
	// before.
	Epochs *mvcc.Source

	// Metrics is the registry every subsystem registers into; nil creates
	// a fresh one. Replicated setups pass the node-wide registry in so the
	// WAL and replication gauges land next to the engine's.
	Metrics *metrics.Registry
}

// Engine is a BG3 storage engine instance (the RW-node role when a Logger
// is attached). It implements graph.Store; its reads are latest-state.
type Engine struct {
	graphReads // over the forest at horizon ∞

	store      *storage.Store
	ownedStore bool
	mapping    *bwtree.Mapping
	edges      *forest.Forest
	opts       Options
	reclaimers []*gc.Reclaimer
	reg        *metrics.Registry
}

var _ graph.Store = (*Engine)(nil)

// New creates an engine with its own shared store.
func New(opts Options) (*Engine, error) {
	st := storage.Open(opts.Storage)
	e, err := NewWithStore(st, opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	e.ownedStore = true
	return e, nil
}

// NewWithStore creates an engine on an existing shared store (used when
// RW and RO nodes share one store, and by multi-engine cluster setups).
func NewWithStore(st *storage.Store, opts Options) (*Engine, error) {
	opts.Tree.Epochs = opts.Epochs
	m := bwtree.NewMapping(opts.Tree.CacheCapacity, false)
	f, err := forest.New(m, st, opts.forestConfig(), opts.Logger)
	if err != nil {
		return nil, fmt.Errorf("core: create forest: %w", err)
	}
	return assemble(st, m, f, opts), nil
}

func (o Options) forestConfig() forest.Config {
	return forest.Config{Tree: o.Tree, SplitThreshold: o.SplitThreshold, InitSizeThreshold: o.InitSizeThreshold}
}

// assemble puts an engine together around a forest, new or taken over from
// a replica: the registry, and a reclaimer per data stream relocating through
// the mapping.
func assemble(st *storage.Store, m *bwtree.Mapping, f *forest.Forest, opts Options) *Engine {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &Engine{graphReads: graphReads{forest: f, horizon: latest}, store: st, mapping: m, edges: f, opts: opts, reg: reg}
	policy := opts.GCPolicy
	if policy == nil {
		policy = gc.WorkloadAware{TTL: opts.TTL}
	}
	for _, stream := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
		r := gc.NewReclaimer(st, stream, policy, m.Relocate)
		r.TTL = opts.TTL
		e.reclaimers = append(e.reclaimers, r)
		if opts.GCInterval > 0 {
			batch := opts.GCBatch
			if batch <= 0 {
				batch = 1
			}
			r.Start(opts.GCInterval, batch)
		}
	}
	e.registerMetrics(reg)
	return e
}

// registerMetrics wires every subsystem into the engine's registry.
func (e *Engine) registerMetrics(reg *metrics.Registry) {
	var floor func() wal.LSN // bwtree.retained_bytes's horizon, with an epoch clock
	if e.opts.Epochs != nil {
		e.opts.Epochs.RegisterMetrics(reg)
		floor = func() wal.LSN { return wal.LSN(e.opts.Epochs.Floor()) }
	}
	e.store.RegisterMetrics(reg)
	e.mapping.RegisterMetrics(reg, floor)
	e.edges.RegisterMetrics(reg)
	reg.CounterFunc("gc.runs", func() int64 { return e.GCStats().Runs })
}

// AttachLogger makes l the WAL logger of the forest and every tree in it.
func (e *Engine) AttachLogger(l bwtree.WALLogger) error {
	e.opts.Logger = l
	return e.edges.SetLogger(l)
}

// Metrics returns the engine's registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Close stops background work and, if the engine owns its store, closes it.
func (e *Engine) Close() {
	if e.opts.GCInterval > 0 {
		for _, r := range e.reclaimers {
			r.Stop()
		}
	}
	if e.ownedStore {
		e.store.Close()
	}
}

// AddVertex implements graph.Store.
func (e *Engine) AddVertex(v graph.Vertex) error { return e.write(graph.AddVertexMut(v)) }

// AddEdge implements graph.Store.
func (e *Engine) AddEdge(ed graph.Edge) error { return e.write(graph.AddEdgeMut(ed)) }

// DeleteEdge implements graph.Store. Deleting an absent edge is not an error;
// the reserved edge type 0xFFFF is (errReservedEdgeType), as it is on AddEdge
// and GetEdge, and nothing is applied or logged for it.
func (e *Engine) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	return e.write(graph.DeleteEdgeMut(src, typ, dst))
}

// write applies one mutation as the forest write it is.
func (e *Engine) write(m graph.Mutation) error {
	w, err := encode(m)
	if err != nil {
		return err
	}
	return e.apply([]forest.Write{w}, nil)
}

// apply applies ws to the forest. Without a logger the write persisted its
// pages itself, so it then compacts the extents it left nearly empty (Compact),
// holding no latch; a leader's flush cycle does that instead. A failed
// compaction leaves its extents to RunGC and does not fail the write.
func (e *Engine) apply(ws []forest.Write, waits *wal.Waits) error {
	err := e.edges.Apply(ws, waits)
	if e.opts.Logger == nil {
		_, _ = e.Compact()
	}
	return err
}

// Encode checks a batch and encodes it as the forest writes it is, in input
// order. It is the one mutation → write step: what a leader stores and logs,
// and what a cross-shard transaction's part carries, is its output. An
// unknown kind, the reserved edge type or a property list its encoding cannot
// hold (graph.CheckProps) fails the whole batch, before any of it is applied
// or logged. The key and value buffers are built here once and
// handed down: forest and tree own them from then on, nothing below copies
// them.
func Encode(muts []graph.Mutation) ([]forest.Write, error) {
	ws := make([]forest.Write, len(muts))
	for i, m := range muts {
		w, err := encode(m)
		if err != nil {
			return nil, fmt.Errorf("core: batch mutation %d: %w", i, err)
		}
		ws[i] = w
	}
	return ws, nil
}

func encode(m graph.Mutation) (forest.Write, error) {
	switch m.Kind {
	case graph.MutAddVertex:
		if err := graph.CheckProps(m.Vertex.Props); err != nil {
			return forest.Write{}, err
		}
		return forest.Write{Owner: forest.OwnerID(m.Vertex.ID), Key: appendVertexKey(make([]byte, 0, vertexKeyLen), m.Vertex.Type), Value: graph.EncodeProps(m.Vertex.Props)}, nil
	case graph.MutAddEdge, graph.MutDeleteEdge:
		if m.Edge.Type == vertexPrefix {
			return forest.Write{}, errReservedEdgeType
		}
		w := forest.Write{Owner: forest.OwnerID(m.Edge.Src), Key: graph.EdgeKey(m.Edge.Type, m.Edge.Dst), Delete: m.Kind == graph.MutDeleteEdge}
		if !w.Delete {
			if err := graph.CheckProps(m.Edge.Props); err != nil {
				return forest.Write{}, err
			}
			w.Value = graph.EncodeProps(m.Edge.Props)
		}
		return w, nil
	}
	return forest.Write{}, fmt.Errorf("core: unknown mutation kind %d", m.Kind)
}

// ApplyBatch implements graph.BatchStore, whose contract states the order
// and failure semantics: the batch is encoded (Encode), then applied
// (ApplyWrites).
func (e *Engine) ApplyBatch(muts []graph.Mutation) error {
	ws, err := Encode(muts)
	if err == nil {
		_, err = e.ApplyWrites(nil, ws, nil)
	}
	return err
}

// ApplyWrites applies ws as one wave on the log, between two records of the
// caller's own: head is enqueued before the writes' records and tail after
// them, once every write applied, and the one drain at the end covers all of
// them — a cross-shard transaction's decision, its part and its applied marker
// cost one commit round trip, not three. Either record may be nil. headErr is
// head's own outcome, drained first: when it failed nothing of the wave is
// durable (a group is durable whole or not at all, and a failed group fails
// every record after it), and a head the log refused leaves ws unapplied. err
// is the wave's first failure, head's included.
//
// ws is stable-sorted by (owner, key) in place, so the forest hands each
// owner's writes to its tree together and the tree applies every leaf run —
// the writes of one owner that land in one leaf — under one latch, with one
// materialization and one persist (bwtree.Tree.Apply): a bulk load pays per
// leaf each owner touches, not per write. An INIT leaf shared by several
// owners of the wave is persisted once per owner (forest.Forest.Apply). Records are logged with deferred durability:
// all are enqueued on the group committer before the first wait begins, so the
// wave coalesces into shared commit groups, and no enqueued record is
// abandoned when the apply fails midway.
func (e *Engine) ApplyWrites(head *wal.Record, ws []forest.Write, tail *wal.Record) (headErr, err error) {
	slices.SortStableFunc(ws, func(a, b forest.Write) int {
		if c := cmp.Compare(a.Owner, b.Owner); c != 0 {
			return c
		}
		return bytes.Compare(a.Key, b.Key)
	})
	var headWait func() error
	if head != nil {
		if headWait, err = e.enqueue(head); err != nil {
			return err, err
		}
	}
	var waits wal.Waits
	err = e.apply(ws, &waits)
	if err == nil && tail != nil {
		var wait func() error
		if wait, err = e.enqueue(tail); err == nil {
			waits.Add(wait)
		}
	}
	if headWait != nil {
		if headErr = headWait(); err == nil {
			err = headErr
		}
	}
	if werr := waits.Drain(); err == nil {
		err = werr
	}
	return headErr, err
}

// enqueue logs rec and returns its durability wait.
func (e *Engine) enqueue(rec *wal.Record) (func() error, error) {
	if e.opts.Logger == nil {
		return nil, fmt.Errorf("core: %v record without a logger", rec.Type)
	}
	lsn, wait := e.opts.Logger.LogAsync(rec)
	if lsn == 0 {
		return nil, wait() // refused: nothing was enqueued
	}
	return wait, nil
}

// RunGC triggers one synchronous reclamation cycle over both data streams
// and returns the bytes moved.
func (e *Engine) RunGC(batch int) (int64, error) {
	var total int64
	for _, r := range e.reclaimers {
		n, err := r.RunOnce(batch)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Compact relocates the extents that writes left sealed and nearly empty
// (storage.Store.Compact) through both data streams' reclaimers and returns
// the bytes moved, or an error wrapping storage.ErrFenced after FenceGC.
func (e *Engine) Compact() (int64, error) {
	var total int64
	for _, r := range e.reclaimers {
		n, err := r.Compact()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// GCStats aggregates the reclaimers' accounting.
func (e *Engine) GCStats() gc.ReclaimerStats {
	var out gc.ReclaimerStats
	for _, r := range e.reclaimers {
		s := r.Stats()
		out.BytesMoved += s.BytesMoved
		out.Runs += s.Runs
		out.ExtentsExpired += s.ExtentsExpired
	}
	return out
}

// FenceGC stops background reclamation, waits out a cycle in flight and fails
// every later RunGC and Compact with an error wrapping storage.ErrFenced. A
// failover fences the leader it deposes before the successor takes over the
// store.
func (e *Engine) FenceGC() {
	for _, r := range e.reclaimers {
		if e.opts.GCInterval > 0 {
			r.Stop()
		}
		r.Fence()
	}
}

// FlushDirty flushes async-mode dirty pages across the forest, appending
// the mapping updates for the checkpoint record to dst.
func (e *Engine) FlushDirty(dst []bwtree.MappingUpdate) ([]bwtree.MappingUpdate, error) {
	return e.edges.FlushDirty(dst)
}

// DirtyCount reports pages awaiting a flush (async mode).
func (e *Engine) DirtyCount() int { return e.edges.DirtyCount() }

// Store exposes the shared store (benchmarks, replication plumbing).
func (e *Engine) Store() *storage.Store { return e.store }

// Mapping exposes the shared mapping table (GC relocation, experiments).
func (e *Engine) Mapping() *bwtree.Mapping { return e.mapping }

// Epochs exposes the MVCC epoch clock, or nil when the engine runs without
// snapshot reads.
func (e *Engine) Epochs() *mvcc.Source { return e.opts.Epochs }

// RetainedBytes reports the delta-chain bytes currently retained above the
// MVCC floor for pinned snapshots (0 without an epoch clock).
func (e *Engine) RetainedBytes() int64 {
	if e.opts.Epochs == nil {
		return 0
	}
	return e.mapping.RetainedBytes(wal.LSN(e.opts.Epochs.Floor()))
}

// Forest exposes the Bw-tree forest (experiments).
func (e *Engine) Forest() *forest.Forest { return e.edges }
