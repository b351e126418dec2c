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

// vertexKey builds the in-owner key of a vertex record.
func vertexKey(typ graph.VertexType) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint16(buf, uint16(vertexPrefix))
	binary.BigEndian.PutUint16(buf[2:], uint16(typ))
	return buf
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
	m := bwtree.NewMappingShards(opts.Tree.CacheCapacity, opts.Tree.NoCache, opts.Tree.CacheShards)
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
	e.store.RegisterMetrics(reg)
	e.mapping.RegisterMetrics(reg)
	e.edges.RegisterMetrics(reg)
	reg.CounterFunc("gc.bytes_moved", func() int64 { return e.GCStats().BytesMoved })
	reg.CounterFunc("gc.runs", func() int64 { return e.GCStats().Runs })
	reg.CounterFunc("gc.extents_expired", func() int64 { return e.GCStats().ExtentsExpired })
	reg.RatioFunc("gc.write_amp", func() float64 { return e.store.Stats().GCWriteAmp() })
	if e.opts.Epochs != nil {
		e.opts.Epochs.RegisterMetrics(reg)
		reg.GaugeFunc("bwtree.retained_bytes", func() int64 {
			return e.mapping.RetainedBytes(wal.LSN(e.opts.Epochs.Floor()))
		})
	}
	metrics.Faults.Register(reg)
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
func (e *Engine) AddVertex(v graph.Vertex) error {
	return e.edges.Apply([]forest.Write{vertexWrite(v)}, nil)
}

// AddEdge implements graph.Store.
func (e *Engine) AddEdge(ed graph.Edge) error {
	if ed.Type == vertexPrefix {
		return errReservedEdgeType
	}
	return e.edges.Apply([]forest.Write{edgeWrite(ed, false)}, nil)
}

// DeleteEdge implements graph.Store.
func (e *Engine) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	return e.edges.Apply([]forest.Write{edgeWrite(graph.Edge{Src: src, Type: typ, Dst: dst}, true)}, nil)
}

// vertexWrite and edgeWrite encode a mutation as the forest write it is. The
// key and value buffers are built here once and handed down: forest and tree
// own them from then on, nothing below copies them.
func vertexWrite(v graph.Vertex) forest.Write {
	return forest.Write{Owner: forest.OwnerID(v.ID), Key: vertexKey(v.Type), Value: graph.EncodeProps(v.Props)}
}

func edgeWrite(ed graph.Edge, del bool) forest.Write {
	w := forest.Write{Owner: forest.OwnerID(ed.Src), Key: graph.EdgeKey(ed.Type, ed.Dst), Delete: del}
	if !del {
		w.Value = graph.EncodeProps(ed.Props)
	}
	return w
}

// ApplyBatch implements graph.BatchStore, whose contract states the order
// and failure semantics; this is where the order is made. The batch is
// checked whole — an unknown kind or the reserved edge type fails it before
// anything is applied — and stable-sorted by (owner, key), so the forest
// hands each owner's writes to its tree together and the tree applies every
// leaf run — the writes that land in one leaf — under one latch, with one
// materialization and one persist (bwtree.Tree.Apply): a bulk load pays per
// leaf touched, not per mutation.
//
// Records are logged with deferred WAL durability and every wait is drained
// at the end: all records are enqueued on the group committer before the
// first wait begins, so the batch coalesces into shared commit groups — one
// storage round trip covers many mutations instead of one each — and no
// enqueued record is abandoned when the apply fails midway.
func (e *Engine) ApplyBatch(muts []graph.Mutation) error {
	_, err := e.ApplyBatchBetween(nil, muts, nil)
	return err
}

// ApplyBatchBetween is ApplyBatch between two records of the caller's own, as
// one wave on the log: head is enqueued before the batch's records and tail
// after them, once the whole batch applied, and the one drain at the end
// covers all of them — a cross-shard transaction's decision, a participant's
// part and its applied marker cost one commit round trip, not three. Either
// record may be nil. headErr is head's own outcome, drained first: when it
// failed nothing of the wave is durable (a group is durable whole or not at
// all, and a failed group fails every record after it), and a head the log
// refused leaves the batch unapplied. err is the wave's first failure, head's
// included.
func (e *Engine) ApplyBatchBetween(head *wal.Record, muts []graph.Mutation, tail *wal.Record) (headErr, err error) {
	ws := make([]forest.Write, len(muts))
	for i, m := range muts {
		switch m.Kind {
		case graph.MutAddVertex:
			ws[i] = vertexWrite(m.Vertex)
		case graph.MutAddEdge:
			if m.Edge.Type == vertexPrefix {
				return nil, errReservedEdgeType
			}
			ws[i] = edgeWrite(m.Edge, false)
		case graph.MutDeleteEdge:
			ws[i] = edgeWrite(m.Edge, true)
		default:
			return nil, fmt.Errorf("core: batch mutation %d: unknown kind %d", i, m.Kind)
		}
	}
	slices.SortStableFunc(ws, func(a, b forest.Write) int {
		if c := cmp.Compare(a.Owner, b.Owner); c != 0 {
			return c
		}
		return bytes.Compare(a.Key, b.Key)
	})
	var waits []func() error
	if head != nil {
		if err := e.enqueue(head, &waits); err != nil {
			return err, err
		}
	}
	err = e.edges.Apply(ws, &waits)
	if err == nil && tail != nil {
		err = e.enqueue(tail, &waits)
	}
	for i, wait := range waits {
		werr := wait()
		if i == 0 && head != nil {
			headErr = werr
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	return headErr, err
}

// enqueue logs rec with its durability wait deferred into waits.
func (e *Engine) enqueue(rec *wal.Record, waits *[]func() error) error {
	if e.opts.Logger == nil {
		return fmt.Errorf("core: %v record without a logger", rec.Type)
	}
	lsn, wait := e.opts.Logger.LogAsync(rec)
	if lsn == 0 {
		return wait() // refused: nothing was enqueued
	}
	*waits = append(*waits, wait)
	return nil
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

// FenceGC stops background reclamation, waits out a cycle in flight and
// fails every later RunGC with an error wrapping storage.ErrFenced. A failover
// fences the leader it deposes before the successor takes over the store.
func (e *Engine) FenceGC() {
	for _, r := range e.reclaimers {
		if e.opts.GCInterval > 0 {
			r.Stop()
		}
		r.Fence()
	}
}

// FlushDirty flushes async-mode dirty pages across the forest, returning
// the mapping updates for the checkpoint record.
func (e *Engine) FlushDirty() ([]bwtree.MappingUpdate, error) { return e.edges.FlushDirty() }

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
