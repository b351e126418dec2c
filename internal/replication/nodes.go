// Package replication implements BG3's I/O-efficient leader–follower
// synchronization (§3.4) and the legacy command-forwarding mechanism of
// the previous-generation ByteGraph, which it is compared against in the
// Fig. 12–14 experiments.
//
// The BG3 path: the RW node writes every modification to a WAL on shared
// storage through a group committer (one storage round trip covers a
// whole batch of records); RO nodes tail the WAL and lazily replay it,
// one commit group at a time. Dirty pages are flushed by a background
// thread and announced through checkpoint records carrying mapping-table
// updates, after which RO nodes discard the replayed WAL prefix. Because
// the WAL lives on strongly consistent shared storage, an RO node never
// misses a write — unlike the legacy path, which forwards commands over a
// lossy network.
package replication

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// RWOptions configures a read-write node.
type RWOptions struct {
	// Engine options; FlushMode is forced to FlushAsync and the Logger is
	// installed by NewRWNode.
	Engine core.Options

	// CommitWindow is the group-commit accumulation window (0: immediate).
	CommitWindow time.Duration

	// MaxBatch caps a commit batch and doubles as the size trigger that
	// cuts a flush before the window elapses (0: 64).
	MaxBatch int

	// PipelineDepth is how many sealed WAL group appends the committer
	// keeps in flight concurrently; acks still release strictly in LSN
	// order (0 or 1: serial, one append at a time).
	PipelineDepth int

	// FlushInterval drives the background dirty-page flusher; 0 disables
	// the background thread (call Checkpoint manually).
	FlushInterval time.Duration

	// FlushThreshold additionally triggers a flush when this many dirty
	// pages accumulate (0: interval only) — the paper's "once the
	// accumulated dirty pages reach a specific threshold".
	FlushThreshold int
}

// engineOptions is the engine configuration every leader runs with: async
// flush (the node's flusher persists pages and publishes checkpoints), the
// node's epoch clock, and the committer as the WAL hook.
func (o RWOptions) engineOptions(src *mvcc.Source, logger bwtree.WALLogger) core.Options {
	eo := o.Engine
	eo.Tree.FlushMode = bwtree.FlushAsync
	eo.Epochs = src
	eo.Logger = logger
	return eo
}

// RWNode is BG3's read-write node: a core.Engine in async-flush mode whose
// every modification is group-committed to the WAL, plus the background
// flusher that persists dirty pages and publishes checkpoints. Writes go
// through the node (not the engine directly) so checkpoint LSNs are
// computed against a quiesced write pipeline; reads are the engine's own
// (the RW node serves them from its memory).
type RWNode struct {
	graph.Reader // the engine's latest-state reads

	engine *core.Engine
	store  *storage.Store
	writer *wal.Writer
	logger *wal.GroupCommitter
	opts   RWOptions

	// flushMu serializes flush cycles (flushCycle): the background
	// flusher, manual Checkpoints and WriteSnapshot each run horizon →
	// flush → publish as one unit. Lock order: flushMu, then applyBarrier.
	flushMu  sync.Mutex
	ckptTail wal.LSN // LSN of the last checkpoint record logged; under flushMu

	// applyBarrier serializes checkpoint horizon computation against
	// in-flight writes: writers hold it shared across (WAL log + memory
	// apply), the flusher takes it exclusively for an instant to establish
	// "every committed LSN is applied and dirty-marked".
	applyBarrier sync.RWMutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu          sync.Mutex
	checkpoints int64
	lastCkpt    wal.LSN

	snap snapshotState
}

// NewRWNode creates the RW node on a shared store.
func NewRWNode(st *storage.Store, opts RWOptions) (*RWNode, error) {
	src := mvcc.NewSource(0)
	return assembleRWNode(st, opts, wal.NewWriter(st), src, func(logger *wal.GroupCommitter) (*core.Engine, error) {
		return core.NewWithStore(st, opts.engineOptions(src, logger))
	})
}

// assembleRWNode is the one place a leader is put together, fresh or from
// a follower: the group committer over writer whose ack releases advance
// src, the engine engineFor yields once that committer exists (a new one,
// or a follower's replica taking over, RONode.lead), metric registration,
// and the background flusher.
func assembleRWNode(st *storage.Store, opts RWOptions, writer *wal.Writer, src *mvcc.Source,
	engineFor func(*wal.GroupCommitter) (*core.Engine, error)) (*RWNode, error) {
	// The epoch clock advances at each group's ack release, so a writer
	// that saw its commit return can immediately pin an epoch covering its
	// own write.
	logger := wal.NewGroupCommitter(writer, wal.GroupCommitterOptions{
		MaxDelay:      opts.CommitWindow,
		MaxBatch:      opts.MaxBatch,
		PipelineDepth: opts.PipelineDepth,
		OnRelease:     func(last wal.LSN) { src.Advance(mvcc.Epoch(last)) },
	})
	// Everything below the writer's first LSN is released by definition
	// (nothing on a fresh store, the drained durable horizon after a
	// hand-over): seed the clock there so the first pin sees it all.
	src.Advance(mvcc.Epoch(logger.LastLSN()))
	engine, err := engineFor(logger)
	if err != nil {
		logger.Stop()
		return nil, err
	}
	n := &RWNode{
		Reader: engine,
		engine: engine,
		store:  st,
		writer: writer,
		logger: logger,
		opts:   opts,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	n.registerMetrics(engine.Metrics())
	if opts.FlushInterval > 0 {
		go n.flushLoop()
	} else {
		close(n.done)
	}
	return n, nil
}

// registerMetrics wires the WAL pipeline into the node's registry: append
// and commit latency, checkpoint cadence.
func (n *RWNode) registerMetrics(r *metrics.Registry) {
	n.writer.RegisterMetrics(r)
	n.logger.RegisterMetrics(r)
	r.CounterFunc("wal.checkpoints", n.Checkpoints)
	r.GaugeFunc("wal.last_checkpoint_lsn", func() int64 { return int64(n.lastCheckpoint()) })
	r.GaugeFunc("replication.epoch", func() int64 { return int64(n.writer.Epoch()) })
}

// NeighborsMany implements graph.FrontierReader with the engine's batched
// frontier read, beside the embedded latest-state reads.
func (n *RWNode) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	return n.engine.NeighborsMany(srcs, typ, limit, fn)
}

// Engine exposes the underlying engine (stats, GC).
func (n *RWNode) Engine() *core.Engine { return n.engine }

// Writer exposes the WAL writer (experiments).
func (n *RWNode) Writer() *wal.Writer { return n.writer }

// Logger exposes the group-commit logger (stats, experiments).
func (n *RWNode) Logger() *wal.GroupCommitter { return n.logger }

// LastLSN returns the most recently assigned WAL LSN — the horizon an RO
// node must reach to observe every write acknowledged so far.
func (n *RWNode) LastLSN() wal.LSN { return n.logger.LastLSN() }

// Epoch returns the WAL fence epoch this leader appends under (0 on a
// store that never failed over).
func (n *RWNode) Epoch() uint64 { return n.writer.Epoch() }

// Stop halts the flusher and the commit pipeline.
func (n *RWNode) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
	n.logger.Stop()
	n.engine.Close()
}

func (n *RWNode) flushLoop() {
	defer close(n.done)
	// Tick at a fraction of the flush interval so the dirty-page
	// threshold is noticed promptly between interval flushes.
	tick := n.opts.FlushInterval / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			due := time.Since(last) >= n.opts.FlushInterval ||
				(n.opts.FlushThreshold > 0 && n.engine.DirtyCount() >= n.opts.FlushThreshold)
			if due {
				// Errors mean the store is closing; the loop keeps
				// ticking until stopped.
				_ = n.Checkpoint()
				last = time.Now()
			}
		}
	}
}

// Checkpoint flushes all dirty pages and appends a checkpoint record
// declaring the flushed horizon (§3.4 steps 7–8). Safe to call manually
// when no background flusher runs.
func (n *RWNode) Checkpoint() error {
	_, _, err := n.flushCycle(nil)
	return err
}

// flushCycle is the one horizon → flush → publish sequence: it samples the
// checkpoint horizon against a quiesced write pipeline, flushes every
// dirty page, and publishes a checkpoint record carrying the new page
// locations. Cycles never overlap (flushMu): Tree.FlushDirty takes pages
// out of the dirty set before it writes them, so a second cycle starting
// meanwhile would sample a later horizon, find those pages clean, and
// publish that horizon without their new locations — a follower applying
// it drops its buffered records up to the horizon and materializes the
// pages from the stale locations, losing acked writes.
//
// A nil capture is a checkpoint: writers resume as soon as the horizon is
// sampled and the flush runs beside them. A non-nil capture is a snapshot:
// writers stay quiesced across the flush, so the durable state equals
// memory at exactly the horizon when capture runs (still under the
// barrier). cursor is the WAL tail position sampled with the horizon.
func (n *RWNode) flushCycle(capture func()) (horizon wal.LSN, cursor storage.Cursor, err error) {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()

	// Quiesce in-flight writes so "assigned LSN" implies "applied and
	// dirty-marked" (writers hold the barrier shared across LSN
	// assignment + memory apply + dirty-marking).
	n.applyBarrier.Lock()
	// The cursor is sampled before the horizon: records that bypass the
	// barrier (2PC control records) keep being assigned LSNs and landing
	// while it is held, and recovery resumes at the cursor expecting
	// horizon+1 — a record above the horizon that landed before the cursor
	// would read as a hole and strand every acked group after it.
	cursor = n.store.TailCursor(storage.StreamWAL)
	horizon = n.logger.LastLSN()
	if capture == nil {
		n.applyBarrier.Unlock()
	}
	updates, err := n.engine.FlushDirty()
	if capture != nil {
		if err == nil {
			capture()
		}
		n.applyBarrier.Unlock()
	}
	if err != nil {
		return 0, cursor, err
	}
	// Pages GC relocated since the last checkpoint must also reach the
	// replicas, or their old locations would dangle once the condemned
	// extents are released.
	updates = append(updates, n.engine.Mapping().TakeRelocated()...)
	// Nothing is new when no page moved and the last record logged is the
	// last checkpoint itself. (Its declared horizon is no test for that: the
	// checkpoint record advanced the log past it, and an idle leader would
	// checkpoint its own checkpoints forever.)
	if capture == nil && len(updates) == 0 && horizon == n.ckptTail {
		return horizon, cursor, nil
	}
	if n.ckptTail, err = n.appendCheckpoint(horizon, updates); err != nil {
		return 0, cursor, err
	}
	n.mu.Lock()
	n.checkpoints++
	n.lastCkpt = horizon
	n.mu.Unlock()
	return horizon, cursor, nil
}

// appendCheckpoint publishes a checkpoint, chunking the mapping updates so
// each WAL record fits an extent. Every record but the last carries in TreeID
// how many are still to come, so a follower applies them as one checkpoint,
// with the last (bwtree applyCheckpoint); a checkpoint of one record reads as
// it always did. It returns the LSN of the last record it logged.
func (n *RWNode) appendCheckpoint(ckptLSN wal.LSN, updates []bwtree.MappingUpdate) (wal.LSN, error) {
	// Rough per-update encoded size: ids(16) + base loc(17) + delta count
	// and a handful of delta locs. Cap chunks well under the extent size.
	maxPer := (n.store.ExtentSize() - 512) / 64
	if maxPer < 8 {
		maxPer = 8
	}
	for start, left := 0, max(0, len(updates)-1)/maxPer; ; start, left = start+maxPer, left-1 {
		lsn, err := n.logger.Log(&wal.Record{
			Type:    wal.RecordCheckpoint,
			TreeID:  uint64(left),
			CkptLSN: ckptLSN,
			Value:   bwtree.EncodeMappingUpdates(updates[start:min(start+maxPer, len(updates))]),
		})
		if err != nil || left == 0 {
			return lsn, err
		}
	}
}

func (n *RWNode) lastCheckpoint() wal.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastCkpt
}

// Checkpoints returns the number of checkpoints published.
func (n *RWNode) Checkpoints() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.checkpoints
}

// Write-path wrappers: graph.Store's mutating half, wrapped in the apply
// barrier.

// AddVertex writes a vertex through the replicated pipeline.
func (n *RWNode) AddVertex(v graph.Vertex) error {
	n.applyBarrier.RLock()
	defer n.applyBarrier.RUnlock()
	return n.engine.AddVertex(v)
}

// AddEdge writes an edge through the replicated pipeline.
func (n *RWNode) AddEdge(e graph.Edge) error {
	n.applyBarrier.RLock()
	defer n.applyBarrier.RUnlock()
	return n.engine.AddEdge(e)
}

// DeleteEdge deletes an edge through the replicated pipeline.
func (n *RWNode) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	n.applyBarrier.RLock()
	defer n.applyBarrier.RUnlock()
	return n.engine.DeleteEdge(src, typ, dst)
}

// ApplyBatch applies a group of mutations through the replicated pipeline,
// committed as shared WAL groups (see core.Engine.ApplyBatch). The whole
// batch holds the apply barrier once, so a checkpoint horizon never cuts a
// batch in half between LSN assignment and memory apply.
func (n *RWNode) ApplyBatch(muts []graph.Mutation) error {
	n.applyBarrier.RLock()
	defer n.applyBarrier.RUnlock()
	return n.engine.ApplyBatch(muts)
}

var _ graph.Store = (*RWNode)(nil)

// RONode is a read-only node: a core.Replica fed by a WAL tailing loop.
// When tailing hits a hole — an LSN gap after a WAL trim outran this
// follower, or a lost WAL extent — the node resynchronizes by
// re-bootstrapping from the latest snapshot instead of serving a view with
// missing writes. It is also what every leader but a store's first starts
// out as (lead).
type RONode struct {
	store    *storage.Store
	cacheCap int

	// reg is the node's registry for its whole life: the replica's page-table
	// accounting (the leader's bwtree.* read metrics, measured here) plus the
	// replication.* gauges below. A resync re-registers the fresh replica.
	reg *metrics.Registry

	// reader is touched only under pollMu, and nil once the node was handed
	// the leader's role. snap is the snapshot the node last bootstrapped
	// from (zero: none, it replays the log from its start).
	reader *wal.Reader
	snap   snapshotMeta

	// pollMu serializes WAL polls: the background loop and manual Poll
	// calls share one reader cursor and must apply records in LSN order.
	pollMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// mu guards the fields below; replica is swapped wholesale by a resync.
	mu      sync.Mutex
	replica *core.Replica
	lastErr error
	resyncs int64
}

// NewRONode attaches a replica to the shared store, replaying the WAL from
// its beginning and polling it every interval. cacheCapacity bounds the
// replica's page cache (0 = unlimited).
func NewRONode(st *storage.Store, interval time.Duration, cacheCapacity int) *RONode {
	n := newRONode(st, cacheCapacity)
	n.install(core.NewReplica(st, cacheCapacity), wal.NewReader(st), snapshotMeta{})
	go n.pollLoop(interval)
	return n
}

func newRONode(st *storage.Store, cacheCapacity int) *RONode {
	n := &RONode{
		store:    st,
		cacheCap: cacheCapacity,
		reg:      metrics.NewRegistry(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.reg.GaugeFunc("replication.applied_lsn", func() int64 { return int64(n.AppliedLSN()) })
	n.reg.GaugeFunc("replication.buffered_records", func() int64 { return int64(n.Replica().BufferedRecords()) })
	return n
}

// install makes replica, bootstrapped from snap and fed by reader, the node's
// state. The reader is told where the replica stands: it drops what the
// snapshot covers (a group can straddle its horizon), and a log whose next
// record is gone — trimmed before this node got to it — is a hole to resync
// over, never a later start to adopt. Caller holds pollMu, or is still
// constructing the node.
func (n *RONode) install(replica *core.Replica, reader *wal.Reader, snap snapshotMeta) {
	replica.RegisterMetrics(n.reg)
	reader.SetBase(snap.horizon)
	n.reader, n.snap = reader, snap
	n.mu.Lock()
	n.replica = replica
	n.mu.Unlock()
}

// bootstrap installs the latest snapshot on the store, if there is one: a
// fresh replica holding its state, a fresh reader at its WAL cursor.
func (n *RONode) bootstrap() (found bool, err error) {
	state, meta, found, err := LoadLatestSnapshot(n.store)
	if err != nil || !found {
		return false, err
	}
	replica, err := core.NewReplicaFromSnapshot(n.store, n.cacheCap, state, meta.horizon)
	if err != nil {
		return false, err
	}
	n.install(replica, wal.NewReaderAt(n.store, meta.walCursor), meta)
	return true, nil
}

// Metrics returns the node's registry.
func (n *RONode) Metrics() *metrics.Registry { return n.reg }

func (n *RONode) pollLoop(interval time.Duration) {
	defer close(n.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			if err := n.Poll(); err != nil {
				n.mu.Lock()
				n.lastErr = err
				n.mu.Unlock()
			}
		}
	}
}

// Poll synchronously drains the WAL into the replica, one commit group at
// a time: each group is applied as a unit before the replica's high LSN
// advances past it, so a reader gated on WaitVisible never observes part
// of a leader batch. Torn entries and retry duplicates are absorbed by the
// reader; on a log hole (LSN gap, trimmed or lost WAL extent) the node
// applies what it read, resyncs from the latest snapshot and drains the log
// past it, so one Poll catches up either way. A hole past the snapshot too is
// returned.
func (n *RONode) Poll() error {
	n.pollMu.Lock()
	defer n.pollMu.Unlock()
	if n.reader == nil {
		return errPromoted
	}
	_, err := n.Replica().ApplyFrom(n.reader)
	var gap *wal.GapError
	if errors.As(err, &gap) || errors.Is(err, storage.ErrExtentLost) {
		if rerr := n.resyncLocked(); rerr != nil {
			return fmt.Errorf("replication: follower hit %v and resync failed: %w", err, rerr)
		}
		_, err = n.Replica().ApplyFrom(n.reader)
	}
	return err
}

var errPromoted = errors.New("replication: follower was handed the leader's role")

// resyncLocked re-bootstraps the follower from the latest snapshot, dropping
// what it holds. A failover does not call for it: page and tree IDs survive a
// promotion, and a follower goes on tailing the new leader's records. Caller
// holds pollMu.
func (n *RONode) resyncLocked() error {
	found, err := n.bootstrap()
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("replication: resync: no snapshot on store")
	}
	n.mu.Lock()
	n.resyncs++
	n.mu.Unlock()
	metrics.Faults.Recoveries.Inc()
	return nil
}

// AppliedLSN returns the highest WAL LSN the follower has applied — the
// leader's LastLSN minus this is the replication lag (Fig. 13).
func (n *RONode) AppliedLSN() wal.LSN { return n.Replica().HighLSN() }

// Resyncs returns how many times the follower re-bootstrapped from a
// snapshot after hitting a log hole.
func (n *RONode) Resyncs() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.resyncs
}

// Err returns the last background polling error, if any.
func (n *RONode) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

// Stop halts the polling loop.
func (n *RONode) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}

// Replica exposes the underlying replica for reads. The pointer is
// re-fetched per call: a resync replaces the replica wholesale.
func (n *RONode) Replica() *core.Replica {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replica
}

// WaitVisible blocks until the replica has incorporated WAL records up to
// lsn or the timeout elapses; it reports whether the horizon was reached.
// Used to measure leader-follower synchronization latency (Fig. 13).
func (n *RONode) WaitVisible(lsn wal.LSN, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if n.Replica().HighLSN() >= lsn {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return n.Replica().HighLSN() >= lsn
}

// LoggerStats exposes the group-commit batch counters (experiments).
func (n *RWNode) LoggerStats() (batches, records int64) { return n.logger.BatchStats() }
