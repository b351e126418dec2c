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
// updates, after which RO nodes discard the replayed WAL prefix. Each
// checkpoint also names a bucket of the leaves whole, so a rotation of them
// describes every page and the leader trims the WAL before it: a follower
// attaches from the retained head. Because the WAL lives on strongly
// consistent shared storage, an RO node never misses a write — unlike the
// legacy path, which forwards commands over a lossy network.
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
	// Engine options; the Logger (which defers page flushes to the node's
	// flusher) and the epoch clock are installed by NewRWNode.
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

// engineOptions is the engine configuration every leader runs with: the
// node's epoch clock, and the committer as the WAL hook, so the node's flusher
// persists pages and publishes checkpoints.
func (o RWOptions) engineOptions(src *mvcc.Source, logger bwtree.WALLogger) core.Options {
	eo := o.Engine
	eo.Epochs = src
	eo.Logger = logger
	return eo
}

// RWNode is BG3's read-write node: a core.Engine whose every modification is
// group-committed to the WAL, which leaves its dirty pages to the background
// flusher that persists them and publishes checkpoints. Writes go
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
	// flush → name → publish → trim as one unit. Lock order: flushMu, then
	// applyBarrier.
	flushMu  sync.Mutex
	ckptTail wal.LSN // LSN of the last checkpoint record logged; under flushMu
	ckptAll  bool    // its horizon covers every record logged before it; under flushMu
	// carried holds the updates a failed cycle had already produced — pages
	// it wrote, relocations it drained — for the next checkpoint; under flushMu.
	carried []bwtree.MappingUpdate

	// The rotation, under flushMu: named counts the checkpoints logged (the
	// next names bucket named % rotation), points holds where they sampled
	// their horizons since the last trim, oldest first — the first of the
	// last rotation of them is the bootstrap point — and lowWater, once set,
	// the oldest LSN a trim must keep.
	named    int
	points   []bootPoint
	lowWater func() wal.LSN
	trimmed  metrics.Counter // WAL extents dropped

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
}

// rotation is how many checkpoints it takes to name every leaf: each names
// the leaves whose page ID is its bucket modulo rotation. It sets the retained
// WAL — the trim keeps a rotation of checkpoints and what they cover — and
// what naming adds to each checkpoint, one rotation-th of the leaves. At 8,
// naming is about 1.2% of the bytes a 4-shard ingest writes (0.6% at 16),
// and a rotation is 0.4 s of WAL at the default flush interval.
const rotation = 8

// bootPoint is where a checkpoint sampled its horizon: the WAL tail cursor
// and the LSN. Every record numbered above horizon landed past cursor.
type bootPoint struct {
	cursor  storage.Cursor
	horizon wal.LSN
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
	r.RegisterCounter("wal.extents_trimmed", &n.trimmed)
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
// declaring the flushed horizon (§3.4 steps 7–8), naming the next bucket of
// leaves and trimming the WAL to the new bootstrap point. A cycle with nothing
// to flush after a checkpoint appends nothing. Safe to call manually when no
// background flusher runs.
func (n *RWNode) Checkpoint() error {
	_, err := n.flushCycle(false)
	return err
}

// WriteSnapshot completes a rotation now: rotation checkpoints in a row, idle
// or not, so that they name every leaf and the WAL before the first of them is
// trimmed (unless a transaction still holds it, SetLowWater). It returns the
// first one's horizon: the bootstrap point a follower attaching afterwards
// reads the log from.
func (n *RWNode) WriteSnapshot() (wal.LSN, error) {
	var first wal.LSN
	for i := 0; i < rotation; i++ {
		h, err := n.flushCycle(true)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = h
		}
	}
	return first, nil
}

// TrimWAL trims the WAL to the bootstrap point now and returns how many
// extents it dropped. Every checkpoint already trims, so this drops something
// only after a transaction that held the trim back let go of it.
func (n *RWNode) TrimWAL() int {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()
	return n.trimLocked()
}

// SetLowWater makes fn the oldest LSN a trim keeps: the records of the
// transactions a shard group still holds (shard.Group). Nil keeps nothing.
func (n *RWNode) SetLowWater(fn func() wal.LSN) {
	n.flushMu.Lock()
	n.lowWater = fn
	n.flushMu.Unlock()
}

// flushCycle is the one horizon → flush → name → publish → trim sequence: it
// samples the checkpoint horizon against a quiesced write pipeline, flushes
// every dirty page, names the next bucket of leaves, publishes a checkpoint
// record carrying the pages' new locations and the naming, and trims the WAL
// before the rotation's first checkpoint. Cycles never overlap (flushMu):
// Tree.FlushDirty takes pages out of the dirty set before it writes them, so
// a second cycle starting meanwhile would sample a later horizon, find those
// pages clean, and publish that horizon without their new locations — a
// follower applying it drops its buffered records up to the horizon and
// materializes the pages from the stale locations, losing acked writes.
// Writers resume as soon as the horizon is sampled and the flush runs beside
// them. An idle cycle — nothing flushed or moved, nothing logged since the
// last checkpoint — publishes nothing unless forced. A cycle that fails keeps
// the updates it produced for the next, ahead of that cycle's own: the pages
// it wrote are clean, so no later flush names them.
func (n *RWNode) flushCycle(force bool) (wal.LSN, error) {
	n.flushMu.Lock()
	defer n.flushMu.Unlock()

	// Quiesce in-flight writes so "assigned LSN" implies "applied and
	// dirty-marked" (writers hold the barrier shared across LSN
	// assignment + memory apply + dirty-marking).
	n.applyBarrier.Lock()
	// The cursor is sampled before the horizon: records that bypass the
	// barrier (2PC control records) keep being assigned LSNs and landing
	// while it is held, and a trim at the cursor must keep every record
	// above the horizon — one that landed before the cursor would be dropped.
	cursor := n.store.TailCursor(storage.StreamWAL)
	horizon := n.logger.LastLSN()
	n.applyBarrier.Unlock()
	updates, err := n.engine.FlushDirty()
	updates, n.carried = append(n.carried, updates...), nil
	if err != nil {
		n.carried = updates
		return 0, err
	}
	// Pages GC relocated since the last checkpoint must also reach the
	// replicas. A reclaim relocates before it condemns, so the live records of
	// every extent condemned by mark are in what TakeRelocated returns now or
	// returned before, and its dead ones were superseded by this cycle's flush
	// or an earlier one. This cycle's checkpoint, or the last one when idle,
	// names all of them: it is the LSN the extents are stamped with
	// (storage.Store.Stamp).
	mark := n.store.CondemnMark()
	updates = append(updates, n.engine.Mapping().TakeRelocated()...)
	// Nothing is new when no page moved, the last record logged is the last
	// checkpoint itself, and that checkpoint's horizon covers every record
	// before its own: followers have cut everything there is. (The horizon
	// alone is no test: the checkpoint's records advanced the log past it, and
	// an idle leader would checkpoint its own checkpoints forever. Writes that
	// raced the last cycle's flush need one more, if only to declare them.)
	if !force && len(updates) == 0 && horizon == n.ckptTail && n.ckptAll {
		n.store.Stamp(mark, uint64(n.ckptTail))
		return horizon, nil
	}
	// The naming goes last: a page flushed or moved this cycle is named as it
	// stood after both, and a follower applies a checkpoint's updates in order.
	bucket := n.named % rotation
	tail, records, err := n.appendCheckpoint(horizon, bucket, append(updates, n.engine.Forest().NameLeaves(bucket, rotation)...))
	if err != nil {
		n.carried = updates
		return 0, err
	}
	n.ckptTail = tail
	n.ckptAll = n.ckptTail-horizon == wal.LSN(records)
	n.store.Stamp(mark, uint64(n.ckptTail))
	n.named++
	n.points = append(n.points, bootPoint{cursor, horizon})
	n.trimLocked()
	n.mu.Lock()
	n.checkpoints++
	n.lastCkpt = horizon
	n.mu.Unlock()
	return horizon, nil
}

// trimLocked drops the WAL extents wholly before the bootstrap point — the
// cursor the last rotation's first checkpoint sampled with its horizon — and
// declares that horizon the log's new floor (wal.NewReaderAtHead): every
// record above it landed past the cursor, and the rotation that names every
// leaf starts above it. While the group holds a transaction record at or below
// that horizon (lowWater), the trim stops at the newest earlier checkpoint
// below the record. Caller holds flushMu.
func (n *RWNode) trimLocked() int {
	i := len(n.points) - rotation
	if i < 0 {
		return 0
	}
	if n.lowWater != nil {
		for low := n.lowWater(); i >= 0 && n.points[i].horizon >= low; i-- {
		}
		if i < 0 {
			return 0
		}
	}
	bp := n.points[i]
	n.points = n.points[i:]
	dropped := len(n.store.DropBefore(storage.StreamWAL, bp.cursor.Extent, uint64(bp.horizon), n.writer.Epoch()))
	n.trimmed.Add(int64(dropped))
	return dropped
}

// appendCheckpoint publishes a checkpoint naming bucket, chunking the mapping
// updates so each WAL record fits an extent. Every record but the last carries
// in TreeID how many are still to come, so a follower applies them as one
// checkpoint, with the last (bwtree applyCheckpoint); a checkpoint of one
// record reads as it always did. Every record carries the bucket (PageID) and
// the rotation (AuxPage). It returns the LSN of the last record it logged and
// how many it logged.
func (n *RWNode) appendCheckpoint(ckptLSN wal.LSN, bucket int, updates []bwtree.MappingUpdate) (wal.LSN, int, error) {
	budget := n.writer.MaxRecordSize() - 64 // the record's header and update count
	var chunks [][]bwtree.MappingUpdate
	start, size := 0, 0
	for i, up := range updates {
		if i > start && size+up.Size() > budget {
			chunks, start, size = append(chunks, updates[start:i]), i, 0
		}
		size += up.Size()
	}
	chunks = append(chunks, updates[start:])
	var lsn wal.LSN
	for i, chunk := range chunks {
		var err error
		if lsn, err = n.logger.Log(&wal.Record{
			Type:    wal.RecordCheckpoint,
			TreeID:  uint64(len(chunks) - 1 - i),
			PageID:  uint64(bucket),
			AuxPage: rotation,
			CkptLSN: ckptLSN,
			Value:   bwtree.EncodeMappingUpdates(chunk),
		}); err != nil {
			return 0, 0, err
		}
	}
	return lsn, len(chunks), nil
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

// RONode is a read-only node: a core.Replica fed by a WAL tailing loop. It
// attaches from the retained head of the log (core.Bootstrap), and when
// tailing hits a hole — an LSN gap after a WAL trim outran this follower, or a
// lost WAL extent — it re-attaches the same way instead of serving a view with
// missing writes. It is also what every leader but a store's first starts out
// as (lead).
type RONode struct {
	store    *storage.Store
	cacheCap int

	// floor holds the store's condemned extents back until this node has
	// applied the checkpoint that names their records' new locations.
	floor *storage.Follower

	// reg is the node's registry for its whole life: the replica's page-table
	// accounting (the leader's bwtree.* read metrics, measured here) plus the
	// replication.* gauges below. A resync re-registers the fresh replica.
	reg *metrics.Registry

	// reader is touched only under pollMu, and nil once the node was handed
	// the leader's role.
	reader *wal.Reader

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

// NewRONode attaches a follower to the shared store (attach) and polls the
// WAL every interval. cacheCapacity bounds the replica's page cache
// (0 = unlimited).
func NewRONode(st *storage.Store, interval time.Duration, cacheCapacity int) (*RONode, error) {
	n, err := attach(st, cacheCapacity)
	if err != nil {
		return nil, err
	}
	go n.pollLoop(interval)
	return n, nil
}

// attach is NewRONode without the tailing loop: a follower of the log from its
// retained head, which applies the rest when told to (Poll) — or once, to its
// end, to lead. It registers with the store before it reads the head: an
// extent released before that was stamped by a checkpoint already logged, which
// the follower applies — or a later naming of the same pages — before it serves
// a read.
func attach(st *storage.Store, cacheCapacity int) (*RONode, error) {
	n := &RONode{
		store:    st,
		cacheCap: cacheCapacity,
		floor:    st.Follow(),
		reg:      metrics.NewRegistry(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.reg.GaugeFunc("replication.applied_lsn", func() int64 { return int64(n.AppliedLSN()) })
	n.reg.GaugeFunc("replication.buffered_records", func() int64 { return int64(n.Replica().BufferedRecords()) })
	if err := n.bootstrap(); err != nil {
		n.floor.Leave()
		return nil, err
	}
	return n, nil
}

// bootstrap installs a fresh replica of the log from its retained head and
// the reader that goes on where it stopped. A trim that raced the read is a
// hole at the head the next try starts past. Caller holds pollMu, or is still
// constructing the node.
func (n *RONode) bootstrap() error {
	var err error
	for try := 0; try < 3; try++ {
		rd := wal.NewReaderAtHead(n.store)
		var replica *core.Replica
		if replica, err = core.Bootstrap(n.store, n.cacheCap, rd); err == nil {
			replica.RegisterMetrics(n.reg)
			n.reader = rd
			n.mu.Lock()
			n.replica = replica
			n.mu.Unlock()
			n.floor.Applied(uint64(replica.HighLSN()))
			return nil
		}
		if gap := (*wal.GapError)(nil); !errors.As(err, &gap) {
			break
		}
	}
	return fmt.Errorf("replication: attach: %w", err)
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
// applies what it read and re-attaches from the retained head, so one Poll
// catches up either way.
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
	// Whatever was applied, the checkpoints in it have repointed their pages.
	n.floor.Applied(uint64(n.AppliedLSN()))
	return err
}

var errPromoted = errors.New("replication: follower was handed the leader's role")

// resyncLocked re-attaches the follower from the retained head, dropping what
// it holds. A failover does not call for it: page and tree IDs survive a
// promotion, and a follower goes on tailing the new leader's records. Caller
// holds pollMu.
func (n *RONode) resyncLocked() error {
	if err := n.bootstrap(); err != nil {
		return err
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

// Resyncs returns how many times the follower re-attached after hitting a
// log hole.
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

// Stop halts the polling loop and deregisters the node from the store's
// release rule: it holds no condemned extent from here on.
func (n *RONode) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
	n.floor.Leave()
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
