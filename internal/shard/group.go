package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/mvcc"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Group is N shard groups behind one Router: each shard is a full
// single-leader deployment (its own shared-storage volume, WAL stream,
// group committer, MVCC epoch clock, and failover machinery from the
// replication package), and the Group fans writes out by vertex hash.
//
// Reads through the Group's graph.Store methods are latest-state reads
// on the owning shard's leader; consistent cross-shard reads go through
// Snapshot / SnapshotAt.
type Group struct {
	routed // latest-state reads, each on the owning shard's current leader

	// leaders[i] is shard i's current leader; Failover swaps it in place
	// while routed writes keep arriving, Close clears it. stores is
	// immutable after Open: a promoted leader reopens the same volume.
	leaders []atomic.Pointer[replication.RWNode]
	stores  []*storage.Store
	reg     *metrics.Registry

	txnSeq    atomic.Uint64 // transaction id counter, randomly salted
	mgr       *txnManager
	stageHook func(stage TxnStage, txn uint64, parts []int) // test fault injection

	failovers  metrics.Counter // shard leaders replaced
	batches    metrics.Counter // ApplyBatch calls routed
	fanout     metrics.IntHistogram
	snapshots  metrics.Counter // consistent cuts taken
	pinRejects metrics.Counter // SnapshotAt vectors refused (fail closed)

	txns        metrics.Counter // multi-shard 2PC transactions started
	txnCommits  metrics.Counter // transactions decided commit
	txnAborts   metrics.Counter // transactions decided abort
	txnResolved metrics.Counter // in-doubt prepares resolved after failover
	txnReapply  metrics.Counter // resolutions that re-applied a committed payload
}

// Open creates a group of n shards with identical options. storageOpts
// may be nil for defaults; each shard opens its own store.
func Open(n int, storageOpts *storage.Options, rw replication.RWOptions) (*Group, error) {
	router := NewRouter(n)
	n = router.Shards()
	g := &Group{
		leaders: make([]atomic.Pointer[replication.RWNode], n),
		stores:  make([]*storage.Store, n),
		reg:     metrics.NewRegistry(),
		mgr:     newTxnManager(),
	}
	g.routed = routed{router, func(i int) graph.Reader { return g.Leader(i) }}
	for i := range g.stores {
		var so storage.Options
		if storageOpts != nil {
			so = *storageOpts
		}
		g.stores[i] = storage.Open(&so)
		node, err := replication.NewRWNode(g.stores[i], rw)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.holdTxns(i, node)
		g.leaders[i].Store(node)
	}
	g.txnSeq.Store(newTxnSalt())
	g.registerMetrics()
	return g, nil
}

func (g *Group) registerMetrics() {
	r := g.reg
	r.RegisterCounter("shard.batches_routed", &g.batches)
	r.RegisterIntHistogram("shard.batch_fanout", &g.fanout)
	r.RegisterCounter("shard.scatter_hops", &g.router.scatterHops)
	r.RegisterCounter("shard.scatter_shard_reads", &g.router.shardReads)
	r.RegisterCounter("shard.snapshots", &g.snapshots)
	r.RegisterCounter("shard.snapshot_rejects", &g.pinRejects)
	r.RegisterCounter("shard.txns", &g.txns)
	r.RegisterCounter("shard.txn_commits", &g.txnCommits)
	r.RegisterCounter("shard.txn_aborts", &g.txnAborts)
	r.RegisterCounter("shard.txn_indoubt_resolved", &g.txnResolved)
	r.RegisterCounter("shard.txn_resolve_reapplied", &g.txnReapply)
	r.RegisterCounter("shard.failovers", &g.failovers)
	r.GaugeFunc("shard.shards", func() int64 { return int64(g.router.Shards()) })
}

// Metrics returns the group-level registry (per-shard engines and
// committers keep their own registries, reachable via Leader).
func (g *Group) Metrics() *metrics.Registry { return g.reg }

// Router returns the vertex → shard mapping.
func (g *Group) Router() *Router { return g.router }

// Shards returns the shard count.
func (g *Group) Shards() int { return g.router.Shards() }

// Leader returns shard i's current leader (nil once the group is
// closed). Failover may replace it at any moment; callers that need a
// stable leader for a sequence of operations take it once and accept
// storage.ErrFenced from a deposed one.
func (g *Group) Leader(i int) *replication.RWNode { return g.leaders[i].Load() }

// Store returns shard i's shared-storage volume — the stable handle for
// WAL replay and chaos oracles across failovers.
func (g *Group) Store(i int) *storage.Store { return g.stores[i] }

// Failover fences shard i's leader and promotes a follower of the
// shard's log in its place (replication.Failover); other shards are
// untouched. After the promotion an in-doubt resolution pass settles
// every durable prepare on the shard with no local outcome marker:
// transactions whose coordinator holds a durable commit are re-applied
// (idempotently) and marked applied, all others abort (presumed abort).
func (g *Group) Failover(i int) error {
	if i < 0 || i >= g.Shards() {
		return fmt.Errorf("shard: failover: no shard %d", i)
	}
	old := g.Leader(i)
	if old == nil {
		return fmt.Errorf("shard %d: failover: group closed", i)
	}
	err := replication.Failover(g.stores[i], old, func(rw *replication.RWNode) bool {
		g.holdTxns(i, rw)
		return g.leaders[i].CompareAndSwap(old, rw)
	})
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	g.failovers.Inc()
	if g.Shards() == 1 {
		// Every batch has one owner, so no 2PC record was ever logged and
		// the in-doubt scan (a full WAL read) has nothing to find.
		return nil
	}
	return g.resolveInDoubt(i)
}

// holdTxns keeps shard i's leader from trimming the records of transactions
// the group still holds (txnManager.lowWater).
func (g *Group) holdTxns(i int, rw *replication.RWNode) {
	rw.SetLowWater(func() wal.LSN { return g.mgr.lowWater(i) })
}

// Failovers returns how many shard leaders the group has replaced.
func (g *Group) Failovers() int64 { return g.failovers.Load() }

// Close stops every shard's leader and closes its store.
func (g *Group) Close() {
	for i := range g.leaders {
		if node := g.leaders[i].Swap(nil); node != nil {
			node.Stop()
		}
		if st := g.stores[i]; st != nil {
			st.Close()
		}
	}
}

// Checkpoint flushes and checkpoints every shard.
func (g *Group) Checkpoint() error {
	for i := range g.leaders {
		if err := g.Leader(i).Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// owner returns the leader currently owning id.
func (g *Group) owner(id graph.VertexID) *replication.RWNode {
	return g.Leader(g.router.Owner(id))
}

// AddVertex implements graph.Store on the owning shard.
func (g *Group) AddVertex(v graph.Vertex) error { return g.owner(v.ID).AddVertex(v) }

// AddEdge implements graph.Store on the source's owning shard.
func (g *Group) AddEdge(e graph.Edge) error { return g.owner(e.Src).AddEdge(e) }

// DeleteEdge implements graph.Store on the source's owning shard.
func (g *Group) DeleteEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) error {
	return g.owner(src).DeleteEdge(src, typ, dst)
}

var (
	_ graph.Store      = (*Group)(nil)
	_ graph.BatchStore = (*Group)(nil)
)

// OutcomeState classifies one shard's result for a batch.
type OutcomeState uint8

const (
	// OutcomeSkipped: the batch had no mutations for this shard.
	OutcomeSkipped OutcomeState = iota
	// OutcomeCommitted: the shard's sub-batch is durable and applied.
	OutcomeCommitted
	// OutcomeAborted: the transaction aborted; nothing from this batch is
	// (or will become) durable on the shard. Safe to retry the batch.
	OutcomeAborted
	// OutcomeFenced: the shard's leader was fenced mid-operation; for an
	// aborted transaction this names the shard that caused the abort.
	OutcomeFenced
	// OutcomeUnknown: the decision is commit but this shard's apply did
	// not complete here — the post-failover resolution pass finishes it
	// from the durable prepare. Reads may briefly miss the sub-batch.
	OutcomeUnknown
)

// String names the state.
func (s OutcomeState) String() string {
	switch s {
	case OutcomeSkipped:
		return "skipped"
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeFenced:
		return "fenced"
	case OutcomeUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(s))
	}
}

// ShardOutcome is one shard's result for a batch.
type ShardOutcome struct {
	Shard int
	State OutcomeState
	Err   error // the shard's own failure, when it had one
}

// ErrTxnAborted reports a cross-shard transaction aborted by a
// concurrent failover's resolution pass before the commit decision was
// logged. The batch applied on no shard; retrying it is safe.
var ErrTxnAborted = errors.New("shard: txn aborted by failover resolution")

// BatchError carries per-shard outcomes for a failed batch, so callers
// can tell committed shards from fenced and in-doubt ones instead of
// guessing from a joined error string. Unwrap exposes the first
// underlying cause (storage.ErrFenced etc. stay errors.Is-able).
type BatchError struct {
	// Txn is the transaction id for multi-shard batches, 0 for the
	// single-shard fast path.
	Txn uint64
	// Outcomes has one entry per shard, index-aligned with the group.
	Outcomes []ShardOutcome
	// Cause is the first underlying shard failure.
	Cause error
}

// Error summarizes the non-skipped outcomes.
func (e *BatchError) Error() string {
	s := fmt.Sprintf("shard batch failed (txn %d):", e.Txn)
	for _, o := range e.Outcomes {
		if o.State == OutcomeSkipped {
			continue
		}
		s += fmt.Sprintf(" %d=%s", o.Shard, o.State)
	}
	return fmt.Sprintf("%s: %v", s, e.Cause)
}

// Unwrap exposes the first underlying cause.
func (e *BatchError) Unwrap() error { return e.Cause }

// TxnStage names a point in the 2PC protocol at which a fault-injection
// hook may run (tests kill leaders between stages).
type TxnStage int

const (
	// StagePrepared: every participant's PREPARE is durable; the commit
	// decision has not been logged yet. A leader killed here leaves the
	// transaction in doubt.
	StagePrepared TxnStage = iota + 1
	// StageDecided: the decision is settled (commit durable on the
	// coordinator, or abort chosen); participants have not applied yet.
	StageDecided
)

// SetTxnStageHook installs a fault-injection hook called on the
// transaction goroutine at each TxnStage. Install before issuing writes;
// tests use it to kill coordinators and participants between prepare and
// commit.
func (g *Group) SetTxnStageHook(fn func(stage TxnStage, txn uint64, parts []int)) {
	g.stageHook = fn
}

// ApplyBatch commits the batch atomically across shards. Mutations are
// decomposed by owner (SplitBatch); a batch touching one shard commits
// as that shard's ordinary group-commit (the PR 9 fast path, no extra
// records), while a multi-shard batch runs the 2PC protocol in txn.go:
// prepare on every participant, commit decision on the coordinator's
// stream, then per-shard apply — all riding the existing group-commit
// envelopes. The batch is all-or-nothing across shards: after any crash
// or failover, recovery resolves in-doubt prepares against the
// coordinator's durable prefix, so no prefix of the shards can commit
// alone. Failures return a *BatchError with per-shard outcomes.
func (g *Group) ApplyBatch(muts []graph.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	g.batches.Inc()
	parts := g.router.SplitBatch(muts)
	touched := 0
	last := -1
	for i, part := range parts {
		if len(part) > 0 {
			touched++
			last = i
		}
	}
	g.fanout.Observe(int64(touched))
	if touched == 1 {
		return g.applyShard(last, parts[last])
	}
	_, err := g.applyTxn(parts)
	return err
}

// ApplyBatchEx is ApplyBatch returning per-shard outcomes (one entry per
// shard, index-aligned) even on success.
func (g *Group) ApplyBatchEx(muts []graph.Mutation) ([]ShardOutcome, error) {
	outcomes := make([]ShardOutcome, g.Shards())
	for i := range outcomes {
		outcomes[i] = ShardOutcome{Shard: i, State: OutcomeSkipped}
	}
	if len(muts) == 0 {
		return outcomes, nil
	}
	g.batches.Inc()
	parts := g.router.SplitBatch(muts)
	touched := 0
	last := -1
	for i, part := range parts {
		if len(part) > 0 {
			touched++
			last = i
		}
	}
	g.fanout.Observe(int64(touched))
	if touched == 1 {
		err := g.applyShard(last, parts[last])
		outcomes[last] = ShardOutcome{Shard: last, State: classifyShardErr(err), Err: err}
		return outcomes, err
	}
	return g.applyTxn(parts)
}

// classifyShardErr maps a single-shard apply error to an outcome state.
func classifyShardErr(err error) OutcomeState {
	switch {
	case err == nil:
		return OutcomeCommitted
	case errors.Is(err, storage.ErrFenced), errors.Is(err, wal.ErrWriterFailed),
		errors.Is(err, wal.ErrCommitterStopped):
		return OutcomeFenced
	default:
		return OutcomeUnknown
	}
}

func isFenceErr(err error) bool {
	return errors.Is(err, storage.ErrFenced) || errors.Is(err, wal.ErrWriterFailed) ||
		errors.Is(err, wal.ErrCommitterStopped)
}

func (g *Group) applyShard(i int, part []graph.Mutation) error {
	return g.Leader(i).ApplyBatch(part)
}

// applyTxn runs the cross-shard 2PC protocol for a batch split across
// two or more shards (see the protocol comment in txn.go). It returns
// one outcome per shard; the error is nil only when every participant
// committed and applied.
func (g *Group) applyTxn(parts [][]graph.Mutation) ([]ShardOutcome, error) {
	txn := g.txnSeq.Add(1)
	var members []int
	for i, part := range parts {
		if len(part) > 0 {
			members = append(members, i)
		}
	}
	coord := g.router.Coordinator(parts)
	outcomes := make([]ShardOutcome, len(parts))
	for i := range outcomes {
		outcomes[i] = ShardOutcome{Shard: i, State: OutcomeSkipped}
	}
	g.txns.Inc()
	// Every record of the transaction is numbered above each participant's
	// released horizon now, a new leader's included.
	floor := make(map[int]wal.LSN, len(members))
	for _, i := range members {
		floor[i] = wal.LSN(g.Leader(i).Engine().ReadEpoch()) + 1
	}
	g.mgr.begin(txn, floor)
	var owed []int // participants of a commit left for a resolution pass
	defer func() { g.mgr.end(txn, owed) }()

	// Phase 1 — prepare: log the sub-batch as a logical redo intent on
	// every participant, in parallel, each riding its shard's ordinary
	// group-commit pipeline. An epoch hold taken before the prepare
	// freezes the shard's published read horizon until the transaction
	// settles, so no reader ever pins an epoch inside the window.
	type prepState struct {
		node *replication.RWNode
		hold *mvcc.Hold
		err  error
	}
	preps := make([]*prepState, len(parts))
	var wg sync.WaitGroup
	for _, i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := g.Leader(i)
			ps := &prepState{node: node, hold: node.Engine().Epochs().Hold()}
			payload := EncodePrepare(&TxnPayload{
				Txn:   txn,
				Fence: node.Epoch(),
				Coord: coord,
				Shard: i,
				Parts: members,
				Muts:  parts[i],
			})
			_, ps.err = node.Logger().Log(&wal.Record{
				Type:   wal.RecordTxnPrepare,
				TreeID: txn,
				PageID: uint64(coord),
				Value:  payload,
			})
			preps[i] = ps
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, ps := range preps {
			if ps != nil {
				ps.hold.Release()
			}
		}
	}()

	var cause error
	for _, i := range members {
		if err := preps[i].err; err != nil && cause == nil {
			cause = fmt.Errorf("shard %d prepare: %w", i, err)
		}
	}
	if cause == nil && g.stageHook != nil {
		g.stageHook(StagePrepared, txn, members)
	}

	// Phase 2 — decide. Prepare failures and a force-abort from a
	// concurrent failover's resolution pass both decide abort; otherwise
	// the coordinator logs the commit decision on its own stream. A
	// failed commit append is an abort: fenced and torn appends are never
	// durable, and a record stranded past a pipeline hole is outside the
	// gapless prefix recovery delivers.
	committed := false
	if cause == nil {
		if !g.mgr.tryDecide(txn) {
			cause = fmt.Errorf("txn %d: %w", txn, ErrTxnAborted)
		} else if _, err := g.Leader(coord).Logger().Log(&wal.Record{
			Type:   wal.RecordTxnCommit,
			TreeID: txn,
			PageID: uint64(coord),
		}); err != nil {
			cause = fmt.Errorf("shard %d commit decision: %w", coord, err)
		} else {
			committed = true
		}
	}
	g.mgr.decide(txn, committed)
	if g.stageHook != nil {
		g.stageHook(StageDecided, txn, members)
	}

	if !committed {
		g.txnAborts.Inc()
		// Best-effort abort markers: the protocol is presumed-abort, so a
		// lost marker only means a later resolution pass re-derives the
		// same answer from the coordinator's prefix.
		for _, i := range members {
			ps := preps[i]
			outcomes[i] = ShardOutcome{Shard: i, State: OutcomeAborted}
			if ps.err != nil {
				outcomes[i].Err = ps.err
				if isFenceErr(ps.err) {
					outcomes[i].State = OutcomeFenced
				}
				continue
			}
			_, _ = ps.node.Logger().Log(&wal.Record{
				Type:   wal.RecordTxnAbort,
				TreeID: txn,
				PageID: uint64(coord),
			})
		}
		return outcomes, &BatchError{Txn: txn, Outcomes: outcomes, Cause: cause}
	}
	g.txnCommits.Inc()

	// Phase 3 — apply: each participant re-applies its sub-batch through
	// the normal data path and logs a local applied marker. A fence here
	// means a failover is racing us; its resolution pass re-applies the
	// decided payload from the durable prepare, so retry against the new
	// leader (replays are idempotent upserts/deletes).
	for _, i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := g.applyDecided(i, parts[i], txn, coord)
			state := OutcomeCommitted
			if err != nil {
				state = OutcomeUnknown
			}
			outcomes[i] = ShardOutcome{Shard: i, State: state, Err: err}
		}(i)
	}
	wg.Wait()
	cause = nil
	for _, i := range members {
		if err := outcomes[i].Err; err != nil {
			owed = append(owed, i)
			if cause == nil {
				cause = fmt.Errorf("shard %d apply: %w", i, err)
			}
		}
	}
	if cause != nil {
		return outcomes, &BatchError{Txn: txn, Outcomes: outcomes, Cause: cause}
	}
	return outcomes, nil
}

// applyDecided applies one participant's decided sub-batch and logs its
// applied marker, retrying across a racing failover. Its own epoch hold
// makes the apply atomic for readers even when the participant's leader
// changed after prepare (the prepare hold pinned the old leader's clock).
func (g *Group) applyDecided(i int, part []graph.Mutation, txn uint64, coord int) error {
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
		node := g.Leader(i)
		hold := node.Engine().Epochs().Hold()
		err := node.ApplyBatch(part)
		if err == nil {
			_, err = node.Logger().Log(&wal.Record{
				Type:   wal.RecordTxnApplied,
				TreeID: txn,
				PageID: uint64(coord),
			})
		}
		hold.Release()
		if err == nil {
			return nil
		}
		lastErr = err
		if !isFenceErr(err) {
			return err
		}
	}
	return lastErr
}

// resolveInDoubt settles every durable prepare on shard i that has no
// local outcome marker. Authority order: the live transaction manager
// first (force-aborting transactions still preparing, waiting out one
// mid-decision), then the coordinator's durable WAL prefix — a durable
// commit means commit, anything else aborts (presumed abort).
func (g *Group) resolveInDoubt(i int) error {
	state, err := scanShardTxns(g.Store(i))
	if err != nil {
		return err
	}
	coordScans := make(map[int]*shardTxnState)
	coordScans[i] = state
	for _, txn := range state.inDoubt() {
		p := state.prepares[txn]
		committed, known := g.mgr.resolveLive(txn)
		if !known {
			cs := coordScans[p.Coord]
			if cs == nil {
				if cs, err = scanShardTxns(g.Store(p.Coord)); err != nil {
					return err
				}
				coordScans[p.Coord] = cs
			}
			committed = cs.commits[txn]
		}
		node := g.Leader(i)
		if committed {
			hold := node.Engine().Epochs().Hold()
			aerr := node.ApplyBatch(p.Muts)
			if aerr == nil {
				_, aerr = node.Logger().Log(&wal.Record{
					Type:   wal.RecordTxnApplied,
					TreeID: txn,
					PageID: uint64(p.Coord),
				})
			}
			hold.Release()
			if aerr != nil {
				return fmt.Errorf("shard %d resolve txn %d: %w", i, txn, aerr)
			}
			g.txnReapply.Inc()
		} else {
			_, _ = node.Logger().Log(&wal.Record{
				Type:   wal.RecordTxnAbort,
				TreeID: txn,
				PageID: uint64(p.Coord),
			})
		}
		g.mgr.settle(txn, i)
		g.txnResolved.Inc()
	}
	return nil
}

// ReadEpochs samples every shard's released read epoch as a Vector. The
// components are sampled one shard at a time — consistency of the vector
// comes from each component being a released group boundary of its own
// WAL stream, not from cross-shard atomicity.
func (g *Group) ReadEpochs() Vector {
	v := make(Vector, g.Shards())
	for i := range v {
		v[i] = g.Leader(i).Engine().ReadEpoch()
	}
	return v
}

// Snapshot takes a consistent cut: it samples each shard's released
// read epoch and pins that boundary on the shard, one shard at a time.
// Component i is a gapless prefix of shard i's WAL ending at a group
// boundary; the vector as a whole is the cut every subsequent hop routes
// at. A failover racing the cut is harmless: a view pinned on a deposed
// leader still reads its shard's released prefix exactly (fenced
// in-flight writes were never released, so the pinned horizon excludes
// them).
func (g *Group) Snapshot() *Snapshot {
	views := make([]*core.ReadView, g.Shards())
	for i := range views {
		views[i] = g.Leader(i).Engine().View()
	}
	g.snapshots.Inc()
	return newSnapshot(g.router, views)
}

// SnapshotAt re-attaches a previously sampled cut, pinning each shard at
// the vector's component. It fails closed — a structurally invalid
// vector, a component ahead of its shard's released horizon, one whose
// history has been folded past the retention floor, or one naming a
// mid-group LSN all reject the whole cut with no pins leaked.
func (g *Group) SnapshotAt(v Vector) (*Snapshot, error) {
	if err := v.ValidateAgainst(g.ReadEpochs()); err != nil {
		g.pinRejects.Inc()
		return nil, err
	}
	views := make([]*core.ReadView, len(v))
	for i, e := range v {
		view, err := g.Leader(i).Engine().ViewAt(e)
		if err != nil {
			for _, pinned := range views[:i] {
				pinned.Close()
			}
			g.pinRejects.Inc()
			return nil, fmt.Errorf("shard %d epoch %d: %w", i, e, err)
		}
		views[i] = view
	}
	g.snapshots.Inc()
	return newSnapshot(g.router, views), nil
}
