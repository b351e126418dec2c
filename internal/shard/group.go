package shard

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/metrics"
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
// Snapshot.
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

	// failing[i] counts the failovers of shard i under way; failDone is
	// broadcast as each ends (nextLeader).
	failMu   sync.Mutex
	failDone sync.Cond
	failing  []int

	failovers metrics.Counter // shard leaders replaced
	batches   metrics.Counter // ApplyBatch calls routed
	fanout    metrics.IntHistogram
	snapshots metrics.Counter // consistent cuts taken

	txns        metrics.Counter // multi-shard 2PC transactions started
	txnCommits  metrics.Counter // transactions decided commit
	txnAborts   metrics.Counter // transactions decided abort
	txnResolved metrics.Counter // in-doubt prepares resolved after failover
	txnReapply  metrics.Counter // resolutions that re-applied a committed payload

	// Where a transaction's time went, stage by stage (TxnStage).
	txnPrepareLat metrics.Histogram // begin to every prepare durable
	txnCommitLat  metrics.Histogram // prepared to the coordinator's wave durable
	txnApplyLat   metrics.Histogram // decided to every other participant applied

	snapshotWait metrics.Histogram // a Snapshot's wait for the apply phases in flight
}

// Open creates a group of n shards with identical options. storageOpts
// may be nil for defaults; each shard opens its own store. The group
// registers its instruments in rw.Engine.Metrics when that is set (the
// leaders register there too), else in a registry of its own.
func Open(n int, storageOpts *storage.Options, rw replication.RWOptions) (*Group, error) {
	router := NewRouter(n)
	n = router.Shards()
	g := &Group{
		leaders: make([]atomic.Pointer[replication.RWNode], n),
		stores:  make([]*storage.Store, n),
		reg:     cmp.Or(rw.Engine.Metrics, metrics.NewRegistry()),
		mgr:     newTxnManager(),
		failing: make([]int, n),
	}
	g.failDone.L = &g.failMu
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
	r.RegisterCounter("shard.txns", &g.txns)
	r.RegisterCounter("shard.txn_commits", &g.txnCommits)
	r.RegisterCounter("shard.txn_aborts", &g.txnAborts)
	r.RegisterCounter("shard.txn_indoubt_resolved", &g.txnResolved)
	r.RegisterCounter("shard.txn_resolve_reapplied", &g.txnReapply)
	r.RegisterHistogram("shard.txn_prepare_us", &g.txnPrepareLat)
	r.RegisterHistogram("shard.txn_commit_us", &g.txnCommitLat)
	r.RegisterHistogram("shard.txn_apply_us", &g.txnApplyLat)
	r.RegisterHistogram("shard.snapshot_wait_us", &g.snapshotWait)
	r.RegisterCounter("shard.failovers", &g.failovers)
	r.GaugeFunc("shard.shards", func() int64 { return int64(g.router.Shards()) })
}

// Metrics returns the group's registry (per-shard engines and committers
// keep their own, reachable via Leader, unless Open was given one for all).
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
// every durable part on the shard with no local outcome marker — a prepare,
// or the coordinator's own part carried by its commit: transactions whose
// coordinator holds a durable commit are re-applied (idempotently) and
// marked applied, all others abort (presumed abort).
func (g *Group) Failover(i int) error {
	if i < 0 || i >= g.Shards() {
		return fmt.Errorf("shard: failover: no shard %d", i)
	}
	old := g.Leader(i)
	if old == nil {
		return fmt.Errorf("shard %d: failover: group closed", i)
	}
	g.turnover(i, 1)
	defer g.turnover(i, -1)
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

// turnover counts a failover of shard i beginning (+1) or ending (-1), and
// wakes whoever waits for one to end (nextLeader).
func (g *Group) turnover(i, delta int) {
	g.failMu.Lock()
	g.failing[i] += delta
	g.failMu.Unlock()
	g.failDone.Broadcast()
}

// nextLeader returns shard i's leader once it is no longer node: at once when
// a failover already replaced node, when the failover under way ends
// otherwise. It returns nil when no failover of shard i is under way to
// replace node, or the group closed.
func (g *Group) nextLeader(i int, node *replication.RWNode) *replication.RWNode {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	for {
		if next := g.Leader(i); next != node {
			return next
		}
		if g.failing[i] == 0 {
			return nil
		}
		g.failDone.Wait()
	}
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
	// OutcomeSkipped: the batch had no writes for this shard.
	OutcomeSkipped OutcomeState = iota
	// OutcomeCommitted: the shard's part is durable and applied.
	OutcomeCommitted
	// OutcomeAborted: the transaction aborted; nothing from this batch is
	// (or will become) durable on the shard. Safe to retry the batch.
	OutcomeAborted
	// OutcomeFenced: the shard's leader was fenced mid-operation; for an
	// aborted transaction this names the shard that caused the abort.
	OutcomeFenced
	// OutcomeUnknown: the decision is commit but this shard's apply did
	// not complete here — the post-failover resolution pass finishes it
	// from the durable prepare. Reads may briefly miss the part.
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
	// StagePrepared: every participant but the coordinator has a durable
	// PREPARE; the commit decision has not been logged yet. A participant
	// killed here leaves the transaction in doubt.
	StagePrepared TxnStage = iota + 1
	// StageDecided: the decision is settled — commit durable on the
	// coordinator together with the coordinator's own part and its applied
	// marker, or abort chosen; the other participants have not applied yet.
	StageDecided
)

// SetTxnStageHook installs a fault-injection hook called on the
// transaction goroutine at each TxnStage. Install before issuing writes;
// tests use it to kill coordinators and participants between prepare and
// commit. At StageDecided the hook runs inside the transaction's cut window
// (txnManager.cut) and must not call Snapshot, which waits for that window
// to close; a Failover is safe there.
func (g *Group) SetTxnStageHook(fn func(stage TxnStage, txn uint64, parts []int)) {
	g.stageHook = fn
}

// ApplyBatch commits the batch atomically across shards. The batch is
// checked and encoded once, up front (core.Encode): a malformed batch fails
// before anything is logged on any shard. Its writes are split by owner
// (SplitBatch); a batch touching one shard commits as that shard's ordinary
// group-commit (no extra records), while a multi-shard batch runs the 2PC
// protocol in txn.go: prepare on every participant but the coordinator, the
// coordinator's commit wave (the decision carrying its own part, the part, its
// marker), then one apply wave per other participant — all riding the existing
// group-commit envelopes. The batch is all-or-nothing across shards: after any
// crash or failover, recovery resolves in-doubt parts against the
// coordinator's durable prefix, so no prefix of the shards can commit alone. A
// failed transaction returns a *BatchError with per-shard outcomes.
func (g *Group) ApplyBatch(muts []graph.Mutation) error {
	_, err := g.ApplyBatchEx(muts)
	return err
}

// ApplyBatchEx is ApplyBatch returning per-shard outcomes (one entry per
// shard, index-aligned) even on success; a batch that failed its check
// touched no shard.
func (g *Group) ApplyBatchEx(muts []graph.Mutation) ([]ShardOutcome, error) {
	parts, only, err := g.route(muts)
	if parts != nil && only < 0 {
		return g.applyTxn(parts)
	}
	outcomes := skipped(g.Shards())
	if only >= 0 {
		err = g.applyShard(only, parts[only])
		outcomes[only] = ShardOutcome{Shard: only, State: classifyShardErr(err), Err: err}
	}
	return outcomes, err
}

// route checks and encodes a batch, splits its writes by owner and counts it:
// the parts (nil for an empty or a malformed batch), and the one shard they
// touch (-1: several, or none).
func (g *Group) route(muts []graph.Mutation) (parts [][]forest.Write, only int, err error) {
	if len(muts) == 0 {
		return nil, -1, nil
	}
	ws, err := core.Encode(muts)
	if err != nil {
		return nil, -1, err
	}
	g.batches.Inc()
	parts, only = g.router.SplitBatch(ws), -1
	touched := 0
	for i, part := range parts {
		if len(part) > 0 {
			touched, only = touched+1, i
		}
	}
	g.fanout.Observe(int64(touched))
	if touched > 1 {
		only = -1
	}
	return parts, only, nil
}

// skipped is the outcomes of a batch that touched none of n shards.
func skipped(n int) []ShardOutcome {
	outcomes := make([]ShardOutcome, n)
	for i := range outcomes {
		outcomes[i].Shard = i
	}
	return outcomes
}

// classifyShardErr maps a single-shard apply error to an outcome state.
func classifyShardErr(err error) OutcomeState {
	switch {
	case err == nil:
		return OutcomeCommitted
	case isFenceErr(err):
		return OutcomeFenced
	}
	return OutcomeUnknown
}

func isFenceErr(err error) bool {
	return errors.Is(err, storage.ErrFenced) || errors.Is(err, wal.ErrWriterFailed) ||
		errors.Is(err, wal.ErrCommitterStopped)
}

func (g *Group) applyShard(i int, part []forest.Write) error {
	_, err := g.Leader(i).ApplyWave(nil, part, nil)
	return err
}

// applyTxn runs the cross-shard 2PC protocol for a batch split across
// two or more shards (see the protocol comment in txn.go). It returns
// one outcome per shard; the error is nil only when every participant
// committed and applied.
func (g *Group) applyTxn(parts [][]forest.Write) ([]ShardOutcome, error) {
	txn := g.txnSeq.Add(1)
	var members []int
	for i, part := range parts {
		if len(part) > 0 {
			members = append(members, i)
		}
	}
	coord := g.router.Coordinator(parts)
	outcomes := skipped(len(parts))
	g.txns.Inc()
	clock := metrics.StartStopwatch()
	// Every record of the transaction is numbered above each participant's
	// released horizon now, a new leader's included.
	nodes := make([]*replication.RWNode, len(parts))
	floor := make(map[int]wal.LSN, len(members))
	for _, i := range members {
		nodes[i] = g.Leader(i)
		floor[i] = wal.LSN(nodes[i].Engine().ReadEpoch()) + 1
	}
	g.mgr.begin(txn, floor)
	var owed []int // participants of a commit left for a resolution pass
	defer func() { g.mgr.end(txn, owed) }()

	// Phase 1 — prepare: every participant but the coordinator logs its part,
	// in parallel, each riding its
	// shard's ordinary group-commit pipeline. The coordinator's vote is its
	// commit.
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for _, i := range members {
		if i == coord {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = nodes[i].Logger().Log(txnRecord(wal.RecordTxnPrepare, txn, coord, parts[i]))
		}(i)
	}
	wg.Wait()
	var cause error
	for _, i := range members {
		if err := errs[i]; err != nil && cause == nil {
			cause = fmt.Errorf("shard %d prepare: %w", i, err)
		}
	}
	clock.Lap(&g.txnPrepareLat)
	if cause == nil && g.stageHook != nil {
		g.stageHook(StagePrepared, txn, members)
	}

	// Prepares change no memory, so no cut can see half of what came so far.
	// From the coordinator's wave to the return every part is applied under
	// a read hold of the cut lock: no Snapshot samples the shards while the
	// batch is on some and not yet on others.
	g.mgr.cut.RLock()
	defer g.mgr.cut.RUnlock()

	// Phase 2 — decide, and the coordinator's part with it. A failed prepare,
	// a force-abort from a concurrent failover's resolution pass, and a
	// failover of the coordinator (which prepared nothing a resolution pass
	// could find) all decide abort. Otherwise the coordinator runs its commit
	// wave: the commit record carrying its own part, the part, its
	// applied marker, one wait. The decision is the commit record's fate: a
	// failed commit append is an abort — fenced and torn appends are never
	// durable, and no group after a failed one is appended, so nothing of the
	// wave is durable.
	if cause == nil && (g.Leader(coord) != nodes[coord] || !g.mgr.tryDecide(txn)) {
		cause = fmt.Errorf("txn %d: %w", txn, ErrTxnAborted)
	}
	committed := false
	var coordErr error // the rest of the coordinator's wave, behind a durable commit
	if cause == nil {
		commit := txnRecord(wal.RecordTxnCommit, txn, coord, parts[coord])
		errs[coord], coordErr = applyPart(nodes[coord], commit, txn, coord, parts[coord])
		if errs[coord] != nil {
			cause = fmt.Errorf("shard %d commit decision: %w", coord, errs[coord])
		}
		committed = cause == nil
	}
	g.mgr.decide(txn, committed)
	clock.Lap(&g.txnCommitLat)
	if g.stageHook != nil {
		g.stageHook(StageDecided, txn, members)
	}

	if !committed {
		g.txnAborts.Inc()
		// Best-effort abort markers where a prepare landed: the protocol is
		// presumed-abort, so a lost marker only means a later resolution pass
		// re-derives the same answer from the coordinator's prefix, which holds
		// nothing of the transaction.
		for _, i := range members {
			outcomes[i] = ShardOutcome{Shard: i, State: OutcomeAborted}
			if err := errs[i]; err != nil {
				outcomes[i].Err = err
				if isFenceErr(err) {
					outcomes[i].State = OutcomeFenced
				}
				continue
			}
			if i != coord {
				_, _ = nodes[i].Logger().Log(txnRecord(wal.RecordTxnAbort, txn, coord, nil))
			}
		}
		return outcomes, &BatchError{Txn: txn, Outcomes: outcomes, Cause: cause}
	}
	g.txnCommits.Inc()

	// Phase 3 — apply: every other participant applies its part and logs
	// its applied marker in one wave, in parallel; so does the coordinator
	// again if a racing failover fenced the rest of its wave.
	for _, i := range members {
		node, last := g.Leader(i), error(nil)
		if i == coord {
			if coordErr == nil {
				outcomes[i] = ShardOutcome{Shard: i, State: OutcomeCommitted}
				continue
			}
			node, last = nodes[i], coordErr
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := g.applyDecided(i, node, last, txn, coord, parts[i])
			state := OutcomeCommitted
			if err != nil {
				state = OutcomeUnknown
			}
			outcomes[i] = ShardOutcome{Shard: i, State: state, Err: err}
		}(i)
	}
	wg.Wait()
	clock.Lap(&g.txnApplyLat)
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

// txnRecord is a 2PC control record of txn: PageID names the coordinator, and
// the Value of a prepare, or of the coordinator's commit, is the part it
// carries (EncodePart).
func txnRecord(typ wal.RecordType, txn uint64, coord int, part []forest.Write) *wal.Record {
	rec := &wal.Record{Type: typ, TreeID: txn, PageID: uint64(coord)}
	if part != nil {
		rec.Value = EncodePart(part)
	}
	return rec
}

// applyPart is the one way a committed part reaches a shard: one wave on
// node (replication.RWNode.ApplyWave) — head, when given, then the part's
// records, then its applied marker. The wave returns once the shard's read
// epoch is past all of its groups, so a cut sampled after it holds the
// whole part.
func applyPart(node *replication.RWNode, head *wal.Record, txn uint64, coord int, ws []forest.Write) (headErr, err error) {
	return node.ApplyWave(head, ws, txnRecord(wal.RecordTxnApplied, txn, coord, nil))
}

// applyDecided finishes shard i's part of committed txn (applyPart): err is
// what the last attempt, on node, returned — nil when none was made yet. A
// fence error means a failover may be racing it: it waits for that failover
// to replace node (nextLeader) and applies on the new leader, whose
// resolution pass may have applied the part already (applying it twice is
// idempotent). With no failover under way a fence error is final, and the
// part is left to the next one's resolution pass.
func (g *Group) applyDecided(i int, node *replication.RWNode, err error, txn uint64, coord int, ws []forest.Write) error {
	for {
		if err != nil {
			if !isFenceErr(err) {
				return err
			}
			next := g.nextLeader(i, node)
			if next == nil {
				return err
			}
			node = next
		}
		if _, err = applyPart(node, nil, txn, coord, ws); err == nil {
			return nil
		}
	}
}

// resolveInDoubt settles every durable part on shard i that has no local
// outcome marker: a prepare, or a commit carrying the coordinator's own part.
// Authority order: the live transaction manager first (force-aborting
// transactions still preparing, waiting out one mid-decision), then the
// coordinator's durable WAL prefix — a durable commit means commit, anything
// else aborts (presumed abort). A part whose record names a coordinator
// outside the group has no such prefix and aborts.
//
// It takes no cut lock: Failover can run on a transaction's own goroutine
// from its StageDecided hook, inside that transaction's read hold, where a
// second read hold queued behind a waiting Snapshot would deadlock. A part it
// applies for a transaction still in flight is covered by that transaction's
// hold; one owed by a transaction that already returned (OutcomeUnknown) is
// not, and a cut may miss it until it lands.
func (g *Group) resolveInDoubt(i int) error {
	state, err := scanShardTxns(g.Store(i), i)
	if err != nil {
		return err
	}
	coordScans := map[int]*shardTxnState{i: state}
	for _, txn := range state.inDoubt() {
		p := state.parts[txn]
		coord := int(p.coord)
		committed, known := g.mgr.resolveLive(txn)
		if !known && p.coord < uint64(g.Shards()) {
			cs := coordScans[coord]
			if cs == nil {
				if cs, err = scanShardTxns(g.Store(coord), coord); err != nil {
					return err
				}
				coordScans[coord] = cs
			}
			committed = cs.commits[txn]
		}
		if committed {
			if _, err := applyPart(g.Leader(i), nil, txn, coord, p.writes); err != nil {
				return fmt.Errorf("shard %d resolve txn %d: %w", i, txn, err)
			}
			g.txnReapply.Inc()
		} else {
			_, _ = g.Leader(i).Logger().Log(txnRecord(wal.RecordTxnAbort, txn, coord, nil))
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
// at. The samples are taken under the cut lock's write hold, when no
// transaction's apply is in flight, so the cut holds every cross-shard
// batch wholly or not at all; it waits for at most the apply phases
// already running (shard.snapshot_wait_us). A failover racing the cut is
// harmless: a view pinned on a deposed leader still reads its shard's
// released prefix exactly (fenced in-flight writes were never released,
// so the pinned horizon excludes them).
func (g *Group) Snapshot() *Snapshot {
	views := make([]*core.ReadView, g.Shards())
	clock := metrics.StartStopwatch()
	g.mgr.cut.Lock()
	clock.Lap(&g.snapshotWait)
	for i := range views {
		views[i] = g.Leader(i).Engine().View()
	}
	g.mgr.cut.Unlock()
	g.snapshots.Inc()
	return newSnapshot(g.router, views)
}
