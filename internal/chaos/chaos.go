package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// propName is the single edge property the workload writes and the oracle
// compares.
const propName = "v"

// Config parameterizes one harness run. The zero value is filled with
// small-but-meaningful defaults by Run.
type Config struct {
	// Seed drives the workload RNG (op mix, keys, crash spacing). The
	// fault plan has its own seed in Faults.Seed; together they make a run
	// reproducible.
	Seed int64

	// Ops is the number of workload operations (default 2000).
	Ops int

	// Owners, EdgeTypes and Dsts bound the key space: edges are drawn as
	// (owner, type, dst) over [1..Owners] x [1..EdgeTypes] x [1..Dsts].
	// Defaults 12, 3, 24.
	Owners, EdgeTypes, Dsts int

	// DeleteFrac is the fraction of ops that are deletes (default 0.2).
	DeleteFrac float64

	// BatchFrac is the fraction of ops issued as multi-mutation ApplyBatch
	// calls — each batch is one durability decision whose WAL records
	// share commit groups (default 0: single ops only). A failed batch
	// leaves every mutation in it uncertain, which is exactly the
	// whole-group-or-none contract the oracle then verifies against
	// recovery.
	BatchFrac float64

	// BatchMax bounds the mutations per batch (default 8).
	BatchMax int

	// CommitWindow / CommitMaxBatch pass through to the RW node's group
	// committer. A non-zero window lets a batch's records coalesce into
	// real multi-record group envelopes, so injected torn appends land in
	// the middle of a group flush.
	CommitWindow   time.Duration
	CommitMaxBatch int

	// CheckpointEvery / SnapshotEvery run a manual checkpoint / a whole
	// checkpoint rotation (RWNode.WriteSnapshot, which trims the WAL) every
	// N ops (defaults 40 and 350; 0 disables). GCEvery runs a synchronous reclamation cycle (default 0).
	CheckpointEvery, SnapshotEvery, GCEvery int

	// CrashAppends is the mean number of storage appends between injected
	// crash points (0: no crashes). Each gap is drawn uniformly from
	// [CrashAppends/2, 3*CrashAppends/2).
	CrashAppends int64

	// ExtentSize is the store's extent capacity (default 8 KiB — small, so
	// runs seal many extents and exercise the tail-of-extent paths).
	ExtentSize int

	// Faults configures the injected storage misbehaviour. SealLossProb
	// must be 0 here: the harness runs a single-copy store, so losing an
	// extent that holds acknowledged data is genuine data loss, which the
	// recovery path correctly refuses to paper over. Extent-loss handling
	// is exercised by the follower-resync tests instead.
	Faults storage.FaultConfig

	// Logf, when non-nil, receives progress lines (tests pass t.Logf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.Owners <= 0 {
		c.Owners = 12
	}
	if c.EdgeTypes <= 0 {
		c.EdgeTypes = 3
	}
	if c.Dsts <= 0 {
		c.Dsts = 24
	}
	if c.DeleteFrac == 0 {
		c.DeleteFrac = 0.2
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 40
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 350
	}
	if c.ExtentSize <= 0 {
		c.ExtentSize = 8 << 10
	}
	return c
}

// Report summarizes a run for assertions and logging.
type Report struct {
	Ops    int // workload operations issued
	Acked  int // operations acknowledged (must survive recovery)
	Failed int // operations that returned an error (may or may not survive)

	BatchOps       int // ApplyBatch calls issued
	BatchMutations int // mutations carried inside those batches

	Crashes    int // node deaths (injected crash points + fail-stopped writers)
	Recoveries int // successful RecoverRWNode reopens

	CertainKeys   int // oracle keys with exact expected state
	UncertainKeys int // oracle keys carrying failed-op residue

	Faults storage.FaultStats // what the plan actually injected
}

// Run executes one crash-recovery chaos run and returns its report. Any
// returned error is a property violation (lost acknowledged write, phantom
// state, failed recovery) — a nil error means every crash was survived
// with the durability contract intact.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults.SealLossProb != 0 {
		return nil, fmt.Errorf("chaos: SealLossProb is not survivable on a single-copy store")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}
	oracle := NewOracle()

	plan := storage.NewFaultPlan(cfg.Faults)
	plan.OnInject = func(storage.FaultKind) { metrics.Faults.FaultsInjected.Inc() }
	plan.SetEnabled(false) // quiet while the node bootstraps
	st := storage.Open(&storage.Options{
		ExtentSize: cfg.ExtentSize,
		Faults:     plan,
	})
	defer st.Close()

	rwOpts := replication.RWOptions{
		Engine: core.Options{
			Tree: bwtree.Config{
				Policy:         bwtree.ReadOptimized,
				MaxPageEntries: 24, // small pages: splits happen early
			},
			// Forest migrations stay off: everything lives in INIT, which
			// still exercises page splits, flushes, and replay.
		},
		// The harness is single-threaded, so every op (single or batch)
		// waits for its own durability decision and acked-vs-failed
		// attribution in the oracle stays exact regardless of the window; a
		// non-zero window just makes commit groups genuinely multi-record.
		CommitWindow: cfg.CommitWindow,
		MaxBatch:     cfg.CommitMaxBatch,
	}

	rw, err := replication.NewRWNode(st, rwOpts)
	if err != nil {
		return rep, fmt.Errorf("chaos: bootstrap: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			rw.Stop()
		}
	}()
	crashGap := func() int64 {
		return cfg.CrashAppends/2 + rng.Int63n(cfg.CrashAppends+1)
	}
	plan.SetEnabled(true)
	if cfg.CrashAppends > 0 {
		plan.ScheduleCrash(crashGap())
	}

	drawKey := func() EdgeKey {
		return EdgeKey{
			Src: graph.VertexID(1 + rng.Intn(cfg.Owners)),
			Typ: graph.EdgeType(1 + rng.Intn(cfg.EdgeTypes)),
			Dst: graph.VertexID(1 + rng.Intn(cfg.Dsts)),
		}
	}
	for i := 0; i < cfg.Ops; i++ {
		k := drawKey()
		rep.Ops++
		if cfg.BatchFrac > 0 && rng.Float64() < cfg.BatchFrac {
			// One ApplyBatch: n mutations, one durability decision, WAL
			// records committed in shared groups. Every few batches the next
			// storage append is force-torn, so the batch's group flush dies
			// mid-write and recovery must keep the whole envelope or none of
			// it — which the oracle checks as all-mutations-uncertain.
			type batchOp struct {
				k   EdgeKey
				del bool
				val string
			}
			n := 2 + rng.Intn(cfg.BatchMax-1)
			muts := make([]graph.Mutation, 0, n)
			ops := make([]batchOp, 0, n)
			for j := 0; j < n; j++ {
				bk := drawKey()
				if rng.Float64() < cfg.DeleteFrac {
					muts = append(muts, graph.DeleteEdgeMut(bk.Src, bk.Typ, bk.Dst))
					ops = append(ops, batchOp{k: bk, del: true})
				} else {
					val := fmt.Sprintf("s%d.%d.%d", cfg.Seed, i, j)
					muts = append(muts, graph.AddEdgeMut(graph.Edge{
						Src: bk.Src, Dst: bk.Dst, Type: bk.Typ,
						Props: graph.Properties{{Name: propName, Value: []byte(val)}},
					}))
					ops = append(ops, batchOp{k: bk, val: val})
				}
			}
			rep.BatchOps++
			rep.BatchMutations += n
			if cfg.Faults.TornWriteProb > 0 && rep.BatchOps%4 == 1 {
				// Force a tear under the upcoming flush so torn group
				// envelopes are exercised deterministically — only when this
				// run injects faults at all (quiet runs must stay quiet).
				plan.TearNext()
			}
			if err := rw.ApplyBatch(muts); err != nil {
				rep.Failed++
				logf("chaos: batch %d (op %d, %d mutations) failed: %v", rep.BatchOps, i, n, err)
				// Whole-group-or-none, and a batch is logged in (owner, key)
				// order over as many groups as it takes: any part of it may
				// have become durable, so every mutation is individually
				// uncertain until a later acknowledged op overwrites it.
				for _, op := range ops {
					if op.del {
						oracle.FailDelete(op.k)
					} else {
						oracle.FailPut(op.k, op.val)
					}
				}
			} else {
				rep.Acked++
				for _, op := range ops {
					if op.del {
						oracle.CommitDelete(op.k)
					} else {
						oracle.CommitPut(op.k, op.val)
					}
				}
			}
		} else if rng.Float64() < cfg.DeleteFrac {
			if err := rw.DeleteEdge(k.Src, k.Typ, k.Dst); err != nil {
				rep.Failed++
				oracle.FailDelete(k)
			} else {
				rep.Acked++
				oracle.CommitDelete(k)
			}
		} else {
			val := fmt.Sprintf("s%d.%d", cfg.Seed, i)
			e := graph.Edge{Src: k.Src, Dst: k.Dst, Type: k.Typ,
				Props: graph.Properties{{Name: propName, Value: []byte(val)}}}
			if err := rw.AddEdge(e); err != nil {
				rep.Failed++
				oracle.FailPut(k, val)
			} else {
				rep.Acked++
				oracle.CommitPut(k, val)
			}
		}
		if i == 10 {
			// Guarantee at least one torn tail-write per run, independent
			// of the probabilistic draws.
			plan.TearNext()
		}
		if i%7 == 3 {
			// Exercise the read path under injected read faults; results
			// are unverifiable mid-fault, so only hard state is asserted
			// after recovery.
			_, _, _ = rw.GetEdge(k.Src, k.Typ, k.Dst)
		}
		if cfg.CheckpointEvery > 0 && i%cfg.CheckpointEvery == cfg.CheckpointEvery-1 {
			_ = rw.Checkpoint() // a failed checkpoint just defers the flush
		}
		if cfg.SnapshotEvery > 0 && i%cfg.SnapshotEvery == cfg.SnapshotEvery-1 {
			// A rotation trims the WAL as it goes; one cut short by a
			// failed checkpoint trims only to what its predecessors named.
			_, _ = rw.WriteSnapshot()
		}
		if cfg.GCEvery > 0 && i%cfg.GCEvery == cfg.GCEvery-1 {
			_, _ = rw.Engine().RunGC(1)
		}

		if plan.Crashed() || writerDead(rw) {
			rep.Crashes++
			logf("chaos: crash %d at op %d (acked %d, failed %d)", rep.Crashes, i, rep.Acked, rep.Failed)
			rw.Stop()
			stopped = true
			// The node is gone; shared storage survives. Recovery runs in
			// a quiet window (a real reopen races no injected workload).
			plan.ClearCrash()
			plan.SetEnabled(false)
			rw, err = replication.RecoverRWNode(st, rwOpts)
			if err != nil {
				return rep, fmt.Errorf("chaos: recovery after crash %d: %w", rep.Crashes, err)
			}
			stopped = false
			rep.Recoveries++
			metrics.Faults.Recoveries.Inc()
			if err := oracle.Verify(rw.Engine()); err != nil {
				return rep, fmt.Errorf("chaos: after crash %d: %w", rep.Crashes, err)
			}
			plan.SetEnabled(true)
			if cfg.CrashAppends > 0 {
				plan.ScheduleCrash(crashGap())
			}
		}
	}

	// Final pass: quiesce faults, restart once more (a clean shutdown is
	// still a crash from storage's point of view — the WAL suffix beyond
	// the last checkpoint must replay), and verify leader and a follower.
	plan.ClearCrash()
	plan.SetEnabled(false)
	rep.CertainKeys = oracle.Certain()
	rep.UncertainKeys = oracle.Uncertain()
	if err := oracle.Verify(rw.Engine()); err != nil {
		return rep, fmt.Errorf("chaos: final live verify: %w", err)
	}
	rw.Stop()
	stopped = true
	rw, err = replication.RecoverRWNode(st, rwOpts)
	if err != nil {
		return rep, fmt.Errorf("chaos: final recovery: %w", err)
	}
	stopped = false
	rep.Recoveries++
	metrics.Faults.Recoveries.Inc()
	if err := oracle.Verify(rw.Engine()); err != nil {
		return rep, fmt.Errorf("chaos: final recovered verify: %w", err)
	}

	// A follower attached from the retained head, applying the log of every
	// tenure since, must agree.
	ro, err := replication.NewRONode(st, time.Millisecond, 0)
	if err != nil {
		return rep, fmt.Errorf("chaos: follower bootstrap: %w", err)
	}
	if err := ro.Poll(); err != nil {
		ro.Stop()
		return rep, fmt.Errorf("chaos: follower poll: %w", err)
	}
	verr := oracle.Verify(ro.Replica())
	ro.Stop()
	if verr != nil {
		return rep, fmt.Errorf("chaos: follower verify: %w", verr)
	}

	rep.Faults = plan.Stats()
	logf("chaos: done: %d ops (%d acked, %d failed), %d crashes, %d recoveries, faults %+v",
		rep.Ops, rep.Acked, rep.Failed, rep.Crashes, rep.Recoveries, rep.Faults)
	return rep, nil
}

// writerDead reports whether the node's WAL writer has fail-stopped
// (retries exhausted without an injected crash). The fail-stop is what
// keeps the LSN sequence gapless, so the harness treats it exactly like a
// crash: stop the node, recover from shared storage.
func writerDead(rw *replication.RWNode) bool {
	err := rw.Writer().Err()
	return err != nil && errors.Is(err, wal.ErrWriterFailed)
}
