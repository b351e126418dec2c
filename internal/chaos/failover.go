package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// FailoverConfig parameterizes one failover chaos run: a seeded workload
// interrupted by leader depositions, each answered with an epoch-fenced
// promotion instead of an in-place recovery.
type FailoverConfig struct {
	// Seed drives the workload RNG. Rounds is how many failovers the run
	// performs, spread evenly through Ops (defaults 3 and 1200).
	Seed   int64
	Ops    int
	Rounds int

	// ZombieWrites is how many writes are attempted on each deposed leader
	// after its successor has claimed the fence (default 6). Every one must
	// fail — with an error wrapping storage.ErrFenced or wal.ErrWriterFailed
	// — and none may become visible on the new leader.
	ZombieWrites int

	// Key-space bounds, as in Config (defaults 12, 3, 24).
	Owners, EdgeTypes, Dsts int

	// DeleteFrac is the fraction of deletes (default 0.2).
	DeleteFrac float64

	// CommitWindow / CommitMaxBatch pass through to each leader's group
	// committer, so the kill lands mid-group-commit rather than between
	// single-record flushes.
	CommitWindow   time.Duration
	CommitMaxBatch int

	// PipelineDepth passes through to each leader's committer: > 1 keeps
	// several group appends in flight, so depositions land with the pipeline
	// full rather than between serial appends.
	PipelineDepth int

	// InflightBurst is how many concurrent writes are racing the fence claim
	// on each live (non-crash) deposition — with PipelineDepth > 1 they keep
	// multiple groups in flight at the moment the follower is promoted. Each
	// burst write obeys maybe-semantics: acked ones must survive the
	// failover, failed ones may or may not. 0 disables the burst.
	InflightBurst int

	// StorageWriteLatency simulates slow storage appends, widening the
	// window in which the promotion races in-flight groups.
	StorageWriteLatency time.Duration

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Ops <= 0 {
		c.Ops = 1200
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.ZombieWrites <= 0 {
		c.ZombieWrites = 6
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
	return c
}

// FailoverReport summarizes a failover chaos run.
type FailoverReport struct {
	Ops    int // workload operations issued
	Acked  int // acknowledged (must survive every failover)
	Failed int // returned an error (maybe-semantics)

	Failovers     int    // promotions performed
	CrashKills    int    // rounds where the leader was crashed before promotion
	LiveKills     int    // rounds where a healthy leader was fenced out
	ZombieWrites  int    // writes attempted on deposed leaders
	ZombieFenced  int    // of those, rejected with a fencing/fail-stop error
	BurstWrites   int    // concurrent writes racing the fence at depositions
	BurstAcked    int    // of those, acknowledged durable (must survive)
	FencedAppends int64  // storage-level appends rejected by the fence
	FinalEpoch    uint64 // epoch of the last promoted leader
}

// RunFailover executes one failover chaos run: the workload runs against a
// leader that is repeatedly deposed — on odd rounds killed mid-group-commit
// by an injected crash fault (leaving a torn group envelope on the WAL
// tail), on even rounds left perfectly healthy — and replaced by promoting
// a read-only follower over the same shared store. After each promotion the
// deposed leader is used as a zombie: it keeps issuing writes, every one of
// which must be rejected by the epoch fence rather than silently lost or,
// worse, silently applied. The oracle then verifies the promoted leader:
// every acknowledged write survives, failed writes obey maybe-semantics,
// and no zombie value is visible anywhere. It verifies one follower beside
// it, attached before the first deposition and never resynced: page and tree
// IDs survive a promotion, so it tails the log across all of them.
func RunFailover(cfg FailoverConfig) (*FailoverReport, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &FailoverReport{}
	oracle := NewOracle()

	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: cfg.Seed * 31})
	plan.SetEnabled(false)
	st := storage.Open(&storage.Options{
		ExtentSize:   8 << 10,
		WriteLatency: cfg.StorageWriteLatency,
		Faults:       plan,
	})
	defer st.Close()

	rwOpts := replication.RWOptions{
		Engine: core.Options{
			Tree: bwtree.Config{
				Policy:         bwtree.ReadOptimized,
				MaxPageEntries: 24,
			},
		},
		CommitWindow:  cfg.CommitWindow,
		MaxBatch:      cfg.CommitMaxBatch,
		PipelineDepth: cfg.PipelineDepth,
	}

	rw, err := replication.NewRWNode(st, rwOpts)
	if err != nil {
		return rep, fmt.Errorf("chaos: failover bootstrap: %w", err)
	}
	live := []*replication.RWNode{rw} // every node not yet stopped
	defer func() {
		for _, n := range live {
			n.Stop()
		}
	}()
	tail, err := replication.NewRONode(st, time.Hour, 0) // polled by hand, after each promotion
	if err != nil {
		return rep, fmt.Errorf("chaos: tailing follower: %w", err)
	}
	defer tail.Stop()

	drawKey := func() EdgeKey {
		return EdgeKey{
			Src: graph.VertexID(1 + rng.Intn(cfg.Owners)),
			Typ: graph.EdgeType(1 + rng.Intn(cfg.EdgeTypes)),
			Dst: graph.VertexID(1 + rng.Intn(cfg.Dsts)),
		}
	}
	workOne := func(i int) {
		k := drawKey()
		rep.Ops++
		if rng.Float64() < cfg.DeleteFrac {
			if err := rw.DeleteEdge(k.Src, k.Typ, k.Dst); err != nil {
				rep.Failed++
				oracle.FailDelete(k)
			} else {
				rep.Acked++
				oracle.CommitDelete(k)
			}
			return
		}
		val := fmt.Sprintf("f%d.%d", cfg.Seed, i)
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

	verifyTail := func(when string) error {
		if err := tail.Poll(); err != nil {
			return fmt.Errorf("chaos: %s: tailing follower: %w", when, err)
		}
		if n := tail.Resyncs(); n != 0 {
			return fmt.Errorf("chaos: %s: tailing follower resynced %d times", when, n)
		}
		if err := oracle.Verify(tail.Replica()); err != nil {
			return fmt.Errorf("chaos: %s: tailing follower: %w", when, err)
		}
		return nil
	}

	// depose fences the current leader out by promoting a fresh follower,
	// then drives zombie writes through the deposed node. crash kills the
	// leader mid-group-commit first, so the promotion drain must also cope
	// with a torn group envelope on the WAL tail. On live rounds an
	// InflightBurst of concurrent writes races the fence claim, so with
	// PipelineDepth > 1 the promotion lands with several group appends in
	// flight; each burst write obeys maybe-semantics.
	depose := func(round int, crash bool) error {
		old := rw
		fencedBefore := st.Stats().FencedAppends

		var (
			burstWG   sync.WaitGroup
			burstKeys []EdgeKey
			burstVals []string
			burstErrs []error
		)
		if !crash && cfg.InflightBurst > 0 {
			burstKeys = make([]EdgeKey, cfg.InflightBurst)
			burstVals = make([]string, cfg.InflightBurst)
			burstErrs = make([]error, cfg.InflightBurst)
			for j := 0; j < cfg.InflightBurst; j++ {
				// Keys outside the workload's Dst range and unique per burst
				// write, so the oracle's expected value is never ambiguous
				// under concurrency.
				k := EdgeKey{
					Src: graph.VertexID(1 + j%cfg.Owners),
					Typ: graph.EdgeType(1 + j%cfg.EdgeTypes),
					Dst: graph.VertexID(cfg.Dsts + 1 + round*cfg.InflightBurst + j),
				}
				v := fmt.Sprintf("burst%d.%d.%d", cfg.Seed, round, j)
				burstKeys[j], burstVals[j] = k, v
				burstWG.Add(1)
				go func(j int, k EdgeKey, v string) {
					defer burstWG.Done()
					burstErrs[j] = old.AddEdge(graph.Edge{Src: k.Src, Dst: k.Dst, Type: k.Typ,
						Props: graph.Properties{{Name: propName, Value: []byte(v)}}})
				}(j, k, v)
			}
			// Let the leading groups reach storage so the fence claim lands
			// mid-pipeline: some burst writes ack durable before it, the rest
			// are caught in flight.
			time.Sleep(2 * cfg.StorageWriteLatency)
		}

		if crash {
			rep.CrashKills++
			plan.SetEnabled(true)
			// The crash point tears the dying append mid-write, so the kill
			// lands inside a group envelope, not between flushes.
			plan.ScheduleCrash(1)
			for j := 0; j < 4; j++ { // a few ops to hit the crash point
				workOne(cfg.Ops + round*8 + j)
			}
			plan.ClearCrash()
			plan.SetEnabled(false)
			if !writerDead(old) {
				return fmt.Errorf("chaos: round %d: crash fault did not kill the leader", round)
			}
		} else {
			rep.LiveKills++
		}

		ro, err := replication.NewRONode(st, time.Hour, 0)
		if err != nil {
			return fmt.Errorf("chaos: round %d: follower bootstrap: %w", round, err)
		}
		next, err := replication.Promote(ro, rwOpts)
		if err != nil {
			return fmt.Errorf("chaos: round %d: promote: %w", round, err)
		}
		live = append(live, next)
		rep.Failovers++

		// Resolve the burst that raced the fence claim: an acked write was
		// durable before the fence and must survive the failover; a failed
		// one is a maybe. Registration happens serially, after the race.
		burstWG.Wait()
		for j := range burstErrs {
			rep.Ops++
			rep.BurstWrites++
			if burstErrs[j] == nil {
				rep.Acked++
				rep.BurstAcked++
				oracle.CommitPut(burstKeys[j], burstVals[j])
			} else {
				rep.Failed++
				oracle.FailPut(burstKeys[j], burstVals[j])
			}
		}

		// Let the deposed pipeline's in-flight appends finish before the
		// zero-byte accounting below: a fenced flight's storage round trip
		// can outlive its (already failed) commit ack.
		for i := 0; old.Logger().InflightGroups() > 0 && i < 10000; i++ {
			time.Sleep(100 * time.Microsecond)
		}
		if n := old.Logger().InflightGroups(); n != 0 {
			return fmt.Errorf("chaos: round %d: %d deposed flights stuck in flight", round, n)
		}

		// The deposed leader is now a zombie: it may be healthy, it may
		// even append faster than the new leader — the fence must reject
		// every attempt with an explicit error. The values are drawn from
		// the live key space but never registered in the oracle, so any
		// zombie write that leaked through would be caught by Verify as a
		// phantom or an impossible value.
		zombieBytesBefore := st.Stats().BytesWritten
		for j := 0; j < cfg.ZombieWrites; j++ {
			k := drawKey()
			rep.ZombieWrites++
			zerr := old.AddEdge(graph.Edge{Src: k.Src, Dst: k.Dst, Type: k.Typ,
				Props: graph.Properties{{Name: propName, Value: []byte(fmt.Sprintf("zombie%d.%d", round, j))}}})
			if zerr == nil {
				return fmt.Errorf("chaos: round %d: zombie write %d acknowledged after fence", round, j)
			}
			if !errors.Is(zerr, storage.ErrFenced) && !errors.Is(zerr, wal.ErrWriterFailed) &&
				!errors.Is(zerr, storage.ErrCrashed) {
				return fmt.Errorf("chaos: round %d: zombie write %d failed oddly: %w", round, j, zerr)
			}
			rep.ZombieFenced++
		}

		// Fenced appends persist nothing: the whole zombie phase — with the
		// new leader idle and the deposed pipeline drained — must leave the
		// store's byte count untouched.
		if delta := st.Stats().BytesWritten - zombieBytesBefore; delta != 0 {
			return fmt.Errorf("chaos: round %d: fenced zombie writes persisted %d bytes", round, delta)
		}
		// A live deposition always exercises the fence with real appends —
		// either a burst group caught mid-flight or the first zombie write.
		if !crash && cfg.ZombieWrites > 0 && st.Stats().FencedAppends == fencedBefore {
			return fmt.Errorf("chaos: round %d: live deposition produced no fenced appends", round)
		}

		old.Stop()
		live = live[1:]
		rw = next
		logf("chaos: round %d (crash=%v): promoted to epoch %d after %d acked",
			round, crash, rw.Epoch(), rep.Acked)
		if err := oracle.Verify(rw.Engine()); err != nil {
			return fmt.Errorf("chaos: round %d: after promotion: %w", round, err)
		}
		return verifyTail(fmt.Sprintf("round %d", round))
	}

	segment := cfg.Ops / (cfg.Rounds + 1)
	for i := 0; i < cfg.Ops; i++ {
		workOne(i)
		// Flushes and the odd rotation, so that a promotion hands over pages
		// with durable records under a log suffix — not only a log — and the
		// tailing follower applies checkpoints of every tenure. Each trims
		// the WAL up to a checkpoint of its own or a later one, and a
		// follower the trim outran would re-attach: the tail is kept ahead of
		// them, so its resync count speaks for the failovers alone.
		if i%331 == 330 || i%53 == 52 {
			if err := tail.Poll(); err != nil {
				return rep, fmt.Errorf("chaos: tailing follower at op %d: %w", i, err)
			}
		}
		switch {
		case i%331 == 330:
			if _, err := rw.WriteSnapshot(); err != nil {
				return rep, fmt.Errorf("chaos: snapshot at op %d: %w", i, err)
			}
		case i%53 == 52:
			if err := rw.Checkpoint(); err != nil {
				return rep, fmt.Errorf("chaos: checkpoint at op %d: %w", i, err)
			}
		}
		if round := i / segment; round >= 1 && round <= cfg.Rounds && i%segment == 0 {
			if err := depose(round, round%2 == 1); err != nil {
				return rep, err
			}
		}
	}

	if err := oracle.Verify(rw.Engine()); err != nil {
		return rep, fmt.Errorf("chaos: final leader verify: %w", err)
	}
	if err := verifyTail("final"); err != nil {
		return rep, err
	}

	// A follower attached after the last failover must agree too: the log
	// of every tenure reconstructs the same graph, with every stale-epoch
	// record skipped.
	ro, err := replication.NewRONode(st, time.Millisecond, 0)
	if err != nil {
		return rep, fmt.Errorf("chaos: final follower bootstrap: %w", err)
	}
	if err := ro.Poll(); err != nil {
		ro.Stop()
		return rep, fmt.Errorf("chaos: final follower poll: %w", err)
	}
	verr := oracle.Verify(ro.Replica())
	ro.Stop()
	if verr != nil {
		return rep, fmt.Errorf("chaos: final follower verify: %w", verr)
	}

	rep.FencedAppends = st.Stats().FencedAppends
	rep.FinalEpoch = rw.Epoch()
	logf("chaos: failover done: %d ops (%d acked, %d failed), %d failovers, %d/%d zombies fenced, %d fenced appends, epoch %d",
		rep.Ops, rep.Acked, rep.Failed, rep.Failovers, rep.ZombieFenced, rep.ZombieWrites,
		rep.FencedAppends, rep.FinalEpoch)
	return rep, nil
}
