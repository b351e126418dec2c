package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/shard"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The cross-shard transaction chaos oracle (ISSUE 10): a storm of
// multi-shard batches through the 2PC path while leaders — coordinators
// AND participants — are killed between prepare and commit. The oracle
// replays every shard's durable WAL prefix, applies the recovery
// resolution rule to anything left in doubt (commit iff the
// coordinator's prefix holds the decision), and asserts that every
// batch is all-or-nothing across shards: both halves present with the
// same version, or neither. An acknowledged batch must have both.

// txnBatchKey addresses one writer's batch in the final models.
func txnBatchDst(w, n int) graph.VertexID {
	return graph.VertexID(10_000_000 + w*100_000 + n)
}

func TestTxnLeaderKillAllOrNothing(t *testing.T) {
	const (
		shards  = 4
		writers = 8
		rounds  = 150 // writers*rounds = 1200 multi-shard batches
	)
	g, err := shard.Open(shards,
		&storage.Options{ExtentSize: 32 << 10},
		replication.RWOptions{
			Engine: core.Options{
				Tree: bwtree.Config{
					Policy:         bwtree.ReadOptimized,
					MaxPageEntries: 16,
					ConsolidateNum: 4,
				},
				// Keep every owner in the INIT tree so the per-shard WAL
				// replay can decode keys without tracking migrations.
				SplitThreshold: 0,
			},
			CommitWindow:  100 * time.Microsecond,
			MaxBatch:      16,
			PipelineDepth: 8,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r := g.Router()

	// Each writer owns a pair of source vertices on two different shards;
	// batch n adds one edge from each source to a batch-unique dst, so
	// every batch is a two-shard transaction with unique keys.
	srcA := make([]graph.VertexID, writers)
	srcB := make([]graph.VertexID, writers)
	for w := 0; w < writers; w++ {
		base := graph.VertexID(1000*w + 1)
		srcA[w] = base
		for id := base + 1; ; id++ {
			if r.Owner(id) != r.Owner(base) {
				srcB[w] = id
				break
			}
		}
	}

	// Kill schedule: sampled at StagePrepared (in doubt: prepares
	// durable, no decision yet) alternating coordinator and a
	// non-coordinator participant, plus a couple at StageDecided
	// (commit durable, apply pending) to force the re-apply path.
	var (
		killMu       sync.Mutex
		prepSeen     atomic.Int64
		decideSeen   atomic.Int64
		coordKills   atomic.Int64
		partKills    atomic.Int64
		decidedKills atomic.Int64
		killFailures atomic.Int64
	)
	kill := func(target int, counter *atomic.Int64) {
		killMu.Lock()
		defer killMu.Unlock()
		err := g.Failover(target)
		switch {
		case err == nil:
			counter.Add(1)
		case errors.Is(err, storage.ErrFenced):
			// A concurrent failover won the shard; the kill still happened.
			counter.Add(1)
		default:
			killFailures.Add(1)
			t.Errorf("failover shard %d: %v", target, err)
		}
	}
	g.SetTxnStageHook(func(stage shard.TxnStage, txn uint64, members []int) {
		switch stage {
		case shard.StagePrepared:
			n := prepSeen.Add(1)
			if n%60 != 30 || coordKills.Load()+partKills.Load() >= 10 {
				return
			}
			if (n/60)%2 == 0 {
				kill(members[0], &coordKills) // coordinator
			} else {
				kill(members[len(members)-1], &partKills) // participant
			}
		case shard.StageDecided:
			n := decideSeen.Add(1)
			if n%500 != 250 || decidedKills.Load() >= 2 {
				return
			}
			kill(members[len(members)-1], &decidedKills)
		}
	})

	applyRetry := func(muts []graph.Mutation) error {
		deadline := time.Now().Add(20 * time.Second)
		for {
			err := g.ApplyBatch(muts)
			if err == nil {
				return nil
			}
			if !errors.Is(err, storage.ErrFenced) && !errors.Is(err, wal.ErrWriterFailed) &&
				!errors.Is(err, wal.ErrCommitterStopped) && !errors.Is(err, shard.ErrTxnAborted) {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("batch still failing after failovers: %w", err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				ver := []byte(fmt.Sprintf("%d:%d", w, n))
				dst := txnBatchDst(w, n)
				muts := []graph.Mutation{
					graph.AddEdgeMut(graph.Edge{
						Src: srcA[w], Dst: dst, Type: graph.ETypeFollow,
						Props: graph.Properties{{Name: snapProp, Value: ver}},
					}),
					graph.AddEdgeMut(graph.Edge{
						Src: srcB[w], Dst: dst, Type: graph.ETypeFollow,
						Props: graph.Properties{{Name: snapProp, Value: ver}},
					}),
				}
				if err := applyRetry(muts); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("writer %d batch %d: %w", w, n, err)
					}
					errMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	g.SetTxnStageHook(nil)
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if coordKills.Load() == 0 || partKills.Load() == 0 || decidedKills.Load() == 0 {
		t.Fatalf("kill schedule too thin: %d coordinator kills, %d participant kills, %d post-decision kills",
			coordKills.Load(), partKills.Load(), decidedKills.Load())
	}
	if killFailures.Load() != 0 {
		t.Fatalf("%d failovers failed outright", killFailures.Load())
	}

	// Replay each shard's durable WAL prefix: data records into the
	// per-shard model, transaction control records into the resolution
	// state. Only the gapless prefix counts — the reader purges groups
	// fenced off by the failovers before delivering.
	models := make([]map[EdgeKey]string, shards)
	prepares := make([]map[uint64]*shard.TxnPayload, shards)
	resolved := make([]map[uint64]bool, shards)
	commits := make([]map[uint64]bool, shards)
	for i := 0; i < shards; i++ {
		models[i] = make(map[EdgeKey]string)
		prepares[i] = make(map[uint64]*shard.TxnPayload)
		resolved[i] = make(map[uint64]bool)
		commits[i] = make(map[uint64]bool)
		reader := wal.NewReader(g.Store(i))
		for {
			gs, err := reader.PollGroups()
			if err != nil {
				t.Fatalf("shard %d replay: %v", i, err)
			}
			if len(gs) == 0 {
				break
			}
			for _, grp := range gs {
				for _, rec := range grp {
					switch rec.Type {
					case wal.RecordTxnPrepare:
						if p, derr := shard.DecodePrepareRecord(rec); derr == nil {
							prepares[i][rec.TreeID] = p
						} else {
							t.Fatalf("shard %d: undecodable durable prepare txn %d: %v", i, rec.TreeID, derr)
						}
					case wal.RecordTxnCommit:
						commits[i][rec.TreeID] = true
					case wal.RecordTxnAbort, wal.RecordTxnApplied:
						resolved[i][rec.TreeID] = true
					default:
						if err := replayApply(models[i], rec); err != nil {
							t.Fatalf("shard %d replay LSN %d: %v", i, rec.LSN, err)
						}
					}
				}
			}
		}
	}

	// Recovery's resolution rule: an in-doubt prepare commits iff the
	// coordinator's durable prefix holds the decision; otherwise it is
	// presumed aborted and contributes nothing.
	inDoubt, resolvedCommits := 0, 0
	for i := 0; i < shards; i++ {
		for txn, p := range prepares[i] {
			if resolved[i][txn] {
				continue
			}
			inDoubt++
			if !commits[p.Coord][txn] {
				continue
			}
			resolvedCommits++
			for _, m := range p.Muts {
				if m.Kind != graph.MutAddEdge {
					t.Fatalf("shard %d txn %d: unexpected mutation kind %d", i, txn, m.Kind)
				}
				v, _ := m.Edge.Props.Get(snapProp)
				models[i][EdgeKey{Src: m.Edge.Src, Typ: m.Edge.Type, Dst: m.Edge.Dst}] = string(v)
			}
		}
	}

	// The oracle: every batch all-or-nothing, every acknowledged batch
	// present on both shards with its version. Writers only returned
	// after every batch was acknowledged, so "nothing" would be a lost
	// ack and "half" a prefix commit — both fatal.
	halves, full := 0, 0
	for w := 0; w < writers; w++ {
		for n := 0; n < rounds; n++ {
			want := fmt.Sprintf("%d:%d", w, n)
			dst := txnBatchDst(w, n)
			va, oka := models[r.Owner(srcA[w])][EdgeKey{Src: srcA[w], Typ: graph.ETypeFollow, Dst: dst}]
			vb, okb := models[r.Owner(srcB[w])][EdgeKey{Src: srcB[w], Typ: graph.ETypeFollow, Dst: dst}]
			if oka != okb {
				halves++
				t.Errorf("prefix commit: batch %d:%d half-applied (shard %d=%v, shard %d=%v)",
					w, n, r.Owner(srcA[w]), oka, r.Owner(srcB[w]), okb)
				continue
			}
			if !oka {
				t.Errorf("acknowledged batch %d:%d lost on both shards", w, n)
				continue
			}
			if va != want || vb != want {
				t.Errorf("batch %d:%d version mismatch: %q / %q, want %q", w, n, va, vb, want)
				continue
			}
			full++
		}
	}
	if halves != 0 {
		t.Fatalf("%d prefix commits across %d batches", halves, writers*rounds)
	}
	if full != writers*rounds {
		t.Fatalf("only %d of %d acknowledged batches fully present", full, writers*rounds)
	}
	t.Logf("verified %d multi-shard batches all-or-nothing across %d shards "+
		"(%d coordinator kills, %d participant kills, %d post-decision kills, %d in-doubt prepares, %d resolved to commit)",
		full, shards, coordKills.Load(), partKills.Load(), decidedKills.Load(), inDoubt, resolvedCommits)
}
