package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestStressShardedWritersFailover is the ISSUE 9 -race stress leg: 32
// writers hammer a 4-shard group with multi-shard batches while readers
// sample consistent cuts and one shard's leader is killed mid-run. The
// contract checked end to end:
//
//   - a writer racing the failover sees an explicit error wrapping
//     storage.ErrFenced or wal.ErrWriterFailed — never a silent drop —
//     and a bounded retry against the promoted leader succeeds;
//   - every shard's epoch vector component is monotone across every
//     sample, including across the promotion (the recovered clock starts
//     at the durable boundary, never behind the released horizon);
//   - after quiescing, every acked write is readable through the routed
//     path, and each shard's durable WAL delivers a gapless LSN sequence
//     1..LastLSN, and holds no zombie group: the fence rejects every
//     append of the deposed tenure whole.
func TestStressShardedWritersFailover(t *testing.T) {
	const (
		writers  = 32
		shards   = 4
		rounds   = 40
		edgesPer = 4
		readers  = 3
		victim   = 1
	)
	g := openTestGroup(t, shards)

	var (
		stop     = make(chan struct{})
		writerWG sync.WaitGroup
		auxWG    sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Each writer owns srcs {w*100+1 .. w*100+edgesPer} — spread across
	// shards by the hash, so nearly every batch fans out — and versions
	// its edges so readers can assert time never runs backwards.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for n := 0; n < rounds; n++ {
				muts := make([]graph.Mutation, 0, edgesPer)
				for d := 0; d < edgesPer; d++ {
					muts = append(muts, graph.AddEdgeMut(graph.Edge{
						Src: graph.VertexID(w*100 + d + 1), Dst: graph.VertexID(9000 + n),
						Type: graph.ETypeFollow,
						Props: graph.Properties{{
							Name: "ver", Value: []byte(strconv.Itoa(n)),
						}},
					}))
				}
				// Retry the fenced window: the failover promotes a new
				// leader on the same durable state, and mutations are
				// idempotent upserts, so replaying the batch is safe. A
				// transaction the failover's resolution pass force-aborted
				// mid-prepare applied nowhere and retries the same way.
				deadline := time.Now().Add(10 * time.Second)
				for {
					err := g.ApplyBatch(muts)
					if err == nil {
						break
					}
					if !errors.Is(err, storage.ErrFenced) && !errors.Is(err, wal.ErrWriterFailed) &&
						!errors.Is(err, wal.ErrCommitterStopped) && !errors.Is(err, ErrTxnAborted) {
						fail(fmt.Errorf("writer %d: non-fence error: %w", w, err))
						return
					}
					if time.Now().After(deadline) {
						fail(fmt.Errorf("writer %d: still fenced after failover: %w", w, err))
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(w)
	}

	// Readers sample the released epoch vector and pin full cuts; each
	// vector component must be monotone across samples and failovers.
	for r := 0; r < readers; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			last := make(Vector, shards)
			for {
				select {
				case <-stop:
					return
				default:
				}
				vec := g.ReadEpochs()
				for i, e := range vec {
					if e < last[i] {
						fail(fmt.Errorf("shard %d epoch ran backwards: %d after %d", i, e, last[i]))
						return
					}
					last[i] = e
				}
				snap := g.Snapshot()
				for i, e := range snap.Epochs() {
					if e < vec[i] {
						fail(fmt.Errorf("shard %d pinned cut %d behind sampled release %d", i, e, vec[i]))
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}()
	}

	// Kill one shard leader mid-run.
	time.Sleep(2 * time.Millisecond)
	if err := g.Failover(victim); err != nil {
		t.Fatalf("failover: %v", err)
	}

	writerWG.Wait()
	close(stop)
	auxWG.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if got := g.Metrics().Snapshot()["shard.failovers"].Value; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	// Quiesced: every acked write visible through the routed read path.
	for w := 0; w < writers; w++ {
		for d := 0; d < edgesPer; d++ {
			src := graph.VertexID(w*100 + d + 1)
			n, err := g.Degree(src, graph.ETypeFollow)
			if err != nil {
				t.Fatal(err)
			}
			if n != rounds {
				var got []graph.VertexID
				g.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, _ graph.Properties) bool {
					got = append(got, dst)
					return true
				})
				t.Fatalf("src %d (shard %d): degree %d, want %d; dsts %v",
					src, g.Router().Owner(src), n, rounds, got)
			}
		}
	}

	// Each shard's durable WAL must be a gapless prefix: LSNs 1..N with
	// no zombie records behind the fence, and N matching the committer's
	// assigned horizon.
	for i := 0; i < shards; i++ {
		reader := wal.NewReader(g.Store(i))
		groups, err := reader.PollGroups()
		if err != nil {
			t.Fatalf("shard %d: replay: %v", i, err)
		}
		var lsn wal.LSN
		for _, grp := range groups {
			for _, rec := range grp {
				lsn++
				if rec.LSN != lsn {
					t.Fatalf("shard %d: WAL record LSN %d, want %d: durable prefix has a gap", i, rec.LSN, lsn)
				}
			}
		}
		if last := g.Leader(i).LastLSN(); lsn != last {
			t.Fatalf("shard %d: WAL holds %d records, committer assigned up to %d", i, lsn, last)
		}
		if skips := reader.FencedSkips(); skips != 0 {
			t.Fatalf("shard %d: the reader skipped %d records of a fenced tenure", i, skips)
		}
		if i == victim && reader.Epoch() == 0 {
			t.Fatalf("shard %d: log tail epoch 0 after a failover", i)
		}
	}

	// Pin accounting: no reader leaked a cut.
	for i := 0; i < shards; i++ {
		if n := g.Leader(i).Engine().Epochs().PinnedCount(); n != 0 {
			t.Fatalf("shard %d: %d pins leaked", i, n)
		}
	}
}
