package chaos

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The snapshot-isolation chaos suite: multi-hop traversals pinned to an
// MVCC read epoch run concurrently with ApplyBatch storms through a
// depth-8 pipelined group committer and a live GC reclaimer. The oracle is
// exact: every traversal's observation must equal the state produced by
// replaying the WAL prefix up to the traversal's pinned epoch — and that
// epoch must be the last LSN of some sealed commit group (or 0, the empty
// prefix). Anything else is a torn read.

const snapProp = "v"

// snapObservation is one pinned traversal's complete view: the pinned
// epoch plus, for every source vertex visited, its adjacency list with the
// version each edge carried.
type snapObservation struct {
	epoch wal.LSN
	adj   map[graph.VertexID]map[graph.VertexID]string // src -> dst -> version
}

// traverseAt performs the 2-hop traversal through a pinned view: hub ->
// writers -> per-writer edge fan, recording every edge's version.
func traverseAt(v *core.ReadView, hub graph.VertexID) (snapObservation, error) {
	obs := snapObservation{
		epoch: wal.LSN(v.Epoch()),
		adj:   make(map[graph.VertexID]map[graph.VertexID]string),
	}
	record := func(src graph.VertexID) error {
		m := make(map[graph.VertexID]string)
		err := v.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, props graph.Properties) bool {
			val, _ := props.Get(snapProp)
			m[dst] = string(val)
			return true
		})
		obs.adj[src] = m
		return err
	}
	if err := record(hub); err != nil {
		return obs, err
	}
	for src := range obs.adj[hub] {
		if err := record(src); err != nil {
			return obs, err
		}
	}
	return obs, nil
}

// replayModel applies WAL put/delete records to an edge->version model.
// The workload keeps every owner in the INIT tree (SplitThreshold 0), so
// every data record's key is owner[8] | etype[2] | dst[8].
func replayApply(model map[EdgeKey]string, rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordPut, wal.RecordDelete:
	default:
		return nil
	}
	if len(rec.Key) != 18 {
		return fmt.Errorf("unexpected key length %d (vertex record or migration in a SplitThreshold=0 run?)", len(rec.Key))
	}
	owner := beUint64(rec.Key[:8])
	et, dst, err := graph.DecodeEdgeKey(rec.Key[8:])
	if err != nil {
		return err
	}
	k := EdgeKey{Src: graph.VertexID(owner), Typ: et, Dst: dst}
	if rec.Type == wal.RecordDelete {
		delete(model, k)
		return nil
	}
	props, err := graph.DecodeProps(rec.Value)
	if err != nil {
		return err
	}
	val, _ := props.Get(snapProp)
	model[k] = string(val)
	return nil
}

func beUint64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// checkObservation verifies one traversal against the model at its epoch:
// for every source it visited, the observed adjacency list must match the
// model's exactly — same destinations, same versions.
func checkObservation(obs snapObservation, model map[EdgeKey]string) error {
	for src, seen := range obs.adj {
		want := make(map[graph.VertexID]string)
		for k, v := range model {
			if k.Src == src && k.Typ == graph.ETypeFollow {
				want[k.Dst] = v
			}
		}
		if len(seen) != len(want) {
			return fmt.Errorf("epoch %d src %d: observed %d edges, WAL prefix has %d", obs.epoch, src, len(seen), len(want))
		}
		for dst, got := range seen {
			if wv, ok := want[dst]; !ok || wv != got {
				return fmt.Errorf("epoch %d edge %d->%d: observed %q, WAL prefix has %q (present=%v)", obs.epoch, src, dst, got, wv, ok)
			}
		}
	}
	return nil
}

// TestSnapshotTraversalMatchesGroupBoundary is the acceptance oracle of
// the MVCC read epochs (ISSUE 7): under a depth-8 pipelined committer,
// concurrent ApplyBatch storms, page flushes, and GC reclamation, every
// pinned 2-hop traversal observes exactly the graph produced by some WAL
// prefix ending at a group-commit boundary — never a partial group, never
// a mix of two boundaries.
func TestSnapshotTraversalMatchesGroupBoundary(t *testing.T) {
	const (
		hub      = graph.VertexID(1000)
		writers  = 8
		rounds   = 40
		edgesPer = 6
		readers  = 4
	)
	st := storage.Open(&storage.Options{ExtentSize: 8 << 10})
	defer st.Close()
	rw, err := replication.NewRWNode(st, replication.RWOptions{
		Engine: core.Options{
			Tree: bwtree.Config{
				Policy:         bwtree.ReadOptimized,
				MaxPageEntries: 16,
				ConsolidateNum: 4,
			},
			// Keep every owner in the INIT tree so the WAL replay oracle
			// can decode keys without tracking migrations.
			SplitThreshold: 0,
		},
		CommitWindow:  100 * time.Microsecond,
		MaxBatch:      16,
		PipelineDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	// The oracle replays the log from LSN 1: the checkpoints must not trim it.
	rw.SetLowWater(func() wal.LSN { return 1 })

	// Seed the hub's first hop: one edge to each writer's source vertex.
	seed := make([]graph.Mutation, 0, writers)
	for w := 0; w < writers; w++ {
		seed = append(seed, graph.AddEdgeMut(graph.Edge{
			Src: hub, Dst: graph.VertexID(w + 1), Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: snapProp, Value: []byte("seed")}},
		}))
	}
	if err := rw.ApplyBatch(seed); err != nil {
		t.Fatal(err)
	}

	var (
		stop     = make(chan struct{})
		writerWG sync.WaitGroup
		auxWG    sync.WaitGroup
		obsMu    sync.Mutex
		obsList  []snapObservation
		firstErr error
	)
	fail := func(err error) {
		obsMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		obsMu.Unlock()
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			src := graph.VertexID(w + 1)
			for n := 0; n < rounds; n++ {
				ver := []byte(strconv.Itoa(n))
				muts := make([]graph.Mutation, 0, edgesPer)
				for d := 0; d < edgesPer; d++ {
					muts = append(muts, graph.AddEdgeMut(graph.Edge{
						Src: src, Dst: graph.VertexID(5000 + d), Type: graph.ETypeFollow,
						Props: graph.Properties{{Name: snapProp, Value: ver}},
					}))
				}
				if err := rw.ApplyBatch(muts); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	// Flush + GC churn: consolidations move history to new bases and the
	// reclaimer relocates extents while traversals hold pins.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rw.Checkpoint()
			if _, err := rw.Engine().RunGC(2); err != nil {
				fail(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for r := 0; r < readers; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			var lastEpoch wal.LSN
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := rw.Engine().View()
				obs, err := traverseAt(v, hub)
				v.Close()
				if err != nil {
					fail(err)
					return
				}
				if obs.epoch < lastEpoch {
					fail(fmt.Errorf("read epoch went backwards: %d after %d", obs.epoch, lastEpoch))
					return
				}
				lastEpoch = obs.epoch
				obsMu.Lock()
				obsList = append(obsList, obs)
				obsMu.Unlock()
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	auxWG.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Build the exact oracle: replay the WAL group by group, snapshotting
	// the model at every group boundary.
	reader := wal.NewReader(st)
	boundaries := map[wal.LSN]map[EdgeKey]string{0: {}}
	model := make(map[EdgeKey]string)
	groups := 0
	for {
		gs, err := reader.PollGroups()
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) == 0 {
			break
		}
		for _, g := range gs {
			for _, rec := range g {
				if err := replayApply(model, rec); err != nil {
					t.Fatalf("replay LSN %d: %v", rec.LSN, err)
				}
			}
			snap := make(map[EdgeKey]string, len(model))
			for k, v := range model {
				snap[k] = v
			}
			boundaries[g[len(g)-1].LSN] = snap
			groups++
		}
	}
	if groups < writers*rounds*edgesPer/16 {
		t.Fatalf("suspiciously few commit groups: %d", groups)
	}

	checked := 0
	for _, obs := range obsList {
		m, ok := boundaries[obs.epoch]
		if !ok {
			t.Fatalf("pinned epoch %d is not a group-commit boundary (%d boundaries)", obs.epoch, len(boundaries))
		}
		if err := checkObservation(obs, m); err != nil {
			t.Fatalf("torn traversal: %v", err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no traversal completed; the oracle is vacuous")
	}
	t.Logf("verified %d pinned traversals against %d group boundaries (gc stats: %+v)",
		checked, groups, rw.Engine().GCStats())
}

// TestStressSnapshotReadersUnderWriteStorm is the -race MVCC stress leg:
// 32 writers hammer ApplyBatch while pinned readers traverse and a GC/
// flush loop churns pages underneath. Readers assert the snapshot
// contract that survives without the full WAL oracle: epochs never move
// backwards across successive pins, and each writer's observed version
// never decreases (visibility is a WAL prefix, so time cannot run
// backwards for any key).
func TestStressSnapshotReadersUnderWriteStorm(t *testing.T) {
	const (
		writers  = 32
		rounds   = 60
		edgesPer = 4
		readers  = 4
	)
	st := storage.Open(&storage.Options{ExtentSize: 16 << 10})
	defer st.Close()
	rw, err := replication.NewRWNode(st, replication.RWOptions{
		Engine: core.Options{
			Tree: bwtree.Config{
				Policy:         bwtree.ReadOptimized,
				MaxPageEntries: 16,
				ConsolidateNum: 4,
			},
			SplitThreshold: 0,
		},
		CommitWindow:  50 * time.Microsecond,
		MaxBatch:      32,
		PipelineDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	// The oracle replays the log from LSN 1: the checkpoints must not trim it.
	rw.SetLowWater(func() wal.LSN { return 1 })

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

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			src := graph.VertexID(w + 1)
			for n := 0; n < rounds; n++ {
				ver := []byte(strconv.Itoa(n))
				muts := make([]graph.Mutation, 0, edgesPer)
				for d := 0; d < edgesPer; d++ {
					muts = append(muts, graph.AddEdgeMut(graph.Edge{
						Src: src, Dst: graph.VertexID(7000 + d), Type: graph.ETypeFollow,
						Props: graph.Properties{{Name: snapProp, Value: ver}},
					}))
				}
				if err := rw.ApplyBatch(muts); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rw.Checkpoint()
			_, _ = rw.Engine().RunGC(2)
		}
	}()

	for r := 0; r < readers; r++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			lastVer := make(map[graph.VertexID]int)
			var lastEpoch wal.LSN
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := rw.Engine().View()
				if e := wal.LSN(v.Epoch()); e < lastEpoch {
					fail(fmt.Errorf("epoch went backwards: %d after %d", e, lastEpoch))
					v.Close()
					return
				} else {
					lastEpoch = e
				}
				for w := 0; w < writers; w++ {
					src := graph.VertexID(w + 1)
					maxSeen := -1
					err := v.Neighbors(src, graph.ETypeFollow, 0, func(_ graph.VertexID, props graph.Properties) bool {
						if raw, ok := props.Get(snapProp); ok {
							if n, err := strconv.Atoi(string(raw)); err == nil && n > maxSeen {
								maxSeen = n
							}
						}
						return true
					})
					if err != nil {
						fail(err)
						v.Close()
						return
					}
					if prev, seen := lastVer[src]; seen && maxSeen < prev {
						fail(fmt.Errorf("writer %d ran backwards: version %d after %d (epoch %d)",
							w, maxSeen, prev, lastEpoch))
						v.Close()
						return
					}
					if maxSeen >= 0 {
						lastVer[src] = maxSeen
					}
				}
				v.Close()
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	auxWG.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Quiesced: a fresh pin must see every writer's final round.
	v := rw.Engine().View()
	defer v.Close()
	for w := 0; w < writers; w++ {
		n, err := v.Degree(graph.VertexID(w+1), graph.ETypeFollow)
		if err != nil {
			t.Fatal(err)
		}
		if n != edgesPer {
			t.Fatalf("writer %d: final degree %d, want %d", w, n, edgesPer)
		}
	}
	s := rw.Engine().Epochs().Stats()
	if s.Pinned != 1 {
		t.Fatalf("pin accounting leaked: %d live pins, want 1", s.Pinned)
	}
	if s.PinsTotal < int64(readers) {
		t.Fatalf("pins_total %d implausibly low", s.PinsTotal)
	}
}
