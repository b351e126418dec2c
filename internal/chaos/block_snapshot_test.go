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

// The edge-block snapshot oracle (ISSUE 8): the snapshot-isolation suite
// extended across consolidation-to-block transitions. A super-vertex hub
// migrates to a dedicated tree whose adjacency is continuously packed into
// CSR edge blocks — sealed, rebuilt, and superseded — while writers churn
// its edges through a depth-8 pipelined committer and pinned readers
// traverse it. The oracle stays exact: every pinned traversal must equal
// the WAL prefix at its epoch, whether the read was served by a packed
// block, the block-plus-overlay merge, or the legacy delta path.

// replayForest applies one WAL record to the split oracle model: INIT
// records carry owner[8]|etype[2]|dst[8] keys, dedicated-tree records
// carry etype[2]|dst[8] keys attributed to their owner via the
// RecordOwnerAssign directory. The two sides are modeled separately
// because a migration's INIT deletes must not erase the dedicated copies;
// a reader's view of an owner is the union (values are identical on
// overlap by the migration ordering).
func replayForest(init, ded map[EdgeKey]string, treeOwner map[uint64]graph.VertexID, rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordOwnerAssign:
		treeOwner[rec.TreeID] = graph.VertexID(beUint64(rec.Key))
		return nil
	case wal.RecordPut, wal.RecordDelete:
	default:
		return nil
	}
	var (
		model map[EdgeKey]string
		owner graph.VertexID
		ekey  []byte
	)
	switch len(rec.Key) {
	case 18:
		model, owner, ekey = init, graph.VertexID(beUint64(rec.Key[:8])), rec.Key[8:]
	case 10:
		// treeOwner is pre-built from a full WAL pass: the migration's copy
		// records precede the owner-assignment record, so attribution can't
		// be resolved in stream order.
		o, ok := treeOwner[rec.TreeID]
		if !ok {
			return fmt.Errorf("tree %d has data records but no owner assignment anywhere in the WAL", rec.TreeID)
		}
		model, owner, ekey = ded, o, rec.Key
	default:
		return fmt.Errorf("unexpected key length %d", len(rec.Key))
	}
	et, dst, err := graph.DecodeEdgeKey(ekey)
	if err != nil {
		return err
	}
	k := EdgeKey{Src: owner, Typ: et, Dst: dst}
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

// TestSnapshotTraversalAcrossBlockBuilds is the ISSUE 8 acceptance
// oracle: pinned full-adjacency traversals of a block-backed super-vertex
// match their WAL-prefix boundary exactly while block builds, rebuilds,
// flushes, and GC race the pins at pipeline depth 8.
func TestSnapshotTraversalAcrossBlockBuilds(t *testing.T) {
	const (
		hub      = graph.VertexID(1)
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
				// Aggressive thresholds: the hub's dedicated tree packs as
				// soon as it migrates and rebuilds every few overlay ops, so
				// block transitions happen constantly under the readers.
				EdgeBlockMinEntries: 16,
				EdgeBlockRebuildOps: 8,
			},
			// Low enough that the hub (writers*edgesPer edges) migrates to a
			// dedicated tree during seeding.
			SplitThreshold: 32,
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

	// Seed the hub's full adjacency: every writer's edge range, so the seed
	// batch alone pushes the hub past the migration threshold.
	seed := make([]graph.Mutation, 0, writers*edgesPer)
	for w := 0; w < writers; w++ {
		for d := 0; d < edgesPer; d++ {
			seed = append(seed, graph.AddEdgeMut(graph.Edge{
				Src: hub, Dst: graph.VertexID(1000*(w+1) + d), Type: graph.ETypeFollow,
				Props: graph.Properties{{Name: snapProp, Value: []byte("seed")}},
			}))
		}
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

	// Writers churn the hub's adjacency in place: every round rewrites the
	// writer's edge range with a new version, and deletes/re-adds one edge
	// so the oracle also covers tombstones crossing a block seal.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for n := 0; n < rounds; n++ {
				ver := []byte(strconv.Itoa(n))
				muts := make([]graph.Mutation, 0, edgesPer+1)
				for d := 0; d < edgesPer; d++ {
					muts = append(muts, graph.AddEdgeMut(graph.Edge{
						Src: hub, Dst: graph.VertexID(1000*(w+1) + d), Type: graph.ETypeFollow,
						Props: graph.Properties{{Name: snapProp, Value: ver}},
					}))
				}
				if n%2 == 1 {
					muts = append(muts, graph.DeleteEdgeMut(hub, graph.ETypeFollow, graph.VertexID(1000*(w+1))))
				}
				if err := rw.ApplyBatch(muts); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

	// Block/flush/GC churn: force builds and rebuilds continuously so
	// seals, overlay cuts, and part supersessions race the pinned readers.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rw.Engine().Forest().BuildEdgeBlocks(); err != nil {
				fail(err)
				return
			}
			_ = rw.Checkpoint()
			if _, err := rw.Engine().RunGC(2); err != nil {
				fail(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
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
				obs := snapObservation{
					epoch: wal.LSN(v.Epoch()),
					adj:   make(map[graph.VertexID]map[graph.VertexID]string),
				}
				m := make(map[graph.VertexID]string)
				err := v.Neighbors(hub, graph.ETypeFollow, 0, func(dst graph.VertexID, props graph.Properties) bool {
					val, _ := props.Get(snapProp)
					m[dst] = string(val)
					return true
				})
				obs.adj[hub] = m
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

	// Exact oracle: replay the WAL group by group with the split
	// INIT/dedicated model, snapshotting the hub's union adjacency at every
	// group boundary. First pass: collect every commit group and resolve
	// the tree->owner directory (assignment records trail the copies they
	// describe). Second pass: replay in order.
	reader := wal.NewReader(st)
	var allGroups [][]*wal.Record
	treeOwner := make(map[uint64]graph.VertexID)
	for {
		gs, err := reader.PollGroups()
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) == 0 {
			break
		}
		for _, g := range gs {
			allGroups = append(allGroups, g)
			for _, rec := range g {
				if rec.Type == wal.RecordOwnerAssign {
					treeOwner[rec.TreeID] = graph.VertexID(beUint64(rec.Key))
				}
			}
		}
	}
	boundaries := map[wal.LSN]map[EdgeKey]string{0: {}}
	initModel := make(map[EdgeKey]string)
	dedModel := make(map[EdgeKey]string)
	groups := 0
	{
		for _, g := range allGroups {
			for _, rec := range g {
				if err := replayForest(initModel, dedModel, treeOwner, rec); err != nil {
					t.Fatalf("replay LSN %d: %v", rec.LSN, err)
				}
			}
			union := make(map[EdgeKey]string, len(initModel)+len(dedModel))
			for k, v := range initModel {
				union[k] = v
			}
			for k, v := range dedModel {
				union[k] = v
			}
			boundaries[g[len(g)-1].LSN] = union
			groups++
		}
	}
	if len(treeOwner) == 0 {
		t.Fatal("the hub never migrated to a dedicated tree; the block path was never exercised")
	}

	checked := 0
	for _, obs := range obsList {
		m, ok := boundaries[obs.epoch]
		if !ok {
			t.Fatalf("pinned epoch %d is not a group-commit boundary (%d boundaries)", obs.epoch, len(boundaries))
		}
		if err := checkObservation(obs, m); err != nil {
			t.Fatalf("torn traversal across a block transition: %v", err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no traversal completed; the oracle is vacuous")
	}

	// The run must actually have exercised blocks, not just the legacy path.
	bs := rw.Engine().Mapping().BlockStatsSnapshot()
	if bs.Builds == 0 {
		t.Fatal("no edge block was ever built; the oracle never covered a block transition")
	}
	if bs.Hits == 0 {
		t.Fatal("no scan was ever served from a block")
	}
	t.Logf("verified %d pinned traversals against %d boundaries across %d block builds (%d hits, %d fallbacks, %d pin-skips)",
		checked, groups, bs.Builds, bs.Hits, bs.Fallbacks, bs.SkippedPins)
}
