package replication

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestConcurrentWritersGroupCommitStress runs 32 writer goroutines — each on
// a disjoint keyspace, interleaving AddEdge, DeleteEdge, AddVertex, and
// ApplyBatch — against one RW node while reader goroutines scan, then checks
// the write pipeline end to end (run under -race):
//
//   - the durable WAL is gapless: LSNs 1..N with no holes or duplicates;
//   - replaying the WAL group-by-group into a fresh replica reproduces
//     exactly the state of a flat map[string][]byte model oracle;
//   - commits coalesced: mean group size > 4 with 32 writers against
//     storage write latency (the paper's write-side amortization).
func TestConcurrentWritersGroupCommitStress(t *testing.T) {
	const writers = 32
	opsPer := 32
	if testing.Short() {
		opsPer = 12
	}

	st := storage.Open(&storage.Options{WriteLatency: 200 * time.Microsecond})
	node, err := NewRWNode(st, RWOptions{
		Engine: core.Options{SplitThreshold: 24, Tree: bwtree.Config{MaxPageEntries: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	edgeKey := func(src, dst graph.VertexID) string { return fmt.Sprintf("e|%d|%d", src, dst) }
	vertexKey := func(id graph.VertexID) string { return fmt.Sprintf("v|%d", id) }

	// Each writer owns src vertex 100+w, so its slice of the oracle is
	// race-free; the slices merge into one flat model after quiesce.
	models := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		models[w] = make(map[string][]byte)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*977 + 1))
			src := graph.VertexID(100 + w)
			model := models[w]
			props := func(tag byte, i int) graph.Properties {
				return graph.Properties{{Name: "p", Value: []byte{tag, byte(i), byte(w)}}}
			}
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0: // single edge put
					dst := graph.VertexID(rng.Intn(64))
					ps := props('s', i)
					if err := node.AddEdge(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeFollow, Props: ps}); err != nil {
						t.Error(err)
						return
					}
					model[edgeKey(src, dst)] = ps[0].Value
				case 1: // single edge delete (possibly of a key never written)
					dst := graph.VertexID(rng.Intn(64))
					if err := node.DeleteEdge(src, graph.ETypeFollow, dst); err != nil {
						t.Error(err)
						return
					}
					delete(model, edgeKey(src, dst))
				case 2: // vertex put
					ps := props('v', i)
					if err := node.AddVertex(graph.Vertex{ID: src, Type: graph.VTypeUser, Props: ps}); err != nil {
						t.Error(err)
						return
					}
					model[vertexKey(src)] = ps[0].Value
				default: // batch: 4..11 mixed mutations, one commit group
					n := 4 + rng.Intn(8)
					muts := make([]graph.Mutation, 0, n)
					for j := 0; j < n; j++ {
						dst := graph.VertexID(rng.Intn(64))
						if rng.Intn(4) == 0 {
							muts = append(muts, graph.DeleteEdgeMut(src, graph.ETypeFollow, dst))
						} else {
							muts = append(muts, graph.AddEdgeMut(graph.Edge{
								Src: src, Dst: dst, Type: graph.ETypeFollow, Props: props(byte(j), i),
							}))
						}
					}
					if err := node.ApplyBatch(muts); err != nil {
						t.Error(err)
						return
					}
					for _, m := range muts {
						if m.Kind == graph.MutDeleteEdge {
							delete(model, edgeKey(src, m.Edge.Dst))
						} else {
							model[edgeKey(src, m.Edge.Dst)] = m.Edge.Props[0].Value
						}
					}
				}
			}
		}(w)
	}

	// Readers scan live state while the writers run; results are not
	// asserted (the view legitimately moves), only that reads never fail
	// and never race.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(r) + 5000))
			for {
				select {
				case <-stopRead:
					return
				default:
					time.Sleep(200 * time.Microsecond)
				}
				src := graph.VertexID(100 + rng.Intn(writers))
				if err := node.Neighbors(src, graph.ETypeFollow, 16, func(graph.VertexID, graph.Properties) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := node.Degree(src, graph.ETypeFollow); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	if t.Failed() {
		close(stopRead)
		readWG.Wait()
		return
	}

	// Phase 2: steady state. Phase 1 deliberately provokes migrations, whose
	// copy records commit synchronously one-by-one and drag the whole-run
	// group-size mean down; here 32 writers upsert their own vertex in
	// lockstep — no migrations, no structural records — and the coalescing
	// factor is measured over exactly this window via flush-counter deltas.
	b1, r1 := commitCounts(node.Logger())
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := graph.VertexID(100 + w)
			for i := 0; i < 24; i++ {
				ps := graph.Properties{{Name: "p", Value: []byte{'2', byte(i), byte(w)}}}
				if err := node.AddVertex(graph.Vertex{ID: src, Type: graph.VTypeUser, Props: ps}); err != nil {
					t.Error(err)
					return
				}
				models[w][vertexKey(src)] = ps[0].Value
			}
		}(w)
	}
	wg.Wait()
	b2, r2 := commitCounts(node.Logger())
	close(stopRead)
	readWG.Wait()
	if t.Failed() {
		return
	}

	// Acceptance: with 32 concurrent writers against storage write latency,
	// commits must actually coalesce.
	if b2 == b1 {
		t.Fatal("steady-state phase issued no flushes")
	}
	if mean := float64(r2-r1) / float64(b2-b1); mean <= 4 {
		t.Errorf("steady-state mean group size = %.2f, want > 4 with %d writers", mean, writers)
	}

	// Quiesced. The WAL must be a gapless LSN sequence.
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no WAL records after stress run")
	}
	for i, rec := range recs {
		if rec.LSN != wal.LSN(i+1) {
			t.Fatalf("WAL record %d has LSN %d: sequence must be gapless", i, rec.LSN)
		}
	}
	if last := node.LastLSN(); wal.LSN(len(recs)) != last {
		t.Fatalf("WAL holds %d records but the committer assigned up to LSN %d", len(recs), last)
	}

	// Replay the WAL group-by-group into a fresh replica and compare it
	// against the merged flat oracle.
	oracle := make(map[string][]byte)
	for _, m := range models {
		for k, v := range m {
			oracle[k] = v
		}
	}
	replica := core.NewReplica(st, 0)
	groups, err := wal.NewReader(st).PollGroups()
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range groups {
		if err := replica.ApplyGroup(grp); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := replica.HighLSN(), wal.LSN(len(recs)); got != want {
		t.Fatalf("replica HighLSN = %d, want %d", got, want)
	}

	got := make(map[string][]byte)
	for w := 0; w < writers; w++ {
		src := graph.VertexID(100 + w)
		err := replica.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, ps graph.Properties) bool {
			v, _ := ps.Get("p")
			got[edgeKey(src, dst)] = bytes.Clone(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := replica.GetVertex(src, graph.VTypeUser); err != nil {
			t.Fatal(err)
		} else if ok {
			pv, _ := v.Props.Get("p")
			got[vertexKey(src)] = pv
		}
	}
	for k, want := range oracle {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("oracle key %q missing from replayed replica", k)
		}
		if string(gv) != string(want) {
			t.Fatalf("key %q = %x in replica, oracle says %x", k, gv, want)
		}
		delete(got, k)
	}
	for k := range got {
		t.Fatalf("replica holds %q which the oracle never committed", k)
	}
}
