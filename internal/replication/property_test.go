package replication

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
)

// TestPropertyReplicaEquivalence drives a replicated RW node with random
// operations interleaved with random checkpoints and snapshots, then
// verifies that a WAL-replay replica AND a snapshot-bootstrapped replica
// both agree exactly with the primary on every vertex's adjacency, and that
// a point read of every pair finds exactly the model's edges: a deleted
// edge must read as a tombstone (absent, no error), where an adjacency scan
// skips an undecodable empty-valued put as well.
func TestPropertyReplicaEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
		rw, err := NewRWNode(st, RWOptions{
			Engine: core.Options{
				SplitThreshold: 20,
				Tree:           bwtree.Config{MaxPageEntries: 8, ConsolidateNum: 3},
			},
		})
		if err != nil {
			return false
		}
		defer rw.Stop()

		model := refmodel.Graph{}
		const vertices = 24
		for i := 0; i < 400; i++ {
			src := graph.VertexID(rng.Intn(vertices))
			dst := graph.VertexID(rng.Intn(vertices))
			switch rng.Intn(10) {
			case 0:
				if err := rw.DeleteEdge(src, graph.ETypeLike, dst); err != nil {
					return false
				}
				_ = model.DeleteEdge(src, graph.ETypeLike, dst)
			case 1:
				if err := rw.Checkpoint(); err != nil {
					return false
				}
			case 2:
				if _, err := rw.WriteSnapshot(); err != nil {
					return false
				}
			default:
				e := graph.Edge{Src: src, Dst: dst, Type: graph.ETypeLike}
				if err := rw.AddEdge(e); err != nil {
					return false
				}
				_ = model.AddEdge(e)
			}
		}

		var srcs []graph.VertexID
		for src := graph.VertexID(0); src < vertices; src++ {
			srcs = append(srcs, src)
		}
		check := func(ro *RONode) bool {
			defer ro.Stop()
			if !ro.WaitVisible(rw.LastLSN(), 5*time.Second) {
				return false
			}
			got, err := refmodel.Observe(ro.Replica(), srcs, []graph.EdgeType{graph.ETypeLike})
			if err == nil {
				err = refmodel.Diff(got, model)
			}
			for _, src := range srcs {
				for _, dst := range srcs {
					if err != nil {
						break
					}
					_, ok, gerr := ro.Replica().GetEdge(src, graph.ETypeLike, dst)
					_, want := model.Get(refmodel.EdgeKey(src, graph.ETypeLike, dst))
					if gerr != nil || ok != want {
						err = fmt.Errorf("GetEdge(%d, %d) = %v, %v; want present %v", src, dst, ok, gerr, want)
					}
				}
			}
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
			}
			return err == nil
		}

		full := newRO(t, st, time.Millisecond, 0)
		snap, err := NewRONode(st, time.Millisecond, 0)
		if err != nil {
			return false
		}
		return check(full) && check(snap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestRWNodeSurvivesStoreClose exercises the failure path: once the shared
// store refuses appends, writes fail cleanly and the node still shuts down.
func TestRWNodeSurvivesStoreClose(t *testing.T) {
	st := storage.Open(nil)
	rw, err := NewRWNode(st, RWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	var sawErr bool
	for i := 0; i < 5; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(100 + i), Type: graph.ETypeFollow}); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("writes succeeded against a closed store")
	}
	// Reads of in-memory state keep working.
	if deg, err := rw.Degree(1, graph.ETypeFollow); err != nil || deg < 20 {
		t.Fatalf("degree = %d %v", deg, err)
	}
	rw.Stop() // must not hang or panic
}

// TestROToleratesWALGap verifies that a replica attached after a TrimWAL
// (bootstrapping from the snapshot) never sees the trimmed prefix as an
// error and converges with later writes.
func TestROToleratesWALGap(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 11})
	rw, err := NewRWNode(st, RWOptions{
		Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16, MaxInnerEntries: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	for round := 0; round < 4; round++ {
		for i := 0; i < 150; i++ {
			if err := rw.AddEdge(graph.Edge{
				Src: graph.VertexID(round), Dst: graph.VertexID(i), Type: graph.ETypeLike,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rw.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		rw.TrimWAL()
	}
	ro, err := NewRONode(st, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Stop()
	if !ro.WaitVisible(rw.LastLSN(), 5*time.Second) {
		t.Fatal("replica lagging")
	}
	for round := 0; round < 4; round++ {
		deg, err := ro.Replica().Degree(graph.VertexID(round), graph.ETypeLike)
		if err != nil || deg != 150 {
			t.Fatalf("round %d degree = %d %v", round, deg, err)
		}
	}
	if err := ro.Err(); err != nil {
		t.Fatal(fmt.Errorf("replica poll error: %w", err))
	}
}
