package workload

import (
	"testing"

	"bg3/internal/core"
	"bg3/internal/graph"
)

func newStore(t *testing.T) graph.Store {
	t.Helper()
	e, err := core.New(core.Options{SplitThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestDouyinFollowMix(t *testing.T) {
	g := NewDouyinFollow(1000, 1)
	writes, reads := 0, 0
	for i := 0; i < 10000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpAddEdge:
			writes++
		case OpNeighbors:
			reads++
		default:
			t.Fatalf("unexpected op kind %d", op.Kind)
		}
	}
	frac := float64(writes) / 10000
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("write fraction = %.4f, want ~0.01", frac)
	}
	_ = reads
}

func TestRiskControlStrictRatio(t *testing.T) {
	g := NewRiskControl(1000, 1)
	writes, reads := 0, 0
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Kind == OpAddEdge {
			writes++
		} else {
			reads++
			if op.Hops < 5 || op.Hops > 10 {
				t.Fatalf("hops = %d, want 5..10", op.Hops)
			}
		}
	}
	if writes != reads {
		t.Fatalf("writes=%d reads=%d, want strict 1:1", writes, reads)
	}
}

func TestRecommendationHopMix(t *testing.T) {
	g := NewRecommendation(1000, 1)
	hops := map[int]int{}
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Kind != OpKHop {
			t.Fatal("recommendation must be read-only")
		}
		hops[op.Hops]++
	}
	f1 := float64(hops[1]) / 10000
	f2 := float64(hops[2]) / 10000
	f3 := float64(hops[3]) / 10000
	if f1 < 0.65 || f1 > 0.75 || f2 < 0.15 || f2 > 0.25 || f3 < 0.05 || f3 > 0.15 {
		t.Fatalf("hop mix = %.2f/%.2f/%.2f, want ~0.70/0.20/0.10", f1, f2, f3)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewDouyinFollow(10000, 7)
	counts := map[graph.VertexID]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().Src]++
	}
	// Vertex 0 must be far more popular than the median vertex.
	if counts[0] < 1000 {
		t.Fatalf("hottest vertex drawn %d times out of 20000; distribution not skewed", counts[0])
	}
}

func TestPreloadAndRun(t *testing.T) {
	s := newStore(t)
	if err := Preload(s, PreloadSpec{Vertices: 200, Edges: 2000, Type: graph.ETypeFollow, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// The hottest vertex should have picked up a big neighborhood.
	deg, err := s.Degree(0, graph.ETypeFollow)
	if err != nil {
		t.Fatal(err)
	}
	if deg < 50 {
		t.Fatalf("hot vertex degree = %d, want power-law head", deg)
	}
	res := Run(s, NewDouyinFollow(200, 2), 4, 200, 3)
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Ops != 800 || res.Throughput <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunForDuration(t *testing.T) {
	s := newStore(t)
	if err := Preload(s, PreloadSpec{Vertices: 100, Edges: 500, Type: graph.ETypeFollow, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	res := RunFor(s, NewRecommendation(100, 1), 2, 50_000_000, 4) // 50ms
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestGeneratorClonesIndependent(t *testing.T) {
	g := NewRiskControl(100, 1)
	a := g.Clone(10)
	b := g.Clone(11)
	same := true
	for i := 0; i < 20; i++ {
		if a.Next() != b.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("clones with different seeds produced identical streams")
	}
}

func TestPreloadParallel(t *testing.T) {
	s := newStore(t)
	if err := PreloadParallel(s, PreloadSpec{Vertices: 100, Edges: 4000, Type: graph.ETypeFollow, Seed: 2}, 16); err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < 100; v++ {
		d, err := s.Degree(graph.VertexID(v), graph.ETypeFollow)
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	// Upserts dedup identical (src,dst) pairs — with a 100-vertex universe
	// and power-law sources, roughly half the attempts repeat — so the
	// distinct-edge count is well below the attempt count but substantial.
	if total < 1000 || total > 4000 {
		t.Fatalf("total edges = %d", total)
	}
}
