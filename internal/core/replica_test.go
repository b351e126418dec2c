package core

import (
	"sync"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestStressReplicaGroupAtomicity: the ops of one commit group are stamped
// above the replica's applied LSN until the whole group is in, so a reader
// racing the apply never sees one edge of a group without the other — not
// across two reads (the first edge present implies the second, applied after
// it, is too) and not inside one (a frontier read of both sources returns
// neither edge or both). Pairs span two owners and, with 8-entry leaves, two
// pages as a rule.
func TestStressReplicaGroupAtomicity(t *testing.T) {
	const pairs = 400
	st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
	w := wal.NewWriter(st)
	e, err := NewWithStore(st, Options{
		Tree:   bwtree.Config{FlushMode: bwtree.FlushAsync, MaxPageEntries: 8},
		Logger: loggerFunc(func(rec *wal.Record) (wal.LSN, error) { return w.Append(rec) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, second := func(i int) graph.VertexID { return graph.VertexID(1 + i) }, func(i int) graph.VertexID { return graph.VertexID(100_000 + i) }
	for i := 0; i < pairs; i++ {
		for _, src := range []graph.VertexID{first(i), second(i)} {
			if err := e.AddEdge(graph.Edge{Src: src, Dst: 7, Type: graph.ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	// Cut the log into groups that end behind every second data record: a
	// pair, and the structural records logged around it, is one group.
	var groups [][]*wal.Record
	puts, start := 0, 0
	for i, rec := range recs {
		if rec.Type == wal.RecordPut {
			if puts++; puts%2 == 0 {
				groups, start = append(groups, recs[start:i+1]), i+1
			}
		}
	}
	if len(groups) != pairs || start != len(recs) {
		t.Fatalf("fixture: %d groups over %d/%d records, want %d", len(groups), start, len(recs), pairs)
	}

	rep := NewReplica(st, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i = (i + 7) % pairs {
				select {
				case <-stop:
					return
				default:
				}
				_, a, err := rep.GetEdge(first(i), graph.ETypeFollow, 7)
				_, b, err2 := rep.GetEdge(second(i), graph.ETypeFollow, 7)
				if err != nil || err2 != nil || (a && !b) {
					t.Errorf("pair %d: first edge %v, then second edge %v (%v, %v)", i, a, b, err, err2)
					return
				}
				n := 0
				if err := rep.NeighborsMany([]graph.VertexID{first(i), second(i)}, graph.ETypeFollow, 0, func(_, _ graph.VertexID) bool { n++; return true }); err != nil || n == 1 {
					t.Errorf("pair %d: one frontier read saw %d of the group's 2 edges (%v)", i, n, err)
					return
				}
			}
		}(r)
	}
	for _, grp := range groups {
		if err := rep.ApplyGroup(grp); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < pairs; i++ {
		if _, ok, err := rep.GetEdge(second(i), graph.ETypeFollow, 7); err != nil || !ok {
			t.Fatalf("pair %d missing after the whole log: %v %v", i, ok, err)
		}
	}
}
