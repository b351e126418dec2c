package core

import (
	"errors"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// replicaOfPages is what a follower attaching past a WAL trimmed at floor
// starts from when a checkpoint names pages: the forest those pages make,
// published at floor (bootstrap), before it applies the log above floor.
func replicaOfPages(t *testing.T, st *storage.Store, floor wal.LSN, pages []bwtree.MappingUpdate) *Replica {
	t.Helper()
	rep, err := bootstrap(st, 0, floor, [][]*wal.Record{{{
		Type: wal.RecordCheckpoint, LSN: floor, CkptLSN: floor, AuxPage: 1,
		Value: bwtree.EncodeMappingUpdates(pages),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Torn-write recovery table: a node writes a durable base (flushed pages,
// named as a checkpoint names them), keeps appending WAL records, and dies
// with the log tail in a per-case condition. Recovery — a replica of those
// pages drained to the end of the log, then handed the leader's role — must
// hold exactly the acknowledged suffix and absorb whatever garbage the death
// left at the tail of the log, and go on as a leader: write, flush, and be
// bootstrapped from.
func TestRecoverTornWALTable(t *testing.T) {
	const (
		src  = graph.VertexID(1)
		typ  = graph.ETypeFollow
		base = 5 // edges written before the pages are named
	)
	edge := func(dst int) graph.Edge {
		return graph.Edge{Src: src, Dst: graph.VertexID(dst), Type: typ,
			Props: graph.Properties{{Name: "v", Value: []byte{byte(dst)}}}}
	}

	cases := []struct {
		name string
		// suffix runs the post-snapshot workload; the writer has retries
		// disabled, so every injected fault is terminal for its append.
		suffix func(t *testing.T, e *Engine, c *wal.GroupCommitter, plan *storage.FaultPlan)

		wantPresent  []int   // dsts that must exist after recovery
		wantAbsent   []int   // dsts that must not exist after recovery
		wantMaxDelta wal.LSN // durable WAL records beyond the named pages' horizon
		wantTorn     int64   // torn WAL entries the recovery reader must absorb
		wantDirty    int     // pages the hand-over leaves to the first flush
	}{
		{
			name: "clean tail",
			suffix: func(t *testing.T, e *Engine, c *wal.GroupCommitter, plan *storage.FaultPlan) {
				for dst := base + 1; dst <= base+3; dst++ {
					if err := e.AddEdge(edge(dst)); err != nil {
						t.Fatal(err)
					}
				}
			},
			wantPresent:  []int{1, 2, 3, 4, 5, 6, 7, 8},
			wantMaxDelta: 3,
			wantTorn:     0,
		},
		{
			name: "torn last record",
			suffix: func(t *testing.T, e *Engine, c *wal.GroupCommitter, plan *storage.FaultPlan) {
				for dst := base + 1; dst <= base+2; dst++ {
					if err := e.AddEdge(edge(dst)); err != nil {
						t.Fatal(err)
					}
				}
				plan.TearNext()
				if err := e.AddEdge(edge(base + 3)); !errors.Is(err, storage.ErrTornWrite) {
					t.Fatalf("torn append err = %v, want ErrTornWrite", err)
				}
			},
			wantPresent:  []int{1, 2, 3, 4, 5, 6, 7},
			wantAbsent:   []int{8},
			wantMaxDelta: 2,
			wantTorn:     1,
		},
		{
			name: "torn checkpoint record",
			suffix: func(t *testing.T, e *Engine, c *wal.GroupCommitter, plan *storage.FaultPlan) {
				for dst := base + 1; dst <= base+3; dst++ {
					if err := e.AddEdge(edge(dst)); err != nil {
						t.Fatal(err)
					}
				}
				// The flusher's checkpoint declaration is the record that
				// dies mid-append: data must be unaffected.
				plan.TearNext()
				_, err := c.Log(&wal.Record{Type: wal.RecordCheckpoint, CkptLSN: base})
				if !errors.Is(err, storage.ErrTornWrite) {
					t.Fatalf("torn checkpoint err = %v, want ErrTornWrite", err)
				}
			},
			wantPresent:  []int{1, 2, 3, 4, 5, 6, 7, 8},
			wantMaxDelta: 3,
			wantTorn:     1,
		},
		{
			// The leader dies between a RecordSplit and the next checkpoint:
			// the sibling has no record of its own and reads the pre-split
			// page's through its range. The hand-over materializes it and
			// owes it a base; both halves read back, before and after.
			name: "split after the last checkpoint",
			suffix: func(t *testing.T, e *Engine, c *wal.GroupCommitter, plan *storage.FaultPlan) {
				for dst := base + 1; dst <= base+6; dst++ { // the 9th entry splits the 8-entry leaf
					if err := e.AddEdge(edge(dst)); err != nil {
						t.Fatal(err)
					}
				}
				if pages := e.Metrics().Snapshot()["bwtree.pages"].Value; pages != 3 {
					t.Fatalf("fixture: %d pages, want two leaves under a root", pages)
				}
			},
			wantPresent:  []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
			wantMaxDelta: 7, // six puts and the split
			wantDirty:    1, // the sibling; every put since landed right of the separator
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 17})
			st := storage.Open(&storage.Options{Faults: plan})
			w := wal.NewWriter(st)
			// No retries: a torn append stays torn, modelling a node that
			// died inside the write instead of one that got to retry it.
			w.SetRetry(storage.RetryPolicy{MaxAttempts: 1})
			c := committer(t, w)
			opts := Options{Tree: bwtree.Config{MaxPageEntries: 8}, Logger: c}
			e, err := NewWithStore(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			for dst := 1; dst <= base; dst++ {
				if err := e.AddEdge(edge(dst)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.FlushDirty(nil); err != nil {
				t.Fatal(err)
			}
			pages := e.Forest().NameLeaves(nil, 0, 1)
			horizon := c.LastLSN() // every record so far is covered by the flush

			tc.suffix(t, e, c, plan)
			e.Close() // the node dies; shared storage survives

			rep := replicaOfPages(t, st, horizon, pages)
			reader := wal.NewReader(st)
			reader.SetBase(horizon)
			if _, err := rep.ApplyFrom(reader); err != nil {
				t.Fatalf("ApplyFrom: %v", err)
			}
			if want := horizon + tc.wantMaxDelta; reader.LastLSN() != want || rep.HighLSN() != want {
				t.Errorf("drained to LSN %d (applied %d), want %d", reader.LastLSN(), rep.HighLSN(), want)
			}
			if torn, _ := reader.Stats(); torn != tc.wantTorn {
				t.Errorf("torn entries = %d, want %d", torn, tc.wantTorn)
			}
			next := committer(t, wal.NewWriterFromEpoch(st, reader.LastLSN()+1, st.StreamEpoch(storage.StreamWAL)))
			recovered, err := rep.TakeOver(st, Options{Tree: bwtree.Config{MaxPageEntries: 8}, Logger: next})
			if err != nil {
				t.Fatalf("TakeOver: %v", err)
			}
			defer recovered.Close()
			verify := func(what string, r graph.Reader) {
				t.Helper()
				for _, dst := range tc.wantPresent {
					ed, ok, err := r.GetEdge(src, typ, graph.VertexID(dst))
					if err != nil || !ok {
						t.Fatalf("%s: edge %d missing (err=%v)", what, dst, err)
					}
					if v, _ := ed.Props.Get("v"); len(v) != 1 || v[0] != byte(dst) {
						t.Errorf("%s: edge %d value = %v", what, dst, v)
					}
				}
				for _, dst := range tc.wantAbsent {
					if _, ok, _ := r.GetEdge(src, typ, graph.VertexID(dst)); ok {
						t.Errorf("%s: unacknowledged edge %d resurrected by recovery", what, dst)
					}
				}
			}
			verify("after recovery", recovered)
			if tc.wantDirty > 0 && recovered.DirtyCount() != tc.wantDirty {
				t.Errorf("%d dirty pages after the hand-over, want %d", recovered.DirtyCount(), tc.wantDirty)
			}

			// The recovered engine is a leader like any other: it writes,
			// flushes what the hand-over left dirty, and a replica of its
			// durable shape alone reads the same.
			if err := recovered.AddEdge(edge(100)); err != nil {
				t.Fatal(err)
			}
			if _, err := recovered.FlushDirty(nil); err != nil {
				t.Fatal(err)
			}
			cold := replicaOfPages(t, st, next.LastLSN(), recovered.Forest().NameLeaves(nil, 0, 1))
			verify("a replica of the recovered engine's pages", cold)
			if _, ok, err := cold.GetEdge(src, typ, 100); err != nil || !ok {
				t.Fatalf("the edge written after recovery is not in its pages: ok=%v err=%v", ok, err)
			}
		})
	}
}

// A hole in the suffix beyond the named pages is log damage: the committer
// appends its groups in LSN order, so no writer leaves one. The drain a
// recovery or promotion runs before the take-over applies the gapless prefix
// and refuses the hole with wal.ErrHole, however often it is repeated, as it
// refuses an extent storage lost: a follower would resync past a lost extent
// and carry on, a leader-to-be must not.
func TestDrainAbortsOnLogHole(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{})
	st := storage.Open(&storage.Options{Faults: plan})
	opts := Options{Tree: bwtree.Config{MaxPageEntries: 8}, Logger: committer(t, wal.NewWriter(st))}
	e, err := NewWithStore(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdge(graph.Edge{Src: 1, Dst: 1, Type: graph.ETypeFollow}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushDirty(nil); err != nil {
		t.Fatal(err)
	}
	pages := e.Forest().NameLeaves(nil, 0, 1)
	root := pages[0].Page
	e.Close()

	// Forge a suffix with a hole: LSN 3 exists, LSN 4 is missing, LSN 5
	// present. (A real writer can never do this — it fails stop — so this
	// models external log damage.)
	for _, lsn := range []wal.LSN{3, 5} {
		rec := &wal.Record{Type: wal.RecordPut, LSN: lsn, TreeID: uint64(pages[0].Tree), PageID: uint64(root), Key: []byte("k")}
		w := wal.NewWriterFromEpoch(st, lsn, st.StreamEpoch(storage.StreamWAL))
		groups, err := w.SealAssigned(nil, []*wal.Record{rec}, nil)
		if err == nil {
			err = w.AppendSealed(groups[0])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	drain := func(rd *wal.Reader) (*Replica, error) {
		t.Helper()
		rep := replicaOfPages(t, st, 2, pages)
		rd.SetBase(2)
		_, err := rep.ApplyFrom(rd)
		return rep, err
	}

	r := wal.NewReader(st)
	rep, err := drain(r)
	for i := 0; i < 64 && errors.Is(err, wal.ErrHole); i++ {
		_, err = rep.ApplyFrom(r)
	}
	if !errors.Is(err, wal.ErrHole) {
		t.Fatalf("drains over the hole: %v, want wal.ErrHole", err)
	}
	if rep.HighLSN() != 3 || r.LastLSN() != 3 {
		t.Fatalf("drain advanced to LSN %d (reader %d), want the gapless prefix 3", rep.HighLSN(), r.LastLSN())
	}

	// An extent of the suffix that storage lost aborts the drain loudly.
	plan.LoseExtent(storage.StreamWAL, st.Usage(storage.StreamWAL)[0].Extent)
	if _, err := drain(wal.NewReader(st)); !errors.Is(err, storage.ErrExtentLost) {
		t.Fatalf("drain over a lost extent returned %v, want ErrExtentLost", err)
	}
}
