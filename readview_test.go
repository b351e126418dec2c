package bg3

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"bg3/internal/storage"
)

// viewSources is the size of readViewGraph: each source has viewPerSource
// edges to other sources, so a KHop from any of them crosses every source's
// leaves within a few hops.
const viewSources, viewPerSource = 60, 12

// readViewGraph writes every edge of the graph once more, tagged with round,
// and checkpoints every leader.
func readViewGraph(t *testing.T, db *DB, round int) {
	t.Helper()
	for i := 0; i < viewSources*viewPerSource; i++ {
		src, k := i%viewSources, i/viewSources
		if err := db.AddEdge(Edge{Src: VertexID(src + 1), Dst: VertexID((src*7+k*13)%viewSources + 1), Type: ETypeFollow,
			Props: Properties{{Name: "round", Value: []byte{byte(round)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// heldRecord is one record of the store as a reader gets it (view) beside a
// copy taken when it was read.
type heldRecord struct {
	loc        storage.Loc
	view, copy []byte
}

// holdRecords reads every record resident in st, in every stream.
func holdRecords(t *testing.T, st *storage.Store) []heldRecord {
	t.Helper()
	var held []heldRecord
	for _, id := range []storage.StreamID{storage.StreamBase, storage.StreamDelta, storage.StreamWAL} {
		head, _, _ := st.Head(id)
		entries, _, err := st.Scan(id, head, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			view, err := st.Read(e.Loc)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, heldRecord{e.Loc, view, bytes.Clone(view)})
		}
	}
	return held
}

// readEverything reads r the ways a client can: point reads, per-vertex scans,
// hops (one batched read per frontier) and cycle searches.
func readEverything(t *testing.T, r traverser) {
	for src := VertexID(1); src <= viewSources; src++ {
		n := 0
		if err := r.Neighbors(src, ETypeFollow, 0, func(VertexID, Properties) bool { n++; return true }); err != nil || n == 0 {
			t.Errorf("source %d: %d edges, err %v", src, n, err)
			return
		}
		if _, ok, err := r.GetEdge(src, ETypeFollow, VertexID((int(src-1)*7)%viewSources+1)); !ok || err != nil {
			t.Errorf("source %d: first edge missing (ok %v, err %v)", src, ok, err)
			return
		}
	}
	for start := VertexID(1); start <= viewSources; start += 17 {
		if got, err := r.KHop(start, ETypeFollow, 3, 0); err != nil || len(got) == 0 {
			t.Errorf("KHop from %d: %d vertices, err %v", start, len(got), err)
			return
		}
		if _, err := r.FindCycles(start, ETypeFollow, 4, 8); err != nil {
			t.Errorf("FindCycles from %d: %v", start, err)
			return
		}
	}
}

// TestReadersNeverWriteStorage: a storage read hands back the record where it
// lies in its extent (DESIGN §8), so a reader that wrote into what it read
// would write the store. After a load every record resident in the store is
// read and copied. Then readers go cold through two-page caches — point reads,
// scans, hops, cycle searches — while the load is overwritten, GC reclaims
// and checkpoints run, on a bare engine and on a replicated leader that a
// replica reads too. Afterwards every record read must equal its copy byte
// for byte, also where GC took its extent away under the view.
func TestReadersNeverWriteStorage(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		t.Run(fmt.Sprintf("replicated=%v", replicated), func(t *testing.T) {
			o := gcOpts
			o.Replicated = replicated
			db := openLayers(t, o, func(cfg *layers) { cfg.followerCache = 2 })
			readViewGraph(t, db, 0)
			readViewGraph(t, db, 1)
			held := holdRecords(t, db.eng(0).Store())
			readers := []func(){func() { readEverything(t, db) }}
			if replicated {
				rep, err := db.OpenReplica()
				if err != nil {
					t.Fatal(err)
				}
				defer rep.Stop()
				readers = append(readers, func() {
					if err := rep.Sync(); err != nil {
						t.Error(err)
					}
					readEverything(t, rep)
				})
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
			defer halt()
			for _, read := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							read()
						}
					}
				}()
			}
			var moved int64
			for round := 2; round < 6; round++ {
				readViewGraph(t, db, round)
				n, err := db.RunGC(64)
				if err != nil {
					t.Fatal(err)
				}
				moved += n
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			halt()
			for _, read := range readers {
				read() // once more, with GC done
			}
			if moved == 0 || db.Stats().GC.ExtentsReclaimed == 0 {
				t.Fatalf("fixture: GC moved %d B, reclaimed %d extents", moved, db.Stats().GC.ExtentsReclaimed)
			}
			for _, h := range held {
				if !bytes.Equal(h.view, h.copy) {
					t.Fatalf("record %v changed after it was read: a reader wrote into storage", h.loc)
				}
			}
			t.Logf("%d records held, GC moved %d B", len(held), moved)
		})
	}
}
