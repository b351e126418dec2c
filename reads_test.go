package bg3

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"bg3/internal/graph"
)

// tsOf is the ts property the read tests write on edge src→dst, so a reader
// can check every record it decodes against the pair it names.
func tsOf(src, dst VertexID) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(src)*1_000_003+uint64(dst))
}

// loadTSGraph writes degree edges out of each of srcs, to 1000, 1001, ...,
// each carrying its tsOf, through batches of at most 256 edges.
func loadTSGraph(t *testing.T, db *DB, degree int, srcs ...VertexID) {
	t.Helper()
	var muts []Mutation
	for _, src := range srcs {
		for j := range degree {
			dst := VertexID(1000 + j)
			muts = append(muts, AddEdgeMut(Edge{Src: src, Dst: dst, Type: ETypeFollow, Props: Properties{{Name: "ts", Value: tsOf(src, dst)}}}))
		}
	}
	for len(muts) > 0 {
		n := min(len(muts), 256)
		if err := db.ApplyBatch(muts[:n]); err != nil {
			t.Fatal(err)
		}
		muts = muts[n:]
	}
}

// checkTS reports an error unless ps's ts is the one written on src→dst.
func checkTS(src, dst VertexID, ps Properties) error {
	if v, _ := ps.Get("ts"); string(v) != string(tsOf(src, dst)) {
		return fmt.Errorf("edge %d→%d holds ts %x, want %x", src, dst, v, tsOf(src, dst))
	}
	return nil
}

// TestNestedReadsKeepTheOuterProperties: a Neighbors callback may read again.
// Its inner Neighbors and GetEdge decode into memory of their own, so once
// they return the outer callback's Properties still hold its record's value,
// on a bare engine, a one-shard leader and four shards, through the DB and a
// Snapshot. Inner scans that reused the outer scan's decoder would overwrite
// it.
func TestNestedReadsKeepTheOuterProperties(t *testing.T) {
	for _, shape := range []struct {
		name string
		opts *Options
	}{
		{"bare", nil},
		{"leader", &Options{Replicated: true}},
		{"shards-4", &Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db := openDB(t, shape.opts)
			loadTSGraph(t, db, 40, 1, 2, 3)
			snap := db.Snapshot()
			defer snap.Close()
			for _, r := range []graph.Reader{db, snap} {
				outer := 0
				err := r.Neighbors(1, ETypeFollow, 0, func(dst VertexID, ps Properties) bool {
					outer++
					inner := 0
					if err := r.Neighbors(2, ETypeFollow, 0, func(idst VertexID, ips Properties) bool {
						inner++
						if err := checkTS(2, idst, ips); err != nil {
							t.Error("inner scan:", err)
						}
						return true
					}); err != nil || inner != 40 {
						t.Fatalf("inner scan read %d edges (%v), want 40", inner, err)
					}
					if e, ok, err := r.GetEdge(3, ETypeFollow, dst); err != nil || !ok || checkTS(3, dst, e.Props) != nil {
						t.Fatalf("inner GetEdge(3, %d) = %v %v %v", dst, e, ok, err)
					}
					if err := checkTS(1, dst, ps); err != nil {
						t.Error("outer callback after its inner reads:", err)
					}
					return true
				})
				if err != nil || outer != 40 {
					t.Fatalf("outer scan read %d edges (%v), want 40", outer, err)
				}
			}
		})
	}
}

// TestConcurrentScansShareNoDecoder: eight goroutines scan the same sources
// at once, each checking every record's ts against the pair it names, on a
// bare engine and on four shards. Two live scans sharing a decoder would see
// each other's values, and under -race each other's writes.
func TestConcurrentScansShareNoDecoder(t *testing.T) {
	const sources, degree, readers = 8, 64, 8
	for _, shape := range []struct {
		name string
		opts *Options
	}{
		{"bare", nil},
		{"shards-4", &Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			db := openDB(t, shape.opts)
			loadTSGraph(t, db, degree, 1, 2, 3, 4, 5, 6, 7, 8)
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for g := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := range 50 {
						src := VertexID(1 + (g+round)%sources)
						n := 0
						var bad error
						err := db.Neighbors(src, ETypeFollow, 0, func(dst VertexID, ps Properties) bool {
							n++
							bad = checkTS(src, dst, ps)
							return bad == nil
						})
						if err = cmp.Or(err, bad); err != nil || n != degree {
							errs <- fmt.Errorf("reader %d: source %d: %d edges (%v), want %d", g, src, n, err, degree)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
