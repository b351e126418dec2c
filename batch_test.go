package bg3

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchPersistsEachLeafOnce pins the leaf run by storage counters, no
// wall clock. On a sync engine every write reaches storage before it
// returns, so 1,024 ascending edges of one vertex written one AddEdge at a
// time cost an append apiece, and the base rewrites those force; the same
// edges in one ApplyBatch land as a run per leaf — one latch, one append —
// and must cost at most an eighth of the appends and half of the bytes on an
// identically loaded DB. The other side of the claim: a batch whose keys all
// land in distinct leaves has nothing to group, and costs exactly what the
// single writes cost.
//
// On top of the ratios, each run's exact cost is pinned: the records a sync
// tree writes are the flush's and the split's to change, not a refactor's.
// One by one, the ascending edges cost exactly one append each: a write that
// overfills its leaf is persisted by the append split's one write of the new
// half, not by a flush of the page and then both halves.
func TestBatchPersistsEachLeafOnce(t *testing.T) {
	const hub = VertexID(7)
	type cost struct{ appends, bytes int64 }
	// The hub holds 4,096 edges at dsts 16 apart: a dedicated tree of leaves
	// of 64..128 entries, each spanning at most 2,048 dsts.
	run := func(edges []Edge, batched bool) cost {
		t.Helper()
		db := openDB(t, &Options{ForestSplitThreshold: 64})
		for i := 0; i < 4096; i++ {
			if err := db.AddEdge(Edge{Src: hub, Dst: VertexID(16 * i), Type: ETypeFollow}); err != nil {
				t.Fatal(err)
			}
		}
		before := db.Metrics().Snapshot()
		if batched {
			muts := make([]Mutation, len(edges))
			for i, e := range edges {
				muts[i] = AddEdgeMut(e)
			}
			if err := db.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, e := range edges {
				if err := db.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		after := db.Metrics().Snapshot()
		if n, err := db.Degree(hub, ETypeFollow); err != nil || n != 4096+len(edges) {
			t.Fatalf("degree %d %v, want %d", n, err, 4096+len(edges))
		}
		d := func(name string) int64 { return after[name].Value - before[name].Value }
		return cost{d("storage.write_ops"), d("storage.bytes_written")}
	}
	props := Properties{{Name: "ts", Value: []byte("12345678")}}

	ascending := make([]Edge, 1024)
	for i := range ascending {
		ascending[i] = Edge{Src: hub, Dst: VertexID(1<<20 + i), Type: ETypeFollow, Props: props}
	}
	single, batch := run(ascending, false), run(ascending, true)
	if single.appends < 1024 {
		t.Fatalf("fixture: 1,024 single writes cost %d appends, want one each at least", single.appends)
	}
	if batch.appends*8 > single.appends || batch.bytes*2 > single.bytes {
		t.Fatalf("one batch of 1,024 ascending edges cost %+v, the same edges one by one %+v: want <= 1/8 of the appends and <= 1/2 of the bytes", batch, single)
	}
	if want := (cost{1024, 327407}); single != want {
		t.Fatalf("1,024 ascending single writes cost %+v, want exactly %+v", single, want)
	}
	if want := (cost{16, 31239}); batch != want {
		t.Fatalf("one batch of 1,024 ascending edges cost %+v, want exactly %+v", batch, want)
	}

	scattered := make([]Edge, 16)
	for i := range scattered {
		scattered[i] = Edge{Src: hub, Dst: VertexID(4096*i + 1), Type: ETypeFollow, Props: props}
	}
	if single, batch := run(scattered, false), run(scattered, true); batch != single || single.appends != int64(len(scattered)) {
		t.Fatalf("a batch of one key per leaf cost %+v, the single writes %+v: want the same, an append per key", batch, single)
	} else if want := (cost{16, 560}); single != want {
		t.Fatalf("16 scattered writes cost %+v, want exactly %+v", single, want)
	}
}

// TestBatchLoadKeepsSpaceNearLive loads a bare engine the way a bulk load
// does: 20k edges of Zipf-skewed sources in 1,024-mutation ApplyBatch calls,
// into 64 KiB extents. Each batch rewrites the leaves it touches, so the
// extents behind the load keep a few live records apiece; the writer compacts
// each one it leaves with at most 1/32 of its bytes live, and resident space
// stays within 3× the live records (~2.3× here; without compaction it is
// ~3.7×). Compaction moves at most 1/31 of what it frees: an extent's
// capacity, less the live bytes it moved.
func TestBatchLoadKeepsSpaceNearLive(t *testing.T) {
	const extent = 64 << 10
	db := openDB(t, &Options{ExtentSize: extent, ForestSplitThreshold: 64})
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 19999)
	muts := make([]Mutation, 0, 1024)
	for i := 0; i < 20000; i++ {
		ts := make([]byte, 8)
		binary.LittleEndian.PutUint64(ts, uint64(i))
		muts = append(muts, AddEdgeMut(Edge{Src: VertexID(zipf.Uint64() + 1), Dst: VertexID(rng.Intn(20000) + 1),
			Type: ETypeFollow, Props: Properties{{Name: "ts", Value: ts}}}))
		if len(muts) == cap(muts) || i == 19999 {
			if err := db.ApplyBatch(muts); err != nil {
				t.Fatal(err)
			}
			muts = muts[:0]
		}
	}
	st := db.Stats()
	t.Logf("%d B resident for %d B live; %d extents compacted, %d B moved",
		st.Storage.TotalBytes, st.Storage.LiveBytes, st.GC.ExtentsCompacted, st.GC.CompactBytesMoved)
	if st.Storage.TotalBytes > 3*st.Storage.LiveBytes {
		t.Errorf("%d B resident for %d B live: more than 3×", st.Storage.TotalBytes, st.Storage.LiveBytes)
	}
	if st.GC.ExtentsCompacted == 0 {
		t.Fatal("no extent was compacted")
	}
	if freed := st.GC.ExtentsCompacted*extent - st.GC.CompactBytesMoved; 31*st.GC.CompactBytesMoved > freed {
		t.Errorf("compaction moved %d B to free %d B: more than 1/31", st.GC.CompactBytesMoved, freed)
	}
}

// TestAscendingLoadKeepsSpaceNearLive: 20,000 edges of one vertex, loaded in
// ascending destination order in batches of 1,024, leave storage within 2×
// the bytes of its live records, before and after GC has run to quiescence,
// on every shape. Each leaf the load fills splits at its first new key: the
// full left half keeps the records it has and only the new half is written,
// so no key's leaf is rewritten for the split that moves past it. Where the
// shape has a replica it reads every edge, through the records the leader
// left named.
func TestAscendingLoadKeepsSpaceNearLive(t *testing.T) {
	const hub, edges = VertexID(7), 20000
	for _, shape := range []struct {
		name string
		opts Options
	}{
		{"bare", Options{}},
		{"leader", Options{Replicated: true}},
		{"shards-4", Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			o := shape.opts
			o.ExtentSize, o.ForestSplitThreshold = 64<<10, 64
			db := openDB(t, &o)
			var rep *Replica
			if db.Group() != nil {
				var err error
				if rep, err = db.OpenReplica(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rep.Stop)
			}
			muts := make([]Mutation, 0, 1024)
			for i := 0; i < edges; i++ {
				ts := make([]byte, 8)
				binary.LittleEndian.PutUint64(ts, uint64(i))
				muts = append(muts, AddEdgeMut(Edge{Src: hub, Dst: VertexID(i + 1), Type: ETypeFollow,
					Props: Properties{{Name: "ts", Value: ts}}}))
				if len(muts) == cap(muts) || i == edges-1 {
					if err := db.ApplyBatch(muts); err != nil {
						t.Fatal(err)
					}
					muts = muts[:0]
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			read := func(when string) {
				t.Helper()
				readers := map[string]interface {
					Neighbors(VertexID, EdgeType, int, func(VertexID, Properties) bool) error
				}{"leader": db}
				if rep != nil {
					if err := rep.Sync(); err != nil {
						t.Fatal(err)
					}
					readers["replica"] = rep
				}
				for name, r := range readers {
					next := VertexID(1)
					err := r.Neighbors(hub, ETypeFollow, 0, func(dst VertexID, _ Properties) bool {
						if dst != next {
							return false
						}
						next++
						return true
					})
					if err != nil || next != edges+1 {
						t.Fatalf("%s, the %s read %d of %d edges in order (%v)", when, name, next-1, edges, err)
					}
				}
			}
			check := func(when string) {
				t.Helper()
				read(when)
				st := db.Stats().Storage
				t.Logf("%s: %d B resident for %d B live", when, st.TotalBytes, st.LiveBytes)
				if st.TotalBytes > 2*st.LiveBytes {
					t.Errorf("%s: %d B resident for %d B live: more than 2×", when, st.TotalBytes, st.LiveBytes)
				}
			}
			check("after the load")
			for cycles := 0; ; cycles++ {
				moved, err := db.RunGC(8)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil { // followers repoint, condemned extents go
					t.Fatal(err)
				}
				if moved == 0 {
					break
				}
				if cycles == 64 {
					t.Fatalf("GC still moving %d B a cycle after %d cycles", moved, cycles)
				}
				t.Logf("GC cycle %d moved %d B", cycles, moved)
			}
			check("after GC")
		})
	}
}

// TestStressAppendSplitsRaceFlusherGCAndFollower: ascending batches into one
// vertex on a one-shard leader append-split its leaves while the background
// flusher writes the new halves and checkpoints them, GC reclaims extents
// under them, and a replica reads on. After every Sync the replica delivers a
// gapless ascending prefix of the edges, at least as long as what was acked
// before it; at the end both read every edge.
func TestStressAppendSplitsRaceFlusherGCAndFollower(t *testing.T) {
	const hub, batches, perBatch = VertexID(7), 40, 256
	db := openDB(t, &Options{Replicated: true, ExtentSize: 4 << 10, FlushInterval: time.Millisecond, ForestSplitThreshold: 64})
	rep, err := db.OpenReplica()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	// prefix reads hub's edges and fails unless they are 1, 2, ... n.
	prefix := func(r interface {
		Neighbors(VertexID, EdgeType, int, func(VertexID, Properties) bool) error
	}) (int, error) {
		next, past := VertexID(1), VertexID(0)
		err := r.Neighbors(hub, ETypeFollow, 0, func(dst VertexID, _ Properties) bool {
			if dst != next {
				past = dst
				return false
			}
			next++
			return true
		})
		if err == nil && past != 0 {
			err = fmt.Errorf("edge %d is missing, %d is not", next, past)
		}
		return int(next - 1), err
	}

	var acked atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // GC
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.RunGC(4); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // the replica
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			want := int(acked.Load())
			if err := rep.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			if n, err := prefix(rep); err != nil || n < want {
				t.Errorf("the replica read a prefix of %d edges (%v) after %d were acked", n, err, want)
				return
			}
		}
	}()

	// Each batch appends perBatch new edges and overwrites 32 older ones, so
	// the split leaves write on behind the splits and leave GC work.
	rng := rand.New(rand.NewSource(1))
	muts := make([]Mutation, 0, perBatch+32)
	for b := 0; b < batches && !t.Failed(); b++ {
		muts = muts[:0]
		for i := 0; i < perBatch; i++ {
			muts = append(muts, AddEdgeMut(Edge{Src: hub, Dst: VertexID(b*perBatch + i + 1), Type: ETypeFollow}))
		}
		for i := 0; b > 0 && i < 32; i++ {
			ts := binary.LittleEndian.AppendUint64(nil, uint64(b))
			muts = append(muts, AddEdgeMut(Edge{Src: hub, Dst: VertexID(rng.Intn(b*perBatch) + 1), Type: ETypeFollow,
				Props: Properties{{Name: "ts", Value: ts}}}))
		}
		if err := db.ApplyBatch(muts); err != nil {
			t.Errorf("batch %d: %v", b, err)
			break
		}
		acked.Store(int64((b + 1) * perBatch))
	}
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	if st := db.Stats(); st.GC.ExtentsReclaimed == 0 {
		t.Fatalf("fixture: GC reclaimed nothing under the load: %+v", st.GC)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]interface {
		Neighbors(VertexID, EdgeType, int, func(VertexID, Properties) bool) error
	}{"leader": db, "replica": rep} {
		if n, err := prefix(r); err != nil || n != batches*perBatch {
			t.Fatalf("the %s read %d of %d edges in order (%v)", name, n, batches*perBatch, err)
		}
	}
}
