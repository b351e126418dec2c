package bg3

import (
	"encoding/binary"
	"math/rand"
	"testing"
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
// On top of the ratios, each run's exact cost is pinned to what it was when a
// sync write still had a persistence routine of its own, before it became the
// flush of the page it dirtied: the records a sync tree writes are the
// flush's to change, not a refactor's.
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
	if want := (cost{1056, 568344}); single != want {
		t.Fatalf("1,024 ascending single writes cost %+v, want exactly %+v", single, want)
	}
	if want := (cost{49, 141077}); batch != want {
		t.Fatalf("one batch of 1,024 ascending edges cost %+v, want exactly %+v", batch, want)
	}

	scattered := make([]Edge, 16)
	for i := range scattered {
		scattered[i] = Edge{Src: hub, Dst: VertexID(4096*i + 1), Type: ETypeFollow, Props: props}
	}
	if single, batch := run(scattered, false), run(scattered, true); batch != single || single.appends != int64(len(scattered)) {
		t.Fatalf("a batch of one key per leaf cost %+v, the single writes %+v: want the same, an append per key", batch, single)
	} else if want := (cost{16, 768}); single != want {
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
