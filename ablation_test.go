package bg3_test

// Ablation benchmarks for the design choices DESIGN.md §3 calls out:
// forest splitting on/off, GC policy, group-commit window, replica cache
// size, the packed edge block, and the leaf run of a batched write. Each
// reports the quantity the choice trades off.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	bg3 "bg3"
	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/gc"
	"bg3/internal/metrics"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// BenchmarkAblationForestSplit compares hot-owner write throughput with the
// forest enabled vs a single shared tree, under contended concurrent
// writers (the §3.2.1 design choice).
func BenchmarkAblationForestSplit(b *testing.B) {
	for _, mode := range []struct {
		name      string
		threshold int
	}{{"single-tree", 0}, {"forest", 64}} {
		b.Run(mode.name, func(b *testing.B) {
			st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
			m := bwtree.NewMapping(0, false)
			fo, err := forest.New(m, st, forest.Config{
				Tree:           bwtree.Config{MaxPageEntries: 64},
				SplitThreshold: mode.threshold,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			const workers = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					zipf := rand.NewZipf(rng, 1.2, 1, 1023)
					key := make([]byte, 8)
					for i := 0; i < per; i++ {
						owner := forest.OwnerID(zipf.Uint64()*workers + uint64(w))
						for j := range key {
							key[j] = byte(i >> (8 * j))
						}
						if err := fo.Put(owner, key, key); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(fo.Stats().Trees), "trees")
		})
	}
}

// BenchmarkAblationGCPolicy compares the write amplification of the three
// reclamation policies under identical churn (the §3.3 design choice).
func BenchmarkAblationGCPolicy(b *testing.B) {
	for _, p := range []gc.Policy{gc.FIFO{}, gc.DirtyRatio{}, gc.WorkloadAware{MinRate: 0.8}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := storage.Open(&storage.Options{ExtentSize: 16 << 10})
				locs := map[uint64]storage.Loc{}
				payload := make([]byte, 512)
				for k := 0; k < 2048; k++ {
					loc, err := st.Append(storage.StreamBase, uint64(k), payload)
					if err != nil {
						b.Fatal(err)
					}
					locs[uint64(k)] = loc
				}
				r := gc.NewReclaimer(st, storage.StreamBase, p, func(tag uint64, old, new storage.Loc, _, _ []byte) bool {
					if locs[tag] != old {
						return false
					}
					locs[tag] = new
					return true
				})
				rng := rand.New(rand.NewSource(1))
				for round := 0; round < 16; round++ {
					for k := 0; k < 256; k++ {
						tag := uint64(rng.Intn(1024)) // hot half churns
						st.Invalidate(locs[tag])
						loc, err := st.Append(storage.StreamBase, tag, payload)
						if err != nil {
							b.Fatal(err)
						}
						locs[tag] = loc
					}
					if _, err := r.RunOnce(4); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Stats().BytesMoved)/(1<<20), "MB-moved")
			}
		})
	}
}

// BenchmarkAblationCommitWindow sweeps the group-commit window: larger
// windows batch more records per storage round trip (fewer, bigger
// appends) at the cost of per-write latency.
func BenchmarkAblationCommitWindow(b *testing.B) {
	for _, window := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("window-%v", window), func(b *testing.B) {
			st := storage.Open(&storage.Options{
				ExtentSize:   1 << 20,
				WriteLatency: time.Millisecond,
			})
			w := wal.NewWriter(st)
			l := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{MaxDelay: window})
			defer l.Stop()
			reg := metrics.NewRegistry()
			l.RegisterMetrics(reg)
			const writers = 32
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/writers + 1
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := l.Log(&wal.Record{Type: wal.RecordPut, Key: []byte("k")}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if g := reg.Snapshot()["wal.group_size"].IntHistogram; g.Count > 0 {
				b.ReportMetric(g.Mean, "records/batch")
			}
		})
	}
}

// BenchmarkAblationReplicaCache sweeps the RO page-cache size against a
// fixed working set: the miss rate (storage reads per query) is the price
// of memory frugality on follower nodes.
func BenchmarkAblationReplicaCache(b *testing.B) {
	for _, cache := range []int{8, 64, 0 /* unlimited */} {
		name := fmt.Sprint(cache)
		if cache == 0 {
			name = "unlimited"
		}
		b.Run("cache-"+name, func(b *testing.B) {
			st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
			rw, err := replication.NewRWNode(st, replication.RWOptions{
				Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 64}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rw.Stop()
			const sources = 512
			for i := 0; i < 16_384; i++ {
				if err := rw.AddEdge(bg3.Edge{
					Src: bg3.VertexID(i % sources), Dst: bg3.VertexID(i), Type: bg3.ETypeFollow,
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := rw.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			ro, err := replication.NewRONode(st, time.Millisecond, cache)
			if err != nil {
				b.Fatal(err)
			}
			defer ro.Stop()
			if !ro.WaitVisible(rw.LastLSN(), 10*time.Second) {
				b.Fatal("replica lagging")
			}
			rng := rand.New(rand.NewSource(3))
			st.ResetIOStats()
			before := ro.Metrics().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := bg3.VertexID(rng.Intn(sources))
				if err := ro.Replica().Neighbors(src, bg3.ETypeFollow, 16,
					func(bg3.VertexID, bg3.Properties) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Stats().ReadOps)/float64(b.N), "storage-reads/query")
			// The follower's own page-table accounting, over the queries alone.
			after := ro.Metrics().Snapshot()
			hits := after["bwtree.cache_hits"].Value - before["bwtree.cache_hits"].Value
			misses := after["bwtree.cache_misses"].Value - before["bwtree.cache_misses"].Value
			b.ReportMetric(float64(hits)/float64(hits+misses), "bwtree.cache_hit_ratio")
		})
	}
}

// BenchmarkAblationEdgeBlock prices the packed edge block (DESIGN §12): a
// full Neighbors scan of one 100k-edge vertex, 2% of whose edges were
// written after the block was built, with the block (default threshold)
// and with the leaves alone (threshold -1), under an unlimited and a
// 1,024-page cache — the leaf walk's pages do not fit the bounded one, the
// block is resident whatever the cache holds.
//
// The write-then-scan cases price a write into the packed tree by what the
// next read pays for it: one AddEdge onto the vertex followed by one
// Neighbors — limit 128, or the whole adjacency — 2k and 20k late edges after
// the build. The late edges land past the packed ones, so a full scan walks
// the leaves they were written to and takes every other leaf from the block,
// until those walks add up to the block's leaf count and have it rebuilt.
// Run them with -benchtime 2000x.
func BenchmarkAblationEdgeBlock(b *testing.B) {
	const hub, edges = bg3.VertexID(1), 100_000
	// open loads the hub's edges, packs them and writes late more past them.
	open := func(b *testing.B, threshold, pages, late int) *bg3.DB {
		db, err := bg3.Open(&bg3.Options{ForestSplitThreshold: 64, EdgeBlockThreshold: threshold, CacheCapacity: pages})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		batch := make([]bg3.Mutation, 0, 1024)
		for d := 0; d < edges; d++ {
			batch = append(batch, bg3.AddEdgeMut(bg3.Edge{Src: hub, Dst: bg3.VertexID(d), Type: bg3.ETypeFollow}))
			if len(batch) == cap(batch) || d == edges-1 {
				if err := db.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if _, err := db.BuildEdgeBlocks(); err != nil {
			b.Fatal(err)
		}
		for d := edges; d < edges+late; d++ {
			if err := db.AddEdge(bg3.Edge{Src: hub, Dst: bg3.VertexID(d), Type: bg3.ETypeFollow}); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	for _, cache := range []struct {
		name  string
		pages int
	}{{"unlimited", 0}, {"1024", 1024}} {
		for _, mode := range []struct {
			name      string
			threshold int
		}{{"block", 0}, {"leaves", -1}} {
			b.Run(mode.name+"/cache-"+cache.name, func(b *testing.B) {
				db := open(b, mode.threshold, cache.pages, edges/50)
				scan := func() {
					n := 0
					if err := db.Neighbors(hub, bg3.ETypeFollow, 0, func(bg3.VertexID, bg3.Properties) bool { n++; return true }); err != nil || n != edges+edges/50 {
						b.Fatalf("scan delivered %d edges, %v", n, err)
					}
				}
				scan()
				reads := db.Stats().Storage.ReadOps
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scan()
				}
				b.StopTimer()
				b.ReportMetric(float64(db.Stats().Storage.ReadOps-reads)/float64(b.N), "storage-reads/scan")
			})
		}
	}
	for _, late := range []int{2_000, 20_000} {
		for _, read := range []struct {
			name  string
			limit int
		}{{"limit-128", 128}, {"full", 0}} {
			b.Run(fmt.Sprintf("write-then-scan/overlay-%dk/%s", late/1000, read.name), func(b *testing.B) {
				db := open(b, 0, 0, late)
				pair := func(i int) {
					if err := db.AddEdge(bg3.Edge{Src: hub, Dst: bg3.VertexID(edges + late + i), Type: bg3.ETypeFollow}); err != nil {
						b.Fatal(err)
					}
					n, want := 0, edges+late+i+1
					if read.limit > 0 {
						want = read.limit
					}
					if err := db.Neighbors(hub, bg3.ETypeFollow, read.limit, func(bg3.VertexID, bg3.Properties) bool { n++; return true }); err != nil || n != want {
						b.Fatalf("scan delivered %d edges, %v, want %d", n, err, want)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pair(i)
				}
				b.StopTimer()
				// One more pair after a build, counted: its scan walks the leaves
				// written since the build — the last one and any split off it
				// (the pages counted may hold an inner node a split grew).
				if _, err := db.BuildEdgeBlocks(); err != nil {
					b.Fatal(err)
				}
				pages, before := db.Stats().Cache.Pages, db.Stats().EdgeBlocks.Fallbacks
				pair(b.N)
				fallbacks, written := db.Stats().EdgeBlocks.Fallbacks-before, db.Stats().Cache.Pages-pages+1
				if read.limit > 0 && fallbacks != 0 || read.limit == 0 && (fallbacks < written-written/64-1 || fallbacks > written) {
					b.Fatalf("a scan walked %d leaves instead of the block, want the %d leaves written since the build", fallbacks, written)
				}
			})
		}
	}
}

// BenchmarkAblationBatchApply prices the leaf run (DESIGN §9) with the one
// switch it has, the size of the batch: the benchmark's two load streams —
// 200k edges from Zipf(1.2) sources to uniform destinations, and two
// vertices taking 100k ascending edges each — go through ApplyBatch one
// mutation at a time and 1,024 at a time on a sync engine. A batch of one is
// a run of one, i.e. the single-write path; 1,024 sorted mutations are a run
// per leaf they touch. Reported per edge: bytes and appends that reached
// storage, and what the load left resident there (no GC runs). ns/op is one
// whole load; run with -benchtime 1x.
func BenchmarkAblationBatchApply(b *testing.B) {
	const vertices, edges = 20_000, 200_000
	streams := []struct {
		name string
		edge func(i int, rng *rand.Rand, zipf *rand.Zipf) (src, dst bg3.VertexID)
	}{
		{"zipf", func(_ int, rng *rand.Rand, zipf *rand.Zipf) (bg3.VertexID, bg3.VertexID) {
			return bg3.VertexID(zipf.Uint64()), bg3.VertexID(rng.Intn(vertices))
		}},
		{"ascending", func(i int, _ *rand.Rand, _ *rand.Zipf) (bg3.VertexID, bg3.VertexID) {
			return bg3.VertexID(vertices + i/(edges/2)), bg3.VertexID(i % (edges / 2))
		}},
	}
	for _, stream := range streams {
		for _, size := range []int{1, 1024} {
			b.Run(fmt.Sprintf("%s/batch-%d", stream.name, size), func(b *testing.B) {
				var st bg3.StorageStats
				for n := 0; n < b.N; n++ {
					db, err := bg3.Open(&bg3.Options{ForestSplitThreshold: 64})
					if err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(1))
					zipf := rand.NewZipf(rng, 1.2, 1, vertices-1)
					batch := make([]bg3.Mutation, 0, size)
					for i := 0; i < edges; i++ {
						src, dst := stream.edge(i, rng, zipf)
						batch = append(batch, bg3.AddEdgeMut(bg3.Edge{Src: src, Dst: dst, Type: bg3.ETypeFollow,
							Props: bg3.Properties{{Name: "ts", Value: []byte("12345678")}}}))
						if len(batch) == cap(batch) || i == edges-1 {
							if err := db.ApplyBatch(batch); err != nil {
								b.Fatal(err)
							}
							batch = batch[:0]
						}
					}
					st = db.Stats().Storage
					db.Close()
				}
				b.ReportMetric(float64(st.BytesWritten)/edges, "bytes-written/edge")
				b.ReportMetric(float64(st.WriteOps)/edges, "appends/edge")
				b.ReportMetric(float64(st.TotalBytes)/(1<<20), "resident-MB")
			})
		}
	}
}
