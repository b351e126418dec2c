package bg3_test

// Benchmark targets regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark runs the corresponding experiment from
// internal/experiments at Small scale once per b.N iteration and reports
// the headline quantity as a custom metric, so `go test -bench=.` prints a
// row per paper artifact. The bg3-bench command runs the same experiments
// at larger scales with full paper-style tables.

import (
	"fmt"
	"io"
	"testing"
	"time"

	bg3 "bg3"
	"bg3/internal/bwtree"
	"bg3/internal/experiments"
	"bg3/internal/storage"
	"bg3/internal/workload"
)

// BenchmarkFigure8Vertical regenerates Fig. 8's single-machine half:
// throughput of BG3 / ByteGraph / Neptune-sim per workload at a 8-vCPU
// worker cap. Reported metrics: <workload>-<system> KQPS.
func BenchmarkFigure8Vertical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8Vertical(experiments.Small, []int{8}, io.Discard)
		for _, r := range rows {
			b.ReportMetric(r.Throughput/1000, fmt.Sprintf("%s/%s-KQPS", r.Workload, r.System))
		}
	}
}

// BenchmarkFigure8Horizontal regenerates Fig. 8's multi-node half at 2 and
// 4 nodes.
func BenchmarkFigure8Horizontal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8Horizontal(experiments.Small, []int{2, 4}, io.Discard)
		for _, r := range rows {
			b.ReportMetric(r.Throughput/1000, fmt.Sprintf("%s/%s/n%d-KQPS", r.Workload, r.System, r.Scale))
		}
	}
}

// BenchmarkFigure9ReadAmplification regenerates Fig. 9: storage reads per
// client read with a zero-size cache, traditional vs read-optimized.
func BenchmarkFigure9ReadAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9ReadAmplification(experiments.Small, io.Discard)
		b.ReportMetric(res[0].Amplification, "traditional-amp")
		b.ReportMetric(res[1].Amplification, "read-optimized-amp")
	}
}

// BenchmarkFigure10WriteBandwidth regenerates Fig. 10: total bytes written
// by a write-only power-law load, traditional vs read-optimized.
func BenchmarkFigure10WriteBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10WriteBandwidth(experiments.Small, io.Discard)
		b.ReportMetric(float64(res[0].BytesWritten)/(1<<20), "traditional-MB")
		b.ReportMetric(float64(res[1].BytesWritten)/(1<<20), "read-optimized-MB")
		b.ReportMetric(100*(float64(res[1].BytesWritten)/float64(res[0].BytesWritten)-1), "overhead-pct")
	}
}

// BenchmarkFigure11ForestScaling regenerates Fig. 11: writes per virtual
// second and memory as the number of Bw-trees grows.
func BenchmarkFigure11ForestScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11ForestScaling(experiments.Small, []int{1, 64, 4096}, io.Discard)
		for _, r := range rows {
			b.ReportMetric(r.WriteQPS/1000, fmt.Sprintf("trees%d-Kwrites/vsec", r.Trees))
			b.ReportMetric(float64(r.MemoryBytes)/(1<<20), fmt.Sprintf("trees%d-MB", r.Trees))
		}
	}
}

// BenchmarkTable2Gradient regenerates Table 2 (left): background GC
// bandwidth per virtual second under FIFO / dirty-ratio / workload-aware on
// the follow-style churn workload.
func BenchmarkTable2Gradient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2SpaceReclamation(experiments.Small, io.Discard)
		b.ReportMetric(rows[0].MBPerSec, "fifo-MB/vsec")
		b.ReportMetric(rows[1].MBPerSec, "dirty-ratio-MB/vsec")
		b.ReportMetric(rows[2].MBPerSec, "gradient-MB/vsec")
	}
}

// BenchmarkTable2TTL regenerates Table 2 (right): GC bandwidth per virtual
// second with and without the TTL bypass on the risk-control ingest.
func BenchmarkTable2TTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2SpaceReclamation(experiments.Small, io.Discard)
		b.ReportMetric(rows[3].MBPerSec, "dirty-ratio-MB/vsec")
		b.ReportMetric(rows[4].MBPerSec, "ttl-MB/vsec")
		b.ReportMetric(float64(rows[4].Expired), "ttl-extents-expired")
	}
}

// BenchmarkFigure12Recall regenerates Fig. 12: follower recall under
// packet loss, command forwarding vs WAL shipping.
func BenchmarkFigure12Recall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12Recall(experiments.Small, []float64{0.01, 0.05, 0.10}, io.Discard)
		for _, r := range rows {
			sys := "fwd"
			if r.System[:3] == "BG3" {
				sys = "wal"
			}
			b.ReportMetric(r.Recall, fmt.Sprintf("%s-loss%.0f%%-recall", sys, r.LossRate*100))
		}
	}
}

// BenchmarkFigure13SyncLatency regenerates Fig. 13: leader-follower
// latency across write loads.
func BenchmarkFigure13SyncLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13SyncLatency(experiments.Small, []int{500, 2000}, io.Discard)
		for _, r := range rows {
			b.ReportMetric(float64(r.SyncLatency.Microseconds())/1000,
				fmt.Sprintf("load%d-ms", r.TargetWriteQPS))
		}
	}
}

// BenchmarkFigure14ROScaling regenerates Fig. 14: aggregate read
// throughput and sync latency as followers scale out.
func BenchmarkFigure14ROScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14ROScaling(experiments.Small, []int{1, 2}, io.Discard)
		for _, r := range rows {
			b.ReportMetric(r.ReadQPS/1000, fmt.Sprintf("1M%dF-readKQPS", r.RONodes))
			b.ReportMetric(float64(r.SyncLatency.Microseconds())/1000, fmt.Sprintf("1M%dF-ms", r.RONodes))
		}
	}
}

// BenchmarkStorageCost regenerates the §4.2 storage-cost comparison.
func BenchmarkStorageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.StorageCost(experiments.Small, io.Discard)
		b.ReportMetric(100*(1-rows[0].RelativeCost/rows[1].RelativeCost), "saving-pct")
		b.ReportMetric(rows[0].WriteAmp, "bg3-write-amp")
		b.ReportMetric(rows[1].WriteAmp, "bytegraph-write-amp")
	}
}

// --- Engine-level micro-benchmarks (ablations) ---

// BenchmarkBG3Put measures raw single-threaded edge-insert latency through
// the public API, per deployment shape: a bare engine, a one-shard leader
// (every write waits on a WAL group commit) and four shards.
func BenchmarkBG3Put(b *testing.B) {
	for _, shape := range []struct {
		name string
		opts bg3.Options
	}{
		{"bare", bg3.Options{ForestSplitThreshold: 512}},
		{"leader", bg3.Options{ForestSplitThreshold: 512, Replicated: true}},
		{"shards-4", bg3.Options{ForestSplitThreshold: 512, Shards: 4}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			db, err := bg3.Open(&shape.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.AddEdge(bg3.Edge{
					Src: bg3.VertexID(i % 1000), Dst: bg3.VertexID(i), Type: bg3.ETypeFollow,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBG3Neighbors measures one-hop neighbor enumeration on a warm
// cache.
func BenchmarkBG3Neighbors(b *testing.B) {
	db, err := bg3.Open(&bg3.Options{ForestSplitThreshold: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50_000; i++ {
		if err := db.AddEdge(bg3.Edge{
			Src: bg3.VertexID(i % 1000), Dst: bg3.VertexID(i), Type: bg3.ETypeFollow,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := db.Neighbors(bg3.VertexID(i%1000), bg3.ETypeFollow, 64,
			func(bg3.VertexID, bg3.Properties) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBG3KHop measures 1-, 2- and 3-hop limit-16 traversals over a
// graph that does not fit a 64-page cache, so every hop batch-loads cold
// leaves (Table 1's recommendation read), on a bare engine and on four
// shards (every hop a scatter). B/op is the reached set the traversal
// returns, allocated once at its final size, plus the bookkeeping of each
// hop; the hop's scratch is pooled.
func BenchmarkBG3KHop(b *testing.B) {
	const vertices = 2000
	for _, shape := range []struct {
		name string
		opts bg3.Options
	}{
		{"bare", bg3.Options{CacheCapacity: 64}},
		{"shards-4", bg3.Options{CacheCapacity: 64, Shards: 4}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			db, err := bg3.Open(&shape.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < vertices*32; i++ {
				if err := db.AddEdge(bg3.Edge{
					Src: bg3.VertexID(i % vertices), Dst: bg3.VertexID((i/vertices*131 + i*7) % vertices), Type: bg3.ETypeFollow,
				}); err != nil {
					b.Fatal(err)
				}
			}
			for _, hops := range []int{1, 2, 3} {
				b.Run(fmt.Sprintf("hops-%d", hops), func(b *testing.B) {
					b.ReportAllocs()
					reached := 0
					for i := 0; i < b.N; i++ {
						got, err := db.KHop(bg3.VertexID(i*37%vertices), bg3.ETypeFollow, hops, 16)
						if err != nil {
							b.Fatal(err)
						}
						reached += len(got)
					}
					b.ReportMetric(float64(reached)/float64(b.N), "reached/op")
				})
			}
		})
	}
}

// BenchmarkDeltaPolicies is the ablation for DESIGN.md's central design
// choice: read-optimized vs traditional delta handling on a mixed
// read/write key-value load at the Bw-tree level.
func BenchmarkDeltaPolicies(b *testing.B) {
	for _, policy := range []bwtree.DeltaPolicy{bwtree.ReadOptimized, bwtree.Traditional} {
		b.Run(policy.String(), func(b *testing.B) {
			st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
			m := bwtree.NewMapping(0, false)
			tr, err := bwtree.New(m, st, bwtree.Config{Policy: policy}, nil)
			if err != nil {
				b.Fatal(err)
			}
			key := make([]byte, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range key {
					key[j] = byte(i >> (8 * j))
				}
				if i%4 == 0 {
					if err := tr.Put(key, key); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, _, err := tr.Get(key); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkWorkloadGenerators measures the generator overhead itself so
// throughput numbers can be read net of it.
func BenchmarkWorkloadGenerators(b *testing.B) {
	gens := []workload.Generator{
		workload.NewDouyinFollow(100_000, 1),
		workload.NewRiskControl(100_000, 1),
		workload.NewRecommendation(100_000, 1),
	}
	for _, g := range gens {
		b.Run(g.Name(), func(b *testing.B) {
			gen := g.Clone(2)
			for i := 0; i < b.N; i++ {
				_ = gen.Next()
			}
		})
	}
}

// BenchmarkReplicaSyncLatency measures the end-to-end visibility latency
// of one write on an idle RW/RO pair (the floor under Fig. 13).
func BenchmarkReplicaSyncLatency(b *testing.B) {
	db, err := bg3.Open(&bg3.Options{
		Replicated:          true,
		ReplicaPollInterval: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rep, err := db.OpenReplica()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := bg3.Edge{Src: 1, Dst: bg3.VertexID(i), Type: bg3.ETypeFollow}
		if err := db.AddEdge(e); err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok, _ := rep.GetEdge(e.Src, e.Type, e.Dst); ok {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}
