package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

// syncEnv is the shared configuration of the Fig. 13/14 experiments: a
// millisecond-latency shared store (like ByteDance's internal cloud
// storage), a group-commit window, and periodic RO polling. The paper's
// ~120ms latency is dominated by exactly these terms — WAL write latency
// plus RO log read cadence — so the reproduced latency is flat in load by
// the same mechanism, though its absolute value reflects our constants.
type syncEnv struct {
	writeLatency time.Duration
	readLatency  time.Duration
	commitWindow time.Duration
	pollInterval time.Duration
}

func syncEnvFor(s Scale) syncEnv {
	return syncEnv{
		writeLatency: pick(s, time.Millisecond, 2*time.Millisecond, 2*time.Millisecond),
		readLatency:  pick(s, 200*time.Microsecond, 500*time.Microsecond, 500*time.Microsecond),
		commitWindow: pick(s, 10*time.Millisecond, 40*time.Millisecond, 40*time.Millisecond),
		pollInterval: pick(s, 10*time.Millisecond, 40*time.Millisecond, 40*time.Millisecond),
	}
}

func (e syncEnv) open(roCount, roCache int) (*replication.RWNode, []*replication.RONode) {
	st := storage.Open(&storage.Options{
		ExtentSize:   1 << 20,
		WriteLatency: e.writeLatency,
		ReadLatency:  e.readLatency,
	})
	rw, err := replication.NewRWNode(st, replication.RWOptions{
		CommitWindow:  e.commitWindow,
		FlushInterval: 200 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	ros := make([]*replication.RONode, roCount)
	for i := range ros {
		if ros[i], err = replication.NewRONode(st, e.pollInterval, roCache); err != nil {
			panic(err)
		}
	}
	return rw, ros
}

// offerWrites drives paced writes at targetQPS until stop closes. Each
// write blocks on group commit (tens of ms), so enough concurrent clients
// are spawned to sustain the offered rate — as the paper's client pools
// do. Returns the achieved write count.
func offerWrites(rw *replication.RWNode, targetQPS int, workers int, stop <-chan struct{}, seed int64) *atomic.Int64 {
	var count atomic.Int64
	// A client completes roughly one write per commit window; size the
	// pool so the target rate is reachable, capped to keep goroutine
	// counts sane.
	if need := targetQPS / 15; need > workers {
		workers = need
	}
	if workers > 1024 {
		workers = 1024
	}
	perWorker := targetQPS / workers
	if perWorker < 1 {
		perWorker = 1
	}
	interval := time.Second / time.Duration(perWorker)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(seed + int64(w)))
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-ticker.C:
					_ = rw.AddEdge(graph.Edge{
						Src:  graph.VertexID(rng.Intn(1000)),
						Dst:  graph.VertexID(rng.Uint64()),
						Type: graph.ETypeTransfer,
					})
					count.Add(1)
				}
			}
		}(w)
	}
	return &count
}

// measureSyncLatency issues probe writes and times how long each takes to
// become visible on the RO node.
func measureSyncLatency(rw *replication.RWNode, ro *replication.RONode, probes int) time.Duration {
	var total time.Duration
	ok := 0
	for i := 0; i < probes; i++ {
		start := time.Now()
		if err := rw.AddEdge(graph.Edge{
			Src: graph.VertexID(5_000_000 + i), Dst: graph.VertexID(i), Type: graph.ETypeTransfer,
		}); err != nil {
			continue
		}
		lsn := rw.LastLSN()
		if ro.WaitVisible(lsn, 5*time.Second) {
			total += time.Since(start)
			ok++
		}
	}
	if ok == 0 {
		return 0
	}
	return total / time.Duration(ok)
}

// Fig13Row is one point of the sync-latency-vs-write-load curve.
type Fig13Row struct {
	TargetWriteQPS int
	AchievedQPS    float64
	SyncLatency    time.Duration
}

// Fig13SyncLatency reproduces Fig. 13: leader-follower latency stays flat
// (paper: ~120ms) as the write load rises, because WAL shipping cost is
// independent of the page-flush backlog.
func Fig13SyncLatency(s Scale, loads []int, out io.Writer) []Fig13Row {
	env := syncEnvFor(s)
	if len(loads) == 0 {
		loads = pick(s,
			[]int{500, 1000, 2000},
			[]int{1000, 2000, 4000, 6000},
			[]int{2000, 4000, 8000, 12000},
		)
	}
	probes := pick(s, 4, 10, 20)
	var rows []Fig13Row
	for _, load := range loads {
		rw, ros := env.open(1, 0)
		stop := make(chan struct{})
		count := offerWrites(rw, load, 4, stop, 11)
		start := time.Now()
		lat := measureSyncLatency(rw, ros[0], probes)
		elapsed := time.Since(start)
		close(stop)
		achieved := float64(count.Load()) / elapsed.Seconds()
		for _, ro := range ros {
			ro.Stop()
		}
		rw.Stop()
		rows = append(rows, Fig13Row{TargetWriteQPS: load, AchievedQPS: achieved, SyncLatency: lat})
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 13: leader-follower latency vs write throughput ==\n")
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{kqps(float64(r.TargetWriteQPS)), kqps(r.AchievedQPS),
				fmt.Sprintf("%.1fms", float64(r.SyncLatency.Microseconds())/1000)})
		}
		table(out, []string{"target write QPS", "achieved", "sync latency"}, tr)
		fmt.Fprintln(out, "paper shape: latency flat (~120ms) from 10K to 60K write QPS; ours is flat around commit-window + WAL-write + poll terms")
	}
	return rows
}

// Fig14Row is one point of the RO scale-out experiment.
type Fig14Row struct {
	RONodes     int
	ReadQPS     float64 // aggregate across RO nodes (ROPS)
	SyncLatency time.Duration
}

// Fig14ROScaling reproduces Fig. 14: with the write load fixed, read
// throughput grows as RO nodes are added (paper: 65K -> 118K -> 134K for
// 1 -> 2 -> 4 followers, i.e. sublinear) while sync latency stays stable.
func Fig14ROScaling(s Scale, roCounts []int, out io.Writer) []Fig14Row {
	env := syncEnvFor(s)
	if len(roCounts) == 0 {
		roCounts = []int{1, 2, 4}
	}
	writeQPS := pick(s, 500, 1000, 2000)
	preload := pick(s, 10_000, 60_000, 120_000)
	const sources = 2000
	readFor := pick(s, 300*time.Millisecond, time.Second, 3*time.Second)
	probes := pick(s, 3, 8, 16)

	var rows []Fig14Row
	for _, n := range roCounts {
		// RO caches are bounded well below the working set so most reads
		// pay the shared-store read latency: per-node capacity is then
		// latency-bound (as on real follower machines), and adding
		// followers adds capacity.
		rw, ros := env.open(n, 16)
		// Preload concurrently so group commit amortizes the WAL latency.
		var plg sync.WaitGroup
		const loaders = 32
		for l := 0; l < loaders; l++ {
			plg.Add(1)
			go func(l int) {
				defer plg.Done()
				for i := l; i < preload; i += loaders {
					if err := rw.AddEdge(graph.Edge{
						Src: graph.VertexID(i % sources), Dst: graph.VertexID(i), Type: graph.ETypeTransfer,
					}); err != nil {
						panic(err)
					}
				}
			}(l)
		}
		plg.Wait()
		if err := rw.Checkpoint(); err != nil {
			panic(err)
		}
		lsn := rw.LastLSN()
		for _, ro := range ros {
			ro.WaitVisible(lsn, 10*time.Second)
		}

		stop := make(chan struct{})
		offerWrites(rw, writeQPS, 2, stop, 13)

		// Each RO node serves read clients flat out.
		var reads atomic.Int64
		var wg sync.WaitGroup
		readStop := make(chan struct{})
		for i, ro := range ros {
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(seed int64, ro *replication.RONode) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-readStop:
							return
						default:
						}
						src := graph.VertexID(rng.Intn(sources))
						_ = ro.Replica().Neighbors(src, graph.ETypeTransfer, 16,
							func(graph.VertexID, graph.Properties) bool { return true })
						reads.Add(1)
					}
				}(int64(i*10+c), ro)
			}
		}
		readStart := time.Now()
		lat := measureSyncLatency(rw, ros[0], probes)
		if rem := readFor - time.Since(readStart); rem > 0 {
			time.Sleep(rem)
		}
		elapsed := time.Since(readStart)
		close(readStop)
		wg.Wait()
		close(stop)
		readQPS := float64(reads.Load()) / elapsed.Seconds()
		for _, ro := range ros {
			ro.Stop()
		}
		rw.Stop()
		rows = append(rows, Fig14Row{RONodes: n, ReadQPS: readQPS, SyncLatency: lat})
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 14: RO scale-out at fixed write load ==\n")
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{fmt.Sprintf("1M%dF", r.RONodes), kqps(r.ReadQPS),
				fmt.Sprintf("%.1fms", float64(r.SyncLatency.Microseconds())/1000)})
		}
		table(out, []string{"config", "read QPS (ROPS)", "MF-LTCY"}, tr)
		fmt.Fprintln(out, "paper shape: ROPS grows sublinearly with followers (65K->118K->134K) while sync latency stays ~flat")
	}
	return rows
}
