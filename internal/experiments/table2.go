package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/gc"
	"bg3/internal/storage"
)

// Table2Row is one cell pair of Table 2: the background bandwidth consumed
// by space reclamation under a given policy. Time is the driver's virtual
// time: Duration and the rates are per virtual second.
type Table2Row struct {
	Workload   string
	Policy     string
	MovedBytes int64
	Duration   time.Duration
	MBPerSec   float64 // both streams
	// BaseMBPerSec isolates the base-page stream, where page lifetimes
	// are heterogeneous and policy choice matters most. The delta stream
	// is near-degenerate under the read-optimized tree (every merged
	// delta supersedes its predecessor almost immediately), so any policy
	// reclaims it almost for free.
	BaseMBPerSec float64
	Expired      int64 // extents freed by TTL without movement
}

// virtualClock is a Table 2 driver's time. The driver's store reads it
// (storage.Options.Now) and the driver advances it by hand, one 1 ms slot at
// a time, so a run's numbers depend on its seed alone.
type virtualClock struct{ elapsed time.Duration }

func (c *virtualClock) now() time.Time { return time.Unix(0, 0).Add(c.elapsed) }

// reclaimToBudget is a capacity-bounded deployment's reclamation trigger,
// run inline at the end of a slot: GC cycles of batch extents while the
// stream holds more than budget extents, until a cycle frees none (the
// policy is waiting for its extents to age).
func reclaimToBudget(st *storage.Store, r *gc.Reclaimer, stream storage.StreamID, budget, batch int) {
	freed := func() int64 { m := st.Stats(); return m.ExtentsReclaimed + m.ExtentsExpired }
	for len(st.Usage(stream)) > budget {
		before := freed()
		if _, err := r.RunOnce(batch); err != nil {
			panic(err)
		}
		if freed() == before {
			return
		}
	}
}

// runRiskControlGC drives the ingest-only risk-control workload through a
// full forest with space-pressure reclamation, and reports how many bytes
// reclamation moved.
//
// ttl is the data's lifetime as seen by the application; reclaimerTTL is
// what the reclaimer knows about it. The TTL-unaware baseline
// (dirty-ratio, as in ByteGraph) gets reclaimerTTL = 0: it cannot drop
// whole extents and keeps relocating data that is about to expire — the
// wasted bandwidth Table 2 quantifies.
func runRiskControlGC(policy gc.Policy, ttl, reclaimerTTL time.Duration, s Scale, seed int64) Table2Row {
	var clock virtualClock
	st := storage.Open(&storage.Options{
		ExtentSize:    64 << 10,
		GradientDecay: 200 * time.Millisecond,
		Now:           clock.now,
	})
	m := bwtree.NewMapping(0, false)
	fo, err := forest.New(m, st, forest.Config{
		Tree:           bwtree.Config{MaxPageEntries: 32, ConsolidateNum: 5},
		SplitThreshold: 128,
	}, nil)
	if err != nil {
		panic(err)
	}
	// Space-pressure-driven reclamation: each stream is held to a fixed
	// extent budget, exactly like a capacity-bounded production deployment.
	// Both policies therefore reclaim the same *space* over the run; what
	// differs — and what Table 2 reports — is how many bytes they must
	// move to do it.
	const extentBudget = 48
	streams := []storage.StreamID{storage.StreamBase, storage.StreamDelta}
	reclaimers := make([]*gc.Reclaimer, len(streams))
	for i, stream := range streams {
		reclaimers[i] = gc.NewReclaimer(st, stream, policy, m.Relocate)
		reclaimers[i].TTL = reclaimerTTL
	}

	owners := pick(s, 200, 1_000, 5_000)
	// Writes are paced (the paper's Table 2 runs at a fixed 40K QPS) so
	// extents live long enough to age through the trend cycle. After the
	// writes, 2·ttl of slots without any let the data age out (or, for the
	// TTL-unaware baseline, keep being relocated).
	perSlot := pick(s, 30, 40, 40)
	writeSlots := pick(s, 1_200, 3_000, 8_000)
	slots := writeSlots + int(2*ttl/time.Millisecond)

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(owners-1))
	val := make([]byte, 24)
	i := 0
	for slot := 0; slot < slots; slot++ {
		for k := 0; k < perSlot && slot < writeSlots; k++ {
			// Fresh inserts (reconciliation records), power-law owners.
			owner := forest.OwnerID(zipf.Uint64())
			if err := fo.Put(owner, key64(uint64(i)), val); err != nil {
				panic(err)
			}
			i++
		}
		clock.elapsed += time.Millisecond
		for j, r := range reclaimers {
			reclaimToBudget(st, r, streams[j], extentBudget, 4)
		}
	}
	stats := st.Stats()
	baseMoved := reclaimers[0].Stats().BytesMoved
	return Table2Row{
		Policy:       policy.Name(),
		MovedBytes:   stats.GCBytesMoved,
		Duration:     clock.elapsed,
		MBPerSec:     float64(stats.GCBytesMoved) / (1 << 20) / clock.elapsed.Seconds(),
		BaseMBPerSec: float64(baseMoved) / (1 << 20) / clock.elapsed.Seconds(),
		Expired:      stats.ExtentsExpired,
	}
}

// Table2SpaceReclamation reproduces Table 2: background write bandwidth of
// dirty-ratio vs gradient on the follow workload (paper: 15 vs 12.5 MB/s,
// a 16% reduction) and of dirty-ratio vs +TTL on risk control (paper: 8 vs
// 0 MB/s).
func Table2SpaceReclamation(s Scale, out io.Writer) []Table2Row {
	const riskTTL = 150 * time.Millisecond
	rows := []Table2Row{}

	// Workload 1: the controlled page-rewrite driver (see table2_follow.go).
	// FIFO is the traditional Bw-tree strategy §3.3 starts from; dirty
	// ratio is the ArkDB baseline of the paper's table; the gradient
	// policy adds Algorithm 2 on top. The fragmentation floor keeps the
	// gradient policy from compacting barely fragmented cold extents.
	rows = append(rows, runFollowGC(gc.FIFO{}, s, 1))
	rows = append(rows, runFollowGC(gc.DirtyRatio{}, s, 1))
	rows = append(rows, runFollowGC(gc.WorkloadAware{MinRate: 0.8}, s, 1))

	// Workload 2: the baseline is TTL-unaware — no extent expiry, keeps
	// moving data.
	r := runRiskControlGC(gc.DirtyRatio{}, riskTTL, 0, s, 2)
	r.Workload = "risk-control (workload 2)"
	rows = append(rows, r)
	// With a short TTL every extent is destined to expire soon; the paper's
	// "+TTL" strategy forgoes reclamation entirely and waits, so the bypass
	// margin covers the whole TTL window.
	r = runRiskControlGC(gc.WorkloadAware{TTL: riskTTL, TTLBypassMargin: riskTTL}, riskTTL, riskTTL, s, 2)
	r.Workload = "risk-control (workload 2)"
	rows = append(rows, r)

	if out != nil {
		fmt.Fprintf(out, "\n== Table 2: space reclamation policies (background GC bandwidth) ==\n")
		var tr [][]string
		for _, row := range rows {
			tr = append(tr, []string{row.Workload, row.Policy, f2(row.MBPerSec),
				fmt.Sprint(row.MovedBytes), fmt.Sprint(row.Expired)})
		}
		table(out, []string{"workload", "policy", "GC MB per virtual s", "bytes moved", "extents expired"}, tr)
		if rows[1].MBPerSec > 0 {
			fmt.Fprintf(out, "workload 1: vs dirty-ratio, gradient changes background writes by %+.1f%% (paper: -16%%); vs FIFO by %+.1f%%\n",
				100*(rows[2].MBPerSec/rows[1].MBPerSec-1), 100*(rows[2].MBPerSec/rows[0].MBPerSec-1))
		}
		fmt.Fprintf(out, "workload 2: +TTL %s vs dirty-ratio %s MB per virtual s (paper: 0 vs 8 MB/s)\n",
			f2(rows[4].MBPerSec), f2(rows[3].MBPerSec))
	}
	return rows
}
