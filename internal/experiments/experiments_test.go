package experiments

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
)

// The experiment smoke tests run every harness at Small scale and assert
// the paper's qualitative shapes — who wins, which direction the deltas
// point. Where an experiment counts (storage traffic) or runs on virtual
// time (Table 2, Fig. 11), its numbers are pinned exactly as well.

func TestFig9Shape(t *testing.T) {
	var buf bytes.Buffer
	res := Fig9ReadAmplification(Small, &buf)
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	sled, bg3 := res[0], res[1]
	if bg3.Amplification >= sled.Amplification {
		t.Fatalf("read-optimized amp %.2f >= traditional %.2f", bg3.Amplification, sled.Amplification)
	}
	if bg3.Amplification > 2.01 {
		t.Fatalf("read-optimized amp %.2f, must be <= 2 (1 base + <=1 delta)", bg3.Amplification)
	}
	if sled.Amplification <= 1.0 {
		t.Fatalf("traditional amp %.2f, expected chains > 1", sled.Amplification)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("missing table output")
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10WriteBandwidth(Small, nil)
	sled, bg3 := res[0], res[1]
	if bg3.BytesWritten <= sled.BytesWritten {
		t.Fatalf("read-optimized bytes %d <= traditional %d", bg3.BytesWritten, sled.BytesWritten)
	}
	// The overhead should be modest (paper: +9.3%), not multiplicative.
	ratio := float64(bg3.BytesWritten) / float64(sled.BytesWritten)
	if ratio > 3.0 {
		t.Fatalf("write overhead ratio = %.2f, unreasonably large", ratio)
	}
}

// TestFig9Fig10StorageCounts pins, exactly, the storage traffic of the Fig. 9
// tree (cache disabled, splitting, then power-law updates) and the Fig. 10
// tree (write-only power law) at Small under both policies. Every sync write
// is the flush of the page it dirtied, with no second load on the
// cache-disabled tree, except a write that overfills its leaf: the split's
// writes persist it, one flush fewer per split.
func TestFig9Fig10StorageCounts(t *testing.T) {
	type io struct{ writes, bytes, reads int64 }
	for _, c := range []struct {
		policy      bwtree.DeltaPolicy
		fig9, fig10 io
	}{
		{bwtree.Traditional, io{12123, 2221164, 71243}, io{10002, 22519868, 0}},
		{bwtree.ReadOptimized, io{12123, 4316840, 23076}, io{10002, 25625076, 0}},
	} {
		_, st9 := fig9TreeSetup(c.policy, pick(Small, 4_000, 0, 0), pick(Small, 8_000, 0, 0), 42)
		st10 := fig10TreeSetup(c.policy, pick(Small, 4_000, 0, 0), pick(Small, 10_000, 0, 0))
		for _, f := range []struct {
			name string
			st   *storage.Store
			want io
		}{{"fig9", st9, c.fig9}, {"fig10", st10, c.fig10}} {
			s := f.st.Stats()
			if got := (io{s.WriteOps, s.BytesWritten, s.ReadOps}); got != f.want {
				t.Errorf("%s %v: {writes bytes reads} = %v, want %v", f.name, c.policy, got, f.want)
			}
		}
	}
}

// TestFig11Shape pins Fig. 11 on virtual time: two runs give the same rows,
// and their writes per virtual second, tree counts and memory are exact.
// The paper's claim is the ordering — writes rise as the hot head gets
// dedicated trees, and memory rises with the tree count.
func TestFig11Shape(t *testing.T) {
	rows := Fig11ForestScaling(Small, []int{1, 64, 8192}, nil)
	if again := Fig11ForestScaling(Small, []int{1, 64, 8192}, nil); !slices.Equal(rows, again) {
		t.Fatalf("two runs differ:\n%v\n%v", rows, again)
	}
	type row struct {
		trees  int
		writes float64 // per virtual second, rounded
		memory int64
	}
	want := []row{{1, 6205, 214756}, {64, 6704, 199068}, {8192, 7947, 1565448}}
	var got []row
	for _, r := range rows {
		got = append(got, row{r.Trees, math.Round(r.WriteQPS), r.MemoryBytes})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if !(rows[0].WriteQPS < rows[1].WriteQPS && rows[1].WriteQPS < rows[2].WriteQPS) {
		t.Fatalf("writes did not rise with trees: %v", rows)
	}
	if !(rows[2].MemoryBytes > rows[0].MemoryBytes) {
		t.Fatalf("memory did not grow with trees: %v", rows)
	}
}

// TestTable2Shape pins Table 2 on virtual time: two runs give the same rows,
// and their bytes moved and extents expired are exact. The paper's claims
// are the orderings: the gradient policy clearly beats the traditional FIFO
// queue, and +TTL moves nothing and expires extents for free while
// dirty-ratio keeps moving doomed data. (Against dirty-ratio the gradient
// policy moves 6.1% more here, where the paper has 16% less; see
// EXPERIMENTS.md.)
func TestTable2Shape(t *testing.T) {
	rows := Table2SpaceReclamation(Small, nil)
	if again := Table2SpaceReclamation(Small, nil); !slices.Equal(rows, again) {
		t.Fatalf("two runs differ:\n%v\n%v", rows, again)
	}
	type row struct{ moved, expired int64 }
	want := []row{{2372608, 0}, {858112, 0}, {910336, 0}, {335280, 0}, {0, 25}}
	var got []row
	for _, r := range rows {
		got = append(got, row{r.MovedBytes, r.Expired})
		if r.Duration != 1500*time.Millisecond {
			t.Errorf("%s %s: ran %v of virtual time, want 1.5s", r.Workload, r.Policy, r.Duration)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("{moved expired} = %v, want %v", got, want)
	}
	fifoFollow, awareFollow := rows[0], rows[2]
	if awareFollow.MBPerSec > 0.7*fifoFollow.MBPerSec {
		t.Fatalf("workload-aware %.2f vs FIFO %.2f MB per virtual s: expected a clear win",
			awareFollow.MBPerSec, fifoFollow.MBPerSec)
	}
	if dirtyTTL, awareTTL := rows[3], rows[4]; awareTTL.MovedBytes != 0 || awareTTL.Expired == 0 || dirtyTTL.MovedBytes == 0 {
		t.Fatalf("+TTL moved %d bytes and expired %d extents, dirty-ratio moved %d: want 0, > 0, > 0",
			awareTTL.MovedBytes, awareTTL.Expired, dirtyTTL.MovedBytes)
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12Recall(Small, []float64{0.02, 0.10}, nil)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch {
		case strings.HasPrefix(r.System, "BG3"):
			if r.Recall != 1.0 {
				t.Fatalf("BG3 recall = %.3f at loss %.2f, want 1.0", r.Recall, r.LossRate)
			}
		default:
			want := 1 - r.LossRate
			if r.Recall > want+0.03 || r.Recall < want-0.05 {
				t.Fatalf("forwarding recall = %.3f at loss %.2f, want ~%.2f", r.Recall, r.LossRate, want)
			}
		}
	}
	// More loss, less recall for forwarding.
	if rows[0].Recall <= rows[2].Recall {
		t.Fatalf("recall did not fall with loss: %.3f then %.3f", rows[0].Recall, rows[2].Recall)
	}
}

func TestFig13Shape(t *testing.T) {
	rows := Fig13SyncLatency(Small, []int{300, 900}, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SyncLatency <= 0 {
			t.Fatalf("sync latency missing: %+v", r)
		}
	}
	// Flatness: tripling the write load must not triple the latency.
	if rows[1].SyncLatency > 3*rows[0].SyncLatency {
		t.Fatalf("latency not flat: %v -> %v", rows[0].SyncLatency, rows[1].SyncLatency)
	}
}

func TestFig14Shape(t *testing.T) {
	rows := Fig14ROScaling(Small, []int{1, 2}, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].ReadQPS <= rows[0].ReadQPS {
		t.Fatalf("read QPS did not grow with RO nodes: %v", rows)
	}
	for _, r := range rows {
		if r.SyncLatency <= 0 {
			t.Fatalf("sync latency missing: %+v", r)
		}
	}
}

func TestCostShape(t *testing.T) {
	rows := StorageCost(Small, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	bg3, bg := rows[0], rows[1]
	if bg3.RelativeCost >= bg.RelativeCost {
		t.Fatalf("BG3 cost %.0f >= ByteGraph cost %.0f", bg3.RelativeCost, bg.RelativeCost)
	}
	saving := 1 - bg3.RelativeCost/bg.RelativeCost
	if saving < 0.5 {
		t.Fatalf("saving = %.1f%%, want a large reduction (paper ~80%%)", saving*100)
	}
}

func TestFig8VerticalShape(t *testing.T) {
	if raceEnabled {
		t.Skip("relative throughput is distorted by race-detector instrumentation")
	}
	rows := Fig8Vertical(Small, []int{4, 8}, nil)
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[string(r.Workload)+"/"+string(r.System)+"/"+itoa(r.Scale)] = r.Throughput
	}
	for _, wl := range AllWorkloads {
		bg3 := byKey[string(wl)+"/BG3/8"]
		nep := byKey[string(wl)+"/Neptune-sim/8"]
		if bg3 <= nep {
			t.Fatalf("%s: BG3 %.0f <= Neptune-sim %.0f at 8 vCPUs", wl, bg3, nep)
		}
	}
}

func itoa(i int) string { return fmt.Sprint(i) }
