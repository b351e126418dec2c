package gc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// figure5Usage builds the paper's Figure 5 scenario at time t1:
//
//   - Extent A: hot, fragmentation 3/5, high update gradient (a new video
//     accumulating likes — its remaining pages will die soon).
//   - Extent B: fragmentation 3/5, all data expiring at t2 (TTL).
//   - Extent C: cold, fragmentation 2/5, gradient ~0.
func figure5Usage(t1 time.Time) []storage.ExtentUsage {
	return []storage.ExtentUsage{
		{Extent: 1, Sealed: true, ValidRecords: 2, InvalidRecords: 3, ValidBytes: 2048,
			LastUpdate: t1, UpdateGradient: 2.0}, // A
		{Extent: 2, Sealed: true, ValidRecords: 2, InvalidRecords: 3, ValidBytes: 2048,
			LastUpdate: t1.Add(-9 * time.Minute), UpdateGradient: 0}, // B (TTL 10m: expires in 1m)
		{Extent: 3, Sealed: true, ValidRecords: 3, InvalidRecords: 2, ValidBytes: 3072,
			LastUpdate: t1.Add(-2 * time.Minute), UpdateGradient: 0}, // C (stable survivors)
	}
}

func TestDirtyRatioPicksMostFragmented(t *testing.T) {
	t1 := time.Unix(10000, 0)
	picks := DirtyRatio{}.Pick(figure5Usage(t1), 1, t1)
	if len(picks) != 1 || (picks[0] != 1 && picks[0] != 2) {
		t.Fatalf("dirty-ratio picked %v, want extent A(1) or B(2) at frag 3/5", picks)
	}
}

func TestWorkloadAwarePrefersColdExtent(t *testing.T) {
	t1 := time.Unix(10000, 0)
	// No TTL configured: the policy should avoid the hot extent A and pick
	// among the cold ones (B or C) by fragmentation — B at 3/5 wins.
	picks := WorkloadAware{}.Pick(figure5Usage(t1), 1, t1)
	if len(picks) != 1 || picks[0] != 2 {
		t.Fatalf("workload-aware picked %v, want cold extent B(2)", picks)
	}
}

func TestWorkloadAwareTTLBypass(t *testing.T) {
	t1 := time.Unix(10000, 0)
	// With a 10-minute TTL, extent B expires in one minute: bypass it and
	// take the other cold extent C despite its lower fragmentation.
	p := WorkloadAware{TTL: 10 * time.Minute}
	picks := p.Pick(figure5Usage(t1), 1, t1)
	if len(picks) != 1 || picks[0] != 3 {
		t.Fatalf("workload-aware+ttl picked %v, want extent C(3)", picks)
	}
	// Asking for more: A (hot) is still eligible after the cold ones.
	picks = p.Pick(figure5Usage(t1), 3, t1)
	if len(picks) != 2 || picks[0] != 3 || picks[1] != 1 {
		t.Fatalf("workload-aware+ttl picked %v, want [C(3) A(1)]", picks)
	}
}

func TestFIFOPicksOldest(t *testing.T) {
	t1 := time.Unix(10000, 0)
	picks := FIFO{}.Pick(figure5Usage(t1), 2, t1)
	if len(picks) != 2 || picks[0] != 1 || picks[1] != 2 {
		t.Fatalf("fifo picked %v, want [1 2]", picks)
	}
}

func TestPoliciesSkipUnsealedAndClean(t *testing.T) {
	t1 := time.Unix(0, 0)
	usage := []storage.ExtentUsage{
		{Extent: 1, Sealed: false, ValidRecords: 1, InvalidRecords: 5}, // active
		{Extent: 2, Sealed: true, ValidRecords: 6, InvalidRecords: 0},  // clean
	}
	for _, p := range []Policy{FIFO{}, DirtyRatio{}, WorkloadAware{}} {
		if picks := p.Pick(usage, 5, t1); len(picks) != 0 {
			t.Fatalf("%s picked %v from unsealed/clean extents", p.Name(), picks)
		}
	}
}

func TestDirtyRatioMinRate(t *testing.T) {
	t1 := time.Unix(0, 0)
	usage := []storage.ExtentUsage{
		{Extent: 1, Sealed: true, ValidRecords: 9, InvalidRecords: 1}, // 10% frag
	}
	if picks := (DirtyRatio{MinRate: 0.5}).Pick(usage, 1, t1); len(picks) != 0 {
		t.Fatalf("picked %v below MinRate", picks)
	}
	if picks := (DirtyRatio{MinRate: 0.05}).Pick(usage, 1, t1); len(picks) != 1 {
		t.Fatalf("picked %v, want extent 1", picks)
	}
}

func TestGradientBucketMonotone(t *testing.T) {
	prev := gradientBucket(0)
	if prev != 0 {
		t.Fatalf("bucket(0) = %d, want 0", prev)
	}
	for _, g := range []float64{0.05, 0.2, 0.5, 1, 3, 10, 100, 1e6} {
		b := gradientBucket(g)
		if b < prev {
			t.Fatalf("bucket not monotone at %f: %d < %d", g, b, prev)
		}
		prev = b
	}
}

func TestReclaimerRunOnce(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 64})
	// Track owner locations so relocation is observable.
	locs := map[uint64]storage.Loc{}
	for i := 0; i < 16; i++ {
		loc, err := st.Append(storage.StreamBase, uint64(i), []byte("12345678"))
		if err != nil {
			t.Fatal(err)
		}
		locs[uint64(i)] = loc
	}
	// Invalidate half of the records in the older extents.
	for i := 0; i < 8; i += 2 {
		st.Invalidate(locs[uint64(i)])
		delete(locs, uint64(i))
	}
	r := NewReclaimer(st, storage.StreamBase, DirtyRatio{}, func(tag uint64, old, new storage.Loc, _, _ []byte) bool {
		if locs[tag] != old {
			return false
		}
		locs[tag] = new
		return true
	})
	moved, err := r.RunOnce(2)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	stats := r.Stats()
	if stats.BytesMoved != moved || stats.Runs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Every surviving record remains readable at its tracked location.
	for tag, loc := range locs {
		if _, err := st.Read(loc); err != nil {
			t.Fatalf("tag %d unreadable after reclaim: %v", tag, err)
		}
	}
	if st.Stats().ExtentsReclaimed == 0 {
		t.Fatal("no extents reclaimed")
	}
}

func TestReclaimerTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	st := storage.Open(&storage.Options{ExtentSize: 64, Now: clock})
	for i := 0; i < 16; i++ {
		if _, err := st.Append(storage.StreamBase, uint64(i), []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReclaimer(st, storage.StreamBase, WorkloadAware{TTL: 10 * time.Second}, nil)
	r.TTL = 10 * time.Second

	// Before expiry: nothing moved (extents are fully valid, policies skip
	// clean extents) and nothing expired.
	moved, err := r.RunOnce(4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || r.Stats().ExtentsExpired != 0 {
		t.Fatalf("premature reclamation: moved=%d expired=%d", moved, r.Stats().ExtentsExpired)
	}
	// After expiry: extents drop wholesale with zero bytes moved — the
	// Table 2 "+TTL => 0 MB/s" behaviour.
	now = now.Add(time.Minute)
	moved, err = r.RunOnce(4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("TTL expiry moved %d bytes, want 0", moved)
	}
	if r.Stats().ExtentsExpired == 0 {
		t.Fatal("no extents expired")
	}
}

// TestReclaimerTTLBypassClockAfterUsage: an extent invalidated between
// RunOnce's first clock read and its usage snapshot has LastUpdate ahead
// of that read. With TTLBypassMargin = TTL (Table 2's +TTL row) every
// extent is "about to expire", so nothing may move; handing the stale
// read to the policy made exactly these extents look far from expiry.
// The store's clock steps: the setup writes at t0+1ms, RunOnce's first
// read returns t0 (as if taken before them) and every later read t0+2ms.
func TestReclaimerTTLBypassClockAfterUsage(t *testing.T) {
	t0 := time.Unix(1000, 0)
	running, reads := false, 0
	st := storage.Open(&storage.Options{ExtentSize: 64, Now: func() time.Time {
		if !running {
			return t0.Add(time.Millisecond)
		}
		if reads++; reads == 1 {
			return t0
		}
		return t0.Add(2 * time.Millisecond)
	}})
	var locs []storage.Loc
	for i := 0; i < 16; i++ {
		loc, err := st.Append(storage.StreamBase, uint64(i), []byte("12345678"))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	for i := 0; i < 8; i += 2 {
		st.Invalidate(locs[i])
	}
	const ttl = 10 * time.Second
	r := NewReclaimer(st, storage.StreamBase, WorkloadAware{TTL: ttl, TTLBypassMargin: ttl},
		func(uint64, storage.Loc, storage.Loc, []byte, []byte) bool { return true })
	r.TTL = ttl
	running = true
	moved, err := r.RunOnce(4)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("TTL-doomed extents relocated: moved %d bytes, want 0", moved)
	}
}

func TestReclaimerBackground(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 64})
	var locs []storage.Loc
	for i := 0; i < 32; i++ {
		loc, _ := st.Append(storage.StreamDelta, uint64(i), []byte("12345678"))
		locs = append(locs, loc)
	}
	for i := 0; i < 32; i += 2 {
		st.Invalidate(locs[i])
	}
	r := NewReclaimer(st, storage.StreamDelta, DirtyRatio{}, func(tag uint64, old, new storage.Loc, _, _ []byte) bool { return true })
	r.Start(time.Millisecond, 2)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().Runs >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if r.Stats().Runs < 3 {
		t.Fatalf("background runs = %d, want >= 3", r.Stats().Runs)
	}
}

// TestReclaimerFence: Fence waits out the cycle in flight, and every cycle
// after it fails ErrFenced without touching the store.
func TestReclaimerFence(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 64})
	var locs []storage.Loc
	for i := 0; i < 32; i++ {
		loc, _ := st.Append(storage.StreamBase, uint64(i), []byte("12345678"))
		locs = append(locs, loc)
	}
	for i := 0; i < 32; i += 2 {
		st.Invalidate(locs[i])
	}
	inCycle, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	r := NewReclaimer(st, storage.StreamBase, DirtyRatio{}, func(uint64, storage.Loc, storage.Loc, []byte, []byte) bool {
		once.Do(func() { close(inCycle); <-release })
		return true
	})
	cycle := make(chan error)
	go func() { _, err := r.RunOnce(2); cycle <- err }()
	<-inCycle
	fenced := make(chan struct{})
	go func() { r.Fence(); close(fenced) }()
	select {
	case <-fenced:
		t.Fatal("Fence returned while a cycle was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	if err := <-cycle; err != nil {
		t.Fatalf("the cycle in flight: %v", err)
	}
	<-fenced
	before := st.Stats()
	if moved, err := r.RunOnce(2); moved != 0 || !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("a cycle after the fence moved %d B, err %v; want 0, ErrFenced", moved, err)
	}
	if after := st.Stats(); after.WriteOps != before.WriteOps || after.ExtentsReclaimed != before.ExtentsReclaimed {
		t.Fatalf("a fenced cycle touched the store: %+v after %+v", after, before)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[Policy]string{
		FIFO{}:                          "fifo",
		DirtyRatio{}:                    "dirty-ratio",
		WorkloadAware{}:                 "workload-aware",
		WorkloadAware{TTL: time.Minute}: "workload-aware+ttl",
	}
	for p, want := range cases {
		if got := p.Name(); got != want {
			t.Fatalf("name = %q, want %q", got, want)
		}
	}
}

// TestWorkloadAwareAvoidsHotExtentUnderChurn builds a real store with a
// hot extent (records still dying) and a cold extent (stable survivors)
// at the same fragmentation, and verifies that dirty-ratio is indifferent
// while the update-gradient policy defers the hot extent — the mechanism
// behind the Table 2 (left) write-amplification reduction, which the
// bench harness measures end to end.
func TestWorkloadAwareAvoidsHotExtentUnderChurn(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	st := storage.Open(&storage.Options{ExtentSize: 256, Now: clock})
	payload := func(i int) []byte { return []byte(fmt.Sprintf("payload-%03d-xxxxxxxxxxxxxxxx", i)) }

	// Extent 0: cold — filled, fragmented once, then silent.
	var coldLocs, hotLocs []storage.Loc
	for i := 0; i < 9; i++ {
		loc, _ := st.Append(storage.StreamBase, uint64(i), payload(i))
		coldLocs = append(coldLocs, loc)
	}
	now = now.Add(time.Second)
	for i := 0; i < 4; i++ {
		st.Invalidate(coldLocs[i])
	}
	// Extent 1: hot — filled later, then invalidations keep arriving in
	// bursts right up to the decision point.
	for i := 9; i < 18; i++ {
		loc, _ := st.Append(storage.StreamBase, uint64(i), payload(i))
		hotLocs = append(hotLocs, loc)
	}
	// Roll over to a third extent so the hot one seals.
	if _, err := st.Append(storage.StreamBase, 99, payload(99)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		now = now.Add(500 * time.Millisecond)
		st.Invalidate(hotLocs[i])
	}
	// Let the cold extent go quiet for a long while.
	now = now.Add(30 * time.Second)
	for i := 4; i < 5; i++ { // one more fresh hot invalidation
		st.Invalidate(hotLocs[i])
	}
	now = now.Add(100 * time.Millisecond)

	usage := st.Usage(storage.StreamBase)
	if len(usage) < 2 {
		t.Fatalf("extents = %d, want >= 2", len(usage))
	}
	coldID, hotID := usage[0].Extent, usage[1].Extent
	if usage[0].UpdateGradient >= usage[1].UpdateGradient {
		t.Fatalf("gradient cold=%f hot=%f, want cold < hot",
			usage[0].UpdateGradient, usage[1].UpdateGradient)
	}

	awarePicks := WorkloadAware{}.Pick(usage, 1, now)
	if len(awarePicks) != 1 || awarePicks[0] != coldID {
		t.Fatalf("workload-aware picked %v, want cold extent %d", awarePicks, coldID)
	}
	// Dirty-ratio picks the hot extent: at 5/9 invalid it is more
	// fragmented than the cold one at 4/9, even though its survivors are
	// about to die (the wasted I/O the paper calls out).
	dirtyPicks := DirtyRatio{}.Pick(usage, 1, now)
	if len(dirtyPicks) != 1 || dirtyPicks[0] != hotID {
		t.Fatalf("dirty-ratio picked %v, want hot extent %d", dirtyPicks, hotID)
	}
}
