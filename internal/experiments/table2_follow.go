package experiments

import (
	"math/rand"
	"time"

	"bg3/internal/gc"
	"bg3/internal/storage"
)

// followGCDriver reproduces the Table 2 "Douyin Follow" regime through the
// real storage and reclamation machinery, with the page-write pattern the
// Bw-tree generates made explicit and controllable (Figure 5's setting):
//
//   - The store holds base-page images; each logical page has exactly one
//     live image at a time.
//   - A page is rewritten (old image invalidated, new image appended)
//     whenever its content changes — for a video's like page this happens
//     at the video's like rate.
//   - Popularity is skewed and *temporal*: a rotating subset of pages is
//     hot (rewritten every few milliseconds, like a newly released video)
//     while the rest is cold (rarely rewritten). Extents therefore mix
//     copies of hot pages (which keep dying while the page stays hot) with
//     cold images (stable survivors).
//
// Under space pressure, a fragmentation-only policy relocates survivors of
// extents that are still burning — images of currently hot pages, which
// the very next rewrite invalidates. The update-gradient policy waits
// burning extents out and compacts plateaued ones, moving fewer bytes for
// the same space reclaimed.
type followGCDriver struct {
	clock  virtualClock
	store  *storage.Store
	pages  []storage.Loc // current image location per page
	img    []byte
	rng    *rand.Rand
	hotLo  int // current hot window [hotLo, hotLo+hotN)
	hotN   int
	nPages int
}

const followPageSize = 1024

func newFollowGCDriver(nPages, hotN int, seed int64) *followGCDriver {
	d := &followGCDriver{
		pages:  make([]storage.Loc, nPages),
		img:    make([]byte, followPageSize),
		rng:    rand.New(rand.NewSource(seed)),
		hotN:   hotN,
		nPages: nPages,
	}
	d.store = storage.Open(&storage.Options{ExtentSize: 64 << 10, GradientDecay: 150 * time.Millisecond, Now: d.clock.now})
	for i := range d.pages {
		loc, err := d.store.Append(storage.StreamBase, uint64(i), d.img)
		if err != nil {
			panic(err)
		}
		d.pages[i] = loc
	}
	return d
}

// rewrite supersedes page i's image.
func (d *followGCDriver) rewrite(i int) {
	loc, err := d.store.Append(storage.StreamBase, uint64(i), d.img)
	if err != nil {
		panic(err)
	}
	old := d.pages[i]
	d.pages[i] = loc
	d.store.Invalidate(old)
}

// relocate is the GC callback: repoint the page table.
func (d *followGCDriver) relocate(tag uint64, old, new storage.Loc, _, _ []byte) bool {
	if d.pages[tag] != old {
		return false
	}
	d.pages[tag] = new
	return true
}

// run drives rotated hot rewrites for the given number of 1 ms slots with a
// space-pressure reclaimer, returning bytes moved by GC.
func (d *followGCDriver) run(policy gc.Policy, slots, budget int) int64 {
	r := gc.NewReclaimer(d.store, storage.StreamBase, policy, d.relocate)
	const (
		rotateEvery = 150 // slots between hot-window rotations
		hotPerSlot  = 8   // hot rewrites per slot (most traffic)
		coldPerSlot = 1   // background cold rewrites per slot
	)
	for slot := 0; slot < slots; slot++ {
		if slot > 0 && slot%rotateEvery == 0 {
			d.hotLo = (d.hotLo + d.hotN) % d.nPages
		}
		for k := 0; k < hotPerSlot; k++ {
			d.rewrite(d.hotLo + d.rng.Intn(d.hotN))
		}
		for k := 0; k < coldPerSlot; k++ {
			d.rewrite(d.rng.Intn(d.nPages))
		}
		d.clock.elapsed += time.Millisecond
		reclaimToBudget(d.store, r, storage.StreamBase, budget, 2)
	}
	return r.Stats().BytesMoved
}

// runFollowGC executes the workload-1 half of Table 2 for one policy.
func runFollowGC(policy gc.Policy, s Scale, seed int64) Table2Row {
	nPages := pick(s, 1_500, 3_000, 6_000)
	hotN := nPages / 10
	slots := pick(s, 1_500, 4_000, 10_000)
	// Capacity: live data plus enough slack that extents can age through
	// a few hotness rotations before pressure forces their reclamation.
	liveExtents := nPages * followPageSize / (64 << 10)
	budget := liveExtents + pick(s, 60, 80, 120)

	d := newFollowGCDriver(nPages, hotN, seed)
	moved := d.run(policy, slots, budget)
	rate := float64(moved) / (1 << 20) / d.clock.elapsed.Seconds()
	return Table2Row{
		Workload:     "douyin-follow (workload 1)",
		Policy:       policy.Name(),
		MovedBytes:   moved,
		Duration:     d.clock.elapsed,
		MBPerSec:     rate,
		BaseMBPerSec: rate,
	}
}
