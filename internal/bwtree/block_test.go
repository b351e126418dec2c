package bwtree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// awaitSpawnedBuild waits out a background build the write path spawned
// (any tree past its threshold gets one): while in flight it holds the
// build lock, turning TryBuildEdgeBlock into a no-op, and its outcome —
// a block, or a recorded skip — is not yet visible.
func awaitSpawnedBuild(tr *Tree) {
	for tr.blocks.buildSpawned.Load() {
		runtime.Gosched()
	}
}

// mustBuildBlock forces a build covering everything written so far.
func mustBuildBlock(t *testing.T, tr *Tree) {
	t.Helper()
	awaitSpawnedBuild(tr)
	if built, err := tr.TryBuildEdgeBlock(); err != nil || !built {
		t.Fatalf("build = %v, %v", built, err)
	}
}

// collectScan gathers a ranged scan through whatever path the tree picks.
func collectScan(t *testing.T, tr *Tree, from, to []byte, limit int) []string {
	t.Helper()
	var out []string
	if err := tr.Scan(from, to, limit, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEdgeBlockSyncTreeScanEquality builds a block on a sync-flushed tree
// and checks every scan shape (full, ranged, limited) against a twin tree
// with blocks disabled, through overlay writes, deletes, and a rebuild.
func TestEdgeBlockSyncTreeScanEquality(t *testing.T) {
	blocked, _ := newTestTree(t, Config{EdgeBlockMinEntries: 16, EdgeBlockRebuildOps: 8})
	control, _ := newTestTree(t, Config{})
	put := func(k, v string) {
		t.Helper()
		if err := blocked.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := control.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := blocked.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := control.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		put(fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i))
	}
	mustBuildBlock(t, blocked)
	info, ok := blocked.EdgeBlock()
	if !ok || info.Entries != 200 {
		t.Fatalf("block info = %+v ok=%v, want 200 entries", info, ok)
	}

	check := func(stage string) {
		t.Helper()
		shapes := []struct {
			from, to []byte
			limit    int
		}{
			{nil, nil, 0},
			{nil, nil, 17},
			{[]byte("k000050"), nil, 0},
			{nil, []byte("k000100"), 0},
			{[]byte("k000050"), []byte("k000150"), 0},
			{[]byte("k000050"), []byte("k000150"), 13},
			{[]byte("zz"), nil, 0}, // past the end
		}
		for i, s := range shapes {
			got := collectScan(t, blocked, s.from, s.to, s.limit)
			want := collectScan(t, control, s.from, s.to, s.limit)
			if len(got) != len(want) {
				t.Fatalf("%s shape %d: %d results, want %d", stage, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s shape %d result %d: %q, want %q", stage, i, j, got[j], want[j])
				}
			}
		}
	}
	check("sealed")

	// Overlay: overwrites, inserts, deletes patched over the block.
	put("k000050", "patched")
	put("a-before-all", "front")
	put("k999999", "tail")
	del("k000100")
	del("a-before-all")
	check("overlaid")
	if got := blocked.m.BlockStatsSnapshot().OverlayOps; got != 5 {
		t.Fatalf("overlay ops gauge = %d, want the 5 writes since the seal", got)
	}

	// Rebuild folds the overlay into a fresh block.
	mustBuildBlock(t, blocked)
	if info, ok = blocked.EdgeBlock(); !ok || info.Entries != 200 {
		t.Fatalf("rebuilt block info = %+v ok=%v, want 200 entries", info, ok)
	}
	if got := blocked.m.BlockStatsSnapshot().OverlayOps; got != 0 {
		t.Fatalf("overlay ops gauge = %d after a rebuild folded everything", got)
	}
	check("rebuilt")
}

// servedByBlock runs one scan and reports whether the block served it: it
// fails unless exactly one of the block counters moved, by one.
func servedByBlock(t *testing.T, tr *Tree, scan func()) bool {
	t.Helper()
	before := tr.m.BlockStatsSnapshot()
	scan()
	after := tr.m.BlockStatsSnapshot()
	hits, fallbacks := after.Hits-before.Hits, after.Fallbacks-before.Fallbacks
	if hits+fallbacks != 1 {
		t.Fatalf("one scan moved the block counters by %d hits and %d fallbacks", hits, fallbacks)
	}
	return hits == 1
}

// TestEdgeBlockMVCCSnapshot pins an epoch before the block is built and
// checks the pinned view reads the pre-block history exactly, through the
// leaves, while the head sees the latest state through the block.
func TestEdgeBlockMVCCSnapshot(t *testing.T) {
	// The threshold is above anything the test writes, so the write path
	// never spawns a build of its own: one installed before the pin would
	// seal below it.
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 64, EdgeBlockRebuildOps: 64})
	for i := 0; i < 20; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	p := src.Pin()
	defer p.Close()
	h := wal.LSN(p.Epoch())
	want := collectAt(t, tr, h)

	// Mutations past the pin.
	if err := tr.Put([]byte("k05"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete([]byte("k10")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k99"), []byte("added")); err != nil {
		t.Fatal(err)
	}

	// The build seals at the tree's write horizon, whatever the pin: at or
	// above every stamped LSN, so the three mutations are in the image and
	// the overlay is empty.
	mustBuildBlock(t, tr)
	info, ok := tr.EdgeBlock()
	if !ok {
		t.Fatal("no block after build")
	}
	if stamped := tr.logger.(*stubAsyncLogger).lsn; info.Seal < stamped {
		t.Fatalf("seal = %d, want at or above every stamped LSN (%d)", info.Seal, stamped)
	}
	if info.Overlay != 0 {
		t.Fatalf("overlay = %d ops, want none: every write is below the seal", info.Overlay)
	}

	// The pinned reader is older than the build: it walks the leaves.
	var got map[string]string
	if servedByBlock(t, tr, func() { got = collectAt(t, tr, h) }) {
		t.Fatalf("the read pinned at %d, below the seal %d, was served by the block", h, info.Seal)
	}
	if len(got) != len(want) {
		t.Fatalf("pinned view has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("pinned view[%q] = %q, want %q", k, got[k], v)
		}
	}

	var head map[string]string
	if !servedByBlock(t, tr, func() { head = collectAt(t, tr, horizonAll) }) {
		t.Fatal("the latest read walked the leaves")
	}
	if head["k05"] != "new" || head["k99"] != "added" {
		t.Fatalf("head view = %v, missing post-pin writes", head)
	}
	if _, present := head["k10"]; present {
		t.Fatal("head view still has the deleted k10")
	}
}

// TestHeldPinHoldsNoBuildBack holds a pin while the tree passes its build
// threshold and, three times over, its rebuild threshold: every build seals
// at the tree's write horizon and installs, pin or no pin. The pinned reader
// is older than each of them: it walks the leaves, counted as a fallback, and
// reads its epoch exactly. Latest reads, and reads pinned once the builds'
// stamps are released, are block hits.
func TestHeldPinHoldsNoBuildBack(t *testing.T) {
	tr, src, _ := newEpochTree(t, Config{EdgeBlockMinEntries: 24, EdgeBlockRebuildOps: 8})
	put := func(k string) {
		t.Helper()
		if err := tr.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("k%02d", i))
	}
	p := src.Pin()
	defer p.Close()
	h := wal.LSN(p.Epoch())
	want := collectAt(t, tr, h)
	for i := 0; i < 20; i++ { // the threshold is crossed at write 24
		put(fmt.Sprintf("x%02d", i))
	}
	awaitSpawnedBuild(tr)
	if info, ok := tr.EdgeBlock(); !ok || info.Seal <= h {
		t.Fatalf("block %+v ok=%v: the write path's build did not install past the pin at %d", info, ok, h)
	}
	for round := 0; ; round++ {
		var pinned, latest, fresh map[string]string
		if servedByBlock(t, tr, func() { pinned = collectAt(t, tr, h) }) {
			t.Fatalf("round %d: the read pinned before the build was served by the block", round)
		}
		if !maps.Equal(pinned, want) {
			t.Fatalf("round %d: pinned view = %v, want %v", round, pinned, want)
		}
		if !servedByBlock(t, tr, func() { latest = collectAt(t, tr, horizonAll) }) {
			t.Fatalf("round %d: the latest read walked the leaves", round)
		}
		q := src.Pin()
		hit := servedByBlock(t, tr, func() { fresh = collectAt(t, tr, wal.LSN(q.Epoch())) })
		q.Close()
		if !hit || !maps.Equal(fresh, latest) {
			t.Fatalf("round %d: a read pinned after the build: block hit %v, %d keys, want a hit and the %d latest", round, hit, len(fresh), len(latest))
		}
		if round == 3 {
			break
		}
		// The overlay passes the rebuild threshold: the rebuild goes through
		// with the pin still open.
		for i := 0; i < 16; i++ {
			put(fmt.Sprintf("y%d.%02d", round, i))
		}
		awaitSpawnedBuild(tr)
		mustBuildBlock(t, tr)
	}
	if bs := tr.m.BlockStatsSnapshot(); bs.Builds < 4 {
		t.Fatalf("block stats %+v: want the first build and three rebuilds", bs)
	}
}

// TestBlockRunDirectoryMatchesFlatOverlay drives the overlay's run directory
// alone: seeded batches of 1–200 key-sorted ops — repeated keys, deletes, one
// key overwritten far past a run's size — are captured one after the other,
// a reader's take of the directory after three batches in four, and after each
// batch the directory holds the invariant blockRunsGap names and a read through it
// (edgeBlock.scan) equals scanPage over the same ops as one flat overlay, for
// random ranges, limits and horizons. A directory a reader took is never
// changed afterwards.
func TestBlockRunDirectoryMatchesFlatOverlay(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var content []op
		for i := 0; i < 3000; i += 1 + rng.Intn(3) {
			content = append(content, op{key: []byte(fmt.Sprintf("k%05d", i)), val: []byte("packed")})
		}
		img, err := mergeEncode(emptyLeaf, content, nil, nil, horizonAll)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Tree{m: NewMapping(0, false)}
		tr.blocks.block.Store(&edgeBlock{image: img})
		tr.blocks.runs = make([]blockRun, 1)
		blk, lsn := tr.blocks.block.Load(), wal.LSN(0)
		var all []op // every op captured, in arrival order
		var taken []blockRun
		var takenOps [][]op
		for batch := 0; batch < 120; batch++ {
			ws := make([]op, 1+rng.Intn(200)>>uint(rng.Intn(6)))
			for i := range ws {
				k := rng.Intn(3400) - 200 // before, inside and past the image
				if rng.Intn(8) == 0 {
					k = 1500 // the hot key
				}
				ws[i] = op{key: []byte(fmt.Sprintf("k%05d", k)), val: []byte(fmt.Sprintf("v%d.%d", batch, i)), del: rng.Intn(5) == 0}
			}
			sortOps(ws)
			for i := range ws {
				lsn++
				ws[i].lsn = lsn
			}
			all = append(all, ws...)
			tr.blocks.overlayMu.Lock()
			tr.blocks.captureLocked(ws)
			tr.addOverlayLen(int64(len(ws)))
			tr.blocks.overlayMu.Unlock()
			if err := blockRunsGap(tr, sortOps(slices.Clone(all))); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			for i, run := range taken {
				if !slices.EqualFunc(run.ops, takenOps[i], func(a, b op) bool { return a.lsn == b.lsn && bytes.Equal(a.key, b.key) }) {
					t.Fatalf("seed %d batch %d: run %d of a directory a reader holds was edited", seed, batch, i)
				}
			}
			if batch%4 == 3 { // unread: the next batch edits the runs this one built in place
				continue
			}
			_, runs, ok := tr.blockView(horizonAll)
			if !ok {
				t.Fatal("no block view")
			}
			if batch%3 == 0 { // this reader keeps its directory across the next writes
				taken, takenOps = runs, nil
				for _, run := range runs {
					takenOps = append(takenOps, slices.Clone(run.ops))
				}
			}
			flat := flatten(runs)
			for probe := 0; probe < 8; probe++ {
				var from, to []byte
				if rng.Intn(4) > 0 {
					from = []byte(fmt.Sprintf("k%05d", rng.Intn(3400)-200))
				} else {
					from = []byte{}
				}
				if rng.Intn(3) > 0 {
					to = []byte(fmt.Sprintf("k%05d", rng.Intn(3400)-200))
				}
				limit, h := rng.Intn(3)*rng.Intn(300), horizonAll
				if rng.Intn(2) == 0 {
					h = wal.LSN(rng.Int63n(int64(lsn) + 1))
				}
				stopAt := -1
				if rng.Intn(4) == 0 {
					stopAt = rng.Intn(100)
				}
				collect := func(dst *[]string) func(k, v []byte) bool {
					return func(k, v []byte) bool {
						*dst = append(*dst, string(k)+"="+string(v))
						return len(*dst) != stopAt
					}
				}
				var got, want []string
				blk.scan(runs, from, to, limit, h, collect(&got))
				scanPage(img, flat, from, to, limit, h, collect(&want))
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d batch %d: scan([%s,%s) limit %d h %d stop %d) through %d runs = %d pairs, over the flat overlay %d",
						seed, batch, from, to, limit, h, stopAt, len(runs), len(got), len(want))
				}
			}
		}
		if n := len(tr.blocks.runs); n < 20 {
			t.Fatalf("seed %d: the directory ended with %d runs, want a populated one", seed, n)
		}
	}
}

// parkedLog is a versionLog that parks the next writer of one key, until the
// test sends on release: before its record gets an LSN (the writer has
// entered the capture protocol and holds its leaf's latch), or in its wait
// (its op is in its leaf and it has left the protocol, but the clock has not
// released it). It sends on parked once the writer is parked.
type parkedLog struct {
	*versionLog
	mu      sync.Mutex
	key     string
	inWait  bool
	parked  chan struct{}
	release chan struct{}
}

// park arms the log for the next record of key.
func (l *parkedLog) park(key []byte, inWait bool) {
	l.mu.Lock()
	l.key, l.inWait = string(key), inWait
	l.mu.Unlock()
}

func (l *parkedLog) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	l.mu.Lock()
	hit, inWait := l.key != "" && l.key == string(rec.Key), l.inWait
	if hit {
		l.key = ""
	}
	l.mu.Unlock()
	hold := func() {
		l.parked <- struct{}{}
		<-l.release
	}
	if hit && !inWait {
		hold()
	}
	lsn, wait := l.versionLog.LogAsync(rec)
	if hit && inWait {
		return lsn, func() error { hold(); return wait() }
	}
	return lsn, wait
}

// TestFirstBuildCapturesEveryWriter drives a first build by hand through each
// way a write meets it. Writer A enters the capture protocol before capture is
// switched on and is stamped and exits after: its op is above the seal, so in
// the overlay alone. Writer B exits before, its stamp not yet released by the
// clock: the seal is the write horizon, so B is at or below it and in the
// content scan. A leaf folds an op above the seal before the content scan
// reaches it, once every pin below that op is closed: the image has the op
// and so does the overlay. Then a rebuild seals past two pins still open.
// Every read, at ∞ and at every live pin, equals the version map, and is a
// block hit exactly when its horizon is at or above the seal.
func TestFirstBuildCapturesEveryWriter(t *testing.T) {
	vl := &versionLog{ref: refModel{}, src: mvcc.NewSource(0)}
	pl := &parkedLog{versionLog: vl, parked: make(chan struct{}), release: make(chan struct{})}
	cfg := Config{MaxPageEntries: 8, ConsolidateNum: 1, Epochs: vl.src,
		// Above anything written: no build but the test's own.
		EdgeBlockMinEntries: 1 << 20, EdgeBlockRebuildOps: 1 << 20}
	tr, err := New(NewMapping(0, false), storage.Open(&storage.Options{ExtentSize: 1 << 16}), cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	put := func(i int, v string) {
		t.Helper()
		if err := tr.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	putAsync := func(i int, v string) chan error {
		done := make(chan error, 1)
		go func() { done <- tr.Put(key(i), []byte(v)) }()
		return done
	}
	for i := 0; i < 48; i++ {
		put(i, "v0")
	}
	if _, err := tr.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	var pins []*mvcc.Pin
	for r := 1; r <= 2; r++ {
		pins = append(pins, vl.src.Pin())
		for i := r; i < 48; i += 3 {
			put(i, fmt.Sprintf("v%d", r))
		}
	}
	defer func() {
		for _, p := range pins {
			p.Close()
		}
	}()
	check := func(stage string) {
		t.Helper()
		info, ok := tr.EdgeBlock()
		if !ok {
			t.Fatalf("%s: no block", stage)
		}
		horizons := []wal.LSN{horizonAll}
		for _, p := range pins {
			horizons = append(horizons, wal.LSN(p.Epoch()))
		}
		for _, h := range horizons {
			var got []string
			hit := servedByBlock(t, tr, func() {
				if err := tr.ScanAt(nil, nil, 0, h, func(k, v []byte) bool {
					got = append(got, string(k)+"="+string(v))
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			if hit != (h >= info.Seal) {
				t.Fatalf("%s: the read at %d, seal %d: block hit %v", stage, h, info.Seal, hit)
			}
			if want := vl.ref.scan("", "", 0, h); !slices.Equal(got, want) {
				t.Fatalf("%s: read at %d = %v, want %v", stage, h, got, want)
			}
		}
	}

	pl.park(key(2), false) // A, parked before its LSN exists
	doneA := putAsync(2, "a")
	<-pl.parked
	pl.park(key(45), true) // B, parked in its wait
	doneB := putAsync(45, "b")
	<-pl.parked

	tr.resetCapture(true)
	seal := tr.writeHorizon()
	if stampB, cur := vl.last(), wal.LSN(vl.src.Current()); seal != stampB || cur >= seal {
		t.Fatalf("seal %d, want the write horizon: B's stamp %d, above the clock's %d", seal, stampB, cur)
	}
	pl.release <- struct{}{}
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	pl.release <- struct{}{}
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}

	// The fold: every pin closes, the floor passes an op above the seal, and
	// the leaf holding it consolidates before the content scan reads it.
	put(30, "c")
	for _, p := range pins {
		p.Close()
	}
	pins = nil
	before, e := tr.Stats().Consolidations, tr.latchLeaf(key(30))
	_, err = tr.flushPageLocked(e, nil)
	e.mu.Unlock()
	if err != nil || tr.Stats().Consolidations != before+1 || tr.retentionFloor() <= seal {
		t.Fatalf("fixture: the leaf did not consolidate at a floor (%d) above the seal %d (%v)", tr.retentionFloor(), seal, err)
	}
	pins = append(pins, vl.src.Pin())
	img, err := tr.contentAt(seal)
	if err != nil {
		t.Fatal(err)
	}
	tr.installBlock(nil, seal, img, nil)
	if info, _ := tr.EdgeBlock(); info.Overlay != 2 {
		t.Fatalf("overlay = %d ops, want A's and the folded one", info.Overlay)
	}
	check("built")

	for i := 0; i < 48; i += 5 {
		put(i, "d")
	}
	pins = append(pins, vl.src.Pin())
	for i := 1; i < 48; i += 7 {
		put(i, "e")
	}
	pins = append(pins, vl.src.Pin())
	check("written on")
	mustBuildBlock(t, tr) // sealed above both pins
	check("rebuilt")
	pins = append(pins, vl.src.Pin())
	check("pinned after the rebuild")
}

// TestFailedFirstBuildLeavesNoOverlay faults a first build's content scan
// with a write captured mid-build — made on the build's own goroutine when its
// read of a cold leaf fails: the build returns the error and leaves no block
// and no overlay behind, and a write after it captures nothing. The next build
// packs everything.
func TestFailedFirstBuildLeavesNoOverlay(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{ReadFailProb: 1})
	plan.SetEnabled(false)
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
	// Above anything written: no build but the test's own.
	tr, err := New(NewMapping(0, false), st, Config{MaxPageEntries: 8, EdgeBlockMinEntries: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	put := func(k, v string) error {
		want[k] = v
		return tr.Put([]byte(k), []byte(v))
	}
	for i := 0; i < 48; i++ {
		if err := put(fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	leaves := leavesOf(tr)
	last := leaves[len(leaves)-1]
	last.mu.Lock()
	last.base, last.live = nil, -1 // cold: the content scan reads it, and fails
	last.mu.Unlock()
	wrote, midBuild := false, error(nil)
	plan.OnInject = func(storage.FaultKind) {
		plan.OnInject = nil
		wrote, midBuild = true, put("k000", "mid-build") // a resident leaf, captured
	}
	plan.SetEnabled(true)
	if built, err := tr.BuildEdgeBlock(); built || err == nil || !wrote || midBuild != nil {
		t.Fatalf("build = %v, %v (a write mid-build: %v, %v), want the read fault after one", built, err, wrote, midBuild)
	}
	plan.SetEnabled(false)
	if _, ok := tr.EdgeBlock(); ok {
		t.Fatal("a failed build installed a block")
	}
	if got := tr.m.BlockStatsSnapshot().OverlayOps; got != 0 {
		t.Fatalf("%d overlay ops on a tree with no block, want 0", got)
	}
	if err := put("k001", "after"); err != nil {
		t.Fatal(err)
	}
	if got := tr.m.BlockStatsSnapshot().OverlayOps; got != 0 {
		t.Fatalf("a write after the failed build left %d overlay ops", got)
	}
	mustBuildBlock(t, tr)
	if info, _ := tr.EdgeBlock(); info.Entries != 48 || info.Overlay != 0 {
		t.Fatalf("block %+v, want 48 entries and no overlay", info)
	}
	got := collectAt(t, tr, horizonAll)
	if !maps.Equal(got, want) {
		t.Fatalf("block read = %v, want %v", got, want)
	}
}
