package bwtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bg3/internal/metrics"
	"bg3/internal/mvcc"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestScanPageMatchesNaiveMerge drives the one image iterator over random
// images and overlays — repeated keys, deletes, stamps on both sides of the
// horizon — against a brute-force replay, for every combination of lower
// bound, upper bound, limit and horizon. Beside the
// leaf shape (base and overlay of like size over the same keys) it draws the
// shapes an edge block has: a base far larger than its overlay (long runs
// between overlay keys), and an overlay entirely past or entirely before
// the base.
func TestScanPageMatchesNaiveMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keyIn := func(lo, hi int) string { return fmt.Sprintf("k%03d", lo+rng.Intn(hi-lo)) }
	for round := 0; round < 400; round++ {
		// The key space, and within it the key ranges [lo, hi) and the sizes
		// of the base and of the overlay.
		space, baseN, ovN := 40, rng.Intn(30), rng.Intn(25)
		baseLo, baseHi, ovLo, ovHi := 0, space, 0, space
		switch round % 4 {
		case 1: // base ≫ overlay
			space, baseN, ovN = 600, 200+rng.Intn(400), rng.Intn(6)
			baseHi, ovHi = space, space
		case 2: // overlay entirely past the base
			baseHi, ovLo = 20, 20
		case 3: // overlay entirely before the base
			baseLo, ovHi = 20, 20
		}
		key := func() string { return keyIn(0, space) }
		ref := refmodel.KV{}
		var pairs []op
		for i := 0; i < baseN; i++ {
			k, v := keyIn(baseLo, baseHi), fmt.Sprintf("b%d", i)
			pairs = append(pairs, op{key: []byte(k), val: []byte(v)})
			ref.Add(k, refmodel.Version{Value: v})
		}
		base := imageOf(pairs...)
		var ov []op
		for i := 0; i < ovN; i++ {
			k, lsn := keyIn(ovLo, ovHi), wal.LSN(i+1)
			o := op{key: []byte(k), lsn: lsn, del: rng.Intn(4) == 0}
			if !o.del {
				o.val = []byte(fmt.Sprintf("o%d", i))
			}
			ov = insertOp(ov, o)
			ref.Add(k, refmodel.Version{LSN: uint64(lsn), Value: string(o.val), Deleted: o.del})
		}
		for trial := 0; trial < 20; trial++ {
			from, to, limit := key(), "", rng.Intn(12)
			if rng.Intn(3) > 0 {
				to = key()
			}
			h := wal.LSN(rng.Intn(28))
			if rng.Intn(3) == 0 {
				h = horizonAll
			}
			want := ref.Scan(from, to, 0, uint64(h))
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			var toB []byte
			if to != "" {
				toB = []byte(to)
			}
			stopAt := 0 // the callback ends the walk at this pair (0: never)
			if len(want) > 0 && rng.Intn(4) == 0 {
				stopAt = 1 + rng.Intn(len(want))
				want = want[:stopAt]
			}
			var got []string
			n, stopped := scanPage(new(joiner), base, ov, []byte(from), toB, limit, h, func(k, v []byte) bool {
				got = append(got, string(k)+"="+string(v))
				return len(got) != stopAt
			})
			if fmt.Sprint(got) != fmt.Sprint(want) || n != len(got) || stopped != (stopAt > 0) {
				t.Fatalf("round %d: scan [%s, %q) limit %d h %d stop at %d = %v (n=%d stopped=%v), want %v",
					round, from, to, limit, h, stopAt, got, n, stopped, want)
			}
		}
		// A fold at a floor is the same view, re-encoded and valid.
		floor := wal.LSN(rng.Intn(28))
		img, err := decodeLeaf(mustEncode(base, ov, []byte("k010"), []byte("k030"), floor))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		scanPage(new(joiner), img, nil, nil, nil, 0, horizonAll, func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		})
		if want := ref.Scan("k010", "k030", 0, uint64(floor)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: fold at %d = %v, want %v", round, floor, got, want)
		}
	}
}

// clockedPipe logs to a real WAL through a group committer (so a Replica can
// be fed the same records) whose releases advance the epoch clock, as the RW
// node's do. lastData is the stamp of the newest put or delete — structural
// records a write triggers get later LSNs — and data collects the stamps of all
// of them since the caller last emptied it.
type clockedPipe struct {
	c        *wal.GroupCommitter
	last     wal.LSN
	lastData wal.LSN
	data     []wal.LSN
}

// newClockedPipe returns a pipe on st's WAL whose releases advance src (nil:
// no clock), stopped with the test.
func newClockedPipe(t *testing.T, st *storage.Store, src *mvcc.Source) *clockedPipe {
	var opts wal.GroupCommitterOptions
	if src != nil {
		opts.OnRelease = func(last wal.LSN) { src.Advance(mvcc.Epoch(last)) }
	}
	p := &clockedPipe{c: wal.NewGroupCommitter(wal.NewWriter(st), opts)}
	t.Cleanup(p.c.Stop)
	return p
}

func (p *clockedPipe) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	lsn, wait := p.c.LogAsync(rec)
	if lsn == 0 {
		return 0, wait
	}
	p.last = lsn
	if rec.Type == wal.RecordPut || rec.Type == wal.RecordDelete {
		p.lastData = lsn
		p.data = append(p.data, lsn)
	}
	return lsn, wait
}

// Log is LogAsync and its wait.
func (p *clockedPipe) Log(rec *wal.Record) (wal.LSN, error) {
	lsn, wait := p.LogAsync(rec)
	return lsn, wait()
}

// TestDifferentialAgainstVersionMap is the one read-semantics oracle of the
// package: a seeded stream of put / overwrite / delete (splits follow from
// 8-entry pages) / key-sorted batch of 2–64 puts and deletes (a run per leaf
// touched, most crossing leaf boundaries, the clustered ones overfilling a
// leaf so that a split cuts the run) / flush+checkpoint / evict / pin / unpin / GC-relocate /
// edge-block rebuild against a map-of-versions reference, comparing GetAt
// and ScanAt — full, bounded and limited — at every live pinned horizon and
// at ∞ after every step that moves state between base, overlay and storage;
// under both delta policies, on a tree without a logger, which flushes every
// page it dirties at once, and on one with a logger, whose pages a flusher
// writes and whose WAL feeds a Replica. Extents are 2 KiB, so retained history
// under a long pin regularly outgrows one delta record. Once the tree holds
// half the key space its next scan builds the edge block, and from then on a
// full scan takes every chunk that serves its horizon and walks the leaves of
// every other, across the rebuilds that keep the clean chunks and re-read the
// rest, and every serving chunk reads as the map (blockGap). After each of those
// steps one leader leaf, a different one each time, is checked for the invariant its
// cold load rests on: what its delta records hold, its overlay holds
// (mirrorGap). With a logger, between an eighth and a quarter of the way the leader dies: the
// follower, fed its log to the end, takes over (Mapping.TakeOver) — every leaf
// of the promoted table passes mirrorGap, its content at ∞ is the leader's —
// and the rest of the stream is written to it against the same map, read back
// by a second follower that replays both tenures from the start of the log.
func TestDifferentialAgainstVersionMap(t *testing.T) {
	for _, mode := range []struct {
		name   string
		async  bool
		policy DeltaPolicy
	}{
		{"sync/read-optimized", false, ReadOptimized},
		{"sync/traditional", false, Traditional},
		{"async/read-optimized", true, ReadOptimized},
		{"async/traditional", true, Traditional},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) {
				t.Parallel() // independent streams: as many at once as -parallel allows
				runDifferential(t, mode.async, mode.policy, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, async bool, policy DeltaPolicy, seed int64) {
	const keySpace = 160
	steps := 2500
	if testing.Short() {
		steps = 800
	}
	rng := rand.New(rand.NewSource(seed))
	handOver := steps/8 + rng.Intn(steps/8)
	extent := 2 << 10
	if policy == Traditional {
		// One delta record per op: a pinned page's chain (17 bytes per
		// location in its checkpoint record) needs the headroom.
		extent = 4 << 10
	}
	st := storage.Open(&storage.Options{ExtentSize: extent})
	cfg := Config{Policy: policy, MaxPageEntries: 8, MaxInnerEntries: 4, ConsolidateNum: 4,
		// Half the key space: the scans' own trigger builds the block once
		// the tree holds that many live keys, and rebuilds it once they have
		// walked as many stale leaves as it has chunks.
		EdgeBlockMinEntries: keySpace / 2}
	var logger WALLogger // none: no WAL, no follower, no hand-over
	if async {
		cfg.Epochs = mvcc.NewSource(0)
	}
	pipe := newClockedPipe(t, st, cfg.Epochs)
	if async {
		logger = pipe
	}
	m := NewMapping(6, false)
	tr, err := New(m, st, cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	rep, rd := newFollower(st, 4), wal.NewReader(st)
	ref := refmodel.KV{}
	var pins []*mvcc.Pin
	var ckpt wal.LSN // horizon of the last published checkpoint

	key := func() string { return fmt.Sprintf("k%04d", rng.Intn(keySpace)) }
	publish := func(h wal.LSN, ups []MappingUpdate) {
		t.Helper()
		ups = m.TakeRelocated(ups)
		for i := 0; i == 0 || i < len(ups); i++ { // one update per record: records must fit an extent
			left := uint64(max(len(ups)-1-i, 0)) // the checkpoint's records still to come
			if _, err := pipe.Log(&wal.Record{Type: wal.RecordCheckpoint, TreeID: left, CkptLSN: h, Value: EncodeMappingUpdates(ups[i:min(i+1, len(ups))])}); err != nil {
				t.Fatal(err)
			}
		}
		ckpt = h
	}
	checkpoint := func() {
		t.Helper()
		h := pipe.last
		ups, err := tr.FlushDirty(nil)
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		if async {
			publish(h, ups)
		}
	}
	same := func(what string, got, want []string) {
		t.Helper()
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Fatalf("%s: %d got / %d want pairs, first difference at %d: got %q, want %q",
					what, len(got), len(want), i, append(got, "<end>")[i], append(want, "<end>")[i])
			}
		}
	}
	check := func(step int) {
		t.Helper()
		horizons := []wal.LSN{horizonAll}
		for _, p := range pins {
			horizons = append(horizons, wal.LSN(p.Epoch()))
		}
		collect := func(dst *[]string) func(k, v []byte) bool {
			return func(k, v []byte) bool { *dst = append(*dst, string(k)+"="+string(v)); return true }
		}
		from, to, limit := key(), key(), 1+rng.Intn(20)
		if from > to {
			from, to = to, from
		}
		for _, h := range horizons {
			// Once the tree has a block, a full scan is served by a chunk
			// exactly where that chunk serves h.
			checkFullScan(t, tr, ref, h, fmt.Sprintf("step %d", step))
			var part []string
			if err := tr.ScanAt([]byte(from), []byte(to), limit, h, collect(&part)); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("step %d: ScanAt([%s,%s) limit %d, h=%d)", step, from, to, limit, h), part, ref.Scan(from, to, limit, uint64(h)))
			for i := 0; i < 6; i++ {
				k := key()
				v, ok, err := tr.GetAt([]byte(k), h)
				if want, wok := ref.At(k, uint64(h)); err != nil || ok != wok || string(v) != want {
					t.Fatalf("step %d: GetAt(%s, h=%d) = %q %v %v, want %q %v", step, k, h, v, ok, err, want, wok)
				}
			}
		}
		// The leader's cold load reads no delta record (Mapping.mirrorsChain):
		// what the chain holds of the page's range must be in the overlay.
		dir := tr.LeafDirectory()
		if err := mirrorGap(st, m.get(dir[step%len(dir)].Page)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := blockGap(tr, ref, horizons); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !async {
			return
		}
		recs, err := rd.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyAll(recs); err != nil {
			t.Fatal(err)
		}
		var all, part []string
		if err := rep.Scan(tr.ID(), nil, nil, 0, collect(&all)); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("step %d: replica Scan(all)", step), all, ref.Scan("", "", 0, refmodel.Latest))
		if err := rep.Scan(tr.ID(), []byte(from), []byte(to), limit, collect(&part)); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("step %d: replica Scan([%s,%s) limit %d)", step, from, to, limit), part, ref.Scan(from, to, limit, refmodel.Latest))
		for i := 0; i < 6; i++ {
			k := key()
			v, ok, err := rep.Get(tr.ID(), []byte(k))
			if want, wok := ref.At(k, refmodel.Latest); err != nil || ok != wok || string(v) != want {
				t.Fatalf("step %d: replica Get(%s) = %q %v %v, want %q %v", step, k, v, ok, err, want, wok)
			}
		}
	}

	takeOver := func() {
		t.Helper()
		for _, p := range pins { // pins die with the leader that served them
			p.Close()
		}
		pins = nil
		syncReplica(t, rep, rd)
		if err := rep.m.TakeOver(func(TreeID) Config { return cfg }, pipe); err != nil {
			t.Fatalf("take over: %v", err)
		}
		next := rep.trees[tr.ID()]
		for _, lf := range next.LeafDirectory() {
			if err := mirrorGap(st, rep.m.get(lf.Page)); err != nil {
				t.Fatalf("after the hand-over: %v", err)
			}
		}
		var got []string
		if err := next.Scan(nil, nil, 0, func(k, v []byte) bool { got = append(got, string(k)+"="+string(v)); return true }); err != nil {
			t.Fatal(err)
		}
		same("promoted table at ∞", got, ref.Scan("", "", 0, refmodel.Latest))
		tr, m = next, rep.m
		rep, rd = newFollower(st, 4), wal.NewReader(st)
	}

	for step := 0; step < steps; step++ {
		if step == handOver && async {
			takeOver()
		}
		switch r := rng.Intn(100); {
		case r < 8:
			// Every other batch draws its keys from a 24-key window: three
			// leaves' worth, so the runs into them overfill and are cut.
			lo, width := 0, keySpace
			if rng.Intn(2) == 0 {
				lo, width = rng.Intn(keySpace-24), 24
			}
			ws := make([]Write, 2+rng.Intn(63))
			for i := range ws {
				ws[i] = Write{Key: []byte(fmt.Sprintf("k%04d", lo+rng.Intn(width))), Delete: rng.Intn(4) == 0}
				if !ws[i].Delete {
					ws[i].Value = []byte(fmt.Sprintf("v%d.%d-%s", step, i, bytes.Repeat([]byte{'y'}, rng.Intn(40))))
				}
			}
			sort.SliceStable(ws, func(i, j int) bool { return bytes.Compare(ws[i].Key, ws[j].Key) < 0 })
			pipe.data = pipe.data[:0]
			if n, err := tr.Apply(ws, nil); err != nil || n != len(ws) || (async && len(pipe.data) != len(ws)) {
				t.Fatalf("step %d: Apply(%d writes) = %d %v, %d data records", step, len(ws), n, err, len(pipe.data))
			}
			for i, w := range ws {
				if _, wasLive := ref.At(string(w.Key), refmodel.Latest); w.Existed != wasLive {
					t.Fatalf("step %d: batch write %d (%s, delete=%v): existed=%v, want %v", step, i, w.Key, w.Delete, w.Existed, wasLive)
				}
				v := refmodel.Version{Value: string(w.Value), Deleted: w.Delete}
				if async {
					v.LSN = uint64(pipe.data[i])
				}
				ref.Add(string(w.Key), v)
			}
		case r < 55:
			k, v := key(), fmt.Sprintf("v%d-%s", step, bytes.Repeat([]byte{'x'}, rng.Intn(40)))
			_, wasLive := ref.At(k, refmodel.Latest)
			existed, err := tr.PutEx([]byte(k), []byte(v))
			if err != nil || existed != wasLive {
				t.Fatalf("step %d: PutEx(%s) = %v %v, want existed=%v", step, k, existed, err, wasLive)
			}
			ref.Add(k, refmodel.Version{LSN: uint64(pipe.lastData), Value: v})
			continue
		case r < 70:
			k := key()
			_, wasLive := ref.At(k, refmodel.Latest)
			existed, err := tr.DeleteEx([]byte(k))
			if err != nil || existed != wasLive {
				t.Fatalf("step %d: DeleteEx(%s) = %v %v, want existed=%v", step, k, existed, err, wasLive)
			}
			ref.Add(k, refmodel.Version{LSN: uint64(pipe.lastData), Deleted: true})
			continue
		case r < 76:
			checkpoint()
		case r < 80: // evict every clean page, beyond what the 6-page cache does on its own
			m.mu.RLock()
			for _, e := range m.pages {
				e.mu.Lock()
				if e.isLeaf && !e.dirty {
					e.base, e.live = nil, -1
				}
				e.mu.Unlock()
			}
			m.mu.RUnlock()
		case r < 85:
			if cfg.Epochs != nil && len(pins) < 4 {
				pins = append(pins, cfg.Epochs.Pin())
			}
		case r < 90:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				pins[i].Close()
				pins = append(pins[:i], pins[i+1:]...)
			}
		case r < 93: // GC: relocate every sealed base and delta extent
			for _, sid := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
				for _, u := range st.Usage(sid) {
					if u.Sealed {
						if _, err := st.Reclaim(sid, u.Extent, m.Relocate); err != nil {
							t.Fatalf("step %d: reclaim: %v", step, err)
						}
					}
				}
			}
			// The old extents are gone: the follower must repoint before it
			// reads.
			if async {
				publish(ckpt, nil)
			}
		case r < 97: // rebuild the edge block, however few writes it is behind
			if _, ok := tr.EdgeBlock(); ok {
				if _, err := tr.BuildEdgeBlock(); err != nil {
					t.Fatalf("step %d: rebuild edge block: %v", step, err)
				}
			}
		}
		check(step)
	}
	for _, p := range pins {
		p.Close()
	}
	pins = nil
	checkpoint()
	check(steps)
	if s := tr.Stats(); s.Splits == 0 || s.Consolidations == 0 {
		t.Fatalf("stream never split or consolidated: %+v", s)
	}
	if runs := &m.writeRunOps; runs.Max() < 3 || runs.Count() < int64(steps)/2 {
		t.Fatalf("stream never grouped a batch into leaf runs: %d runs, longest %d", runs.Count(), runs.Max())
	}
	if bs := m.BlockStatsSnapshot(); bs.Builds < 3 || bs.Hits == 0 || bs.Fallbacks == 0 {
		t.Fatalf("stream never rebuilt its edge block, read from it or walked a leaf written since a build: %+v", bs)
	}
}

// mirrorGap checks the invariant a leader's cold load rests on when it skips
// the delta chain: every op of the leaf's range that its durable delta records
// carry is in its overlay, under the same stamp, and durable (not pending). It
// returns the first op that is not. (The left half of an unflushed split keeps
// the pre-split records, ops beyond its range included; every reader clips.)
func mirrorGap(st *storage.Store, e *pageEntry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	bufs, err := st.ReadBatch(e.deltaLocs)
	if err != nil {
		return err
	}
	chain, err := decodeDeltas(bufs)
	if err != nil {
		return err
	}
	for _, o := range opsInRange(chain, e.lo, e.hi) {
		if !slices.ContainsFunc(e.overlay, func(m op) bool {
			return !m.pending && m.lsn == o.lsn && m.del == o.del && bytes.Equal(m.key, o.key) && bytes.Equal(m.val, o.val)
		}) {
			return fmt.Errorf("page %d: op {%s lsn %d del %v} is on the delta chain and not durable in the overlay (%d ops)",
				e.id, o.key, o.lsn, o.del, len(e.overlay))
		}
	}
	return nil
}

// TestFlushSplitsOversizedRetainedDelta is the regression for the flush
// that failed with "record larger than extent size": under a long-held pin
// the retained history of one page outgrows an 8 KiB extent, and the flush
// must write it as several delta records instead of failing and leaving the
// page dirty forever. The chain must read back — through the cache, after
// eviction and after a recovery rebuild — at the pinned and the latest
// horizon.
func TestFlushSplitsOversizedRetainedDelta(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 8 << 10})
	src := mvcc.NewSource(0)
	m := NewMapping(0, false)
	cfg := Config{Epochs: src, ConsolidateNum: 4}
	tr, err := New(m, st, cfg, &stubAsyncLogger{src: src})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("pinned")); err != nil {
			t.Fatal(err)
		}
	}
	pin := src.Pin()
	defer pin.Close()
	h := wal.LSN(pin.Epoch())
	val := bytes.Repeat([]byte{'v'}, 100)
	for i := 0; m.RetainedBytes(h) < 16<<10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%d", i%8)), val); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := tr.FlushDirty(nil)
	if err != nil {
		t.Fatalf("flush of a page with %d retained bytes: %v", m.RetainedBytes(h), err)
	}
	if tr.DirtyCount() != 0 || len(ups) != 1 || len(ups[0].Deltas) < 2 {
		t.Fatalf("dirty=%d updates=%+v, want one clean page with a multi-record delta chain", tr.DirtyCount(), ups)
	}
	for _, d := range ups[0].Deltas {
		if int(d.Length) > st.ExtentSize() {
			t.Fatalf("delta record of %d bytes exceeds the extent", d.Length)
		}
	}
	verify := func(what string, tr *Tree) {
		t.Helper()
		old, head := collectAt(t, tr, h), collectAt(t, tr, horizonAll)
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("k%d", i)
			if old[k] != "pinned" || head[k] != string(val) || len(old) != 8 || len(head) != 8 {
				t.Fatalf("%s: %s = %q at the pin, %.8q at the head (%d/%d keys)", what, k, old[k], head[k], len(old), len(head))
			}
		}
	}
	verify("resident", tr)
	e := tr.m.get(ups[0].Page)
	e.mu.Lock()
	e.base, e.live = nil, -1
	e.mu.Unlock()
	verify("evicted and reloaded", tr)

	verify("rebuilt from the leaf directory", reopenLeader(t, st, tr, cfg))
}

// TestOversizedImageSpillsIntoDeltaChain: a page that cannot split (or
// holds huge values) and outgrows one extent keeps the entries that fit in
// its base record and carries the rest on the delta chain, flushed inline
// (mode 0) or by the flusher (mode 1), instead of failing the write or the
// flush.
func TestOversizedImageSpillsIntoDeltaChain(t *testing.T) {
	for flush, logger := range []WALLogger{nil, &stubAsyncLogger{}} {
		st := storage.Open(&storage.Options{ExtentSize: 1 << 10})
		m := NewMapping(0, false)
		tr, err := New(m, st, Config{DisableSplit: true}, logger)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ { // ~4 KiB of content in one leaf, values of no common prefix
			val := append([]byte{byte(i)}, bytes.Repeat([]byte{'v'}, 49)...)
			if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), val); err != nil {
				t.Fatalf("mode %d: put %d: %v", flush, i, err)
			}
		}
		if _, err := tr.FlushDirty(nil); err != nil {
			t.Fatalf("mode %d: flush: %v", flush, err)
		}
		leaves := tr.LeafDirectory()
		if len(leaves) != 1 || int(leaves[0].Base.Length) > st.ExtentSize() || len(leaves[0].Deltas) < 2 {
			t.Fatalf("mode %d: leaf directory %+v, want one leaf spilled over several delta records", flush, leaves)
		}
		e := m.get(leaves[0].Page)
		e.mu.Lock()
		e.base, e.live = nil, -1
		e.mu.Unlock()
		if n, err := tr.Len(); err != nil || n != 60 {
			t.Fatalf("mode %d: Len after reload = %d %v, want 60", flush, n, err)
		}
		if n, err := reopenLeader(t, st, tr, tr.Config()).Len(); err != nil || n != 60 {
			t.Fatalf("mode %d: Len after rebuild = %d %v, want 60", flush, n, err)
		}
	}
}

// TestExplicitBuildWaitsForSpawnedBuild: the explicit BuildEdgeBlock used
// to TryLock like the scans' trigger, so when a build a scan started before
// the latest writes was still in flight it returned at once and left that
// build's older block under everything written since. It now waits that
// build out and re-reads the rest: packed == live, no chunk stale, on the
// first call, whoever wins the race.
func TestExplicitBuildWaitsForSpawnedBuild(t *testing.T) {
	for round := 0; round < 30; round++ {
		tr, _ := newTestTree(t, Config{EdgeBlockMinEntries: 64, MaxPageEntries: 16})
		const n = 400
		stop, scanned := make(chan struct{}), make(chan error, 1)
		go func() { // full scans beside the writes: they build past the threshold
			for {
				select {
				case <-stop:
					scanned <- nil
					return
				default:
				}
				if _, err := tr.Len(); err != nil {
					scanned <- err
					return
				}
			}
		}()
		for i := 0; i < n; i++ { // crosses the threshold at 64
			if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.BuildEdgeBlock(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := <-scanned; err != nil {
			t.Fatal(err)
		}
		info, ok := tr.EdgeBlock()
		if !ok || info.Entries != n || len(staleChunks(tr)) != 0 {
			t.Fatalf("round %d: block %+v ok=%v after the explicit build, want %d packed entries and no stale chunk", round, info, ok, n)
		}
	}
}

// TestMemoryUsageCountsResidentBytes: bwtree.memory_bytes is the bytes
// actually resident — each cached base image as stored plus the overlay —
// so evicting a page's image takes exactly its length off the gauge.
func TestMemoryUsageCountsResidentBytes(t *testing.T) {
	tr, _ := newTestTree(t, Config{})
	var puts []op
	for i := 0; i < 100; i++ {
		puts = append(puts, op{key: []byte(fmt.Sprintf("k%03d", i)), val: []byte("value")})
		if err := tr.Put(puts[i].key, puts[i].val); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.m.MemoryUsage()
	e := tr.m.get(tr.LeafDirectory()[0].Page)
	e.mu.Lock()
	img := len(e.base)
	e.base, e.live = nil, -1
	e.mu.Unlock()
	if img != len(imageOf(puts...)) || before-tr.m.MemoryUsage() != int64(img) {
		t.Fatalf("evicting a %d-byte image moved memory_bytes by %d", img, before-tr.m.MemoryUsage())
	}
}

// TestSnapshotWalksThePageTableOnce: the registry gauges that walk the page
// table — memory by kind, resident leaves and retained history — take one
// walk, and so every page latch once, per Snapshot and per Fold, and read
// what the walk's own accessors do.
func TestSnapshotWalksThePageTableOnce(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8, MaxInnerEntries: 4})
	for i := 0; i < 400; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i%300)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r := metrics.NewRegistry()
	tr.m.RegisterMetrics(r, func() wal.LSN { return 0 })
	walks := tr.m.walks.Load()
	snap := r.Snapshot()
	if n := tr.m.walks.Load() - walks; n != 1 {
		t.Fatalf("a Snapshot walked the page table %d times, want 1", n)
	}
	metrics.Fold(r)
	if n := tr.m.walks.Load() - walks; n != 2 {
		t.Fatalf("a Fold walked the page table %d times, want 1", n-1)
	}
	var resident int64
	for _, e := range tr.m.leaves() {
		if e.base != nil {
			resident++
		}
	}
	if got := snap["bwtree.cache_resident_pages"].Value; resident == 0 || got != resident {
		t.Fatalf("cache_resident_pages %d, want %d", got, resident)
	}
	if got, want := snap["bwtree.retained_bytes"].Value, tr.m.RetainedBytes(0); got != want {
		t.Fatalf("retained_bytes %d, want %d", got, want)
	}
	if got, want := snap["bwtree.memory_bytes"].Value, tr.m.MemoryUsage(); got != want {
		t.Fatalf("memory_bytes %d, want %d", got, want)
	}
}

// TestMemoryBytesByKind: bwtree.memory_bytes is the base images, the overlays
// and the inner nodes the kind gauges count plus each entry's own overhead,
// and evicting an image moves the base kind alone.
func TestMemoryBytesByKind(t *testing.T) {
	tr, _ := newTestTree(t, Config{MaxPageEntries: 8, MaxInnerEntries: 4})
	for i := 0; i < 400; i++ { // enough leaves for inner nodes; overwrites leave overlay ops
		if err := tr.Put([]byte(fmt.Sprintf("k%03d", i%300)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r := metrics.NewRegistry()
	tr.m.RegisterMetrics(r, nil)
	kinds := func() (base, overlay, inner, total int64) {
		snap := r.Snapshot()
		return snap["bwtree.memory_base_bytes"].Value, snap["bwtree.memory_overlay_bytes"].Value,
			snap["bwtree.memory_inner_bytes"].Value, snap["bwtree.memory_bytes"].Value
	}
	base, overlay, inner, total := kinds()
	var overhead int64
	for _, e := range tr.m.pages {
		overhead += 160 + int64(len(e.lo)+len(e.hi)+16*len(e.deltaLocs))
	}
	if base == 0 || overlay == 0 || inner == 0 || base+overlay+inner+overhead != total {
		t.Fatalf("base %d + overlay %d + inner %d + entries %d, memory_bytes %d", base, overlay, inner, overhead, total)
	}
	e := tr.m.get(tr.LeafDirectory()[0].Page)
	e.mu.Lock()
	img := int64(len(e.base))
	e.base, e.live = nil, -1
	e.mu.Unlock()
	if b, o, i, tot := kinds(); img == 0 || b != base-img || o != overlay || i != inner || tot != total-img {
		t.Fatalf("evicting a %d-byte image: base %d -> %d, overlay %d -> %d, inner %d -> %d, memory_bytes %d -> %d",
			img, base, b, overlay, o, inner, i, total, tot)
	}
}

// BenchmarkScanPageLargeImage is the walk an edge-block scan is: one full
// scanPage over a 100k-entry image (13-byte keys, 14-byte values) under
// 2,000 overlay ops past the last key.
func BenchmarkScanPageLargeImage(b *testing.B) {
	puts := make([]op, 100_000)
	for i := range puts {
		puts[i] = op{key: []byte(fmt.Sprintf("k%012d", i)), val: []byte(fmt.Sprintf("v%013d", i))}
	}
	img := imageOf(puts...)
	var ov []op
	for i := 0; i < 2000; i++ {
		ov = append(ov, op{key: []byte(fmt.Sprintf("z%012d", i)), val: []byte(fmt.Sprintf("w%013d", i)), lsn: wal.LSN(i + 1)})
	}
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanPage(new(joiner), img, ov, []byte{}, nil, 0, horizonAll, func(k, v []byte) bool { n += len(k) + len(v); return true })
	}
	if n != b.N*102_000*27 {
		b.Fatalf("scans delivered %d bytes, want %d", n, b.N*102_000*27)
	}
}

// TestScanCutCopiesOrSharesTheOverlay: a scan copies a leaf's in-range
// overlay onto its stack when it holds at most scanCopyOps ops and leaves the
// page unshared, so the next write edits the overlay in place; a longer one it
// takes by reference and marks the page shared, so the next write copies it
// first (ownOverlay). Either way a write from the scan's own callback into
// the part of the leaf still to come is not seen: the scan walks the leaf as
// it was cut.
func TestScanCutCopiesOrSharesTheOverlay(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	for _, n := range []int{scanCopyOps, scanCopyOps + 1} {
		tr, err := New(NewMapping(0, false), storage.Open(nil), Config{ConsolidateNum: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		put := func(i int, v string) {
			if err := tr.Put(key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			put(2*i, "base")
		}
		e := tr.m.get(tr.LeafDirectory()[0].Page)
		for len(e.overlay) != 0 { // overwrite until a consolidation folds all 100 into the base
			put(0, "base")
		}
		for i := 0; i < n; i++ {
			put(2*i, "delta")
		}
		if len(tr.LeafDirectory()) != 1 || len(e.overlay) != n {
			t.Fatalf("fixture: %d leaves, %d overlay ops, want 1 and %d", len(tr.LeafDirectory()), len(e.overlay), n)
		}
		e.mu.Lock()
		e.overlay = slices.Grow(e.overlay, 1) // room for the write to land in place
		e.mu.Unlock()
		i := 0
		err = tr.Scan(nil, nil, 0, func(k, v []byte) bool {
			if i == 0 {
				if e.shared != (n > scanCopyOps) {
					t.Errorf("%d ops in range: page shared = %v", n, e.shared)
				}
				put(7, "late") // lands mid-overlay, ahead of the scan
			}
			want := "base"
			if i < n {
				want = "delta"
			}
			if !bytes.Equal(k, key(2*i)) || string(v) != want {
				t.Errorf("%d ops in range: pair %d = %s=%s, want %s=%s", n, i, k, v, key(2*i), want)
			}
			i++
			return true
		})
		if err != nil || i != 100 {
			t.Fatalf("%d ops in range: scan delivered %d pairs (%v), want 100", n, i, err)
		}
		if e.shared || len(e.overlay) != n+1 {
			t.Fatalf("%d ops in range: after the write the page is shared = %v with %d ops, want unshared with %d", n, e.shared, len(e.overlay), n+1)
		}
	}
}
