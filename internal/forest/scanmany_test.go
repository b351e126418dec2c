package forest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// clockLogger hands out LSNs and advances the epoch clock when a record's
// wait runs, the way the RW node's group committer does at ack release.
type clockLogger struct {
	mu  sync.Mutex
	lsn wal.LSN
	src *mvcc.Source
}

func (l *clockLogger) LogAsync(*wal.Record) (wal.LSN, func() error) {
	l.mu.Lock()
	l.lsn++
	lsn := l.lsn
	l.mu.Unlock()
	return lsn, func() error {
		l.src.Advance(mvcc.Epoch(lsn))
		return nil
	}
}

type pair struct {
	owner OwnerID
	k, v  string
}

// ownerModel is one owner's expected content: key -> value.
type ownerModel map[string]string

func copyModel(m map[OwnerID]ownerModel) map[OwnerID]ownerModel {
	out := make(map[OwnerID]ownerModel, len(m))
	for o, om := range m {
		c := make(ownerModel, len(om))
		for k, v := range om {
			c[k] = v
		}
		out[o] = c
	}
	return out
}

// expect returns owner's pairs in [from, to), key-ordered, first limit.
func (om ownerModel) expect(owner OwnerID, from, to []byte, limit int) []pair {
	var out []pair
	for k, v := range om {
		if bytes.Compare([]byte(k), from) >= 0 && (to == nil || bytes.Compare([]byte(k), to) < 0) {
			out = append(out, pair{owner, k, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sortPairs(ps []pair) []pair {
	out := append([]pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].owner != out[j].owner {
			return out[i].owner < out[j].owner
		}
		if out[i].k != out[j].k {
			return out[i].k < out[j].k
		}
		return out[i].v < out[j].v
	})
	return out
}

// TestStressScanManyAtMatchesScanAtLoop is the differential test of the
// batched frontier read: over INIT-only owners (several to a leaf, some
// spanning two and three INIT leaves), dedicated owners (multi-leaf), a
// block-served owner and duplicate owners in one frontier, at limits
// 0/1/16, with an early stop, at h = ∞ and at a pin on either side of a
// migration, under an unlimited cache, a 4-page cache and no cache —
// ScanManyAt delivers the same (owner, key, value) multiset as the
// per-owner ScanAt loop it replaced, each owner's keys in order, and both
// equal the reference model as of the horizon. The model is the independent
// oracle: ScanAt and ScanManyAt walk a leaf with the same step
// (bwtree scanLeaf), so their agreeing with each other checks only the
// routing, batching and hold-past-eviction around it.
func TestStressScanManyAtMatchesScanAtLoop(t *testing.T) {
	type cacheCfg struct {
		name     string
		capacity int
		disabled bool
	}
	for _, cc := range []cacheCfg{{"unlimited", 0, false}, {"4 pages", 4, false}, {"disabled", 0, true}} {
		t.Run(cc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			st := storage.Open(&storage.Options{ExtentSize: 1 << 14})
			m := bwtree.NewMapping(cc.capacity, cc.disabled)
			cfg := Config{
				SplitThreshold: 48,
				Tree: bwtree.Config{
					MaxPageEntries: 16, ConsolidateNum: 4, NoCache: cc.disabled,
					EdgeBlockMinEntries: 200,
				},
			}
			// Pins need the epoch clock, the clock needs async flushing, and
			// async flushing needs the cache: the cache-less run reads at ∞ only.
			var src *mvcc.Source
			var logger bwtree.WALLogger
			if !cc.disabled {
				src = mvcc.NewSource(0)
				cfg.Tree.Epochs = src
				logger = &clockLogger{src: src}
			}
			f, err := New(m, st, cfg, logger)
			if err != nil {
				t.Fatal(err)
			}
			model := map[OwnerID]ownerModel{}
			put := func(owner OwnerID, i int, v string) {
				t.Helper()
				k := fmt.Sprintf("\x00\x01key-%04d", i) // inside the [\x00\x01, \x00\x02) "edge type" range
				if err := f.Put(owner, []byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				if model[owner] == nil {
					model[owner] = ownerModel{}
				}
				model[owner][k] = v
			}
			del := func(owner OwnerID, i int) {
				t.Helper()
				k := fmt.Sprintf("\x00\x01key-%04d", i)
				if err := f.Delete(owner, []byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model[owner], k)
			}
			// Owners 1-12 small (share INIT leaves), 13-16 span 2-3 INIT
			// leaves, 17-19 dedicated by threshold, 20 the block-served hub,
			// 21 migrates between the two pins.
			sizes := map[OwnerID]int{20: 320, 21: 40}
			for o := OwnerID(1); o <= 12; o++ {
				sizes[o] = 2 + rng.Intn(8)
			}
			for o := OwnerID(13); o <= 16; o++ {
				sizes[o] = 24 + rng.Intn(20)
			}
			for o := OwnerID(17); o <= 19; o++ {
				sizes[o] = 60 + rng.Intn(60)
			}
			for o := OwnerID(1); o <= 21; o++ {
				for i := 0; i < sizes[o]; i++ {
					put(o, i, fmt.Sprintf("v%d.%d", o, i))
				}
				// A key outside the scanned range on both sides.
				if err := f.Put(o, []byte("\x00\x00below"), []byte("x")); err != nil {
					t.Fatal(err)
				}
				if err := f.Put(o, []byte("\x00\x02above"), []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if built, err := f.BuildEdgeBlocks(); err != nil || built == 0 {
				t.Fatalf("BuildEdgeBlocks = %d, %v", built, err)
			}

			type horizon struct {
				name  string
				h     wal.LSN
				model map[OwnerID]ownerModel
			}
			var horizons []horizon
			pin := func(name string) {
				if src == nil {
					return
				}
				p := src.Pin()
				t.Cleanup(p.Close)
				horizons = append(horizons, horizon{name, wal.LSN(p.Epoch()), copyModel(model)})
			}
			pin("before migration")
			if err := f.Dedicate(21); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i += 3 { // user writes to the migrated owner
				put(21, i, "post-migration")
			}
			del(21, 1)
			pin("after migration")
			// Churn after both pins: overwrites, deletes and inserts everywhere.
			for o := OwnerID(1); o <= 21; o++ {
				for j := 0; j < 1+sizes[o]/8; j++ {
					i := rng.Intn(sizes[o] + 4)
					if rng.Intn(4) == 0 {
						del(o, i)
					} else {
						put(o, i, fmt.Sprintf("churn%d.%d", o, j))
					}
				}
			}
			horizons = append(horizons, horizon{"latest", horizonAll, model})
			if src != nil {
				// Clean pages are what a bounded cache evicts and a miss
				// reloads; the sweep runs when pages are installed or split,
				// so an owner outside every frontier splits a few after the
				// flush.
				for pass := 0; pass < 2; pass++ {
					if _, err := f.FlushDirty(); err != nil {
						t.Fatal(err)
					}
					for i := 0; pass == 0 && i < 64; i++ {
						if err := f.Put(99, []byte(fmt.Sprintf("filler-%03d", i)), []byte("x")); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			from, to := []byte("\x00\x01"), []byte("\x00\x02")
			for _, hz := range horizons {
				for _, limit := range []int{0, 1, 16} {
					for round := 0; round < 6; round++ {
						// A frontier of random owners, duplicates and an
						// unknown owner included.
						owners := make([]OwnerID, 1+rng.Intn(30))
						mentions := map[OwnerID]int{}
						for i := range owners {
							owners[i] = OwnerID(1 + rng.Intn(22))
							mentions[owners[i]]++
						}
						var loop, want []pair
						for _, o := range owners {
							o := o
							if err := f.ScanAt(o, from, to, limit, hz.h, func(k, v []byte) bool {
								loop = append(loop, pair{o, string(k), string(v)})
								return true
							}); err != nil {
								t.Fatal(err)
							}
							want = append(want, hz.model[o].expect(o, from, to, limit)...)
						}
						if a, b := sortPairs(loop), sortPairs(want); fmt.Sprint(a) != fmt.Sprint(b) {
							t.Fatalf("%s limit %d: ScanAt loop diverges from the model:\n got %v\nwant %v", hz.name, limit, a, b)
						}

						stopAfter := -1
						if round%3 == 2 && len(want) > 1 {
							stopAfter = 1 + rng.Intn(len(want)-1)
						}
						var got []pair
						last := map[OwnerID]string{}
						if err := f.ScanManyAt(owners, from, to, limit, hz.h, func(o OwnerID, k, v []byte) bool {
							if mentions[o] == 1 {
								if prev, ok := last[o]; ok && prev >= string(k) {
									t.Errorf("%s: owner %d key %q delivered after %q", hz.name, o, k, prev)
								}
								last[o] = string(k)
							}
							got = append(got, pair{o, string(k), string(v)})
							return len(got) != stopAfter
						}); err != nil {
							t.Fatal(err)
						}
						if stopAfter < 0 {
							if a, b := sortPairs(got), sortPairs(want); fmt.Sprint(a) != fmt.Sprint(b) {
								t.Fatalf("%s limit %d owners %v: ScanManyAt diverges:\n got %v\nwant %v", hz.name, limit, owners, a, b)
							}
							continue
						}
						// Early stop: exactly stopAfter pairs, each owner's a
						// prefix of what the loop delivers for it.
						if len(got) != stopAfter {
							t.Fatalf("%s: stopped scan delivered %d pairs, want %d", hz.name, len(got), stopAfter)
						}
						for o, n := range mentions {
							if n != 1 {
								continue
							}
							exp := hz.model[o].expect(o, from, to, limit)
							i := 0
							for _, p := range got {
								if p.owner != o {
									continue
								}
								if i >= len(exp) || exp[i] != p {
									t.Fatalf("%s: stopped scan owner %d pair %d = %v, not a prefix of %v", hz.name, o, i, p, exp)
								}
								i++
							}
						}
					}
				}
			}
			hits, misses := m.CacheStats()
			if (cc.capacity > 0 || cc.disabled) && misses == 0 {
				t.Fatalf("no cache miss (hits %d): the cold path was not exercised", hits)
			}
			if m.BlockStatsSnapshot().Hits == 0 {
				t.Fatal("no scan was served by the hub's edge block")
			}
		})
	}
}
