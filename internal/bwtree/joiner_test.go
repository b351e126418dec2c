package bwtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bg3/internal/storage"
)

// joinedKey and joinedVal are an edge-like entry whose leaf shares most of
// every key (the src and the dst's high bytes) and every value (a 9-byte
// property header), so a scan rebuilds each entry in a joiner.
func joinedKey(src, dst int) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint16(nil, uint16(src)), uint64(dst))
}

func joinedVal(src, dst int) []byte {
	return binary.BigEndian.AppendUint64([]byte{1, 0, 2, 't', 's', 8, 0, 0, 0}, uint64(src)<<32|uint64(dst))
}

// checkJoined reports an entry that is not the one its key names, or whose
// src is not want.
func checkJoined(k, v []byte, want int) error {
	if len(k) != 10 {
		return fmt.Errorf("key %x: want 10 bytes", k)
	}
	src, dst := int(binary.BigEndian.Uint16(k)), int(binary.BigEndian.Uint64(k[2:]))
	if !bytes.Equal(v, joinedVal(src, dst)) || src != want {
		return fmt.Errorf("entry %x = %x, want src %d and value %x", k, v, want, joinedVal(src, dst))
	}
	return nil
}

// joinedTrees fills two trees on one 4-leaf cache with srcs × dsts joined
// entries in 32-entry leaves: scans of the first load cold leaves, and the
// second also packs an edge block its scans read chunks from.
func joinedTrees(t *testing.T, srcs, dsts int) (*Mapping, []*Tree) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	m := NewMapping(4, false)
	var trees []*Tree
	for _, cfg := range []Config{{MaxPageEntries: 32}, {MaxPageEntries: 32, EdgeBlockMinEntries: 64}} {
		tr, err := New(m, st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < srcs; src++ {
			for dst := 0; dst < dsts; dst++ {
				if err := tr.Put(joinedKey(src, 3*dst), joinedVal(src, 3*dst)); err != nil {
					t.Fatal(err)
				}
			}
		}
		trees = append(trees, tr)
	}
	if _, err := trees[1].BuildEdgeBlock(); err != nil {
		t.Fatal(err)
	}
	return m, trees
}

// TestConcurrentScansJoinTheirOwnEntries: 8 goroutines scan — single ranges
// and multi-scans, over cold leaves, resident ones and edge-block chunks —
// while a writer overwrites entries with their own values (flushes re-encode
// leaves, and chunks go stale). Every pair each callback sees is the entry
// its key names, in its scan's src: no walk sees another's recycled scratch.
func TestConcurrentScansJoinTheirOwnEntries(t *testing.T) {
	const srcs, dsts = 8, 200
	m, trees := joinedTrees(t, srcs, dsts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			src, dst := rng.Intn(srcs), 3*rng.Intn(dsts)
			if err := trees[rng.Intn(2)].Put(joinedKey(src, dst), joinedVal(src, dst)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 40; round++ {
				tr := trees[rng.Intn(2)]
				var err, bad error
				n := 0
				if g%2 == 0 {
					src := rng.Intn(srcs)
					err = tr.ScanAt(joinedKey(src, 0), joinedKey(src+1, 0), 0, horizonAll, func(k, v []byte) bool {
						n++
						bad = checkJoined(k, v, src)
						return bad == nil
					})
				} else {
					scans := make([]RangeScan, srcs)
					for src := range scans {
						scans[src] = RangeScan{Tree: tr, From: joinedKey(src, 0), To: joinedKey(src+1, 0)}
					}
					err = m.ScanManyAt(scans, 0, horizonAll, func(i int, k, v []byte) bool {
						n++
						bad = checkJoined(k, v, i)
						return bad == nil
					})
				}
				if err == nil {
					err = bad
				}
				if want := dsts * (1 + (g%2)*(srcs-1)); err == nil && n != want {
					err = fmt.Errorf("%d pairs, want %d", n, want)
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestNestedScansKeepTheirEntries: a callback that re-enters the tree — a
// scan of another src, a point read, a multi-scan — still holds its own key
// and value afterwards: a nested walk takes a joiner of its own.
func TestNestedScansKeepTheirEntries(t *testing.T) {
	const srcs, dsts = 4, 100
	m, trees := joinedTrees(t, srcs, dsts)
	for _, tr := range trees {
		nested := func(src int) error {
			other := (src + 1) % srcs
			n := 0
			if err := tr.Scan(joinedKey(other, 0), joinedKey(other+1, 0), 0, func(k, v []byte) bool {
				n++
				return checkJoined(k, v, other) == nil
			}); err != nil || n != dsts {
				return fmt.Errorf("nested scan: %d pairs, want %d: %v", n, dsts, err)
			}
			if v, ok, err := tr.Get(joinedKey(other, 3)); err != nil || !ok || !bytes.Equal(v, joinedVal(other, 3)) {
				return fmt.Errorf("nested Get = %x %v %v", v, ok, err)
			}
			n = 0
			err := m.ScanManyAt([]RangeScan{{Tree: tr, From: joinedKey(other, 0), To: joinedKey(other, 30)}}, 0, horizonAll,
				func(_ int, k, v []byte) bool {
					n++
					return checkJoined(k, v, other) == nil
				})
			if err != nil || n != 10 {
				return fmt.Errorf("nested multi-scan: %d pairs, want 10: %v", n, err)
			}
			return nil
		}
		outer := func(src int, k, v []byte) error {
			key, val := bytes.Clone(k), bytes.Clone(v)
			if err := nested(src); err != nil {
				return err
			}
			if !bytes.Equal(k, key) || !bytes.Equal(v, val) {
				return fmt.Errorf("entry %x = %x before the nested reads, %x = %x after", key, val, k, v)
			}
			return checkJoined(k, v, src)
		}
		var err, bad error
		n := 0
		for src := 0; src < srcs && err == nil && bad == nil; src++ {
			err = tr.Scan(joinedKey(src, 0), joinedKey(src+1, 0), 0, func(k, v []byte) bool {
				n++
				bad = outer(src, k, v)
				return bad == nil
			})
		}
		if err == nil && bad == nil {
			err = m.ScanManyAt([]RangeScan{{Tree: tr, From: joinedKey(0, 0), To: joinedKey(0, 60)}}, 0, horizonAll,
				func(_ int, k, v []byte) bool {
					n++
					bad = outer(0, k, v)
					return bad == nil
				})
		}
		if err != nil || bad != nil || n != srcs*dsts+20 {
			t.Fatalf("%d outer pairs, want %d: %v %v", n, srcs*dsts+20, err, bad)
		}
	}
}
