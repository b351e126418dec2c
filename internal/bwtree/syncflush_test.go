package bwtree

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"bg3/internal/storage"
)

// A sync write is the flush of the page it dirtied. These tests pin what that
// flush must keep from the persistence routine a sync tree used to have of its
// own: the failure contract, and a cache-disabled tree that splits.

func newFaultyTree(t *testing.T, cfg Config, noCache bool) (*Tree, *storage.FaultPlan) {
	t.Helper()
	plan := storage.NewFaultPlan(storage.FaultConfig{})
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
	tr, err := New(NewMapping(0, noCache), st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, plan
}

func expectValues(t *testing.T, tr *Tree, want map[string]string) {
	t.Helper()
	for k, v := range want {
		if got, ok, err := tr.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Fatalf("%s = %q %v %v, want %q", k, got, ok, err, v)
		}
	}
	if n, err := tr.Len(); err != nil || n != len(want) {
		t.Fatalf("len = %d %v, want %d", n, err, len(want))
	}
}

// TestSyncWriteFailureLeavesThePage crashes the one append of a sync Put at
// every step of a page's life — its first base, a delta, a consolidation —
// under both policies, cached and cache-disabled: the Put returns the error,
// the page reads as before, nothing is left dirty, and the retry succeeds.
func TestSyncWriteFailureLeavesThePage(t *testing.T) {
	for _, policy := range []DeltaPolicy{ReadOptimized, Traditional} {
		for _, noCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/nocache=%v", policy, noCache), func(t *testing.T) {
				tr, plan := newFaultyTree(t, Config{Policy: policy, ConsolidateNum: 3}, noCache)
				want := map[string]string{}
				for i := 0; i < 12; i++ {
					k, v := fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i)
					plan.ScheduleCrash(1)
					if err := tr.Put([]byte(k), []byte(v)); err == nil {
						t.Fatalf("write %d: crashed append returned no error", i)
					}
					expectValues(t, tr, want)
					if n := tr.DirtyCount(); n != 0 {
						t.Fatalf("write %d: %d dirty pages after a failed sync write", i, n)
					}
					plan.ClearCrash()
					if err := tr.Put([]byte(k), []byte(v)); err != nil {
						t.Fatalf("write %d retried: %v", i, err)
					}
					want[k] = v
					expectValues(t, tr, want)
				}
				if tr.Stats().Consolidations == 0 {
					t.Fatal("fixture: no consolidation was attempted")
				}
			})
		}
	}
}

// TestSyncSplitFailure crashes a sync split's appends. A write that overfills
// its leaf is made durable by the split's writes, the sibling's first, before
// anything can reach the sibling. When that append fails alone the leaf stays
// unsplit and the page is flushed whole, so the write stands; when every
// append fails the write is dropped, the page reads as before and nothing is
// dirty, and the retry splits. When the narrowed page's base fails the split
// stands, the page stays dirty on its old records, and its next write flushes
// it.
func TestSyncSplitFailure(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("nocache=%v", noCache), func(t *testing.T) {
			plan := storage.NewFaultPlan(storage.FaultConfig{})
			var alone atomic.Bool // the crash takes one append alone
			plan.OnInject = func(k storage.FaultKind) {
				if k == storage.FaultCrash && alone.Load() {
					plan.ClearCrash()
				}
			}
			st := storage.Open(&storage.Options{ExtentSize: 1 << 16, Faults: plan})
			tr, err := New(NewMapping(0, noCache), st, Config{MaxPageEntries: 8}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			put := func(k string) error {
				err := tr.Put([]byte(k), []byte("v"+k))
				if err == nil {
					want[k] = "v" + k
				}
				return err
			}
			crash := func(n int64, oneAppend bool) {
				alone.Store(oneAppend)
				plan.ScheduleCrash(n)
			}
			expectSplits := func(what string, splits int64, dirty int) {
				t.Helper()
				if s, n := tr.Stats().Splits, tr.DirtyCount(); s != splits || n != dirty {
					t.Fatalf("%s: splits = %d, dirty = %d, want %d and %d", what, s, n, splits, dirty)
				}
				expectValues(t, tr, want)
			}
			for i := 1; i <= 8; i++ {
				if err := put(fmt.Sprintf("k%02d", i)); err != nil {
					t.Fatal(err)
				}
			}

			crash(1, true) // the sibling's base fails, the whole page lands
			if err := put("k09"); err == nil {
				t.Fatal("a split whose sibling's append crashed returned no error")
			}
			want["k09"] = "vk09" // flushed whole: the write stands
			expectSplits("after a failed sibling flush", 0, 0)
			if tr.Height() != 1 {
				t.Fatalf("height %d after a failed sibling flush, want an unsplit leaf", tr.Height())
			}

			crash(2, true) // the sibling lands, the narrowed page's base fails
			if err := put("k00"); err == nil {
				t.Fatal("a split whose narrowed page's append crashed returned no error")
			}
			want["k00"] = "vk00" // the split stands, the write with it
			expectSplits("after a failed narrowed-page flush", 1, 1)

			if err := put("k02"); err != nil { // a write to the narrowed page
				t.Fatal(err)
			}
			expectSplits("after the narrowed page's next write", 1, 0)

			for i := 10; i <= 12; i++ { // the sibling, k05..k09, fills up
				if err := put(fmt.Sprintf("k%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			crash(1, false) // every append of the overfilling write fails
			if err := put("k13"); err == nil {
				t.Fatal("a write whose every append crashed returned no error")
			}
			expectSplits("after an overfilling write failed", 1, 0)
			plan.ClearCrash()
			if err := put("k13"); err != nil {
				t.Fatal(err)
			}
			expectSplits("after the retry", 2, 0)
		})
	}
}

// TestCacheDisabledSyncSplits splits a cache-disabled sync tree (Fig. 9's)
// 179 times. Each write and split flushes from the image it read, and a write
// that overfills its leaf is persisted by the split's two writes alone: the
// storage traffic is pinned, so a flush that loaded the page a second time (a
// read per consolidation), a sibling loaded from no record of its own
// (empty), or a write flushed before its split would show.
func TestCacheDisabledSyncSplits(t *testing.T) {
	for _, c := range []struct {
		policy               DeltaPolicy
		reads, writes, bytes int64
	}{
		{ReadOptimized, 4039, 2179, 133370},
		{Traditional, 10096, 2179, 57695},
	} {
		tr, st := newTreeOn(t, NewMapping(0, true), Config{Policy: c.policy, MaxPageEntries: 16})
		want := map[string]string{}
		for _, k := range rand.New(rand.NewSource(5)).Perm(2000) {
			key, val := fmt.Sprintf("k%05d", k), fmt.Sprintf("v%d", k)
			if err := tr.Put([]byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			want[key] = val
		}
		s := st.Stats()
		if s.ReadOps != c.reads || s.WriteOps != c.writes || s.BytesWritten != c.bytes || tr.Stats().Splits != 179 {
			t.Fatalf("%v: reads %d writes %d bytes %d splits %d, want %d %d %d 179",
				c.policy, s.ReadOps, s.WriteOps, s.BytesWritten, tr.Stats().Splits, c.reads, c.writes, c.bytes)
		}
		expectValues(t, tr, want)
	}
}
