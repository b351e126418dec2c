package bwtree

import (
	"fmt"
	"math/rand"
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

// TestSyncSplitFailure crashes a sync split's appends. The sibling's base is
// written first, before anything can reach the sibling: when it fails the leaf
// stays unsplit. When the narrowed page's base fails the split stands, the page
// stays dirty on its old records, and its next write flushes it.
func TestSyncSplitFailure(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("nocache=%v", noCache), func(t *testing.T) {
			tr, plan := newFaultyTree(t, Config{MaxPageEntries: 8}, noCache)
			want := map[string]string{}
			put := func(k string) error {
				err := tr.Put([]byte(k), []byte("v"+k))
				want[k] = "v" + k // the run's own flush precedes the split
				return err
			}
			for i := 0; i < 8; i++ {
				if err := put(fmt.Sprintf("k%02d", i)); err != nil {
					t.Fatal(err)
				}
			}

			plan.ScheduleCrash(2) // the run's delta lands, the sibling's base fails
			if err := put("k08"); err == nil {
				t.Fatal("a split whose sibling's append crashed returned no error")
			}
			if s := tr.Stats().Splits; s != 0 || tr.Height() != 1 {
				t.Fatalf("splits = %d, height = %d after a failed sibling flush, want an unsplit leaf", s, tr.Height())
			}
			expectValues(t, tr, want)
			plan.ClearCrash()

			plan.ScheduleCrash(3) // delta and sibling land, the narrowed page's base fails
			if err := put("k09"); err == nil {
				t.Fatal("a split whose narrowed page's append crashed returned no error")
			}
			if s, n := tr.Stats().Splits, tr.DirtyCount(); s != 1 || n != 1 {
				t.Fatalf("splits = %d, dirty = %d after a failed narrowed-page flush, want 1 and 1", s, n)
			}
			expectValues(t, tr, want)
			plan.ClearCrash()

			if err := put("k00"); err != nil { // a write to the narrowed page
				t.Fatal(err)
			}
			if n := tr.DirtyCount(); n != 0 {
				t.Fatalf("%d dirty pages after the narrowed page's next write", n)
			}
			expectValues(t, tr, want)
		})
	}
}

// TestCacheDisabledSyncSplits splits a cache-disabled sync tree (Fig. 9's)
// 179 times. Each write and split flushes from the image it read: the storage
// traffic is pinned to its count from before a sync write was a flush, so a
// flush that loaded the page a second time (a read per consolidation), or a
// sibling loaded from no record of its own (empty), would show.
func TestCacheDisabledSyncSplits(t *testing.T) {
	for _, c := range []struct {
		policy               DeltaPolicy
		reads, writes, bytes int64
	}{
		{ReadOptimized, 4039, 2358, 301073},
		{Traditional, 10275, 2358, 120657},
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
