package shard

import (
	"errors"
	"testing"

	"bg3/internal/graph"
)

// readTag reads the cross-shard batch's edge tag through a snapshot on
// both owners, reporting what each side sees ("" = absent).
func readTag(t *testing.T, snap *Snapshot, a, b graph.VertexID, dst graph.VertexID) (ta, tb string) {
	t.Helper()
	get := func(src graph.VertexID) string {
		e, ok, err := snap.GetEdge(src, graph.ETypeFollow, dst)
		if err != nil {
			t.Fatalf("GetEdge(%d): %v", src, err)
		}
		if !ok {
			return ""
		}
		v, _ := e.Props.Get("t")
		return string(v)
	}
	return get(a), get(b)
}

// A snapshot pinned before a participant failover keeps reading the same
// consistent cut afterwards: the deposed leader's pinned views still serve
// their released prefix exactly — no state written after the pin, no half
// of any transaction, including one force-aborted by the failover itself.
func TestSnapshotPinnedBeforeFailoverReadsConsistentCut(t *testing.T) {
	g := openTestGroup(t, 4)
	a, b := findCrossShardPair(g.Router())
	sb := g.Router().Owner(b)

	// v1: a committed cross-shard transaction, then pin the cut.
	if err := g.ApplyBatch(crossShardBatch(a, b, "v1")); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	defer snap.Close()
	vec := append(Vector(nil), snap.Epochs()...)
	if ta, tb := readTag(t, snap, a, b, 1000); ta != "v1" || tb != "v1" {
		t.Fatalf("pinned cut reads %q/%q, want v1/v1", ta, tb)
	}

	// v2 commits after the pin; then a third transaction is killed by a
	// participant failover between prepare and commit, and a fourth
	// commits against the promoted leader.
	if err := g.ApplyBatch(crossShardBatch(a, b, "v2")); err != nil {
		t.Fatal(err)
	}
	g.SetTxnStageHook(func(stage TxnStage, txn uint64, members []int) {
		if stage == StagePrepared {
			g.SetTxnStageHook(nil)
			if err := g.Failover(sb); err != nil {
				t.Errorf("failover shard %d: %v", sb, err)
			}
		}
	})
	err := g.ApplyBatch(crossShardBatch(a, b, "v3"))
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("txn racing participant failover: err = %v, want ErrTxnAborted", err)
	}
	if err := g.ApplyBatch(crossShardBatch(a, b, "v4")); err != nil {
		t.Fatalf("batch after failover: %v", err)
	}

	// The pre-failover pin is undisturbed: still v1 on both shards, no
	// bleed-through from v2/v4 and nothing from the aborted v3.
	if ta, tb := readTag(t, snap, a, b, 1000); ta != "v1" || tb != "v1" {
		t.Fatalf("cut changed under failover: reads %q/%q, want v1/v1", ta, tb)
	}
	if got := snap.Epochs(); len(got) != len(vec) {
		t.Fatalf("vector length changed: %v -> %v", vec, got)
	} else {
		for i := range vec {
			if got[i] != vec[i] {
				t.Fatalf("pinned vector drifted: %v -> %v", vec, got)
			}
		}
	}

	// A fresh cut observes the post-failover state: v4 on both sides —
	// all-or-nothing held through the kill.
	fresh := g.Snapshot()
	defer fresh.Close()
	if ta, tb := readTag(t, fresh, a, b, 1000); ta != "v4" || tb != "v4" {
		t.Fatalf("fresh cut reads %q/%q, want v4/v4", ta, tb)
	}
}
