package shard

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

func testPayload() *TxnPayload {
	return &TxnPayload{
		Txn:   7,
		Fence: 3,
		Coord: 1,
		Shard: 2,
		Parts: []int{1, 2, 5},
		Muts: []graph.Mutation{
			graph.AddVertexMut(graph.Vertex{
				ID: 11, Type: graph.VTypeUser,
				Props: graph.Properties{{Name: "n", Value: []byte("alice")}},
			}),
			graph.AddEdgeMut(graph.Edge{
				Src: 11, Dst: 22, Type: graph.ETypeFollow,
				Props: graph.Properties{{Name: "w", Value: []byte{1, 2, 3}}},
			}),
			graph.DeleteEdgeMut(11, graph.ETypeLike, 33),
		},
	}
}

// The TPC1 codec round-trips every mutation kind and re-encodes
// canonically.
func TestPrepareCodecRoundTrip(t *testing.T) {
	p := testPayload()
	buf := EncodePrepare(p)
	got, err := DecodePreparePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", p, got)
	}
	if re := EncodePrepare(got); string(re) != string(buf) {
		t.Fatal("re-encode is not canonical")
	}
	// Edge case: mutations without properties.
	p2 := &TxnPayload{
		Txn: 1, Coord: 0, Shard: 0, Parts: []int{0, 3},
		Muts: []graph.Mutation{graph.AddEdgeMut(graph.Edge{Src: 1, Dst: 2, Type: 1})},
	}
	got2, err := DecodePreparePayload(EncodePrepare(p2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2, got2) {
		t.Fatalf("no-props round trip mismatch: %+v vs %+v", p2, got2)
	}
}

// Every structural defect is rejected fail-closed.
func TestPrepareDecodeFailClosed(t *testing.T) {
	valid := EncodePrepare(testPayload())
	reseal := func(b []byte) []byte { // recompute the CRC after a mutation
		p, err := DecodePreparePayload(b)
		if err != nil {
			return b
		}
		return EncodePrepare(p)
	}
	_ = reseal
	cases := map[string][]byte{
		"empty":     nil,
		"torn":      valid[:len(valid)-7],
		"bad magic": append([]byte("NOPE"), valid[4:]...),
		"trailing":  append(append([]byte(nil), valid...), 0),
	}
	// Bit flips anywhere must be caught (CRC).
	for _, off := range []int{0, 5, 9, 21, 30, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		cases[fmt.Sprintf("bit flip @%d", off)] = flipped
	}
	// Semantic defects, CRC-valid: rebuild through the encoder.
	bad := testPayload()
	bad.Txn = 0
	cases["zero txn id"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Parts = []int{2, 1, 5}
	cases["unsorted participants"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Parts = []int{2, 2, 5}
	cases["duplicate participant"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Coord = 9
	cases["coordinator not a participant"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Shard = 9
	cases["shard not a participant"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Muts = nil
	cases["empty sub-batch"] = EncodePrepare(bad)
	bad = testPayload()
	bad.Muts = []graph.Mutation{{Kind: 99}}
	cases["unknown mutation kind"] = EncodePrepare(bad)
	for name, buf := range cases {
		if _, err := DecodePreparePayload(buf); !errors.Is(err, ErrBadPrepare) {
			t.Errorf("%s: err = %v, want ErrBadPrepare", name, err)
		}
	}
	if _, err := DecodePreparePayload(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
}

// DecodePrepareRecord binds the payload to its carrying record: txn id
// and fence epoch must match the record's TreeID and stamped epoch.
func TestDecodePrepareRecordCrossChecks(t *testing.T) {
	p := testPayload()
	buf := EncodePrepare(p)
	rec := &wal.Record{Type: wal.RecordTxnPrepare, TreeID: p.Txn, Epoch: p.Fence, Value: buf}
	if _, err := DecodePrepareRecord(rec); err != nil {
		t.Fatalf("matching record rejected: %v", err)
	}
	wrongTxn := &wal.Record{Type: wal.RecordTxnPrepare, TreeID: p.Txn + 1, Epoch: p.Fence, Value: buf}
	if _, err := DecodePrepareRecord(wrongTxn); !errors.Is(err, ErrBadPrepare) {
		t.Fatalf("txn mismatch: err = %v, want ErrBadPrepare", err)
	}
	wrongEpoch := &wal.Record{Type: wal.RecordTxnPrepare, TreeID: p.Txn, Epoch: p.Fence + 1, Value: buf}
	if _, err := DecodePrepareRecord(wrongEpoch); !errors.Is(err, ErrBadPrepare) {
		t.Fatalf("epoch mismatch: err = %v, want ErrBadPrepare", err)
	}
	wrongType := &wal.Record{Type: wal.RecordPut, TreeID: p.Txn, Epoch: p.Fence, Value: buf}
	if _, err := DecodePrepareRecord(wrongType); !errors.Is(err, ErrBadPrepare) {
		t.Fatalf("type mismatch: err = %v, want ErrBadPrepare", err)
	}
}

// The manager's resolution rules: unknown transactions fall through to
// the durable prefix, preparing ones force-abort (and the owner's
// tryDecide then fails), decided ones report their decision.
func TestTxnManagerResolution(t *testing.T) {
	m := newTxnManager()
	if _, known := m.resolveLive(1); known {
		t.Fatal("unknown txn reported as known")
	}
	// Force-abort while preparing.
	m.begin(2, nil)
	committed, known := m.resolveLive(2)
	if !known || committed {
		t.Fatalf("resolveLive(preparing) = (%v,%v), want abort/known", committed, known)
	}
	if m.tryDecide(2) {
		t.Fatal("tryDecide succeeded after force-abort")
	}
	m.end(2, nil)
	// Normal decide paths.
	m.begin(3, nil)
	if !m.tryDecide(3) {
		t.Fatal("tryDecide failed on preparing txn")
	}
	m.decide(3, true)
	if committed, known := m.resolveLive(3); !known || !committed {
		t.Fatalf("resolveLive(committed) = (%v,%v)", committed, known)
	}
	m.end(3, nil)
	// A resolver hitting a mid-decision txn waits for the decision.
	m.begin(4, nil)
	if !m.tryDecide(4) {
		t.Fatal("tryDecide failed")
	}
	got := make(chan bool, 1)
	go func() {
		committed, _ := m.resolveLive(4)
		got <- committed
	}()
	m.decide(4, true)
	if committed := <-got; !committed {
		t.Fatal("resolver waiting on deciding txn saw abort, decision was commit")
	}
}

// findCrossShardPair returns two vertex ids owned by different shards,
// the first owned by the lower-indexed shard.
func findCrossShardPair(r *Router) (a, b graph.VertexID) {
	a = 1
	for id := graph.VertexID(2); ; id++ {
		if r.Owner(id) != r.Owner(a) {
			if r.Owner(id) < r.Owner(a) {
				return id, a
			}
			return a, id
		}
	}
}

func crossShardBatch(a, b graph.VertexID, tag string) []graph.Mutation {
	props := graph.Properties{{Name: "t", Value: []byte(tag)}}
	return []graph.Mutation{
		graph.AddEdgeMut(graph.Edge{Src: a, Dst: 1000, Type: graph.ETypeFollow, Props: props}),
		graph.AddEdgeMut(graph.Edge{Src: b, Dst: 1000, Type: graph.ETypeFollow, Props: props}),
	}
}

// A committed multi-shard batch leaves the full 2PC record trail on the
// durable prefix — prepares on both owners, the commit decision on the
// coordinator, applied markers everywhere — and the data is readable.
// Single-shard batches leave zero transaction records (the PR 9 fast
// path is untouched).
func TestApplyBatchTwoPhaseCommit(t *testing.T) {
	g := openTestGroup(t, 4)
	a, b := findCrossShardPair(g.Router())
	sa, sb := g.Router().Owner(a), g.Router().Owner(b)
	if err := g.ApplyBatch(crossShardBatch(a, b, "x")); err != nil {
		t.Fatal(err)
	}
	// Single-shard control batch.
	if err := g.ApplyBatch([]graph.Mutation{
		graph.AddEdgeMut(graph.Edge{Src: a, Dst: 2000, Type: graph.ETypeFollow}),
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.VertexID{a, b} {
		if _, ok, err := g.GetEdge(id, graph.ETypeFollow, 1000); err != nil || !ok {
			t.Fatalf("edge %d->1000 missing after commit (ok=%v err=%v)", id, ok, err)
		}
	}
	states := make(map[int]*shardTxnState)
	for _, s := range []int{sa, sb} {
		st, err := scanShardTxns(g.Store(s))
		if err != nil {
			t.Fatal(err)
		}
		states[s] = st
	}
	var txn uint64
	for id := range states[sa].prepares {
		txn = id
	}
	if txn == 0 {
		t.Fatalf("no prepare on shard %d", sa)
	}
	for _, s := range []int{sa, sb} {
		st := states[s]
		if len(st.prepares) != 1 {
			t.Fatalf("shard %d has %d prepares, want 1 (single-shard batch leaked records?)", s, len(st.prepares))
		}
		p := st.prepares[txn]
		if p == nil {
			t.Fatalf("shard %d missing prepare for txn %d", s, txn)
		}
		if p.Coord != sa || p.Shard != s || !reflect.DeepEqual(p.Parts, []int{sa, sb}) {
			t.Fatalf("shard %d payload membership = coord %d shard %d parts %v", s, p.Coord, p.Shard, p.Parts)
		}
		if !st.resolved[txn] {
			t.Fatalf("shard %d has no applied marker for txn %d", s, txn)
		}
		if len(st.inDoubt()) != 0 {
			t.Fatalf("shard %d still in doubt: %v", s, st.inDoubt())
		}
	}
	if !states[sa].commits[txn] {
		t.Fatalf("coordinator %d has no durable commit for txn %d", sa, txn)
	}
	if states[sb].commits[txn] {
		t.Fatalf("participant %d logged a commit decision", sb)
	}
}

// A coordinator killed between prepare and commit aborts the
// transaction: the batch applies nowhere, both shards end with abort
// markers, and the error carries per-shard outcomes and unwraps to
// ErrTxnAborted.
func TestTxnCoordinatorKilledBeforeCommitAborts(t *testing.T) {
	g := openTestGroup(t, 4)
	a, b := findCrossShardPair(g.Router())
	sa, sb := g.Router().Owner(a), g.Router().Owner(b)
	g.SetTxnStageHook(func(stage TxnStage, txn uint64, parts []int) {
		if stage == StagePrepared {
			if err := g.Failover(sa); err != nil {
				t.Errorf("failover: %v", err)
			}
		}
	})
	outcomes, err := g.ApplyBatchEx(crossShardBatch(a, b, "doomed"))
	g.SetTxnStageHook(nil)
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("err = %v, want ErrTxnAborted", err)
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err %T does not carry a BatchError", err)
	}
	for _, s := range []int{sa, sb} {
		if outcomes[s].State != OutcomeAborted {
			t.Fatalf("shard %d outcome %v, want aborted", s, outcomes[s].State)
		}
	}
	for _, id := range []graph.VertexID{a, b} {
		if _, ok, _ := g.GetEdge(id, graph.ETypeFollow, 1000); ok {
			t.Fatalf("aborted txn visible on owner of %d", id)
		}
	}
	for _, s := range []int{sa, sb} {
		st, err := scanShardTxns(g.Store(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.inDoubt()) != 0 {
			t.Fatalf("shard %d left in doubt after abort: %v", s, st.inDoubt())
		}
		if st.commits[0] || len(st.commits) != 0 {
			t.Fatalf("shard %d has a commit decision after abort", s)
		}
	}
	// The group keeps working: retrying the batch commits it.
	if err := g.ApplyBatch(crossShardBatch(a, b, "retry")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []graph.VertexID{a, b} {
		if _, ok, err := g.GetEdge(id, graph.ETypeFollow, 1000); err != nil || !ok {
			t.Fatalf("retried batch missing on owner of %d (ok=%v err=%v)", id, ok, err)
		}
	}
}

// A participant killed after the decision still converges: the commit is
// durable on the coordinator, so the apply retries against the new
// leader (or the failover's resolution pass re-applies the prepare) and
// the batch ends fully applied on every owner.
func TestTxnParticipantKilledAfterDecisionApplies(t *testing.T) {
	g := openTestGroup(t, 4)
	a, b := findCrossShardPair(g.Router())
	sb := g.Router().Owner(b)
	g.SetTxnStageHook(func(stage TxnStage, txn uint64, parts []int) {
		if stage == StageDecided {
			if err := g.Failover(sb); err != nil {
				t.Errorf("failover: %v", err)
			}
		}
	})
	err := g.ApplyBatch(crossShardBatch(a, b, "decided"))
	g.SetTxnStageHook(nil)
	if err != nil {
		// The apply may have lost the race with the fence entirely; the
		// resolution pass must still have completed the commit.
		t.Logf("apply returned %v; verifying resolution applied the batch", err)
	}
	for _, id := range []graph.VertexID{a, b} {
		if _, ok, gerr := g.GetEdge(id, graph.ETypeFollow, 1000); gerr != nil || !ok {
			t.Fatalf("committed txn missing on owner of %d (ok=%v err=%v)", id, ok, gerr)
		}
	}
	for _, s := range []int{g.Router().Owner(a), sb} {
		st, serr := scanShardTxns(g.Store(s))
		if serr != nil {
			t.Fatal(serr)
		}
		if len(st.inDoubt()) != 0 {
			t.Fatalf("shard %d in doubt after commit: %v", s, st.inDoubt())
		}
	}
}

// ApplyBatchEx returns per-shard outcomes on success too: touched shards
// report committed, untouched ones skipped.
func TestApplyBatchExOutcomes(t *testing.T) {
	g := openTestGroup(t, 4)
	a, b := findCrossShardPair(g.Router())
	sa, sb := g.Router().Owner(a), g.Router().Owner(b)
	outcomes, err := g.ApplyBatchEx(crossShardBatch(a, b, "ok"))
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outcomes))
	}
	for i, o := range outcomes {
		want := OutcomeSkipped
		if i == sa || i == sb {
			want = OutcomeCommitted
		}
		if o.Shard != i || o.State != want {
			t.Fatalf("outcome[%d] = {%d %v}, want {%d %v}", i, o.Shard, o.State, i, want)
		}
	}
	// Single-shard fast path through the Ex surface.
	outcomes, err = g.ApplyBatchEx([]graph.Mutation{
		graph.AddEdgeMut(graph.Edge{Src: a, Dst: 3000, Type: graph.ETypeFollow}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		want := OutcomeSkipped
		if i == sa {
			want = OutcomeCommitted
		}
		if o.State != want {
			t.Fatalf("single-shard outcome[%d] = %v, want %v", i, o.State, want)
		}
	}
}

// TestTxnEvidenceSurvivesTrim: every leader trims its WAL on its checkpoint
// cadence, and a transaction's records outlive the trim for as long as the
// group holds the transaction. A coordinator is killed with the transaction in
// doubt (StagePrepared) and, in a second group, decided (StageDecided); first,
// every shard runs two rotations of checkpoints, which would trim its log past
// where the transaction began and trim it as far as the transaction lets
// them. The coordinator's retained log still holds its prepare and, decided,
// its commit; the failover's resolution pass settles the prepare; and the
// batch ends all-or-nothing.
func TestTxnEvidenceSurvivesTrim(t *testing.T) {
	for _, tc := range []struct {
		stage  TxnStage
		commit bool
	}{{StagePrepared, false}, {StageDecided, true}} {
		t.Run(fmt.Sprintf("stage=%d", tc.stage), func(t *testing.T) {
			g, err := Open(2, &storage.Options{ExtentSize: 4 << 10},
				replication.RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16}}})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			a, b := findCrossShardPair(g.Router())
			coord := g.Router().Owner(a)
			write := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if err := g.AddEdge(graph.Edge{Src: graph.VertexID(10 + i%50), Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
						t.Fatal(err)
					}
				}
			}
			heads := make([]uint64, g.Shards())
			for i := range heads {
				write(300)
				if _, err := g.Leader(i).WriteSnapshot(); err != nil {
					t.Fatal(err)
				}
				write(300)
				if err := g.Leader(i).Checkpoint(); err != nil {
					t.Fatal(err)
				}
				_, heads[i] = g.Store(i).Head(storage.StreamWAL)
			}
			resolvedBefore := g.txnResolved.Load()
			g.SetTxnStageHook(func(stage TxnStage, txn uint64, parts []int) {
				if stage != tc.stage {
					return
				}
				for i := 0; i < g.Shards(); i++ {
					write(200)
					for r := 0; r < 2; r++ {
						if _, err := g.Leader(i).WriteSnapshot(); err != nil {
							t.Error(err)
						}
					}
					if _, horizon := g.Store(i).Head(storage.StreamWAL); horizon <= heads[i] {
						t.Errorf("shard %d: two rotations left the trim at lsn %d", i, horizon)
					}
				}
				st, err := scanShardTxns(g.Store(coord))
				if err != nil {
					t.Error(err)
				}
				if st.prepares[txn] == nil || st.commits[txn] != tc.commit {
					t.Errorf("coordinator's retained log: prepare %v, commit %v; want the prepare, commit %v",
						st.prepares[txn] != nil, st.commits[txn], tc.commit)
				}
				if err := g.Failover(coord); err != nil {
					t.Errorf("failover: %v", err)
				}
			})
			err = g.ApplyBatch(crossShardBatch(a, b, "held"))
			g.SetTxnStageHook(nil)
			if tc.commit != (err == nil) {
				t.Fatalf("batch: %v, want committed %v", err, tc.commit)
			}
			if got := g.txnResolved.Load() - resolvedBefore; got != 1 {
				t.Fatalf("the failover resolved %d in-doubt prepares, want the transaction's", got)
			}
			for _, id := range []graph.VertexID{a, b} {
				if _, ok, err := g.GetEdge(id, graph.ETypeFollow, 1000); err != nil || ok != tc.commit {
					t.Fatalf("edge of %d: present %v (%v), want %v on both owners", id, ok, err, tc.commit)
				}
			}
		})
	}
}
