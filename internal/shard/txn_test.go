package shard

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/replication"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// testPart is a part with a write of every mutation kind.
func testPart(tb testing.TB) []forest.Write {
	return encodeBatch(tb, []graph.Mutation{
		graph.AddVertexMut(graph.Vertex{
			ID: 11, Type: graph.VTypeUser,
			Props: graph.Properties{{Name: "n", Value: []byte("alice")}},
		}),
		graph.AddEdgeMut(graph.Edge{
			Src: 11, Dst: 22, Type: graph.ETypeFollow,
			Props: graph.Properties{{Name: "w", Value: []byte{1, 2, 3}}},
		}),
		graph.DeleteEdgeMut(11, graph.ETypeLike, 33),
	})
}

// A part round-trips the writes of every mutation kind, on both carriers, and
// re-encodes canonically.
func TestPrepareCodecRoundTrip(t *testing.T) {
	for _, part := range [][]forest.Write{
		testPart(t),
		{{Owner: 1, Key: graph.EdgeKey(1, 2), Delete: true}}, // deletes only, none with a value
	} {
		buf := EncodePart(part)
		for _, typ := range []wal.RecordType{wal.RecordTxnPrepare, wal.RecordTxnCommit} {
			got, err := DecodePrepareRecord(&wal.Record{Type: typ, TreeID: 7, PageID: 1, Value: buf})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, part) {
				t.Fatalf("%v round trip mismatch:\n in %+v\nout %+v", typ, part, got)
			}
			if re := EncodePart(got); string(re) != string(buf) {
				t.Fatal("re-encode is not canonical")
			}
		}
	}
}

// Every structural defect is rejected fail-closed: each malformed fuzz seed,
// a trailing byte, and every cut through a write.
func TestPrepareDecodeFailClosed(t *testing.T) {
	decode := func(buf []byte, txn uint64) error {
		_, err := DecodePrepareRecord(&wal.Record{Type: wal.RecordTxnPrepare, TreeID: txn, Value: buf})
		return err
	}
	for _, s := range prepareSeeds(t) {
		err := decode(s.data, s.txn)
		if valid := s.name == "valid" || s.name == "commit-valid"; valid != (err == nil) {
			t.Errorf("%s: err = %v", s.name, err)
		}
		if err != nil && !errors.Is(err, ErrBadPrepare) {
			t.Errorf("%s: err = %v, want ErrBadPrepare", s.name, err)
		}
	}
	one := EncodePart(testPart(t)[:1])
	if err := decode(append(one, 0), 7); !errors.Is(err, ErrBadPrepare) {
		t.Errorf("trailing byte: err = %v, want ErrBadPrepare", err)
	}
	for n := 1; n < len(one); n++ {
		if err := decode(one[:n], 7); !errors.Is(err, ErrBadPrepare) {
			t.Errorf("write cut at %d of %d bytes: err = %v, want ErrBadPrepare", n, len(one), err)
		}
	}
}

// DecodePrepareRecord takes the part of a prepare or a commit of a nonzero
// transaction, and nothing else, whatever the value.
func TestDecodePrepareRecordCrossChecks(t *testing.T) {
	buf := EncodePart(testPart(t))
	for name, rec := range map[string]*wal.Record{
		"a put":         {Type: wal.RecordPut, TreeID: 7, Value: buf},
		"an abort":      {Type: wal.RecordTxnAbort, TreeID: 7, Value: buf},
		"transaction 0": {Type: wal.RecordTxnPrepare, TreeID: 0, Value: buf},
	} {
		if _, err := DecodePrepareRecord(rec); !errors.Is(err, ErrBadPrepare) {
			t.Fatalf("%s carrying a part: err = %v, want ErrBadPrepare", name, err)
		}
	}
}

// A part's record names its coordinator, and only two things about that name
// can be wrong. A prepare whose coordinator is outside the group has no
// decision anywhere: the resolution pass aborts it, and never indexes the
// group's stores with it. A commit is the coordinator's own part only on the
// coordinator's log: on another shard's it is no part to redo there.
func TestTxnCoordinatorOutsideTheGroupAborts(t *testing.T) {
	g := openTestGroup(t, 4)
	const txn, commitTxn = 1 << 40, 1<<40 + 1
	ws := encodeBatch(t, []graph.Mutation{graph.AddEdgeMut(graph.Edge{Src: 5, Dst: 6, Type: graph.ETypeFollow})})
	for _, rec := range []*wal.Record{
		{Type: wal.RecordTxnPrepare, TreeID: txn, PageID: 7, Value: EncodePart(ws)},
		{Type: wal.RecordTxnCommit, TreeID: commitTxn, PageID: 1, Value: EncodePart(ws)},
	} {
		if _, err := g.Leader(2).Logger().Log(rec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := scanShardTxns(g.Store(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := st.parts[txn]; !ok || p.coord != 7 || !reflect.DeepEqual(p.writes, ws) {
		t.Fatalf("the prepare's part: %+v (%v), want coordinator 7 and its writes", p, ok)
	}
	if _, ok := st.parts[commitTxn]; ok || !st.commits[commitTxn] {
		t.Fatalf("a commit naming shard 1 on shard 2's log: part %v, decision %v; want a decision and no part", ok, st.commits[commitTxn])
	}
	if err := g.Failover(2); err != nil {
		t.Fatal(err)
	}
	// One abort marker, for the prepare; the commit is a decision, not a part.
	for id, want := range map[uint64][]wal.RecordType{
		txn:       {wal.RecordTxnPrepare, wal.RecordTxnAbort},
		commitTxn: {wal.RecordTxnCommit},
	} {
		if got := trail(t, g.Store(2), id, "none"); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard 2 logged %v for txn %d, want %v", got, id, want)
		}
	}
	if _, ok, err := g.Leader(2).GetEdge(5, graph.ETypeFollow, 6); err != nil || ok {
		t.Fatalf("the aborted part is readable on shard 2 (%v)", err)
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

// trail is the part of shard st's retained log that belongs to transaction
// txn of a crossShardBatch tagged tag, in LSN order: its control records and
// the puts carrying tag.
func trail(t *testing.T, st *storage.Store, txn uint64, tag string) []wal.RecordType {
	t.Helper()
	var out []wal.RecordType
	reader := wal.NewReaderAtHead(st)
	for {
		groups, err := reader.PollGroups()
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) == 0 {
			return out
		}
		for _, grp := range groups {
			for _, rec := range grp {
				switch rec.Type {
				case wal.RecordTxnPrepare, wal.RecordTxnCommit, wal.RecordTxnAbort, wal.RecordTxnApplied:
					if rec.TreeID == txn {
						out = append(out, rec.Type)
					}
				case wal.RecordPut:
					if ps, err := graph.DecodeProps(rec.Value); err == nil {
						if v, _ := ps.Get("t"); string(v) == tag {
							out = append(out, rec.Type)
						}
					}
				}
			}
		}
	}
}

// A committed multi-shard batch leaves the 2PC record trail on the durable
// prefix — a prepare on the participant, none on the coordinator, whose
// commit carries its own part; on each shard its part's records, then its
// one applied marker — and the data is readable. Single-shard batches leave
// zero transaction records.
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
		st, err := scanShardTxns(g.Store(s), s)
		if err != nil {
			t.Fatal(err)
		}
		states[s] = st
	}
	var txn uint64
	for id := range states[sa].commits {
		txn = id
	}
	if txn == 0 {
		t.Fatalf("no commit on coordinator %d", sa)
	}
	batch := crossShardBatch(a, b, "x")
	parts := map[int][]forest.Write{sa: encodeBatch(t, batch[:1]), sb: encodeBatch(t, batch[1:])}
	for _, s := range []int{sa, sb} {
		st := states[s]
		if len(st.parts) != 1 {
			t.Fatalf("shard %d carries %d parts, want 1 (single-shard batch leaked records?)", s, len(st.parts))
		}
		p, ok := st.parts[txn]
		if !ok {
			t.Fatalf("shard %d carries no part of txn %d", s, txn)
		}
		if p.coord != uint64(sa) {
			t.Fatalf("shard %d's part names coordinator %d, want %d", s, p.coord, sa)
		}
		if !reflect.DeepEqual(p.writes, parts[s]) {
			t.Fatalf("shard %d carries %v, want its part %v", s, p.writes, parts[s])
		}
		if len(st.inDoubt()) != 0 {
			t.Fatalf("shard %d still in doubt: %v", s, st.inDoubt())
		}
	}
	if states[sb].commits[txn] {
		t.Fatalf("participant %d logged a commit decision", sb)
	}
	want := map[int][]wal.RecordType{
		sa: {wal.RecordTxnCommit, wal.RecordPut, wal.RecordTxnApplied},
		sb: {wal.RecordTxnPrepare, wal.RecordPut, wal.RecordTxnApplied},
	}
	for s, w := range want {
		if got := trail(t, g.Store(s), txn, "x"); !reflect.DeepEqual(got, w) {
			t.Fatalf("shard %d logged %v, want %v", s, got, w)
		}
	}
	// The group's registry times each stage of the one transaction.
	snap := g.Metrics().Snapshot()
	for _, stage := range []string{"shard.txn_prepare_us", "shard.txn_commit_us", "shard.txn_apply_us"} {
		if h := snap[stage].Histogram; h == nil || h.Count != 1 {
			t.Fatalf("%s: %+v, want one observation", stage, h)
		}
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
		st, err := scanShardTxns(g.Store(s), s)
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
		st, serr := scanShardTxns(g.Store(s), s)
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
// group holds the transaction. The participant is killed with the transaction
// in doubt (StagePrepared) and, in a second group, decided (StageDecided: the
// coordinator's wave applied its own part); first, every shard runs two
// rotations of checkpoints, which would trim its log past where the
// transaction began and trim it as far as the transaction lets them. The
// participant's retained log still holds its prepare; the coordinator's holds
// nothing of the undecided transaction, and of the decided one its commit
// carrying its part, then the part, then its marker; the failover's
// resolution pass settles the prepare; and the batch ends all-or-nothing.
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
			coord, part := g.Router().Owner(a), g.Router().Owner(b)
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
				_, heads[i], _ = g.Store(i).Head(storage.StreamWAL)
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
					if _, horizon, _ := g.Store(i).Head(storage.StreamWAL); horizon <= heads[i] {
						t.Errorf("shard %d: two rotations left the trim at lsn %d", i, horizon)
					}
				}
				if st, err := scanShardTxns(g.Store(part), part); err != nil || len(st.parts[txn].writes) == 0 {
					t.Errorf("participant's retained log holds no prepare (%v)", err)
				}
				want := []wal.RecordType(nil)
				if tc.commit {
					want = []wal.RecordType{wal.RecordTxnCommit, wal.RecordPut, wal.RecordTxnApplied}
				}
				if got := trail(t, g.Store(coord), txn, "held"); !reflect.DeepEqual(got, want) {
					t.Errorf("coordinator's retained log: %v, want %v", got, want)
				}
				if err := g.Failover(part); err != nil {
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

// A coordinator whose commit wave is cut short after the commit record — the
// wave takes two groups and the node dies appending the second — has
// committed: the other participant applies its part, and the failover's
// resolution pass re-applies the coordinator's part from the payload its
// commit carries, then marks it.
func TestTxnCommitWaveCutShortReappliesTheCoordinatorsPart(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 1})
	g, err := Open(2, &storage.Options{Faults: plan}, replication.RWOptions{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a, b := findCrossShardPair(g.Router())
	coord, part := g.Router().Owner(a), g.Router().Owner(b)
	props := graph.Properties{{Name: "t", Value: []byte("cut")}}
	var muts []graph.Mutation
	for dst := graph.VertexID(1); dst <= 20; dst++ { // past one group of 16
		muts = append(muts, graph.AddEdgeMut(graph.Edge{Src: a, Dst: dst, Type: graph.ETypeFollow, Props: props}))
	}
	muts = append(muts, graph.AddEdgeMut(graph.Edge{Src: b, Dst: 1, Type: graph.ETypeFollow, Props: props}))
	g.SetTxnStageHook(func(stage TxnStage, _ uint64, _ []int) {
		if stage == StagePrepared {
			plan.ScheduleCrash(2) // the wave's second group
		} else {
			plan.ClearCrash()
		}
	})
	outcomes, err := g.ApplyBatchEx(muts)
	g.SetTxnStageHook(nil)
	if err == nil || outcomes[coord].State != OutcomeUnknown || outcomes[part].State != OutcomeCommitted {
		t.Fatalf("outcomes %v (%v), want the coordinator's part unknown and the participant's committed", outcomes, err)
	}
	st, err := scanShardTxns(g.Store(coord), coord)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.commits) != 1 || len(st.inDoubt()) != 1 {
		t.Fatalf("coordinator's log: %d commits, %d parts in doubt; want the one commit, in doubt", len(st.commits), len(st.inDoubt()))
	}
	reapplied := g.txnReapply.Load()
	if err := g.Failover(coord); err != nil {
		t.Fatal(err)
	}
	if got := g.txnReapply.Load() - reapplied; got != 1 {
		t.Fatalf("the failover re-applied %d parts, want the coordinator's", got)
	}
	for _, m := range muts {
		if _, ok, err := g.GetEdge(m.Edge.Src, m.Edge.Type, m.Edge.Dst); err != nil || !ok {
			t.Fatalf("edge %d->%d missing after the resolution (%v)", m.Edge.Src, m.Edge.Dst, err)
		}
	}
	if st, err = scanShardTxns(g.Store(coord), coord); err != nil || len(st.inDoubt()) != 0 {
		t.Fatalf("coordinator still in doubt after the resolution: %v (%v)", st.inDoubt(), err)
	}
}

// nextLeader waits out the failover under way and hands back its leader; with
// none under way it has nothing to wait for.
func TestNextLeaderWaitsOutAFailover(t *testing.T) {
	g := openTestGroup(t, 2)
	old := g.Leader(1)
	if next := g.nextLeader(1, old); next != nil {
		t.Fatal("a next leader with no failover under way")
	}
	g.turnover(1, 1) // a failover of shard 1 is under way
	got := make(chan *replication.RWNode)
	go func() { got <- g.nextLeader(1, old) }()
	if err := g.Failover(1); err != nil {
		t.Fatal(err)
	}
	if next := <-got; next == nil || next != g.Leader(1) || next == old {
		t.Fatalf("next leader %p, want the promoted %p", next, g.Leader(1))
	}
	g.turnover(1, -1)
}

// A participant's apply fenced by a racing failover waits for the failover
// to end and applies on the promoted leader, instead of giving the part up to
// the next resolution pass: the batch commits on every shard.
func TestTxnApplyFollowsARacingFailover(t *testing.T) {
	g := openTestGroup(t, 2)
	a, b := findCrossShardPair(g.Router())
	part := g.Router().Owner(b)
	done := make(chan error, 1)
	g.SetTxnStageHook(func(stage TxnStage, _ uint64, _ []int) {
		if stage != StageDecided {
			return
		}
		// A failover of the participant begins and fences its leader before
		// the apply reaches it; it promotes once the apply was refused.
		old := g.Leader(part)
		g.turnover(part, 1)
		if _, err := g.Store(part).AdvanceStreamEpoch(storage.StreamWAL); err != nil {
			t.Error(err)
		}
		go func() {
			defer g.turnover(part, -1)
			for old.Writer().Err() == nil {
				runtime.Gosched()
			}
			done <- g.Failover(part)
		}()
	})
	outcomes, err := g.ApplyBatchEx(crossShardBatch(a, b, "raced"))
	g.SetTxnStageHook(nil)
	if ferr := <-done; ferr != nil {
		t.Fatal(ferr)
	}
	if err != nil {
		t.Fatalf("batch: %v (outcomes %v), want it committed on every shard", err, outcomes)
	}
	for _, id := range []graph.VertexID{a, b} {
		if _, ok, err := g.GetEdge(id, graph.ETypeFollow, 1000); err != nil || !ok {
			t.Fatalf("edge of %d missing (%v)", id, err)
		}
	}
}

// A malformed batch over several shards fails whole, before its first
// prepare. The bad mutation sits in the part of the shard that is not the
// coordinator: checked where each part was applied, the coordinator's part
// committed, the other failed its apply, every resolution pass failed on it
// again, and the transaction's hold kept every trim back. Checked once up
// front, no shard commits or logs anything of the batch, no reader sees it,
// every shard fails over, and a rotation trims each log past it.
func TestMalformedBatchFailsBeforeItsFirstPrepare(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(src graph.VertexID) graph.Mutation
	}{
		{"reserved-edge-type", func(src graph.VertexID) graph.Mutation {
			return graph.AddEdgeMut(graph.Edge{Src: src, Dst: 1000, Type: 0xFFFF})
		}},
		{"unknown-kind", func(src graph.VertexID) graph.Mutation {
			return graph.Mutation{Kind: 99, Edge: graph.Edge{Src: src, Dst: 1000, Type: graph.ETypeFollow}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Open(4, &storage.Options{ExtentSize: 4 << 10},
				replication.RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 16}}})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			a, b := findCrossShardPair(g.Router())
			batch := []graph.Mutation{graph.AddEdgeMut(graph.Edge{Src: a, Dst: 1000, Type: graph.ETypeFollow}), tc.bad(b)}
			outcomes, err := g.ApplyBatchEx(batch)
			if err == nil {
				t.Fatal("the malformed batch was accepted")
			}
			for _, o := range outcomes {
				if o.State == OutcomeCommitted {
					t.Errorf("shard %d committed its part of a malformed batch (%v)", o.Shard, err)
				}
			}
			snap := g.Snapshot()
			for name, rd := range map[string]graph.Reader{"leader": g, "snapshot": snap} {
				if _, ok, _ := rd.GetEdge(a, graph.ETypeFollow, 1000); ok {
					t.Errorf("the %s reads the coordinator's part of a malformed batch", name)
				}
			}
			snap.Close()
			logged := make([]wal.LSN, g.Shards())
			for i := range logged {
				logged[i] = g.Leader(i).LastLSN()
				if st, err := scanShardTxns(g.Store(i), i); err != nil || len(st.parts)+len(st.commits) != 0 {
					t.Errorf("shard %d logged %d parts and %d commits of the batch (%v)", i, len(st.parts), len(st.commits), err)
				}
			}
			for i := range logged {
				if err := g.Failover(i); err != nil {
					t.Fatalf("failover of shard %d: %v", i, err)
				}
			}
			for i := 0; i < 1000; i++ { // a few extents of log on every shard
				if err := g.AddEdge(graph.Edge{Src: graph.VertexID(10 + i%50), Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
					t.Fatal(err)
				}
			}
			for i := range logged {
				if _, err := g.Leader(i).WriteSnapshot(); err != nil {
					t.Fatal(err)
				}
				if _, horizon, _ := g.Store(i).Head(storage.StreamWAL); wal.LSN(horizon) <= logged[i] {
					t.Errorf("shard %d: a rotation trimmed its log to lsn %d, not past the batch at %d", i, horizon, logged[i])
				}
			}
		})
	}
}
