package shard

import (
	"math/rand"
	"slices"
	"testing"

	"bg3/internal/mvcc"
)

// 2PC state-machine property test: random interleavings of prepare /
// decide / failover / recover over a fake storage, driving the real
// mvcc.Source epoch clocks and the real txnManager with its cut lock, and
// asserting after every step that no shard's released epoch exposes an
// undecided transaction — visible transaction data always belongs to a
// committed transaction and is visible completely or not at all per shard —
// and, whenever the cut lock can be write-held (a Snapshot could sample),
// that the shards' released epochs together hold every transaction on all
// of its participants or on none.
//
// The fake mirrors the real protocol's moving parts: one epoch clock and
// append-only log per shard (every append is durable and releases a
// group boundary), prepares on every participant but the coordinator, a
// read hold of the cut lock from the decision until the transaction
// finishes, the coordinator's commit wave (the commit record carrying its
// part — the durable decision — then the part and its applied marker), one
// apply wave per other participant, and failovers that replace the shard's
// clock with a fresh one at the durable horizon followed by an in-doubt
// resolution pass, which takes no lock. A commit wave may be cut after its
// commit record by its leader's death: recovery then re-applies the
// coordinator's part from the commit.

type fakeKind uint8

const (
	fkPrepare fakeKind = iota + 1
	fkCommit
	fkAbort
	fkApplied
	fkData
)

type fakeRec struct {
	lsn  uint64
	kind fakeKind
	txn  uint64
	idx  int // data slot within the sub-batch
}

type fakeShard struct {
	src     *mvcc.Source
	nextLSN uint64
	log     []fakeRec
}

// append durably logs one record and releases it as a group boundary
// (the committer's OnRelease).
func (s *fakeShard) append(k fakeKind, txn uint64, idx int) uint64 {
	s.nextLSN++
	s.log = append(s.log, fakeRec{lsn: s.nextLSN, kind: k, txn: txn, idx: idx})
	s.src.Advance(mvcc.Epoch(s.nextLSN))
	return s.nextLSN
}

// wave applies txn's part on s and logs its applied marker after it, after
// the commit record when commit is set (applyPart).
func (s *fakeShard) wave(txn uint64, commit bool) {
	if commit {
		s.append(fkCommit, txn, 0)
	}
	for idx := 0; idx < subSize; idx++ {
		s.append(fkData, txn, idx)
	}
	s.append(fkApplied, txn, 0)
}

// subSize is the number of data slots each participant applies per
// transaction — two, so a torn apply is detectable.
const subSize = 2

type ptxn struct {
	id        uint64
	parts     []int
	coord     int
	coordSrc  *mvcc.Source // the coordinator's clock when the transaction began
	preps     []int        // the participants that prepare: all but the coordinator
	prepOrder int          // next preps index to prepare
	cutHeld   bool         // read-holds the manager's cut lock
	decided   bool
	committed bool
	appliedBy map[int]bool // participant fully applied (driver or resolution)
	done      bool
}

type pharness struct {
	t      *testing.T
	rng    *rand.Rand
	shards []*fakeShard
	mgr    *txnManager
	txns   map[uint64]*ptxn
	active []*ptxn
	nextID uint64

	// decisions records every settled transaction (true = commit); a
	// transaction absent here is undecided.
	decisions map[uint64]bool

	// coverage counters (aggregated across seeds by the caller)
	commits, aborts, forceAborts, coordAborts, resolveApplies, coordReapplies, cuts int
}

func newPHarness(t *testing.T, rng *rand.Rand, nShards int) *pharness {
	h := &pharness{
		t: t, rng: rng, mgr: newTxnManager(),
		txns: make(map[uint64]*ptxn), decisions: make(map[uint64]bool),
	}
	for i := 0; i < nShards; i++ {
		h.shards = append(h.shards, &fakeShard{src: mvcc.NewSource(0)})
	}
	return h
}

func (h *pharness) startTxn() {
	n := 2 + h.rng.Intn(len(h.shards)-1)
	parts := h.rng.Perm(len(h.shards))[:n]
	slices.Sort(parts) // ascending, like SplitBatch's output
	h.nextID++
	t := &ptxn{
		id: h.nextID, parts: parts, coord: parts[0], coordSrc: h.shards[parts[0]].src, preps: parts[1:],
		appliedBy: make(map[int]bool),
	}
	h.mgr.begin(t.id, nil)
	h.txns[t.id] = t
	h.active = append(h.active, t)
}

// stepTxn advances one transaction by one protocol step.
func (h *pharness) stepTxn(t *ptxn) {
	switch {
	case t.prepOrder < len(t.preps):
		// Prepare the next participant: log the intent.
		h.shards[t.preps[t.prepOrder]].append(fkPrepare, t.id, 0)
		t.prepOrder++
	case !t.decided:
		t.decided = true
		h.mgr.cut.RLock() // the coordinator's wave begins the cut window
		t.cutHeld = true
		if h.shards[t.coord].src != t.coordSrc {
			// The coordinator failed over while its participants prepared.
			h.mgr.decide(t.id, false)
			h.decisions[t.id] = false
			h.coordAborts++
			h.abortTxn(t)
			return
		}
		if !h.mgr.tryDecide(t.id) {
			// Force-aborted by a failover's resolution pass.
			h.decisions[t.id] = false
			h.forceAborts++
			h.abortTxn(t)
			return
		}
		if h.rng.Intn(4) == 0 { // the commit wave failed: nothing of it is durable
			h.decisions[t.id] = false
			h.mgr.decide(t.id, false)
			h.aborts++
			h.abortTxn(t)
			return
		}
		sh := h.shards[t.coord]
		torn := h.rng.Intn(3) == 0
		if torn {
			// The commit lands, the coordinator's leader dies before the
			// rest of its wave.
			sh.append(fkCommit, t.id, 0)
		} else {
			sh.wave(t.id, true)
			t.appliedBy[t.coord] = true
		}
		h.decisions[t.id] = true
		h.mgr.decide(t.id, true)
		t.committed = true
		h.commits++
		if torn {
			h.failover(t.coord)
		}
	default:
		// Apply the next pending participant, or finish.
		for _, s := range t.parts {
			if t.appliedBy[s] {
				continue
			}
			h.shards[s].wave(t.id, false)
			t.appliedBy[s] = true
			return
		}
		h.finishTxn(t)
	}
}

// abortTxn logs abort markers on every prepared participant and settles.
func (h *pharness) abortTxn(t *ptxn) {
	for _, s := range t.preps[:t.prepOrder] {
		h.shards[s].append(fkAbort, t.id, 0)
	}
	h.finishTxn(t)
}

func (h *pharness) finishTxn(t *ptxn) {
	if t.cutHeld {
		h.mgr.cut.RUnlock()
	}
	h.mgr.end(t.id, nil)
	t.done = true
	for i, a := range h.active {
		if a == t {
			h.active = append(h.active[:i], h.active[i+1:]...)
			break
		}
	}
}

// failover replaces shard s's epoch clock with a fresh one at the
// durable horizon (the promoted leader's recovery point) and runs the
// in-doubt resolution pass, exactly like Group.Failover: every durable part
// with no local outcome marker — a prepare, or a commit carrying the
// coordinator's part — is re-applied if committed and aborted otherwise.
func (h *pharness) failover(s int) {
	sh := h.shards[s]
	sh.src = mvcc.NewSource(mvcc.Epoch(sh.nextLSN))
	resolved := make(map[uint64]bool)
	var indoubt []uint64
	for _, r := range sh.log {
		switch r.kind {
		case fkAbort, fkApplied:
			resolved[r.txn] = true
		}
	}
	for _, r := range sh.log {
		if (r.kind == fkPrepare || r.kind == fkCommit) && !resolved[r.txn] {
			indoubt = append(indoubt, r.txn)
			resolved[r.txn] = true // dedup
		}
	}
	for _, id := range indoubt {
		t := h.txns[id]
		committed, known := h.mgr.resolveLive(id)
		if !known {
			// Consult the coordinator's durable prefix.
			for _, r := range h.shards[t.coord].log {
				if r.kind == fkCommit && r.txn == id {
					committed = true
				}
			}
		} else if !committed {
			h.decisions[id] = false
		}
		if committed {
			sh.wave(id, false)
			h.resolveApplies++
			if s == t.coord {
				h.coordReapplies++
			}
			if !t.done {
				t.appliedBy[s] = true
			}
		} else {
			sh.append(fkAbort, id, 0)
		}
	}
}

// checkInvariant asserts, for every shard at its currently released
// epoch: any visible transaction data belongs to a committed
// transaction, and per (transaction, shard) the data slots are visible
// completely or not at all.
func (h *pharness) checkInvariant(when string) {
	h.t.Helper()
	for s, sh := range h.shards {
		e := uint64(sh.src.Current())
		visible := make(map[uint64]map[int]bool)
		for _, r := range sh.log {
			if r.kind == fkData && r.lsn <= e {
				if visible[r.txn] == nil {
					visible[r.txn] = make(map[int]bool)
				}
				visible[r.txn][r.idx] = true
			}
		}
		for id, idxs := range visible {
			committed, decided := h.decisions[id]
			if !decided {
				h.t.Fatalf("%s: shard %d epoch %d exposes data of undecided txn %d", when, s, e, id)
			}
			if !committed {
				h.t.Fatalf("%s: shard %d epoch %d exposes data of aborted txn %d", when, s, e, id)
			}
			if len(idxs) != subSize {
				h.t.Fatalf("%s: shard %d epoch %d exposes torn txn %d: %d of %d slots",
					when, s, e, id, len(idxs), subSize)
			}
		}
	}
	if !h.mgr.cut.TryLock() {
		return // a transaction is inside its cut window: no Snapshot samples now
	}
	defer h.mgr.cut.Unlock()
	h.cuts++
	for id, t := range h.txns {
		var on []int
		for _, s := range t.parts {
			if h.visible(s, id) {
				on = append(on, s)
			}
		}
		if len(on) != 0 && len(on) != len(t.parts) {
			h.t.Fatalf("%s: a cut would tear txn %d: visible on shards %v of %v", when, id, on, t.parts)
		}
	}
}

// visible reports whether shard s's released epoch shows data of txn.
func (h *pharness) visible(s int, txn uint64) bool {
	sh := h.shards[s]
	e := uint64(sh.src.Current())
	for _, r := range sh.log {
		if r.kind == fkData && r.txn == txn && r.lsn <= e {
			return true
		}
	}
	return false
}

func TestTxnStateMachineProperty(t *testing.T) {
	seeds := 40
	actions := 300
	if testing.Short() {
		seeds, actions = 10, 150
	}
	var commits, aborts, forceAborts, coordAborts, resolveApplies, coordReapplies, cuts int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		h := newPHarness(t, rng, 4)
		for a := 0; a < actions; a++ {
			switch {
			case len(h.active) == 0 || (len(h.active) < 3 && rng.Intn(3) == 0):
				h.startTxn()
			case rng.Intn(10) == 0:
				h.failover(rng.Intn(len(h.shards)))
			default:
				h.stepTxn(h.active[rng.Intn(len(h.active))])
			}
			h.checkInvariant("mid-run")
		}
		// Drain: finish every active transaction, then recover every
		// shard once more so nothing stays in doubt.
		for len(h.active) > 0 {
			h.stepTxn(h.active[0])
			h.checkInvariant("drain")
		}
		for s := range h.shards {
			h.failover(s)
			h.checkInvariant("final recover")
		}
		// Durable completeness: every committed transaction has all its
		// slots on every participant; aborted ones have none anywhere.
		for id, txn := range h.txns {
			committed := h.decisions[id]
			for _, s := range txn.parts {
				got := make(map[int]bool)
				for _, r := range h.shards[s].log {
					if r.kind == fkData && r.txn == id {
						got[r.idx] = true
					}
				}
				if committed && len(got) != subSize {
					t.Fatalf("seed %d: committed txn %d incomplete on shard %d: %d slots", seed, id, s, len(got))
				}
				if !committed && len(got) != 0 {
					t.Fatalf("seed %d: aborted txn %d left %d data slots on shard %d", seed, id, len(got), s)
				}
			}
		}
		commits += h.commits
		aborts += h.aborts
		forceAborts += h.forceAborts
		coordAborts += h.coordAborts
		resolveApplies += h.resolveApplies
		coordReapplies += h.coordReapplies
		cuts += h.cuts
	}
	// The interleavings must actually exercise every protocol path.
	if commits == 0 || aborts == 0 || forceAborts == 0 || coordAborts == 0 || resolveApplies == 0 || coordReapplies == 0 || cuts == 0 {
		t.Fatalf("coverage too thin: commits=%d aborts=%d forceAborts=%d coordAborts=%d resolveApplies=%d coordReapplies=%d cuts=%d",
			commits, aborts, forceAborts, coordAborts, resolveApplies, coordReapplies, cuts)
	}
	t.Logf("%d commits, %d cuts checked across shards", commits, cuts)
}
