package shard

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"bg3/internal/forest"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Cross-shard two-phase commit.
//
// Group.ApplyBatch checks and encodes a batch once, before anything is logged
// (core.Encode): a malformed batch fails there, on every shard alike. The
// writes are split by owner (Router.SplitBatch); a part is the forest writes
// one shard applies, and it is what a 2PC record carries (EncodePart) and what
// a resolution pass re-applies. A batch over several shards is a
// presumed-abort 2PC whose coordinator, the lowest touched shard, is the last
// agent: it does not prepare, its commit is its vote. Three serial durable
// rounds, 2N−1 appends for N shards:
//
//  1. PREPARE: every participant but the coordinator logs a RecordTxnPrepare
//     carrying its part, on its ordinary group-commit pipeline. Nothing is
//     applied, so an undecided prepare is invisible.
//  2. DECIDE: once every prepare is durable the coordinator runs one wave
//     (replication.RWNode.ApplyWave): a RecordTxnCommit carrying its own part,
//     the part, its RecordTxnApplied marker, one wait. The commit record's
//     durability is the decision. A failed prepare, a force-abort by a
//     resolution pass or a failover of the coordinator decides abort instead
//     (RecordTxnAbort on each prepared participant, best effort).
//  3. APPLY: every other participant applies its part and logs its marker in
//     one wave; only then is the client acked.
//
// Visibility is the group's decision: rounds 2 and 3 run under a read hold of
// the manager's cut lock and a Snapshot samples every shard under its write
// hold, so a cut holds every batch wholly or not at all.
//
// A durable part with no local Applied or Abort marker after it is in doubt. A
// resolution pass asks the live manager, then the coordinator's gapless
// durable prefix — a durable RecordTxnCommit means commit, anything else abort
// — and re-applies a committed part from the writes its record carries. The
// manager holds each participant's log from below the transaction's first
// record (lowWater) until the transaction is settled on every shard, so the
// trim keeps that evidence.

// A 2PC record's Value is the part it carries, and nothing else: everything
// else a resolution pass needs the record already says (TreeID is the
// transaction id, PageID the coordinator), and the group envelope's CRC covers
// every byte. A part is one or more forest writes, as core.Encode built them:
//
//	{ owner del[1] klen key vlen value }+
//
// owner, klen and vlen are uvarints in their shortest form (wal.ReadUvarints).
// The delete flag is 0 or 1, the key is not empty and a delete has no value.
// Decoding fails closed on any defect, and an accepted part re-encodes
// byte-identically. The writes are not checked again: core.Encode checked
// them before the first record was logged.

// ErrBadPrepare reports a 2PC record whose part does not decode.
var ErrBadPrepare = errors.New("shard: bad txn prepare payload")

// EncodePart serializes a part in the form above.
func EncodePart(ws []forest.Write) []byte {
	size := 0
	for _, w := range ws {
		size += wal.UvarintLen(uint64(w.Owner)) + 1 + wal.UvarintLen(uint64(len(w.Key))) + len(w.Key) +
			wal.UvarintLen(uint64(len(w.Value))) + len(w.Value)
	}
	buf := make([]byte, 0, size)
	for _, w := range ws {
		value, del := w.Value, byte(0)
		if w.Delete {
			value, del = nil, 1
		}
		buf = append(binary.AppendUvarint(buf, uint64(w.Owner)), del)
		buf = append(binary.AppendUvarint(buf, uint64(len(w.Key))), w.Key...)
		buf = append(binary.AppendUvarint(buf, uint64(len(value))), value...)
	}
	return buf
}

// DecodePrepareRecord decodes the part a record carries — a RecordTxnPrepare's,
// or the coordinator's own part on its RecordTxnCommit. A record of another
// type, of transaction 0 or with no writes is rejected. The writes alias
// rec.Value, which the log reader decoded into a buffer of the record's own.
func DecodePrepareRecord(rec *wal.Record) ([]forest.Write, error) {
	if rec.Type != wal.RecordTxnPrepare && rec.Type != wal.RecordTxnCommit {
		return nil, fmt.Errorf("%w: record type %v", ErrBadPrepare, rec.Type)
	}
	if rec.TreeID == 0 {
		return nil, fmt.Errorf("%w: zero txn id", ErrBadPrepare)
	}
	if len(rec.Value) == 0 {
		return nil, fmt.Errorf("%w: empty part", ErrBadPrepare)
	}
	var ws []forest.Write
	for buf := rec.Value; len(buf) > 0; {
		w, rest, ok := cutWrite(buf)
		if !ok {
			return nil, fmt.Errorf("%w: malformed write %d", ErrBadPrepare, len(ws))
		}
		ws, buf = append(ws, w), rest
	}
	return ws, nil
}

// cutWrite splits one write off the front of buf: the write and what follows
// it, ok false when it is malformed.
func cutWrite(buf []byte) (w forest.Write, rest []byte, ok bool) {
	var owner, klen, vlen uint64
	if rest, ok = wal.ReadUvarints(buf, &owner); !ok || len(rest) == 0 || rest[0] > 1 {
		return w, nil, false
	}
	w.Owner, w.Delete = forest.OwnerID(owner), rest[0] == 1
	if rest, ok = wal.ReadUvarints(rest[1:], &klen); !ok || klen == 0 || klen > uint64(len(rest)) {
		return w, nil, false
	}
	w.Key, rest = rest[:klen:klen], rest[klen:]
	if rest, ok = wal.ReadUvarints(rest, &vlen); !ok || vlen > uint64(len(rest)) || w.Delete && vlen > 0 {
		return w, nil, false
	}
	if vlen > 0 {
		w.Value = rest[:vlen:vlen]
	}
	return w, rest[vlen:], true
}

// txnPhase is a live transaction's protocol state in the group-level
// manager. Transitions: preparing → deciding → committed | aborted; a
// resolution pass force-aborts a transaction still preparing (its
// coordinator has not started deciding, so abort is safe) and waits out
// one mid-decision (the commit record's durability is about to be
// known).
type txnPhase int

const (
	txnPreparing txnPhase = iota
	txnDeciding
	txnCommitted
	txnAborted
)

// txnManager tracks in-flight cross-shard transactions so a concurrent
// failover's resolution pass never guesses against a decision that is
// being made on another goroutine, holds their records against the trim,
// and decides what a cut sees.
type txnManager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	txns  map[uint64]txnPhase
	holds map[uint64]*txnHold

	// cut is read-held by each transaction from its coordinator's wave to
	// its return and write-held by a Snapshot while it samples the shards.
	// An RWMutex queues new readers behind a waiting writer, so a Snapshot
	// waits for the apply phases in flight only and is never starved.
	cut sync.RWMutex
}

// txnHold keeps a transaction's records in the participants' logs: floor[i]
// is at or below every record of it on shard i. It is let go once the
// transaction ended and a resolution pass settled every participant its end
// left owed the apply of a commit.
type txnHold struct {
	floor   map[int]wal.LSN
	ended   bool
	owed    []int
	settled map[int]bool
}

func (h *txnHold) done() bool {
	for _, i := range h.owed {
		if !h.settled[i] {
			return false
		}
	}
	return h.ended
}

func newTxnManager() *txnManager {
	m := &txnManager{txns: make(map[uint64]txnPhase), holds: make(map[uint64]*txnHold)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// begin registers txn and holds each participant's log from floor on.
func (m *txnManager) begin(txn uint64, floor map[int]wal.LSN) {
	m.mu.Lock()
	m.txns[txn] = txnPreparing
	m.holds[txn] = &txnHold{floor: floor, settled: make(map[int]bool)}
	m.mu.Unlock()
}

// tryDecide moves preparing → deciding and reports whether the caller
// owns the decision; false means a resolution pass already force-aborted
// the transaction.
func (m *txnManager) tryDecide(txn uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.txns[txn] != txnPreparing {
		return false
	}
	m.txns[txn] = txnDeciding
	return true
}

func (m *txnManager) decide(txn uint64, committed bool) {
	m.mu.Lock()
	if committed {
		m.txns[txn] = txnCommitted
	} else {
		m.txns[txn] = txnAborted
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// end forgets a finished transaction. After this, resolution falls back
// to the coordinator's durable prefix — which is authoritative by then, and
// is held until the participants owed the apply of a commit have it
// (settle).
func (m *txnManager) end(txn uint64, owed []int) {
	m.mu.Lock()
	delete(m.txns, txn)
	if h := m.holds[txn]; h != nil {
		if h.ended, h.owed = true, owed; h.done() {
			delete(m.holds, txn)
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// settle records that a resolution pass resolved txn on shard i.
func (m *txnManager) settle(txn uint64, i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.holds[txn]; h != nil {
		if h.settled[i] = true; h.done() {
			delete(m.holds, txn)
		}
	}
}

// lowWater is the oldest LSN of shard i's log a held transaction may have a
// record at: the trim keeps everything from it on (replication.RWNode).
func (m *txnManager) lowWater(i int) wal.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	low := wal.LSN(math.MaxUint64)
	for _, h := range m.holds {
		if f, ok := h.floor[i]; ok {
			low = min(low, f)
		}
	}
	return low
}

// resolveLive resolves an in-doubt transaction against live state:
// known=false means the manager has no record (consult the coordinator's
// durable prefix). A transaction still preparing is force-aborted — its
// coordinator cannot have logged a commit yet, and after this its
// tryDecide fails, so the prepare fan-out aborts too. One mid-decision is
// waited out.
func (m *txnManager) resolveLive(txn uint64) (committed, known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		phase, ok := m.txns[txn]
		if !ok {
			return false, false
		}
		switch phase {
		case txnPreparing:
			m.txns[txn] = txnAborted
			m.cond.Broadcast()
			return false, true
		case txnCommitted:
			return true, true
		case txnAborted:
			return false, true
		case txnDeciding:
			m.cond.Wait()
		}
	}
}

// newTxnSalt draws a random starting point for the transaction id
// counter so ids from different Group instances over the same stores
// never collide.
func newTxnSalt() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed odd constant; ids stay unique within the
		// process, which is what correctness needs.
		return fibMul
	}
	return binary.LittleEndian.Uint64(b[:])
}

// txnPart is a durable part as a scan found it: the coordinator its record
// names and the writes it carries.
type txnPart struct {
	coord  uint64
	writes []forest.Write
}

// shardTxnState summarizes one shard's durable transaction records, as
// recovery sees them: only the gapless WAL prefix counts.
type shardTxnState struct {
	// parts maps txn id → every durable part of the shard's: a prepare, or
	// the coordinator's own part its commit carries.
	parts map[uint64]txnPart
	// resolved holds txn ids with a local Applied or Abort marker.
	resolved map[uint64]bool
	// commits holds txn ids with a durable commit decision (this shard
	// acting as coordinator).
	commits map[uint64]bool
}

// inDoubt returns the txn ids with a durable part and no local resolution
// marker, i.e. the ones recovery must resolve.
func (s *shardTxnState) inDoubt() []uint64 {
	var ids []uint64
	for txn := range s.parts {
		if !s.resolved[txn] {
			ids = append(ids, txn)
		}
	}
	return ids
}

// scanShardTxns reads shard's durable WAL from its retained head and extracts
// its transaction control records: the trim keeps every record of a
// transaction the manager holds. A hole in the log (wal.ErrHole) is damage
// and fails the scan. A prepare whose part
// does not decode is no part — the transaction resolves as abort, never as a
// guess. A commit is the decision whatever its part: one that does not decode,
// or whose PageID does not name this shard, only leaves no coordinator's part
// to redo here.
func scanShardTxns(st *storage.Store, shard int) (*shardTxnState, error) {
	state := &shardTxnState{
		parts:    make(map[uint64]txnPart),
		resolved: make(map[uint64]bool),
		commits:  make(map[uint64]bool),
	}
	reader := wal.NewReaderAtHead(st)
	for {
		groups, err := reader.PollGroups()
		for _, grp := range groups {
			for _, rec := range grp {
				switch rec.Type {
				case wal.RecordTxnPrepare, wal.RecordTxnCommit:
					commit := rec.Type == wal.RecordTxnCommit
					ws, derr := DecodePrepareRecord(rec)
					if derr == nil && (!commit || rec.PageID == uint64(shard)) {
						state.parts[rec.TreeID] = txnPart{coord: rec.PageID, writes: ws}
					}
					if commit {
						state.commits[rec.TreeID] = true
					}
				case wal.RecordTxnAbort, wal.RecordTxnApplied:
					state.resolved[rec.TreeID] = true
				}
			}
		}
		if err != nil {
			if errors.Is(err, storage.ErrTrimmed) || errors.Is(err, storage.ErrExtentLost) {
				return state, nil // durable prefix ends here
			}
			return nil, err
		}
		if len(groups) == 0 {
			return state, nil
		}
	}
}
