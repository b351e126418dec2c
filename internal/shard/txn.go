package shard

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// one shard applies, and it is what a 2PC record carries — the TPC2 payload
// below — and what a resolution pass re-applies. A batch over several shards
// is a presumed-abort 2PC whose coordinator, the lowest touched shard, is the
// last agent: it does not prepare, its commit is its vote. Three serial
// durable rounds, 2N−1 appends for N shards:
//
//  1. PREPARE: every participant but the coordinator logs a RecordTxnPrepare
//     carrying its part and the membership, on its ordinary group-commit
//     pipeline. Nothing is applied, so an undecided prepare is invisible.
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

// TxnPayload is what a prepare, or the coordinator's commit, carries: one
// participant's part plus the membership needed to resolve it.
type TxnPayload struct {
	// Txn is the group-unique transaction id (nonzero). The carrying WAL
	// record's TreeID field holds the same id for cheap scans.
	Txn uint64
	// Fence is the participant writer's WAL fence epoch when it logged the
	// record. It must match the carrying record's stamped epoch — a
	// mismatch means the payload was spliced across leader tenures.
	Fence uint64
	// Coord is the coordinator shard (always a participant).
	Coord int
	// Shard is the participant whose part this is (Coord on a commit).
	Shard int
	// Parts lists every participant shard, strictly ascending.
	Parts []int
	// Writes is this participant's part: the forest writes it applies.
	Writes []forest.Write
}

// TPC2 wire format (little endian):
//
//	magic[4]="TPC2" version[1]=2
//	txn[8] fence[8] coord[2] shard[2]
//	nparts[2]  { part[2] }*       (strictly ascending; coord and shard present)
//	nwrites[4] { write }*         (>= 1)
//	crc32[4]LE over everything before it (IEEE)
//
// One write, a forest.Write as core.Encode built it:
//
//	owner[8] delete[1] klen[4] key vlen[4] value
//
// The delete flag is 0 or 1, the key is not empty and a delete has no value.
// Decoding fails closed on any structural defect; an accepted payload
// re-encodes byte-identically. The writes are not checked again: core.Encode
// checked them before the first record was logged, and the CRC keeps them so.
const (
	txnMagic   = "TPC2"
	txnVersion = 2

	txnHeaderLen   = 4 + 1 + 8 + 8 + 2 + 2 + 2
	txnTrailerLen  = 4
	writeHeaderLen = 8 + 1 + 4 + 4

	// MaxParticipants bounds a decoded payload's participant count; real
	// deployments are orders of magnitude smaller.
	MaxParticipants = 4096
)

// ErrBadPrepare reports an undecodable or inconsistent prepare payload.
var ErrBadPrepare = errors.New("shard: bad txn prepare payload")

// EncodePrepare serializes the payload in the TPC2 wire format.
func EncodePrepare(p *TxnPayload) []byte {
	size := txnHeaderLen + 2*len(p.Parts) + 4 + txnTrailerLen
	for _, w := range p.Writes {
		size += writeHeaderLen + len(w.Key) + len(w.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, txnMagic...)
	buf = append(buf, txnVersion)
	buf = binary.LittleEndian.AppendUint64(buf, p.Txn)
	buf = binary.LittleEndian.AppendUint64(buf, p.Fence)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Coord))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Shard))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Parts)))
	for _, s := range p.Parts {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(s))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Writes)))
	for _, w := range p.Writes {
		value, del := w.Value, byte(0)
		if w.Delete {
			value, del = nil, 1
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Owner))
		buf = append(buf, del)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.Key)))
		buf = append(buf, w.Key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
		buf = append(buf, value...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodePreparePayload parses and validates a TPC2 payload, failing closed on
// truncation, trailing bytes, checksum mismatch, a malformed write, and any
// membership defect (zero txn id, unsorted or duplicate participants,
// coordinator or owning shard missing from the participant list). The writes'
// keys and values are copies: the forest owns what it is handed.
func DecodePreparePayload(buf []byte) (*TxnPayload, error) {
	if len(buf) < txnHeaderLen+4+txnTrailerLen {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBadPrepare, len(buf))
	}
	if string(buf[:4]) != txnMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPrepare)
	}
	if buf[4] != txnVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadPrepare, buf[4])
	}
	body := buf[:len(buf)-txnTrailerLen]
	sum := binary.LittleEndian.Uint32(buf[len(buf)-txnTrailerLen:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadPrepare)
	}
	p := &TxnPayload{
		Txn:   binary.LittleEndian.Uint64(body[5:]),
		Fence: binary.LittleEndian.Uint64(body[13:]),
		Coord: int(binary.LittleEndian.Uint16(body[21:])),
		Shard: int(binary.LittleEndian.Uint16(body[23:])),
	}
	if p.Txn == 0 {
		return nil, fmt.Errorf("%w: zero txn id", ErrBadPrepare)
	}
	nparts := int(binary.LittleEndian.Uint16(body[25:]))
	if nparts == 0 || nparts > MaxParticipants {
		return nil, fmt.Errorf("%w: %d participants", ErrBadPrepare, nparts)
	}
	rest := body[txnHeaderLen:]
	if len(rest) < nparts*2+4 {
		return nil, fmt.Errorf("%w: truncated participant list", ErrBadPrepare)
	}
	p.Parts = make([]int, nparts)
	coordOK, shardOK := false, false
	for i := range p.Parts {
		s := int(binary.LittleEndian.Uint16(rest[i*2:]))
		if i > 0 && s <= p.Parts[i-1] {
			return nil, fmt.Errorf("%w: participants not strictly ascending", ErrBadPrepare)
		}
		p.Parts[i] = s
		coordOK = coordOK || s == p.Coord
		shardOK = shardOK || s == p.Shard
	}
	if !coordOK {
		return nil, fmt.Errorf("%w: coordinator %d not a participant", ErrBadPrepare, p.Coord)
	}
	if !shardOK {
		return nil, fmt.Errorf("%w: shard %d not a participant", ErrBadPrepare, p.Shard)
	}
	rest = rest[nparts*2:]
	nwrites := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if nwrites == 0 || uint64(nwrites) > uint64(len(rest)/writeHeaderLen) {
		return nil, fmt.Errorf("%w: %d writes in %d bytes", ErrBadPrepare, nwrites, len(rest))
	}
	p.Writes = make([]forest.Write, nwrites)
	for i := range p.Writes {
		w := &p.Writes[i]
		ok := len(rest) >= 9 && rest[8] <= 1
		if ok {
			w.Owner, w.Delete = forest.OwnerID(binary.LittleEndian.Uint64(rest)), rest[8] == 1
			w.Key, rest, ok = cutField(rest[9:])
		}
		if ok {
			w.Value, rest, ok = cutField(rest)
		}
		if !ok || len(w.Key) == 0 || w.Delete && w.Value != nil {
			return nil, fmt.Errorf("%w: malformed write %d", ErrBadPrepare, i)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPrepare, len(rest))
	}
	return p, nil
}

// cutField splits a length-prefixed field off the front of rest: a copy of its
// bytes (nil when empty) and what follows it.
func cutField(rest []byte) (field, after []byte, ok bool) {
	if len(rest) < 4 || uint64(binary.LittleEndian.Uint32(rest)) > uint64(len(rest)-4) {
		return nil, rest, false
	}
	n := 4 + int(binary.LittleEndian.Uint32(rest))
	if n > 4 {
		field = bytes.Clone(rest[4:n])
	}
	return field, rest[n:], true
}

// DecodePrepareRecord decodes the TPC2 payload a record carries — a
// RecordTxnPrepare's, or the coordinator's own part on its RecordTxnCommit —
// and cross-checks it against the record: the record's TreeID must equal
// the payload's txn id and its stamped epoch the payload's fence epoch, and
// a commit's payload must be the coordinator's part on the coordinator's log
// (Shard == Coord == the record's PageID). A mismatch means the payload was
// spliced from another transaction, leader tenure or shard and the record is
// rejected.
func DecodePrepareRecord(rec *wal.Record) (*TxnPayload, error) {
	if rec.Type != wal.RecordTxnPrepare && rec.Type != wal.RecordTxnCommit {
		return nil, fmt.Errorf("%w: record type %v", ErrBadPrepare, rec.Type)
	}
	p, err := DecodePreparePayload(rec.Value)
	if err != nil {
		return nil, err
	}
	if p.Txn != rec.TreeID {
		return nil, fmt.Errorf("%w: payload txn %d, record txn %d", ErrBadPrepare, p.Txn, rec.TreeID)
	}
	if p.Fence != rec.Epoch {
		return nil, fmt.Errorf("%w: payload fence %d, record epoch %d", ErrBadPrepare, p.Fence, rec.Epoch)
	}
	if rec.Type == wal.RecordTxnCommit && (p.Shard != p.Coord || uint64(p.Coord) != rec.PageID) {
		return nil, fmt.Errorf("%w: commit of coordinator %d carries shard %d's part of coordinator %d",
			ErrBadPrepare, rec.PageID, p.Shard, p.Coord)
	}
	return p, nil
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

// shardTxnState summarizes one shard's durable transaction records, as
// recovery sees them: only the gapless WAL prefix counts.
type shardTxnState struct {
	// prepares maps txn id → decoded payload for every durable part of the
	// shard's: a prepare, or the coordinator's own part its commit carries.
	prepares map[uint64]*TxnPayload
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
	for txn := range s.prepares {
		if !s.resolved[txn] {
			ids = append(ids, txn)
		}
	}
	return ids
}

// scanShardTxns reads a shard's durable WAL from its retained head and
// extracts its transaction control records: the trim keeps every record of a
// transaction the manager holds. A pipeline hole ends the prefix: records
// stranded past it are never delivered (the next tenure's fence purges the
// debris), so they do not count as durable here either. Undecodable prepare
// payloads are rejected fail-closed — the transaction resolves as abort, never
// as a guess. A commit is the decision whatever its payload: one that does not
// decode only leaves the coordinator's own part without a redo intent here.
func scanShardTxns(st *storage.Store) (*shardTxnState, error) {
	state := &shardTxnState{
		prepares: make(map[uint64]*TxnPayload),
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
					if p, derr := DecodePrepareRecord(rec); derr == nil {
						state.prepares[rec.TreeID] = p
					}
					if rec.Type == wal.RecordTxnCommit {
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
