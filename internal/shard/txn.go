package shard

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Cross-shard two-phase commit (ISSUE 10).
//
// A multi-shard batch is decomposed by the Router and committed with a
// lightweight 2PC layered on the per-shard group committers. The
// coordinator (the lowest touched shard) is the last agent: it does not
// prepare, its commit is its vote. Three serial durable rounds, 2N−1
// appends for N shards:
//
//  1. PREPARE: every participant but the coordinator logs one
//     RecordTxnPrepare on its own stream whose Value is the TPC1 payload
//     below — the participant's entire sub-batch as a logical redo intent
//     plus the transaction's membership. The record rides the ordinary
//     group-commit envelope (no extra fsync, full pipeline depth). Nothing
//     is applied to memory, so an undecided prepare is invisible at every
//     epoch by construction.
//  2. DECIDE: once every prepare is durable the coordinator runs one wave
//     on its stream: RecordTxnCommit, whose Value is the TPC1 payload of
//     the coordinator's own part, then that part through the normal data
//     path, then its RecordTxnApplied marker, and one wait for all of them
//     (replication.RWNode.ApplyWave). The commit record's durability is the
//     decision. A prepare failure, a force-abort by a resolution pass, or
//     a failover of the coordinator before the wave decides abort instead
//     (RecordTxnAbort on each prepared participant, best effort — the
//     protocol is presumed-abort, so a lost abort record is still an
//     abort).
//  3. APPLY: each other participant applies its sub-batch through the
//     normal data path (idempotent upserts/deletes) and logs its local
//     RecordTxnApplied marker after it, in one wave; only then is the
//     client acked.
//
// Visibility is the group's decision, not each shard's: rounds 2 and 3 run
// under a read hold of the manager's cut lock, and a cross-shard Snapshot
// samples every shard's epoch under its write hold. With no apply wave in
// flight, each shard's released epoch holds every batch wholly or not at
// all, so the sampled cut does too.
//
// In-doubt resolution: a durable part with no local Applied/Abort marker —
// a prepare, or a commit whose carried part has no marker after it — is
// resolved by consulting, in order, the live transaction manager
// (force-aborting transactions still preparing, waiting out ones
// mid-decision) and the coordinator's durable WAL prefix — a durable
// RecordTxnCommit means commit, anything else means abort — and a
// committed part is re-applied. Only the gapless prefix counts: a commit
// record stranded past a pipeline hole is never delivered by recovery,
// matching the committer's maybe-semantics for unacknowledged appends. A
// commit wave that failed leaves the coordinator's part in its failed
// leader's memory, like any unacknowledged write, and never in its log.
//
// Every leader trims its WAL on its checkpoint cadence, and that evidence
// must outlive the trim: the manager holds, per transaction, a floor on each
// participant's log below every record of it (lowWater), from begin until the
// transaction is settled on every shard — at its end, or for a committed one
// a participant could not apply, once a resolution pass has applied it.

// TxnPayload is the decoded TPC1 payload of a prepare, or of the
// coordinator's commit: one participant's sub-batch plus the transaction
// membership needed to resolve it.
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
	// Muts is this participant's sub-batch, in input order.
	Muts []graph.Mutation
}

// TPC1 wire format (little endian):
//
//	magic[4]="TPC1" version[1]=1
//	txn[8] fence[8] coord[2] shard[2]
//	nparts[2] { part[2] }*        (strictly ascending; coord and shard present)
//	nmuts[4]  { mut }*            (>= 1)
//	crc32[4]LE over everything before it (IEEE)
//
// One mutation:
//
//	kind[1]
//	  add-vertex: id[8] vtype[2] plen[4] props
//	  add-edge:   src[8] dst[8] etype[2] plen[4] props
//	  del-edge:   src[8] dst[8] etype[2]
//
// props is graph.EncodeProps output and must be canonical (re-encoding
// the decoded list reproduces the bytes). Decoding fails closed on any
// structural defect; an accepted payload re-encodes byte-identically.
const (
	txnMagic   = "TPC1"
	txnVersion = 1

	txnHeaderLen  = 4 + 1 + 8 + 8 + 2 + 2 + 2
	txnTrailerLen = 4

	// MaxParticipants bounds a decoded payload's participant count; real
	// deployments are orders of magnitude smaller.
	MaxParticipants = 4096
)

// ErrBadPrepare reports an undecodable or inconsistent prepare payload.
var ErrBadPrepare = errors.New("shard: bad txn prepare payload")

// EncodePrepare serializes the payload in the TPC1 wire format.
func EncodePrepare(p *TxnPayload) []byte {
	buf := make([]byte, 0, txnHeaderLen+len(p.Parts)*2+len(p.Muts)*32+txnTrailerLen)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Muts)))
	for _, m := range p.Muts {
		buf = append(buf, byte(m.Kind))
		switch m.Kind {
		case graph.MutAddVertex:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Vertex.ID))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(m.Vertex.Type))
			props := graph.EncodeProps(m.Vertex.Props)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(props)))
			buf = append(buf, props...)
		case graph.MutAddEdge:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Edge.Src))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Edge.Dst))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(m.Edge.Type))
			props := graph.EncodeProps(m.Edge.Props)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(props)))
			buf = append(buf, props...)
		case graph.MutDeleteEdge:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Edge.Src))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Edge.Dst))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(m.Edge.Type))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodePreparePayload parses and validates a TPC1 payload, failing
// closed on truncation, trailing bytes, checksum mismatch, unknown
// kinds, non-canonical property encodings, and any membership defect
// (zero txn id, unsorted or duplicate participants, coordinator or
// owning shard missing from the participant list).
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
	nmuts := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if nmuts == 0 {
		return nil, fmt.Errorf("%w: empty sub-batch", ErrBadPrepare)
	}
	if uint64(nmuts) > uint64(len(rest)) { // every mutation is >= 1 byte
		return nil, fmt.Errorf("%w: %d mutations in %d bytes", ErrBadPrepare, nmuts, len(rest))
	}
	p.Muts = make([]graph.Mutation, 0, nmuts)
	for i := uint32(0); i < nmuts; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: truncated mutation %d", ErrBadPrepare, i)
		}
		kind := graph.MutationKind(rest[0])
		rest = rest[1:]
		var m graph.Mutation
		m.Kind = kind
		switch kind {
		case graph.MutAddVertex:
			if len(rest) < 14 {
				return nil, fmt.Errorf("%w: truncated vertex mutation %d", ErrBadPrepare, i)
			}
			m.Vertex.ID = graph.VertexID(binary.LittleEndian.Uint64(rest))
			m.Vertex.Type = graph.VertexType(binary.LittleEndian.Uint16(rest[8:]))
			plen := binary.LittleEndian.Uint32(rest[10:])
			rest = rest[14:]
			props, rem, err := decodeCanonicalProps(rest, plen, i)
			if err != nil {
				return nil, err
			}
			m.Vertex.Props = props
			rest = rem
		case graph.MutAddEdge:
			if len(rest) < 22 {
				return nil, fmt.Errorf("%w: truncated edge mutation %d", ErrBadPrepare, i)
			}
			m.Edge.Src = graph.VertexID(binary.LittleEndian.Uint64(rest))
			m.Edge.Dst = graph.VertexID(binary.LittleEndian.Uint64(rest[8:]))
			m.Edge.Type = graph.EdgeType(binary.LittleEndian.Uint16(rest[16:]))
			plen := binary.LittleEndian.Uint32(rest[18:])
			rest = rest[22:]
			props, rem, err := decodeCanonicalProps(rest, plen, i)
			if err != nil {
				return nil, err
			}
			m.Edge.Props = props
			rest = rem
		case graph.MutDeleteEdge:
			if len(rest) < 18 {
				return nil, fmt.Errorf("%w: truncated delete mutation %d", ErrBadPrepare, i)
			}
			m.Edge.Src = graph.VertexID(binary.LittleEndian.Uint64(rest))
			m.Edge.Dst = graph.VertexID(binary.LittleEndian.Uint64(rest[8:]))
			m.Edge.Type = graph.EdgeType(binary.LittleEndian.Uint16(rest[16:]))
			rest = rest[18:]
		default:
			return nil, fmt.Errorf("%w: unknown mutation kind %d", ErrBadPrepare, kind)
		}
		p.Muts = append(p.Muts, m)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPrepare, len(rest))
	}
	return p, nil
}

// decodeCanonicalProps decodes a length-prefixed property list and
// insists on canonical encoding: the decoded list must re-encode to the
// exact input bytes, so an accepted payload round-trips byte-identically.
func decodeCanonicalProps(rest []byte, plen uint32, i uint32) (graph.Properties, []byte, error) {
	if uint64(plen) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: truncated properties in mutation %d", ErrBadPrepare, i)
	}
	raw := rest[:plen]
	props, err := graph.DecodeProps(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: mutation %d: %v", ErrBadPrepare, i, err)
	}
	if enc := graph.EncodeProps(props); len(enc) != len(raw) || string(enc) != string(raw) {
		return nil, nil, fmt.Errorf("%w: non-canonical properties in mutation %d", ErrBadPrepare, i)
	}
	return props, rest[plen:], nil
}

// DecodePrepareRecord decodes the TPC1 payload a record carries — a
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
// stranded past it are never delivered by recovery (the reader bumps the
// stream epoch over the debris), so they do not count as durable here
// either. Undecodable prepare payloads are rejected fail-closed — the
// transaction resolves as abort, never as a guess. A commit is the decision
// whatever its payload: one that does not decode only leaves the
// coordinator's own part without a redo intent here.
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
			var gap *wal.GapError
			if errors.As(err, &gap) || errors.Is(err, storage.ErrExtentLost) {
				return state, nil // durable prefix ends here
			}
			return nil, err
		}
		if len(groups) == 0 {
			return state, nil
		}
	}
}
