// Package wal implements the write-ahead log that BG3's I/O-efficient
// leader–follower synchronization ships through shared storage (§3.4).
//
// The RW node appends every Bw-tree modification — logical page updates,
// page splits, new-page creations — as WAL records with monotonically
// increasing log sequence numbers (LSNs). RO nodes tail the log from the
// shared store and lazily replay it onto cached pages. After the RW node's
// background flusher persists dirty pages and advances the durable mapping
// table, it appends a checkpoint record ("storage has completed all
// modifications up to LSN x"), letting RO nodes truncate their replay
// buffers.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"bg3/internal/metrics"
	"bg3/internal/storage"
)

// LSN is a log sequence number. LSN 0 is reserved and never assigned.
type LSN uint64

// RecordType discriminates WAL records.
type RecordType uint8

const (
	// RecordPut logs a logical key-value upsert applied to a page.
	RecordPut RecordType = iota + 1
	// RecordDelete logs a logical key deletion applied to a page.
	RecordDelete
	// RecordSplit logs a structural split: page PageID moved all keys >=
	// Key to the new page AuxPage.
	RecordSplit
	// RecordNewPage and RecordNewRoot are reserved: nothing writes them and
	// no applier accepts them. A split is its RecordSplit alone — it names the
	// sibling, and every node grows its own inner nodes. The two values stay
	// taken so that every other type keeps its number.
	RecordNewPage
	RecordNewRoot
	// RecordCheckpoint declares that shared storage (pages + mapping table)
	// reflects every modification with LSN <= CheckpointLSN. RO nodes drop
	// buffered records up to that point. A checkpoint split over several
	// records counts in TreeID the records of it still to come: the
	// declaration holds once the one carrying 0 is in. Each checkpoint also
	// names one bucket of the leader's leaves whole — bucket PageID of
	// AuxPage — so any AuxPage checkpoints in a row name every leaf.
	RecordCheckpoint
	// RecordNewTree logs creation of a Bw-tree (forest growth): TreeID is
	// the new tree, AuxPage its root page.
	RecordNewTree
	// RecordOwnerAssign logs a forest owner migration: the owner encoded in
	// Key (8-byte big endian) is now served by TreeID. It is emitted after
	// the owner's data has been copied into the dedicated tree and before
	// it is deleted from INIT, so replicas that switch routing at this
	// record always observe a complete copy.
	RecordOwnerAssign
	// RecordTxnPrepare logs a cross-shard transaction prepare on the
	// stream of a participant other than the coordinator: TreeID is the
	// transaction id, PageID the coordinator shard and Value the TPC1
	// payload (coordinator shard, participant set, and the sub-batch's
	// mutations as a logical redo intent). The payload is applied only once
	// the coordinator's decision is known; an undecided prepare has no
	// memory effect and is invisible at every released epoch.
	RecordTxnPrepare
	// RecordTxnCommit logs a cross-shard commit decision on the coordinator
	// shard's stream (TreeID = transaction id, PageID = the coordinator),
	// and Value is the TPC1 payload of the coordinator's own part: the
	// coordinator does not prepare, and its part's records and its
	// RecordTxnApplied follow the commit in the same wave. Once durable,
	// every participant's part must be applied; recovery treats a prepare
	// whose coordinator holds a durable commit as committed, and a commit
	// with no marker after it on its own stream as the coordinator's
	// committed prepare, which it re-applies.
	RecordTxnCommit
	// RecordTxnAbort logs a local resolution marker on a prepared
	// participant's stream: the prepared payload was discarded. The decision
	// to abort is logged nowhere: absence of a durable commit on the
	// coordinator means abort (presumed abort).
	RecordTxnAbort
	// RecordTxnApplied logs a participant-local completion marker: the
	// part of transaction TreeID this stream carries (its prepare's, or the
	// coordinator's commit's) was applied through the normal data path,
	// whose records all precede this one in the LSN sequence, logged in one
	// wave with it. Recovery treats such parts as resolved.
	RecordTxnApplied
)

// String returns the record type's name.
func (t RecordType) String() string {
	switch t {
	case RecordPut:
		return "put"
	case RecordDelete:
		return "delete"
	case RecordSplit:
		return "split"
	case RecordNewPage:
		return "new-page"
	case RecordNewRoot:
		return "new-root"
	case RecordCheckpoint:
		return "checkpoint"
	case RecordNewTree:
		return "new-tree"
	case RecordOwnerAssign:
		return "owner-assign"
	case RecordTxnPrepare:
		return "txn-prepare"
	case RecordTxnCommit:
		return "txn-commit"
	case RecordTxnAbort:
		return "txn-abort"
	case RecordTxnApplied:
		return "txn-applied"
	default:
		return fmt.Sprintf("record(%d)", uint8(t))
	}
}

// Record is one WAL entry.
type Record struct {
	LSN     LSN
	Type    RecordType
	TreeID  uint64
	PageID  uint64
	AuxPage uint64 // split target / new root / new tree root
	CkptLSN LSN    // checkpoint horizon, for RecordCheckpoint
	Epoch   uint64 // fence epoch of the writer that appended the record
	Key     []byte
	Value   []byte
}

// ErrCorrupt is returned when a WAL record fails to decode.
var ErrCorrupt = errors.New("wal: corrupt record")

// recFixed is the fixed header size of an encoded record.
const recFixed = 1 + 8*6 + 4 + 4

// Encode serializes r. Layout (little endian):
//
//	type[1] lsn[8] tree[8] page[8] aux[8] ckpt[8] epoch[8] klen[4] vlen[4] key value
func Encode(r *Record) []byte {
	buf := make([]byte, recFixed+len(r.Key)+len(r.Value))
	buf[0] = byte(r.Type)
	binary.LittleEndian.PutUint64(buf[1:], uint64(r.LSN))
	binary.LittleEndian.PutUint64(buf[9:], r.TreeID)
	binary.LittleEndian.PutUint64(buf[17:], r.PageID)
	binary.LittleEndian.PutUint64(buf[25:], r.AuxPage)
	binary.LittleEndian.PutUint64(buf[33:], uint64(r.CkptLSN))
	binary.LittleEndian.PutUint64(buf[41:], r.Epoch)
	binary.LittleEndian.PutUint32(buf[49:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(buf[53:], uint32(len(r.Value)))
	copy(buf[recFixed:], r.Key)
	copy(buf[recFixed+len(r.Key):], r.Value)
	return buf
}

// Decode parses a record previously produced by Encode.
func Decode(buf []byte) (*Record, error) {
	if len(buf) < recFixed {
		return nil, fmt.Errorf("%w: short record (%d bytes)", ErrCorrupt, len(buf))
	}
	r := &Record{
		Type:    RecordType(buf[0]),
		LSN:     LSN(binary.LittleEndian.Uint64(buf[1:])),
		TreeID:  binary.LittleEndian.Uint64(buf[9:]),
		PageID:  binary.LittleEndian.Uint64(buf[17:]),
		AuxPage: binary.LittleEndian.Uint64(buf[25:]),
		CkptLSN: LSN(binary.LittleEndian.Uint64(buf[33:])),
		Epoch:   binary.LittleEndian.Uint64(buf[41:]),
	}
	klen := binary.LittleEndian.Uint32(buf[49:])
	vlen := binary.LittleEndian.Uint32(buf[53:])
	if int(klen)+int(vlen)+recFixed != len(buf) {
		return nil, fmt.Errorf("%w: length mismatch klen=%d vlen=%d total=%d", ErrCorrupt, klen, vlen, len(buf))
	}
	if klen > 0 {
		r.Key = append([]byte(nil), buf[recFixed:recFixed+klen]...)
	}
	if vlen > 0 {
		r.Value = append([]byte(nil), buf[recFixed+klen:]...)
	}
	if r.Type == 0 || r.Type > RecordTxnApplied {
		return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, buf[0])
	}
	return r, nil
}

// ErrWriterFailed marks a writer poisoned by an append that exhausted its
// retries: allowing later appends to succeed would punch an LSN hole into
// the log that recovery could not tell apart from acknowledged-write loss,
// so the writer fails stop — exactly like a log node losing its lease.
var ErrWriterFailed = errors.New("wal: writer failed")

// Writer appends WAL records to the shared store, assigning LSNs. It is
// safe for concurrent use; LSN order equals storage append order because
// both happen under one mutex (the paper's WAL writes are tiny and the
// shared store guarantees low write latency, so serializing here models the
// same commit point).
//
// Transient storage failures (including torn writes, whose checksummed
// garbage prefix readers discard) are absorbed by a bounded
// retry-with-backoff; a retried torn append leaves duplicate records in the
// stream, which readers deduplicate by LSN. Once retries are exhausted the
// writer fails stop.
type Writer struct {
	store *storage.Store
	retry storage.RetryPolicy

	// epoch is the fence token every append carries and every record is
	// stamped with. It is captured from the store's WAL stream at
	// construction and immutable afterwards: a writer IS one epoch's
	// tenure, and losing the fence (storage.ErrFenced) poisons it for good.
	epoch uint64

	mu      sync.Mutex
	nextLSN LSN
	failed  error

	appends   metrics.Counter
	appendLat metrics.Histogram // storage round-trip per append, retries included
}

// walRetry is the default policy for WAL appends; retries feed the shared
// fault-accounting counters.
func walRetry() storage.RetryPolicy {
	p := storage.DefaultRetry
	p.OnRetry = func(int, error) { metrics.Faults.Retries.Inc() }
	return p
}

// NewWriter returns a writer that appends to the store's WAL stream. It
// adopts the stream's current fence epoch, so a writer built after a
// promotion fenced the stream appends at the new epoch, and a writer built
// from a stale view is rejected on its first append.
func NewWriter(store *storage.Store) *Writer {
	return &Writer{store: store, retry: walRetry(), nextLSN: 1,
		epoch: store.StreamEpoch(storage.StreamWAL)}
}

// NewWriterFrom returns a writer whose next LSN is the given value —
// recovery resumes the sequence past the highest LSN already in the WAL.
// Like NewWriter, it adopts the WAL stream's current fence epoch.
func NewWriterFrom(store *storage.Store, next LSN) *Writer {
	if next < 1 {
		next = 1
	}
	return &Writer{store: store, retry: walRetry(), nextLSN: next,
		epoch: store.StreamEpoch(storage.StreamWAL)}
}

// NewWriterFromEpoch is NewWriterFrom with an explicit fence token — for a
// promotion that must append at exactly the epoch it claimed. Adopting the
// stream's current epoch instead would let a candidate that lost a
// concurrent promotion race append under the winner's epoch; with the
// explicit token, the loser's first append fails storage.ErrFenced.
func NewWriterFromEpoch(store *storage.Store, next LSN, epoch uint64) *Writer {
	w := NewWriterFrom(store, next)
	w.epoch = epoch
	return w
}

// Epoch returns the fence token the writer appends under.
func (w *Writer) Epoch() uint64 { return w.epoch }

// SetRetry overrides the writer's retry policy (tests).
func (w *Writer) SetRetry(p storage.RetryPolicy) {
	w.mu.Lock()
	w.retry = p
	w.mu.Unlock()
}

// Err returns the poison error of a failed writer, nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Group envelope framing. One storage append carries exactly one sealed
// group of records:
//
//	plen[4] pcrc[4] magic[1] epoch[8] first[8] count[4] { rlen[4] record }...
//
// The CRC covers the whole payload — meta and records alike — so a torn
// write, which persists some byte prefix of the envelope, invalidates the
// entire group. Readers therefore replay a group completely or not at all,
// which is what makes a crash in the middle of a group-commit flush
// recoverable: every record in the flush shares the envelope's fate.
//
// The meta block is what lets groups complete out of order under the commit
// pipeline: (epoch, first, count) identify the group's place in the LSN
// sequence and the fence tenure it was sealed under without decoding a
// single record, so a reader can hold a group aside until its predecessors
// land and discard a fenced tenure's stragglers wholesale.
const (
	// groupHeader is the envelope overhead: payload length plus CRC32.
	groupHeader = 8
	// metaHeader is the payload's leading meta block: magic, epoch, first
	// LSN, record count.
	metaHeader = 1 + 8 + 8 + 4
	// recHeader is the per-record overhead inside the payload.
	recHeader = 4
	// groupMagic marks the envelope format; CRC-valid payloads with a
	// different first byte are foreign data, reported as corruption.
	groupMagic = 0xB6
)

// GroupMeta is the sealed group's self-description, covered by the
// envelope checksum.
type GroupMeta struct {
	Epoch uint64 // fence epoch the group was sealed under
	First LSN    // LSN of the group's first record
	Count int    // records in the group
}

// frameGroup seals encoded records into one group envelope.
func frameGroup(meta GroupMeta, encoded [][]byte) []byte {
	size := groupHeader + metaHeader
	for _, e := range encoded {
		size += recHeader + len(e)
	}
	buf := make([]byte, groupHeader, size)
	buf = append(buf, groupMagic)
	buf = binary.LittleEndian.AppendUint64(buf, meta.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(meta.First))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Count))
	for _, e := range encoded {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	payload := buf[groupHeader:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	return buf
}

// unframeGroup opens a group envelope. ok=false marks a torn envelope — a
// truncated header, short payload, or checksum mismatch, all artifacts of a
// failed append — whose contents must be discarded wholesale. A non-nil
// error means the envelope checksum passed but the payload does not parse:
// real corruption, not a torn tail.
func unframeGroup(buf []byte) (meta GroupMeta, frames [][]byte, ok bool, err error) {
	if len(buf) < groupHeader+metaHeader {
		return meta, nil, false, nil
	}
	plen := binary.LittleEndian.Uint32(buf)
	sum := binary.LittleEndian.Uint32(buf[4:])
	body := buf[groupHeader:]
	if uint64(len(body)) != uint64(plen) {
		return meta, nil, false, nil
	}
	if crc32.ChecksumIEEE(body) != sum {
		return meta, nil, false, nil
	}
	if body[0] != groupMagic {
		return meta, nil, false, fmt.Errorf("%w: sealed group magic %#x", ErrCorrupt, body[0])
	}
	meta.Epoch = binary.LittleEndian.Uint64(body[1:])
	meta.First = LSN(binary.LittleEndian.Uint64(body[9:]))
	meta.Count = int(binary.LittleEndian.Uint32(body[17:]))
	body = body[metaHeader:]
	for len(body) > 0 {
		if len(body) < recHeader {
			return meta, nil, false, fmt.Errorf("%w: truncated record header in sealed group", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[recHeader:]
		if uint64(n) > uint64(len(body)) {
			return meta, nil, false, fmt.Errorf("%w: record length %d exceeds group payload", ErrCorrupt, n)
		}
		frames = append(frames, body[:n])
		body = body[n:]
	}
	if len(frames) != meta.Count {
		return meta, nil, false, fmt.Errorf("%w: sealed group holds %d records, meta declares %d",
			ErrCorrupt, len(frames), meta.Count)
	}
	return meta, frames, true, nil
}

// SealedGroup is one framed group envelope ready for a single storage
// append: an immutable unit of durability. Sealing (LSN assignment, epoch
// stamping, envelope framing) is separated from appending so the commit
// pipeline can keep several sealed groups in flight concurrently while the
// LSN sequence itself stays strictly serial.
type SealedGroup struct {
	Data  []byte // the envelope, as frameGroup produced it
	First LSN    // first LSN in the group
	Last  LSN    // last LSN in the group
	Count int    // records sealed
	Epoch uint64 // fence epoch the group was sealed under
}

// ErrRecordTooLarge is returned when a single record cannot fit one storage
// append even in a group of its own: no amount of batch splitting can
// persist it.
var ErrRecordTooLarge = errors.New("wal: record exceeds extent size")

// encodedSize returns len(Encode(r)) without allocating.
func encodedSize(r *Record) int {
	return recFixed + len(r.Key) + len(r.Value)
}

// groupLimit is the largest sealed group one storage append accepts, with
// headroom for the store's own entry bookkeeping.
func (w *Writer) groupLimit() int {
	limit := w.store.ExtentSize() - 64
	if limit < 256 {
		limit = 256
	}
	return limit
}

// MaxRecordSize returns the largest Encode(r) size a record may have and
// still be appendable (in a group of its own if need be). Admission checks
// above the writer (the group committer) reject larger records before an
// LSN is assigned, so the failure is an error on one write instead of a
// poisoned log.
func (w *Writer) MaxRecordSize() int {
	return w.groupLimit() - groupHeader - metaHeader - recHeader
}

// Append assigns the next LSN to r, persists it as a group of one, and
// returns the LSN.
func (w *Writer) Append(r *Record) (LSN, error) {
	if _, err := w.AppendBatch([]*Record{r}); err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// AppendBatch persists records as atomic groups with consecutive LSNs —
// the group-commit path. A batch that fits one extent is a single storage
// append and replays all-or-nothing; an oversized batch is split into
// several sealed groups, each individually atomic. It returns the LSN of
// the last record. If any single record exceeds the extent size the batch
// fails with ErrRecordTooLarge before any LSN is consumed.
func (w *Writer) AppendBatch(recs []*Record) (LSN, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	max := w.MaxRecordSize()
	for _, r := range recs {
		if n := encodedSize(r); n > max {
			// No LSN was consumed, so the sequence has no hole: the writer
			// stays healthy and only this batch fails.
			w.mu.Unlock()
			return 0, fmt.Errorf("%w: %d bytes, extent limit %d", ErrRecordTooLarge, n, w.store.ExtentSize())
		}
	}
	for _, r := range recs {
		r.LSN = w.nextLSN
		w.nextLSN++
	}
	groups := w.sealLocked(recs)
	w.mu.Unlock()
	for _, g := range groups {
		if err := w.AppendSealed(g); err != nil {
			return 0, err
		}
	}
	return recs[len(recs)-1].LSN, nil
}

// AppendAssigned persists records whose LSNs were assigned by an external
// authority (the group committer) as sealed groups, splitting at extent
// boundaries. Records must continue the writer's LSN sequence in order; the
// writer's own counter advances past them. It is SealAssigned followed by a
// serial AppendSealed per group — the depth-1 commit path.
func (w *Writer) AppendAssigned(recs []*Record) error {
	groups, err := w.SealAssigned(recs)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if err := w.AppendSealed(g); err != nil {
			return err
		}
	}
	return nil
}

// SealAssigned validates records whose LSNs were assigned by an external
// authority, stamps them with the writer's fence epoch, advances the
// writer's LSN counter past them, and seals them into group envelopes —
// splitting where a group would outgrow one storage append. It performs no
// I/O: the returned groups are persisted by AppendSealed, possibly
// concurrently, which is how the commit pipeline keeps several appends in
// flight while sealing stays strictly serial in LSN order.
//
// A record too large for an extent poisons the writer: its LSN is already
// assigned, so skipping it would punch a permanent hole into the log that
// recovery could not tell apart from acknowledged-write loss. The committer
// prevents this case by rejecting such records at admission (MaxRecordSize)
// before an LSN exists.
func (w *Writer) SealAssigned(recs []*Record) ([]SealedGroup, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return nil, w.failed
	}
	// Validate the whole batch before sealing anything, so a poisoning
	// record cannot leave a partially sealed batch behind it.
	max := w.MaxRecordSize()
	next := w.nextLSN
	for _, r := range recs {
		if r.LSN < next {
			return nil, fmt.Errorf("wal: assigned LSN %d behind writer position %d", r.LSN, next)
		}
		next = r.LSN + 1
		if n := encodedSize(r); n > max {
			w.failed = fmt.Errorf("%w: lsn %d: %w (%d bytes, extent limit %d)",
				ErrWriterFailed, r.LSN, ErrRecordTooLarge, n, w.store.ExtentSize())
			return nil, w.failed
		}
	}
	w.nextLSN = next
	return w.sealLocked(recs), nil
}

// sealLocked stamps records with the writer's epoch and seals them into
// group envelopes, splitting where a group would outgrow one storage
// append. Records must fit individually (callers validate) and carry their
// final LSNs. Caller holds w.mu.
func (w *Writer) sealLocked(recs []*Record) []SealedGroup {
	limit := w.groupLimit()
	var groups []SealedGroup
	var frames [][]byte
	size := groupHeader + metaHeader
	var first, last LSN
	flush := func() {
		if len(frames) == 0 {
			return
		}
		meta := GroupMeta{Epoch: w.epoch, First: first, Count: len(frames)}
		groups = append(groups, SealedGroup{
			Data:  frameGroup(meta, frames),
			First: first,
			Last:  last,
			Count: len(frames),
			Epoch: w.epoch,
		})
		frames, size = nil, groupHeader+metaHeader
	}
	for _, r := range recs {
		r.Epoch = w.epoch
		encoded := Encode(r)
		if len(frames) > 0 && size+recHeader+len(encoded) > limit {
			flush()
		}
		if len(frames) == 0 {
			first = r.LSN
		}
		frames = append(frames, encoded)
		size += recHeader + len(encoded)
		last = r.LSN
	}
	flush()
	return groups
}

// AppendSealed persists one sealed group with a single storage append,
// retrying transient failures and poisoning the writer when they exhaust.
// It does not hold the writer's mutex across the storage round trip, so
// several sealed groups may be in flight concurrently; the group carries
// its own fence epoch, which storage checks on every append, so a fence
// raised mid-flight fails every outstanding append without persisting a
// byte. Storage completion order may differ from LSN order — readers
// reorder within a bounded window.
func (w *Writer) AppendSealed(g SealedGroup) error {
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	retry := w.retry
	w.mu.Unlock()
	start := time.Now()
	err := retry.Do("wal: append", func() error {
		_, aerr := w.store.AppendEpoch(storage.StreamWAL, g.Epoch, 0, g.Data)
		return aerr
	})
	w.appendLat.Observe(time.Since(start))
	w.appends.Inc()
	if err == nil {
		return nil
	}
	ferr := fmt.Errorf("%w: lsn %d..%d (stream %v): %w",
		ErrWriterFailed, g.First, g.Last, storage.StreamWAL, err)
	w.mu.Lock()
	if w.failed == nil {
		w.failed = ferr
	}
	w.mu.Unlock()
	return ferr
}

// NextLSN returns the LSN the next record will receive.
func (w *Writer) NextLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// AppendLatency returns the writer's per-append storage latency histogram
// (retries included — this is the cost a commit actually pays).
func (w *Writer) AppendLatency() *metrics.Histogram { return &w.appendLat }

// Appends returns the number of storage appends the writer has issued.
func (w *Writer) Appends() int64 { return w.appends.Load() }

// RegisterMetrics exposes the writer's accounting under the "wal." prefix.
func (w *Writer) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("wal.appends", &w.appends)
	r.RegisterHistogram("wal.append_us", &w.appendLat)
	r.GaugeFunc("wal.next_lsn", func() int64 { return int64(w.NextLSN()) })
	r.GaugeFunc("wal.epoch", func() int64 { return int64(w.epoch) })
}

// GapError reports a hole in the LSN sequence: a record arrived whose LSN
// is not the successor of the last one seen and the hole did not fill
// within the reader's reorder window. Gaps mean the reader's view of the
// log is missing acknowledged records — a trimmed or lost WAL extent — and
// the consumer must re-attach from the retained head (followers) or abort
// (crash recovery).
type GapError struct {
	Expected LSN // the LSN the sequence required next
	Got      LSN // the LSN actually observed; 0 behind a trimmed prefix
}

func (e *GapError) Error() string {
	return fmt.Sprintf("wal: gap in log: expected lsn %d, got %d", e.Expected, e.Got)
}

// Reorder-buffer defaults. Storage completion order may trail LSN order by
// at most the commit pipeline's depth, so a small window suffices; the
// stuck-poll limit bounds how long a reader waits for a hole to fill before
// declaring it permanent.
const (
	defaultReorderWindow = 64
	defaultStuckPolls    = 8
)

// pendingGroup is a decoded group envelope held aside because its first
// LSN does not yet connect to the delivered prefix.
type pendingGroup struct {
	recs  []*Record
	first LSN
	epoch uint64
}

// Reader tails the WAL stream of a shared store. Each RO node owns one.
//
// The reader tolerates the artifacts the write path leaves in an
// append-only log: a checksummed-garbage tail from a torn write (dropped
// and counted), duplicate records from a retried append (deduplicated by
// LSN), and zombie groups stamped with a fence epoch lower than the highest
// epoch observed — left behind by a deposed leader that raced the fence.
//
// Because the commit pipeline keeps several group appends in flight,
// storage completion order may differ from LSN order: a group whose first
// LSN runs ahead of the delivered prefix is held in a bounded reorder
// window until its predecessors land. Only a hole that persists — the
// window overflows, or enough polls pass without progress — or a cursor
// behind a trimmed prefix (storage.ErrTrimmed, on the first poll) is
// surfaced as *GapError, which means acknowledged records are genuinely
// missing and the consumer must re-attach from the retained head (followers)
// or abort (crash recovery).
type Reader struct {
	store *storage.Store
	cur   storage.Cursor
	last  LSN    // highest LSN returned; duplicates at or below are dropped
	epoch uint64 // highest fence epoch observed; lower-epoch groups are zombies
	based bool   // sequence anchored (SetBase called) even while last == 0

	window     int // max out-of-order groups held; 0 = immediate GapError
	stuckLimit int // polls without progress before a hole is permanent
	stuck      int // consecutive polls with pending groups and no progress

	pending map[LSN]*pendingGroup // keyed by first LSN

	torn   int64 // storage entries with a torn tail encountered
	dups   int64 // duplicate records dropped
	fenced int64 // stale-epoch zombie records skipped
}

// NewReader returns a reader positioned at the beginning of the WAL.
func NewReader(store *storage.Store) *Reader {
	return &Reader{store: store, window: defaultReorderWindow, stuckLimit: defaultStuckPolls}
}

// NewReaderAt returns a reader positioned at the given cursor.
func NewReaderAt(store *storage.Store, cur storage.Cursor) *Reader {
	r := NewReader(store)
	r.cur = cur
	return r
}

// NewReaderAtHead returns a reader of everything the WAL retains: from its
// beginning when it was never trimmed, else from the head past the trimmed
// prefix with every LSN at or below the trim's horizon declared consumed
// (SetBase). Every record above that horizon is still there; some below it
// may not be, and only those may have landed in the extents dropped. It starts
// at the epoch the horizon was declared under, which fences debris of earlier
// tenures past the horizon: the groups that did so may be gone with the prefix.
func NewReaderAtHead(store *storage.Store) *Reader {
	cur, horizon, epoch := store.Head(storage.StreamWAL)
	r := NewReaderAt(store, cur)
	if horizon > 0 {
		r.SetBase(LSN(horizon))
		r.epoch = epoch
	}
	return r
}

// SetBase declares every LSN at or below lsn already consumed: such records
// are silently dropped and the sequence check starts at lsn+1.
func (r *Reader) SetBase(lsn LSN) {
	r.last = lsn
	r.based = true
}

// SetReorderWindow bounds how many out-of-order groups the reader holds
// aside waiting for a hole to fill. n = 0 disables reordering entirely: any
// out-of-order group is an immediate GapError (the strict pre-pipeline
// behaviour, for tests and depth-1 deployments).
func (r *Reader) SetReorderWindow(n int) {
	if n < 0 {
		n = 0
	}
	r.window = n
}

// LastLSN returns the highest LSN the reader has returned.
func (r *Reader) LastLSN() LSN { return r.last }

// Stats returns the torn-entry and duplicate counts absorbed so far.
func (r *Reader) Stats() (torn, dups int64) { return r.torn, r.dups }

// FencedSkips returns how many stale-epoch zombie records were discarded.
func (r *Reader) FencedSkips() int64 { return r.fenced }

// PendingGroups returns how many out-of-order groups are currently held in
// the reorder window — durable groups that cannot be delivered because an
// earlier LSN has not been observed. After a full replay, a non-zero value
// means the log tail holds debris from a failed pipelined commit: groups
// past the gapless durable prefix that were never acknowledged.
func (r *Reader) PendingGroups() int { return len(r.pending) }

// Epoch returns the highest fence epoch the reader has observed.
func (r *Reader) Epoch() uint64 { return r.epoch }

// Poll returns all records appended since the previous Poll, in LSN order.
// Torn group envelopes are discarded whole and retry duplicates dropped. On
// a permanent LSN gap Poll returns the records before the hole together
// with a *GapError, so the caller decides how to resync.
func (r *Reader) Poll() ([]*Record, error) {
	groups, err := r.PollGroups()
	var recs []*Record
	for _, g := range groups {
		recs = append(recs, g...)
	}
	return recs, err
}

// anchored reports whether the reader knows where the LSN sequence starts:
// either a base was declared or a record has been delivered.
func (r *Reader) anchored() bool { return r.based || r.last > 0 }

// smallestPending returns the lowest first LSN held in the reorder window
// (0 when empty).
func (r *Reader) smallestPending() LSN {
	var min LSN
	for first := range r.pending {
		if min == 0 || first < min {
			min = first
		}
	}
	return min
}

// purgeFenced drops pending groups sealed under an epoch below the
// reader's, returning how many it removed. Epochs are non-decreasing in
// storage order (the store re-checks the fence under the stream lock that
// orders entries), so once a higher epoch is observed, lower-epoch holes
// can never fill: the groups are debris from a fenced tenure.
func (r *Reader) purgeFenced() int {
	purged := 0
	for first, pg := range r.pending {
		if pg.epoch < r.epoch {
			r.fenced += int64(len(pg.recs))
			delete(r.pending, first)
			purged++
		}
	}
	return purged
}

// deliver appends the group's novel records to the delivered sequence,
// dropping duplicates and fenced zombies. A hole inside a single group is
// structurally impossible for a sealed envelope, so it is an immediate
// GapError, never buffered.
func (r *Reader) deliver(recs []*Record) ([]*Record, error) {
	var grp []*Record
	for _, rec := range recs {
		if rec.Epoch < r.epoch {
			// A zombie from a fenced epoch: the deposed leader's append
			// raced the fence. Skip it without touching r.last so the
			// surviving epoch's sequence stays gapless.
			r.fenced++
			continue
		}
		if rec.Epoch > r.epoch {
			r.epoch = rec.Epoch
			r.purgeFenced()
		}
		if rec.LSN <= r.last {
			r.dups++
			continue
		}
		if r.last > 0 && rec.LSN != r.last+1 {
			return grp, &GapError{Expected: r.last + 1, Got: rec.LSN}
		}
		r.last = rec.LSN
		grp = append(grp, rec)
	}
	return grp, nil
}

// PollGroups is Poll preserving commit-group boundaries: each inner slice
// holds the records one storage append sealed together, so a follower can
// replay a whole group before publishing its high LSN and never expose a
// half-applied batch. Records already consumed (the base, retry
// duplicates) are filtered from their group; groups left empty are elided.
func (r *Reader) PollGroups() ([][]*Record, error) {
	entries, next, err := r.store.Scan(storage.StreamWAL, r.cur, 0)
	if errors.Is(err, storage.ErrTrimmed) {
		// Records the reader never read were trimmed: a hole for certain,
		// whatever the reorder window would wait for.
		return nil, &GapError{Expected: r.last + 1}
	}
	if err != nil {
		return nil, fmt.Errorf("wal: poll at extent %d: %w", r.cur.Extent, err)
	}
	var groups [][]*Record
	progressed := false
	for _, e := range entries {
		meta, frames, ok, ferr := unframeGroup(e.Data)
		if ferr != nil {
			// The envelope passed its checksum but does not parse: real
			// corruption, not a torn tail.
			return groups, fmt.Errorf("wal: entry at %v: %w", e.Loc, ferr)
		}
		if !ok {
			// A torn append: the whole group is invalid, by construction —
			// no record of a torn flush is ever replayed.
			r.torn++
			continue
		}
		if meta.Epoch > r.epoch {
			r.epoch = meta.Epoch
			if r.purgeFenced() > 0 {
				progressed = true
			}
		} else if meta.Epoch < r.epoch {
			// The whole group was sealed under a fenced tenure: zombie.
			r.fenced += int64(meta.Count)
			continue
		}
		if meta.Count == 0 {
			continue
		}
		recs := make([]*Record, 0, len(frames))
		for _, f := range frames {
			rec, derr := Decode(f)
			if derr != nil {
				return groups, fmt.Errorf("wal: entry at %v: %w", e.Loc, derr)
			}
			recs = append(recs, rec)
		}
		switch {
		case r.anchored() && meta.First <= r.last+1,
			!r.anchored() && meta.First == 1:
			grp, gerr := r.deliver(recs)
			if len(grp) > 0 {
				groups = append(groups, grp)
				progressed = true
			}
			if gerr != nil {
				return groups, gerr
			}
		default:
			// Out of order: the group ran ahead of the delivered prefix
			// (pipelined completion) or the log head is missing. Hold it.
			if r.window == 0 {
				return groups, &GapError{Expected: r.last + 1, Got: meta.First}
			}
			if r.pending == nil {
				r.pending = make(map[LSN]*pendingGroup)
			}
			// A retried torn append can stash the same group twice; the
			// copies are identical, so overwriting is idempotent.
			r.pending[meta.First] = &pendingGroup{recs: recs, first: meta.First, epoch: meta.Epoch}
		}
		// Drain every held group the delivery just connected.
		if drained, gerr := r.drainPending(&groups); gerr != nil {
			return groups, gerr
		} else if drained {
			progressed = true
		}
	}
	r.cur = next
	if len(r.pending) == 0 {
		r.stuck = 0
		return groups, nil
	}
	if progressed {
		r.stuck = 0
	} else {
		r.stuck++
	}
	if !r.anchored() && (len(r.pending) > r.window || r.stuck > r.stuckLimit) {
		// Nothing ever connected to LSN 1 and the head never arrived: the
		// log's prefix is genuinely gone (trimmed without a declared base).
		// Adopt the smallest held group as the start of the sequence.
		r.last = r.smallestPending() - 1
		r.based = true
		r.stuck = 0
		if _, gerr := r.drainPending(&groups); gerr != nil {
			return groups, gerr
		}
		if len(r.pending) == 0 {
			return groups, nil
		}
	}
	if len(r.pending) > r.window || r.stuck > r.stuckLimit {
		return groups, &GapError{Expected: r.last + 1, Got: r.smallestPending()}
	}
	return groups, nil
}

// drainPending delivers held groups, in LSN order, for as long as the next
// one connects to the delivered prefix. Reports whether anything left the
// window.
func (r *Reader) drainPending(groups *[][]*Record) (bool, error) {
	drained := false
	for r.anchored() {
		var found *pendingGroup
		for _, pg := range r.pending {
			if pg.first <= r.last+1 {
				found = pg
				break
			}
		}
		if found == nil {
			return drained, nil
		}
		delete(r.pending, found.first)
		drained = true
		grp, gerr := r.deliver(found.recs)
		if len(grp) > 0 {
			*groups = append(*groups, grp)
		}
		if gerr != nil {
			return drained, gerr
		}
	}
	return drained, nil
}
