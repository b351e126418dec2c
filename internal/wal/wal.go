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
	"math/bits"
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
	// Key to the new page AuxPage, keeping the live keys Value counts
	// (uvarint).
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
	// transaction id, PageID the coordinator shard and Value the forest
	// writes of the participant's part (shard.EncodePart). The part is
	// applied only once the coordinator's decision is known; an undecided
	// prepare has no memory effect and is invisible at every released epoch.
	RecordTxnPrepare
	// RecordTxnCommit logs a cross-shard commit decision on the coordinator
	// shard's stream (TreeID = transaction id, PageID = the coordinator),
	// and Value is the coordinator's own part, as a prepare's is: the
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

// Record is one WAL entry. LSN and Epoch are not part of the encoded record:
// the group envelope that carries it states both, and the reader fills them in.
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

// UvarintLen is the length of v's uvarint encoding, computed, not encoded.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ReadUvarints reads one uvarint into each of dst off the front of buf and
// returns the rest. ok is false when one is truncated, overflows 64 bits or is
// not in its shortest form: every integer of the log has one encoding, so a
// frame that decodes re-encodes byte for byte.
func ReadUvarints(buf []byte, dst ...*uint64) (rest []byte, ok bool) {
	for _, d := range dst {
		v, n := binary.Uvarint(buf)
		if n <= 0 || n != UvarintLen(v) {
			return nil, false
		}
		*d, buf = v, buf[n:]
	}
	return buf, true
}

// appendRecord appends r's encoding to buf — the log's one record encoder:
//
//	type[1] tree page aux ckpt klen vlen key value
//
// each integer after the type a uvarint.
func appendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Type))
	for _, v := range [...]uint64{r.TreeID, r.PageID, r.AuxPage, uint64(r.CkptLSN), uint64(len(r.Key)), uint64(len(r.Value))} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = append(buf, r.Key...)
	return append(buf, r.Value...)
}

// Decode parses a record appendRecord encoded. Its LSN and Epoch are left
// zero: they belong to the group envelope.
func Decode(buf []byte) (*Record, error) {
	r := &Record{}
	var typ, klen, vlen uint64 // a valid type is one byte as a uvarint too
	rest, ok := ReadUvarints(buf, &typ, &r.TreeID, &r.PageID, &r.AuxPage, (*uint64)(&r.CkptLSN), &klen, &vlen)
	if !ok || typ == 0 || typ > uint64(RecordTxnApplied) || klen > uint64(len(rest)) || vlen != uint64(len(rest))-klen {
		return nil, fmt.Errorf("%w: type %d klen=%d vlen=%d total=%d", ErrCorrupt, typ, klen, vlen, len(buf))
	}
	r.Type = RecordType(typ)
	if klen > 0 {
		r.Key = append([]byte(nil), rest[:klen]...)
	}
	if vlen > 0 {
		r.Value = append([]byte(nil), rest[klen:]...)
	}
	return r, nil
}

// ErrWriterFailed marks a writer poisoned by an append that exhausted its
// retries: allowing later appends to succeed would punch an LSN hole into
// the log that recovery could not tell apart from acknowledged-write loss,
// so the writer fails stop — exactly like a log node losing its lease.
var ErrWriterFailed = errors.New("wal: writer failed")

// Writer seals WAL records into group envelopes and appends them to the
// shared store. The LSNs are assigned above it, by the group committer, the
// one LSN authority; the writer checks that they continue its sequence. It is
// safe for concurrent use.
//
// Transient storage failures (including torn writes, whose checksummed
// garbage prefix readers discard) are absorbed by a bounded
// retry-with-backoff; a retried torn append leaves duplicate records in the
// stream, which readers deduplicate by LSN. Once retries are exhausted the
// writer fails stop.
type Writer struct {
	store *storage.Store
	retry storage.RetryPolicy

	// epoch is the fence token every append carries and every group envelope
	// states. It is captured from the store's WAL stream at
	// construction and immutable afterwards: a writer IS one epoch's
	// tenure, and losing the fence (storage.ErrFenced) poisons it for good.
	epoch uint64

	mu      sync.Mutex
	nextLSN LSN
	failed  error

	appends   metrics.Counter
	appendLat metrics.Histogram // storage round-trip per append, retries included
}

// NewWriter returns a writer that appends to the store's WAL stream. It
// adopts the stream's current fence epoch, so a writer built after a
// promotion fenced the stream appends at the new epoch, and a writer built
// from a stale view is rejected on its first append.
func NewWriter(store *storage.Store) *Writer {
	return NewWriterFromEpoch(store, 1, store.StreamEpoch(storage.StreamWAL))
}

// NewWriterFromEpoch returns a writer whose next LSN is next — recovery and
// promotion resume the sequence past the highest LSN already in the WAL — and
// which appends under the fence token epoch, the one a promotion claimed.
// Adopting the stream's current epoch instead would let a candidate that lost
// a concurrent promotion race append under the winner's epoch; with the
// explicit token, the loser's first append fails storage.ErrFenced.
func NewWriterFromEpoch(store *storage.Store, next LSN, epoch uint64) *Writer {
	return &Writer{store: store, retry: store.Retry(), nextLSN: max(next, 1), epoch: epoch}
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
//	plen[4] pcrc[4] magic[1] epoch first count { rlen record }...
//
// with epoch, first, count and each rlen uvarints. The CRC covers the whole
// payload — meta and records alike — so a torn write, a byte prefix of the
// envelope, invalidates the entire group. Readers therefore replay a group
// completely or not at all, which is what makes a crash in the middle of a
// group-commit flush recoverable: every record in the flush shares its fate.
//
// The meta block is the log's only statement of its sequence: a group's
// records hold LSNs first..first+count-1, in order, all sealed under epoch,
// and the records themselves carry neither. It lets a reader check that a
// group continues the sequence, and discard a fenced tenure's stragglers
// wholesale, without decoding a record.
const (
	// groupHeader is the envelope overhead: payload length plus CRC32.
	groupHeader = 8
	// metaMin and metaMax bound the leading meta block: magic, epoch, first, count.
	metaMin = 1 + 3
	metaMax = 1 + 3*binary.MaxVarintLen64
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

// sealGroup appends to buf the envelope of recs sealed as meta, encoding each
// record once, in place.
func sealGroup(buf []byte, meta GroupMeta, recs []*Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // plen and pcrc, below
	buf = append(buf, groupMagic)
	buf = binary.AppendUvarint(buf, meta.Epoch)
	buf = binary.AppendUvarint(buf, uint64(meta.First))
	buf = binary.AppendUvarint(buf, uint64(meta.Count))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, uint64(encodedSize(r)))
		buf = appendRecord(buf, r)
	}
	payload := buf[start+groupHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// unframeGroup opens a group envelope. ok=false marks a torn envelope — a
// truncated header, short payload, or checksum mismatch, all artifacts of a
// failed append — whose contents must be discarded wholesale. A non-nil
// error means the envelope checksum passed but the payload does not parse:
// real corruption, not a torn tail.
func unframeGroup(buf []byte) (meta GroupMeta, frames [][]byte, ok bool, err error) {
	if len(buf) < groupHeader+metaMin {
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
	var count, n uint64
	if body, ok = ReadUvarints(body[1:], &meta.Epoch, (*uint64)(&meta.First), &count); !ok {
		return meta, nil, false, fmt.Errorf("%w: sealed group meta", ErrCorrupt)
	}
	meta.Count = int(count)
	for len(body) > 0 {
		rest, ok := ReadUvarints(body, &n)
		if !ok || n > uint64(len(rest)) {
			return meta, nil, false, fmt.Errorf("%w: record length in sealed group", ErrCorrupt)
		}
		frames, body = append(frames, rest[:n]), rest[n:]
	}
	if len(frames) != meta.Count {
		return meta, nil, false, fmt.Errorf("%w: sealed group holds %d records, meta declares %d",
			ErrCorrupt, len(frames), meta.Count)
	}
	return meta, frames, true, nil
}

// SealedGroup is one framed group envelope ready for a single storage
// append: an immutable unit of durability. Sealing (LSN check, envelope
// framing) is separated from appending so that the committer seals under its
// lock and appends outside it.
type SealedGroup struct {
	Data  []byte // the envelope, as sealGroup produced it
	First LSN    // first LSN in the group
	Last  LSN    // last LSN in the group
	Count int    // records sealed
	Epoch uint64 // fence epoch the group was sealed under
}

// ErrRecordTooLarge is returned when a single record cannot fit one storage
// append even in a group of its own: no amount of batch splitting can
// persist it.
var ErrRecordTooLarge = errors.New("wal: record exceeds extent size")

// encodedSize returns the length of r's encoding.
func encodedSize(r *Record) int {
	k, v := uint64(len(r.Key)), uint64(len(r.Value))
	return 1 + UvarintLen(r.TreeID) + UvarintLen(r.PageID) + UvarintLen(r.AuxPage) +
		UvarintLen(uint64(r.CkptLSN)) + UvarintLen(k) + UvarintLen(v) + int(k+v)
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

// MaxRecordSize returns the largest encoding a record may have and
// still be appendable (in a group of its own if need be). Admission checks
// above the writer (the group committer) reject larger records before an
// LSN is assigned, so the failure is an error on one write instead of a
// poisoned log.
func (w *Writer) MaxRecordSize() int {
	return w.groupLimit() - groupHeader - metaMax - binary.MaxVarintLen32 // the widest meta and rlen
}

// SealAssigned validates records whose LSNs the group committer assigned,
// advances the writer's LSN counter past them, and seals them into group
// envelopes under the writer's fence epoch, appended to dst — cutting a group
// where it would outgrow one storage append or where the LSNs skip, since a
// group's LSNs are contiguous. Each envelope is encoded once, straight into
// frame(size): an empty buffer with room for its size bytes, which the caller
// may recycle once the group's AppendSealed returned (nil frame allocates).
// It performs no I/O: the returned groups are persisted by AppendSealed, one
// after another in LSN order.
//
// A record too large for an extent poisons the writer: its LSN is already
// assigned, so skipping it would punch a permanent hole into the log that
// recovery could not tell apart from acknowledged-write loss. The committer
// prevents this case by rejecting such records at admission (MaxRecordSize)
// before an LSN exists.
func (w *Writer) SealAssigned(dst []SealedGroup, recs []*Record, frame func(size int) []byte) ([]SealedGroup, error) {
	if len(recs) == 0 {
		return dst, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return dst, w.failed
	}
	// Validate the whole batch before sealing anything, so a poisoning
	// record cannot leave a partially sealed batch behind it.
	max := w.MaxRecordSize()
	next := w.nextLSN
	for _, r := range recs {
		if r.LSN < next {
			return dst, fmt.Errorf("wal: assigned LSN %d behind writer position %d", r.LSN, next)
		}
		next = r.LSN + 1
		if n := encodedSize(r); n > max {
			w.failed = fmt.Errorf("%w: lsn %d: %w (%d bytes, extent limit %d)",
				ErrWriterFailed, r.LSN, ErrRecordTooLarge, n, w.store.ExtentSize())
			return dst, w.failed
		}
	}
	w.nextLSN = next

	limit := w.groupLimit()
	for len(recs) > 0 {
		n, size := 0, groupHeader+metaMax
		for ; n < len(recs) && (n == 0 || recs[n].LSN == recs[n-1].LSN+1); n++ {
			es := encodedSize(recs[n])
			more := UvarintLen(uint64(es)) + es
			if n > 0 && size+more > limit {
				break
			}
			size += more
		}
		var buf []byte
		if frame != nil {
			buf = frame(size)
		} else {
			buf = make([]byte, 0, size)
		}
		meta := GroupMeta{Epoch: w.epoch, First: recs[0].LSN, Count: n}
		dst = append(dst, SealedGroup{
			Data:  sealGroup(buf, meta, recs[:n]),
			First: meta.First,
			Last:  recs[n-1].LSN,
			Count: n,
			Epoch: w.epoch,
		})
		recs = recs[n:]
	}
	return dst, nil
}

// AppendSealed persists one sealed group with a single storage append,
// retrying transient failures and poisoning the writer when they exhaust.
// The group carries its own fence epoch, which storage checks on every
// append, so a fence raised while the append is in the air fails it without
// persisting a byte. The caller appends groups in LSN order, each once the
// one before it returned: a reader takes a group past a hole for damage.
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
		_, _, aerr := w.store.AppendEpoch(storage.StreamWAL, g.Epoch, 0, g.Data)
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

// RegisterMetrics exposes the writer's accounting under the "wal." prefix:
// wal.append_us is the storage round trip per append, retries included (the
// cost a commit actually pays).
func (w *Writer) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("wal.appends", &w.appends)
	r.RegisterHistogram("wal.append_us", &w.appendLat)
	r.GaugeFunc("wal.next_lsn", func() int64 { return int64(w.NextLSN()) })
	r.GaugeFunc("wal.epoch", func() int64 { return int64(w.epoch) })
}

// GapError reports that the records a reader needs next were trimmed away
// (storage.ErrTrimmed, which it unwraps to): acknowledged records are missing
// for certain, and the consumer must re-attach from the retained head
// (followers) or abort (crash recovery).
type GapError struct {
	Expected LSN // the LSN the sequence required next
}

func (e *GapError) Error() string {
	return fmt.Sprintf("wal: gap in log: expected lsn %d, trimmed", e.Expected)
}

func (e *GapError) Unwrap() error { return storage.ErrTrimmed }

// ErrHole reports a group whose first LSN lies past the next one the reader
// expects. The committer appends its groups in LSN order, each once the one
// before it returned, so no writer leaves one: a hole is log damage.
var ErrHole = errors.New("wal: hole in log")

// Reader tails the WAL stream of a shared store. Each RO node owns one.
//
// Every reader starts from a declared base: the LSNs at or below it count as
// consumed, and the sequence it delivers is base+1, base+2, ... gapless.
// NewReader's base is 0; NewReaderAtHead's is the trim horizon, 0 when the log
// was never trimmed.
//
// The reader tolerates the artifacts the write path leaves in an
// append-only log: a checksummed-garbage tail from a torn write (dropped
// and counted), duplicate records from a retried append (deduplicated by
// LSN), and zombie groups sealed under a fence epoch lower than the highest
// epoch observed — left behind by a deposed leader that raced the fence.
//
// Groups land in LSN order (GroupCommitter), so a group that does not
// connect to the delivered prefix is damage, never an append still in the
// air: the poll fails with ErrHole and stays at that group. Acknowledged
// records go missing only through a trim, reported as *GapError on the
// first poll behind it, a lost extent (storage.ErrExtentLost) or such a
// hole; the consumer then re-attaches from the retained head (followers, on
// the first two) or aborts (crash recovery, a promotion).
type Reader struct {
	store *storage.Store
	cur   storage.Cursor
	last  LSN    // the base, then the highest LSN returned; records at or below are dropped
	epoch uint64 // highest fence epoch observed; lower-epoch groups are zombies

	torn   int64 // storage entries with a torn tail encountered
	dups   int64 // duplicate records dropped
	fenced int64 // stale-epoch zombie records skipped
}

// NewReader returns a reader of the WAL from its beginning, based at LSN 0.
func NewReader(store *storage.Store) *Reader {
	return &Reader{store: store}
}

// NewReaderAtHead returns a reader of everything the WAL retains: from the
// head past the trimmed prefix, based at the trim's horizon — 0, the log's
// beginning, when it was never trimmed. Every record above that horizon is
// still there; some below it may not be, and only those may have landed in the
// extents dropped. It starts at the epoch the horizon was declared under: a
// group sealed under an earlier one is a zombie.
func NewReaderAtHead(store *storage.Store) *Reader {
	cur, horizon, epoch := store.Head(storage.StreamWAL)
	return &Reader{store: store, cur: cur, last: LSN(horizon), epoch: epoch}
}

// SetBase declares every LSN at or below lsn already consumed: such records
// are silently dropped and the sequence check starts at lsn+1.
func (r *Reader) SetBase(lsn LSN) { r.last = lsn }

// LastLSN returns the highest LSN the reader has returned.
func (r *Reader) LastLSN() LSN { return r.last }

// Stats returns the torn-entry and duplicate counts absorbed so far.
func (r *Reader) Stats() (torn, dups int64) { return r.torn, r.dups }

// FencedSkips returns how many stale-epoch zombie records were discarded.
func (r *Reader) FencedSkips() int64 { return r.fenced }

// Epoch returns the highest fence epoch the reader has observed.
func (r *Reader) Epoch() uint64 { return r.epoch }

// Poll returns all records appended since the previous Poll, in LSN order.
// Torn group envelopes are discarded whole and retry duplicates dropped. On a
// trimmed prefix, a lost extent or a hole Poll returns the records before it
// together with the error, so the caller decides how to resync.
func (r *Reader) Poll() ([]*Record, error) {
	groups, err := r.PollGroups()
	var recs []*Record
	for _, g := range groups {
		recs = append(recs, g...)
	}
	return recs, err
}

// PollGroups is Poll preserving commit-group boundaries: each inner slice
// holds the records one storage append sealed together, so a follower can
// replay a whole group before publishing its high LSN and never expose a
// half-applied batch. Records already consumed (the base, retry
// duplicates) are filtered from their group; groups left empty are elided.
// A group that does not parse or does not connect ends the poll with an
// error, and the next poll starts at it again.
func (r *Reader) PollGroups() ([][]*Record, error) {
	entries, next, err := r.store.Scan(storage.StreamWAL, r.cur, 0)
	if errors.Is(err, storage.ErrTrimmed) {
		// Records the reader never read were trimmed: a hole for certain.
		return nil, &GapError{Expected: r.last + 1}
	}
	if err != nil {
		return nil, fmt.Errorf("wal: poll at extent %d: %w", r.cur.Extent, err)
	}
	var groups [][]*Record
	for _, e := range entries {
		// The scan yields an extent's entries from the cursor on, the next
		// extent's from its first: r.cur follows them to the entry at hand.
		if e.Loc.Extent != r.cur.Extent {
			r.cur = storage.Cursor{Extent: e.Loc.Extent}
		}
		recs, gerr := r.group(e.Data)
		if gerr != nil {
			return groups, fmt.Errorf("wal: entry at %v: %w", e.Loc, gerr)
		}
		if len(recs) > 0 {
			groups = append(groups, recs)
		}
		r.cur.Index++
	}
	r.cur = next
	return groups, nil
}

// group opens one entry and returns the records of it to deliver: none of a
// torn envelope (a failed append's prefix, counted) or of a zombie group
// sealed under an epoch below the highest observed; of any other group, those
// past the delivered prefix. A group's records are contiguous, so those at or
// below the prefix (a base's, a retried append's) are a prefix of it, dropped
// as duplicates; a group that starts past the prefix is a hole.
func (r *Reader) group(data []byte) ([]*Record, error) {
	meta, frames, ok, err := unframeGroup(data)
	switch {
	case err != nil:
		// The envelope passed its checksum but does not parse: real
		// corruption, not a torn tail.
		return nil, err
	case !ok:
		r.torn++
		return nil, nil
	case meta.Epoch < r.epoch:
		r.fenced += int64(meta.Count)
		return nil, nil
	case meta.Count > 0 && meta.First > r.last+1:
		return nil, fmt.Errorf("%w: lsn %d..%d after %d", ErrHole, meta.First, meta.First+LSN(meta.Count)-1, r.last)
	}
	r.epoch = meta.Epoch
	if meta.Count == 0 {
		return nil, nil
	}
	skip := min(int(r.last+1-meta.First), meta.Count)
	r.dups += int64(skip)
	recs := make([]*Record, 0, meta.Count-skip)
	for i, f := range frames[skip:] {
		rec, err := Decode(f)
		if err != nil {
			return nil, err
		}
		rec.LSN, rec.Epoch = meta.First+LSN(skip+i), meta.Epoch
		recs = append(recs, rec)
	}
	if len(recs) > 0 {
		r.last = recs[len(recs)-1].LSN
	}
	return recs, nil
}
