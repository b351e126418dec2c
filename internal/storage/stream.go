package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// compactShare sets the compaction threshold: a sealed data extent left with
// at most ExtentSize/compactShare live bytes is queued for Store.Compact, so a
// compaction moves at most 1/(compactShare-1) of the bytes it frees.
const compactShare = 32

// record tracks one appended record inside an extent.
type record struct {
	off   uint32
	len   uint32
	tag   uint64
	valid bool
}

// extent is one fixed-size segment of a stream.
type extent struct {
	id     ExtentID
	buf    []byte
	sealed bool
	queued bool // in its stream's sparse queue since it got sparse (settleLocked)
	moving bool // a reclaim is copying its live records out

	records      []record
	validCount   int
	invalidCount int
	validBytes   int64

	// Usage tracking for workload-aware reclamation (§3.3).
	lastUpdate time.Time // timestamp of the most recent append/invalidate

	// Update-gradient sampling: an EWMA of the invalidation rate, fed by
	// consecutive (time, invalidCount) observations. The snapshot value
	// additionally decays with idle time so long-quiet extents read as
	// cold even if they churned in the past.
	gradPrevTime    time.Time
	gradPrevInvalid int
	gradRate        float64 // EWMA invalid records per second
}

func (e *extent) noteUpdate(now time.Time) {
	if e.gradPrevTime.IsZero() {
		e.gradPrevTime = now
		e.gradPrevInvalid = e.invalidCount
		e.lastUpdate = now
		return
	}
	dt := now.Sub(e.gradPrevTime).Seconds()
	if dt > 0 {
		instant := float64(e.invalidCount-e.gradPrevInvalid) / dt
		if e.gradRate == 0 {
			e.gradRate = instant
		} else {
			e.gradRate = 0.5*e.gradRate + 0.5*instant
		}
		e.gradPrevTime = now
		e.gradPrevInvalid = e.invalidCount
	}
	e.lastUpdate = now
}

// gradient returns the update gradient at time now. An extent that has
// seen no update for a full decay window is cold by definition — its
// remaining records have demonstrably stopped dying — so its gradient
// reads zero regardless of how violently it churned in the past.
func (e *extent) gradient(now time.Time, decay time.Duration) float64 {
	if e.gradRate == 0 {
		return 0
	}
	if now.Sub(e.lastUpdate) >= decay {
		return 0
	}
	return e.gradRate
}

// ExtentUsage is the in-memory "Extent Usage Tracking" structure of §3.3,
// exposed to GC policies.
type ExtentUsage struct {
	Stream         StreamID
	Extent         ExtentID
	Sealed         bool
	LastUpdate     time.Time // timestamp of the newest record or invalidation
	ValidRecords   int
	InvalidRecords int
	ValidBytes     int64
	CapacityBytes  int64
	UpdateGradient float64 // invalid records per second (most recent sample)
}

// FragmentationRate returns the fraction of records in the extent that are
// invalid, the classic reclamation metric.
func (u ExtentUsage) FragmentationRate() float64 {
	total := u.ValidRecords + u.InvalidRecords
	if total == 0 {
		return 0
	}
	return float64(u.InvalidRecords) / float64(total)
}

type streamStats struct {
	GCBytesMoved      int64
	GCBytesReclaimed  int64
	GCRecordsMoved    int64
	ExtentsReclaimed  int64
	ExtentsExpired    int64
	ExtentsEmptied    int64
	ExtentsCompacted  int64
	CompactBytesMoved int64
	LiveBytes         int64
	TotalBytes        int64
	ExtentCount       int64
	CondemnedExtents  int64
}

// stream is one append-only sequence of extents.
type stream struct {
	id    StreamID
	opts  Options
	store *Store // whose release rule retired extents go under

	mu      sync.RWMutex
	extents map[ExtentID]*extent
	order   []ExtentID // resident extents, oldest first
	active  *extent
	nextID  ExtentID

	// epoch is the stream's fence token (BtrLog-style). An append is
	// admitted iff it carries exactly this value; opening a higher epoch
	// permanently invalidates every lower token. 0 is the unfenced state
	// all streams start in, and plain Append carries token 0.
	epoch uint64

	// condemned extents are reclaimed but stay readable until released
	// (release.go).
	condemned map[ExtentID]condemnation

	// sparse queues the sealed extents writes left nearly empty, each once
	// (settleLocked), until Compact takes them; nsparse is its length, read
	// without mu so a write with nothing to compact takes no lock.
	sparse  []ExtentID
	nsparse atomic.Int32

	// trimmed is the end of the newest extent DropBefore removed: a scan
	// from before it has lost records (ErrTrimmed). horizon is what the
	// trims declared survives, and headEpoch the fence epoch it was declared
	// under (DropBefore).
	trimmed   Cursor
	horizon   uint64
	headEpoch uint64

	gcBytesMoved     int64
	gcBytesReclaimed int64
	gcRecordsMoved   int64
	extentsReclaimed int64
	extentsExpired   int64
	extentsEmptied   int64
	extentsCompacted int64
	compactMoved     int64
}

func newStream(store *Store, id StreamID) *stream {
	return &stream{
		id:        id,
		opts:      store.opts,
		store:     store,
		extents:   make(map[ExtentID]*extent),
		condemned: make(map[ExtentID]condemnation),
	}
}

// newExtentLocked opens a fresh active extent. Its record index is sized from
// the one it follows, whose records the workload wrote just before: a stream
// writing records of one shape fills the index once instead of doubling it
// towards that count. Caller holds mu.
func (s *stream) newExtentLocked() *extent {
	var records []record
	if s.active != nil {
		records = make([]record, 0, len(s.active.records))
	}
	e := &extent{
		id:         s.nextID,
		buf:        make([]byte, 0, s.opts.ExtentSize),
		records:    records,
		lastUpdate: s.opts.Now(),
	}
	s.nextID++
	s.extents[e.id] = e
	s.order = append(s.order, e.id)
	s.active = e
	return e
}

// checkEpoch reports ErrFenced when the token would be rejected right now.
// Callers use it as a cheap pre-check; append re-verifies under the write
// lock, which is the authoritative fence-vs-append serialization point.
func (s *stream) checkEpoch(epoch uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochErrLocked(epoch)
}

func (s *stream) epochErrLocked(epoch uint64) error {
	if epoch != s.epoch {
		return fmt.Errorf("%w: token %d, stream %v at epoch %d", ErrFenced, epoch, s.id, s.epoch)
	}
	return nil
}

// openEpoch installs a new fence epoch. Opening an epoch below the current
// one fails ErrFenced (the caller itself has been deposed); re-opening the
// current epoch is an idempotent no-op.
func (s *stream) openEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("%w: cannot open epoch %d, stream %v already at %d", ErrFenced, epoch, s.id, s.epoch)
	}
	s.epoch = epoch
	return nil
}

// advanceEpoch atomically opens current+1 and returns it.
func (s *stream) advanceEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

func (s *stream) currentEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// append stores data at the stream's tail and returns its location and the
// stored record, a view as extent.view returns it.
func (s *stream) append(epoch, tag uint64, data []byte) (Loc, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The fence check shares the extent lock with the byte append: once
	// OpenStreamEpoch returns, no stale-token append can land, not even one
	// already past the store-level pre-checks.
	if err := s.epochErrLocked(epoch); err != nil {
		return Loc{}, nil, err
	}
	e := s.active
	if e == nil || len(e.buf)+len(data) > s.opts.ExtentSize {
		if e != nil {
			e.sealed = true
			s.settleLocked(e)
		}
		e = s.newExtentLocked()
	}
	off := uint32(len(e.buf))
	e.buf = append(e.buf, data...)
	e.records = append(e.records, record{off: off, len: uint32(len(data)), tag: tag, valid: true})
	e.validCount++
	e.validBytes += int64(len(data))
	e.noteUpdate(s.opts.Now())
	end := len(e.buf)
	return Loc{Stream: s.id, Extent: e.id, Offset: off, Length: uint32(len(data))}, e.buf[off:end:end], nil
}

func (s *stream) read(loc Loc) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extents[loc.Extent]
	if !ok {
		return nil, ErrReclaimed
	}
	return e.view(loc)
}

// view returns the record at loc where it lies, capacity-clipped so an append
// to it reallocates. Appended bytes never change and a view keeps its extent's
// memory alive, so it stays the record after a reclaim, a release or a drop.
func (e *extent) view(loc Loc) ([]byte, error) {
	end := int(loc.Offset) + int(loc.Length)
	if end > len(e.buf) {
		return nil, ErrNotFound
	}
	return e.buf[loc.Offset:end:end], nil
}

// findRecord locates the record starting at loc.Offset. Records are stored
// in offset order, so binary search would work; extents hold at most a few
// thousand records and this is off the hot path, so linear search from a
// bisected start keeps the code simple.
func (e *extent) findRecord(off uint32) *record {
	lo, hi := 0, len(e.records)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.records[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.records) && e.records[lo].off == off {
		return &e.records[lo]
	}
	return nil
}

// mark makes the record at loc dead (Store.Invalidate) or live again
// (Store.Revalidate) in its extent's accounting.
func (s *stream) mark(loc Loc, valid bool, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.extents[loc.Extent]
	if !ok {
		return
	}
	r := e.findRecord(loc.Offset)
	if r == nil || r.valid == valid {
		return
	}
	r.valid = valid
	if valid {
		e.validCount, e.invalidCount, e.validBytes = e.validCount+1, e.invalidCount-1, e.validBytes+int64(r.len)
		return
	}
	e.validCount, e.invalidCount, e.validBytes = e.validCount-1, e.invalidCount+1, e.validBytes-int64(r.len)
	e.noteUpdate(now)
	s.settleLocked(e)
}

// settleLocked acts on a sealed extent a seal or an invalidation left nearly
// empty, without waiting for a GC pick (§3.3). One whose last record died costs
// no movement and is retired at once. A resident data extent left with at most
// ExtentSize/compactShare live bytes is queued, once, for Compact. Caller
// holds mu.
func (s *stream) settleLocked(e *extent) {
	if !e.sealed {
		return
	}
	if e.validCount == 0 {
		if s.retireLocked(e.id) {
			s.extentsEmptied++
		}
		return
	}
	if _, dead := s.condemned[e.id]; dead || e.queued || s.id == StreamWAL || e.validBytes > s.compactLive() {
		return
	}
	e.queued = true
	s.sparse = append(s.sparse, e.id)
	s.nsparse.Store(int32(len(s.sparse)))
}

// compactLive is the most live bytes an extent Compact moves may hold.
func (s *stream) compactLive() int64 { return int64(s.opts.ExtentSize / compactShare) }

// unqueueLocked takes an extent leaving residence out of the sparse queue, so
// a queue nobody drains holds no more entries than there are resident
// extents. Caller holds mu.
func (s *stream) unqueueLocked(e *extent) {
	if !e.queued {
		return
	}
	e.queued = false
	if i := slices.Index(s.sparse, e.id); i >= 0 {
		s.sparse = slices.Delete(s.sparse, i, i+1)
		s.nsparse.Store(int32(len(s.sparse)))
	}
}

// retireLocked takes a resident extent out of usage and space accounting and
// hands it to the release rule (release.go): condemned on a logged store,
// dropped otherwise. It reports false when the extent was not resident.
// Caller holds mu.
func (s *stream) retireLocked(id ExtentID) bool {
	i := slices.Index(s.order, id)
	if i < 0 {
		return false
	}
	s.order = slices.Delete(s.order, i, i+1)
	s.unqueueLocked(s.extents[id])
	if s.store.logged() {
		s.condemned[id] = s.store.condemn()
	} else {
		delete(s.extents, id)
	}
	return true
}

func (s *stream) usage() []ExtentUsage {
	now := s.opts.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ExtentUsage, 0, len(s.order))
	for _, id := range s.order {
		e, ok := s.extents[id]
		if !ok {
			continue
		}
		out = append(out, ExtentUsage{
			Stream:         s.id,
			Extent:         e.id,
			Sealed:         e.sealed,
			LastUpdate:     e.lastUpdate,
			ValidRecords:   e.validCount,
			InvalidRecords: e.invalidCount,
			ValidBytes:     e.validBytes,
			CapacityBytes:  int64(s.opts.ExtentSize),
			UpdateGradient: e.gradient(now, s.opts.GradientDecay),
		})
	}
	return out
}

func (s *stream) stats() streamStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := streamStats{
		GCBytesMoved:      s.gcBytesMoved,
		GCBytesReclaimed:  s.gcBytesReclaimed,
		GCRecordsMoved:    s.gcRecordsMoved,
		ExtentsReclaimed:  s.extentsReclaimed,
		ExtentsExpired:    s.extentsExpired,
		ExtentsEmptied:    s.extentsEmptied,
		ExtentsCompacted:  s.extentsCompacted,
		CompactBytesMoved: s.compactMoved,
		ExtentCount:       int64(len(s.order)),
		CondemnedExtents:  int64(len(s.condemned)),
	}
	for _, id := range s.order {
		if e, ok := s.extents[id]; ok {
			st.LiveBytes += e.validBytes
			st.TotalBytes += int64(s.opts.ExtentSize)
		}
	}
	return st
}

// liveRecord is a snapshot of a valid record taken while planning a reclaim.
type liveRecord struct {
	tag  uint64
	off  uint32
	data []byte
}

// reclaim moves the live records of an extent to the stream tail and retires
// it. A compaction (compact) counts apart from policy picks and leaves an
// extent that holds more than compactLive live bytes where it is. One reclaim
// of an extent runs at a time; another meanwhile finds it ErrReclaimed, so the
// bytes a reclaim moved are always those of the extent it retires.
func (s *stream) reclaim(ext ExtentID, relocate RelocateFunc, compact bool) (int64, error) {
	// Phase 1: snapshot the extent's live records, as views, under the lock.
	s.mu.Lock()
	if _, dead := s.condemned[ext]; dead {
		s.mu.Unlock()
		return 0, ErrReclaimed
	}
	e, ok := s.extents[ext]
	if !ok || e.moving {
		s.mu.Unlock()
		return 0, ErrReclaimed
	}
	if compact && e.validBytes > s.compactLive() {
		s.mu.Unlock()
		return 0, nil
	}
	e.moving = true
	if e == s.active {
		e.sealed = true
		s.active = nil
	}
	live := make([]liveRecord, 0, e.validCount)
	for _, r := range e.records {
		if r.valid {
			end := r.off + r.len
			live = append(live, liveRecord{tag: r.tag, off: r.off, data: e.buf[r.off:end:end]})
		}
	}
	s.mu.Unlock()

	// Phase 2: rewrite live records to the stream tail and repoint owners.
	// Appends go through the Store so write metrics and latency apply: the
	// data movement of GC is real I/O, which is exactly what Table 2
	// measures.
	var moved int64
	for _, lr := range live {
		newLoc, rec, err := s.store.AppendEpoch(s.id, 0, lr.tag, lr.data)
		if err != nil {
			s.mu.Lock()
			e.moving = false
			s.mu.Unlock()
			return moved, err
		}
		oldLoc := Loc{Stream: s.id, Extent: ext, Offset: lr.off, Length: uint32(len(lr.data))}
		if relocate == nil || !relocate(lr.tag, oldLoc, newLoc, lr.data, rec) {
			// Owner no longer references the record (it was superseded
			// while we copied); the fresh copy is garbage already.
			s.mark(newLoc, false, s.opts.Now())
			continue
		}
		moved += int64(len(lr.data))
	}

	// Phase 3: retire the extent. On a store with a log it stays readable
	// (condemned) until the release rule lets it go, so followers holding
	// old locations until a checkpoint names the new ones do not break; its
	// space no longer counts. An extent whose last record died while its
	// live ones moved was retired by that invalidation.
	s.mu.Lock()
	defer s.mu.Unlock()
	e.moving = false
	retired := s.retireLocked(ext)
	if compact {
		if retired {
			s.extentsCompacted++
		}
		s.compactMoved += moved
		return moved, nil
	}
	if retired {
		if freed := int64(len(e.buf)) - moved; freed > 0 {
			s.gcBytesReclaimed += freed
		}
		s.extentsReclaimed++
	}
	s.gcBytesMoved += moved
	s.gcRecordsMoved += int64(len(live))
	return moved, nil
}

// compact reclaims the extents the sparse queue holds, as Store.Compact
// describes.
func (s *stream) compact(relocate RelocateFunc) (int64, error) {
	if s.nsparse.Load() == 0 {
		return 0, nil
	}
	s.mu.Lock()
	queued := s.sparse
	s.sparse = nil
	s.nsparse.Store(0)
	s.mu.Unlock()
	var moved int64
	for _, ext := range queued {
		m, err := s.reclaim(ext, relocate, true)
		moved += m
		if err != nil && !errors.Is(err, ErrReclaimed) {
			return moved, err
		}
	}
	return moved, nil
}

// dropExpired retires every sealed extent last updated before deadline, as
// Store.DropExpired describes.
func (s *stream) dropExpired(deadline time.Time) []ExtentID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dropped []ExtentID
	for _, id := range slices.Clone(s.order) { // retireLocked edits s.order
		e := s.extents[id]
		if e != nil && e.sealed && e.lastUpdate.Before(deadline) && s.retireLocked(id) {
			dropped = append(dropped, id)
			s.extentsExpired++
			s.gcBytesReclaimed += int64(len(e.buf))
		}
	}
	return dropped
}
