// Package mvcc implements the coarse multi-version read epochs that give
// BG3 snapshot-isolated scans and traversals (ISSUE 7).
//
// The design piggybacks on the WAL group committer's ordering guarantee:
// every mutation is assigned a WAL LSN under its page latch, and commit
// acks are released strictly in LSN order at group boundaries. The global
// read epoch is therefore simply the highest *released* LSN — the released
// set is always a gapless prefix ending exactly at a group-commit
// boundary. A reader that pins the current epoch H and filters history by
// "op.lsn <= H" observes every group committed at or before H, no effect
// of any later group, and never a partial group.
//
// A Source is the process-wide epoch clock for one writable engine. The
// committer calls Advance just before it releases a group's acks (so a
// writer that saw its ApplyBatch return can immediately pin an epoch that
// includes its own write). Readers call Pin to take a reference-counted
// handle; the minimum pinned epoch is the *retention floor* below which
// Bw-tree consolidation may fold history into page bases and the GC
// reclaimer may drop invalidated extents.
//
// Unreplicated engines run without a Source (all ops are stamped LSN 0
// and every reader sees the latest state), so the single-node fast path
// is untouched.
package mvcc

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bg3/internal/metrics"
)

// PinAt failure modes. Cross-shard snapshot vectors are re-attached with
// PinAt, so each rejection must fail closed: a vector that cannot be
// pinned exactly is refused rather than approximated.
var (
	// ErrFutureEpoch: the requested epoch is above the released horizon —
	// it names a group that has not committed (or a forged LSN).
	ErrFutureEpoch = errors.New("mvcc: epoch not yet released")
	// ErrRetiredEpoch: the requested epoch is below the retention floor —
	// history at it may already be folded into page bases or reclaimed.
	ErrRetiredEpoch = errors.New("mvcc: epoch below retention floor")
	// ErrNotBoundary: the requested epoch is inside a commit group — a
	// read at it could observe a partial group, so it is never pinnable.
	ErrNotBoundary = errors.New("mvcc: epoch is not a group-commit boundary")
)

// Epoch identifies one group-commit boundary: the LSN of the last record
// in the group. Epoch 0 is "before any commit" and, when used as a pin
// horizon of an unreplicated engine, means "no filtering".
type Epoch uint64

// Source is the epoch clock for one writable engine. The zero value is
// not usable; call NewSource.
type Source struct {
	current atomic.Uint64 // highest released epoch

	mu       sync.Mutex
	pins     map[Epoch]*pinState // live pins by epoch
	bounds   []Epoch             // released group boundaries >= floor, ascending
	holds    int                 // live epoch holds (cross-shard prepare windows)
	deferred Epoch               // highest Advance deferred while held
	unpinned []func()            // run when the last pin closes (WhenUnpinned)

	// metrics
	pinned     metrics.Gauge // live pin handles
	oldestLag  metrics.Gauge // current - oldest pinned epoch (LSN distance)
	advances   metrics.Counter
	pinsTotal  metrics.Counter
	holdsTotal metrics.Counter
}

type pinState struct {
	refs  int
	since time.Time // when the oldest reference at this epoch was taken
}

// NewSource returns a Source whose epoch starts at start (the recovered
// durable LSN on restart, 0 for a fresh engine).
func NewSource(start Epoch) *Source {
	s := &Source{pins: make(map[Epoch]*pinState)}
	s.current.Store(uint64(start))
	s.bounds = []Epoch{start}
	return s
}

// maxTrackedBoundaries caps the boundary history kept for PinAt
// validation. When a pin lags the writer by more than this many groups,
// the oldest tracked boundaries are dropped and PinAt for them fails
// closed with ErrNotBoundary — never the other way around.
const maxTrackedBoundaries = 1 << 16

// Advance moves the released horizon up to e. The committer calls this
// with the last LSN of each group just before acking the group's writers;
// epochs only move forward, so late or duplicate calls are no-ops.
//
// While an epoch hold is live (see Hold) the boundary is still recorded —
// so it stays re-pinnable later — but the published horizon does not move:
// the deferred maximum is published in one jump when the last hold
// releases. This is what keeps a cross-shard prepare window (and the
// decided batch's own apply) invisible to every new Pin.
func (s *Source) Advance(e Epoch) {
	s.mu.Lock()
	if s.holds > 0 {
		if e > s.deferred {
			s.deferred = e
		}
		if n := len(s.bounds); n == 0 || s.bounds[n-1] < e {
			s.bounds = append(s.bounds, e)
		}
		s.pruneBoundsLocked()
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	for {
		cur := s.current.Load()
		if uint64(e) <= cur {
			return
		}
		if s.current.CompareAndSwap(cur, uint64(e)) {
			s.advances.Inc()
			s.recordBoundary(e)
			return
		}
	}
}

// Hold pauses publication of new read epochs until Release. Group
// boundaries released by the committer while held are remembered (and
// remain valid PinAt targets once published) but Current does not move, so
// no reader pins an epoch that could expose state logged inside the hold
// window. Holds nest: the horizon resumes when the last one releases,
// jumping straight to the highest deferred boundary.
//
// The cross-shard 2PC layer takes a hold on each participant before
// logging its PREPARE and releases it only after the decision is fully
// applied (or discarded), making the transaction's visibility atomic per
// shard: readers see either no effect or the whole sub-batch.
func (s *Source) Hold() *Hold {
	s.mu.Lock()
	s.holds++
	s.mu.Unlock()
	s.holdsTotal.Inc()
	return &Hold{src: s}
}

// Hold is a handle pausing epoch publication on its Source. Release is
// idempotent.
type Hold struct {
	src    *Source
	closed atomic.Bool
}

// Release ends the hold. When it is the last live hold, the highest group
// boundary deferred during the window is published immediately.
func (h *Hold) Release() {
	if h == nil || !h.closed.CompareAndSwap(false, true) {
		return
	}
	s := h.src
	s.mu.Lock()
	s.holds--
	var resume Epoch
	if s.holds == 0 {
		resume, s.deferred = s.deferred, 0
	}
	s.mu.Unlock()
	if resume > 0 {
		s.Advance(resume)
	}
}

// recordBoundary remembers e as a released group boundary so PinAt can
// later re-pin it. The committer releases acks (and therefore calls
// Advance) strictly in LSN order, so appends stay sorted.
func (s *Source) recordBoundary(e Epoch) {
	s.mu.Lock()
	if n := len(s.bounds); n == 0 || s.bounds[n-1] < e {
		s.bounds = append(s.bounds, e)
	}
	s.pruneBoundsLocked()
	s.mu.Unlock()
}

// pruneBoundsLocked drops boundaries below the retention floor (no pin
// can ever land there again) and enforces the memory cap.
func (s *Source) pruneBoundsLocked() {
	floor := s.floorLocked()
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i] >= floor })
	if over := len(s.bounds) - i - maxTrackedBoundaries; over > 0 {
		i += over // cap blown: sacrifice the oldest, PinAt on them fails closed
	}
	if i > 0 {
		s.bounds = append(s.bounds[:0], s.bounds[i:]...)
	}
}

func (s *Source) isBoundaryLocked(e Epoch) bool {
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i] >= e })
	return i < len(s.bounds) && s.bounds[i] == e
}

// Current returns the latest released epoch.
func (s *Source) Current() Epoch { return Epoch(s.current.Load()) }

// Pin takes a reference on the current epoch and returns a handle. The
// returned pin keeps history at or below its epoch reachable until Close.
func (s *Source) Pin() *Pin {
	s.mu.Lock()
	e := Epoch(s.current.Load()) // read under mu so Floor can't miss us
	st := s.pins[e]
	if st == nil {
		st = &pinState{since: time.Now()}
		s.pins[e] = st
	}
	st.refs++
	s.mu.Unlock()
	s.pinned.Add(1)
	s.pinsTotal.Inc()
	s.updateLag()
	return &Pin{src: s, epoch: e}
}

// PinAt takes a reference on a specific past epoch — the re-attach half
// of a cross-shard consistent cut: a coordinator samples each shard's
// epoch with Pin, ships the vector, and every participant PinAts the
// component for its shard. It fails closed:
//
//   - e above the released horizon → ErrFutureEpoch
//   - e below the retention floor (history may be folded) → ErrRetiredEpoch
//   - e inside a commit group (a read there would tear) → ErrNotBoundary
//
// Note the floor rule: once the last pin at or below e closes, the floor
// advances and e is no longer re-pinnable. Holders transferring a cut
// must keep the original pin open until the transfer lands.
func (s *Source) PinAt(e Epoch) (*Pin, error) {
	s.mu.Lock()
	cur := Epoch(s.current.Load())
	if e > cur {
		s.mu.Unlock()
		return nil, ErrFutureEpoch
	}
	if e < s.floorLocked() {
		s.mu.Unlock()
		return nil, ErrRetiredEpoch
	}
	// cur itself is always a boundary (Advance only ever publishes group
	// boundaries); check the history ring for anything older.
	if e != cur && !s.isBoundaryLocked(e) {
		s.mu.Unlock()
		return nil, ErrNotBoundary
	}
	st := s.pins[e]
	if st == nil {
		st = &pinState{since: time.Now()}
		s.pins[e] = st
	}
	st.refs++
	s.mu.Unlock()
	s.pinned.Add(1)
	s.pinsTotal.Inc()
	s.updateLag()
	return &Pin{src: s, epoch: e}, nil
}

// Floor returns the retention floor: the oldest pinned epoch, or the
// current epoch when nothing is pinned. History with LSN <= Floor may be
// folded away; history above it must be retained.
func (s *Source) Floor() Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floorLocked()
}

func (s *Source) floorLocked() Epoch {
	floor := Epoch(s.current.Load())
	for e := range s.pins {
		if e < floor {
			floor = e
		}
	}
	return floor
}

// OldestPinTime returns the wall-clock time at which the oldest live pin
// was taken, and true, or a zero time and false when nothing is pinned.
// The GC reclaimer uses it to avoid reclaiming extents invalidated after
// the oldest snapshot began (such extents may still back pinned reads).
func (s *Source) OldestPinTime() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest time.Time
	found := false
	for _, st := range s.pins {
		if !found || st.since.Before(oldest) {
			oldest = st.since
			found = true
		}
	}
	return oldest, found
}

// PinnedCount returns the number of live pin handles.
func (s *Source) PinnedCount() int64 { return s.pinned.Load() }

// WhenUnpinned runs fn once no pin is live: now when none is, else when the
// last one closes.
func (s *Source) WhenUnpinned(fn func()) {
	s.mu.Lock()
	if len(s.pins) > 0 {
		s.unpinned = append(s.unpinned, fn)
		fn = nil
	}
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (s *Source) unpin(e Epoch) {
	s.mu.Lock()
	if st := s.pins[e]; st != nil {
		st.refs--
		if st.refs <= 0 {
			delete(s.pins, e)
		}
	}
	var idle []func()
	if len(s.pins) == 0 {
		idle, s.unpinned = s.unpinned, nil
	}
	s.mu.Unlock()
	s.pinned.Add(-1)
	s.updateLag()
	for _, fn := range idle {
		fn()
	}
}

func (s *Source) updateLag() {
	s.mu.Lock()
	floor := s.floorLocked()
	s.mu.Unlock()
	cur := Epoch(s.current.Load())
	if cur >= floor {
		s.oldestLag.Set(int64(cur - floor))
	}
}

// Stats is a point-in-time summary of the epoch clock.
type Stats struct {
	// Current is the latest released epoch (highest group-released LSN).
	Current Epoch
	// Pinned is the number of live pin handles.
	Pinned int64
	// OldestPinned is the lowest pinned epoch (== Current when none).
	OldestPinned Epoch
	// Lag is Current - OldestPinned in LSN distance: how much history the
	// oldest snapshot is holding back from consolidation and GC.
	Lag uint64
	// PinsTotal counts Pin calls over the source's lifetime.
	PinsTotal int64
	// Advances counts epoch advances (group releases observed).
	Advances int64
	// HoldsTotal counts Hold calls (cross-shard prepare windows) over the
	// source's lifetime.
	HoldsTotal int64
}

// Stats returns the current summary.
func (s *Source) Stats() Stats {
	s.mu.Lock()
	floor := s.floorLocked()
	s.mu.Unlock()
	cur := Epoch(s.current.Load())
	lag := uint64(0)
	if cur > floor {
		lag = uint64(cur - floor)
	}
	return Stats{
		Current:      cur,
		Pinned:       s.pinned.Load(),
		OldestPinned: floor,
		Lag:          lag,
		PinsTotal:    s.pinsTotal.Load(),
		Advances:     s.advances.Load(),
		HoldsTotal:   s.holdsTotal.Load(),
	}
}

// RegisterMetrics exposes the epoch clock under the "mvcc." prefix.
func (s *Source) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("mvcc.read_epoch", func() int64 { return int64(s.current.Load()) })
	r.RegisterGauge("mvcc.pinned_epochs", &s.pinned)
	r.RegisterGauge("mvcc.epoch_lag", &s.oldestLag)
	r.RegisterCounter("mvcc.pins_total", &s.pinsTotal)
	r.RegisterCounter("mvcc.advances", &s.advances)
	r.RegisterCounter("mvcc.holds_total", &s.holdsTotal)
}

// Pin is a reference on one epoch. It is safe for concurrent use by
// multiple readers; Close is idempotent.
type Pin struct {
	src    *Source
	epoch  Epoch
	closed atomic.Bool
}

// Epoch returns the pinned epoch.
func (p *Pin) Epoch() Epoch { return p.epoch }

// Close releases the reference. After the last reference at an epoch is
// closed the retention floor may advance past it.
func (p *Pin) Close() {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.src.unpin(p.epoch)
}

// Horizon is the visibility cutoff a reader carries: ops stamped with an
// LSN above the horizon are invisible. HorizonAll (the zero Pin / no
// source case) sees everything.
const HorizonAll = Epoch(math.MaxUint64)

// ReadHorizon returns the visibility horizon for this pin; a nil pin sees
// everything (unpinned latest-state read).
func (p *Pin) ReadHorizon() Epoch {
	if p == nil {
		return HorizonAll
	}
	return p.epoch
}
