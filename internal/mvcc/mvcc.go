// Package mvcc implements the coarse multi-version read epochs that give
// BG3 snapshot-isolated scans and traversals.
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
// writer that releases a group calls Advance just before it acks the
// group's writers (so a writer that saw its ApplyBatch return can
// immediately pin an epoch that includes its own write). Readers call Pin
// to take a reference-counted handle; the minimum pinned epoch is the
// *retention floor* below which Bw-tree consolidation may fold history
// into page bases. GC asks the clock nothing: history above the floor is
// kept as live records, which reclamation moves like any other.
//
// A pin is the only way to hold an epoch: there is no re-pinning of a
// past epoch, so a cut is shared by sharing its handle. A Source
// publishes every released group at once and knows one stream only.
// Which epochs of several shards form a cut is the shard group's
// decision: a cross-shard Snapshot samples every clock while no
// transaction's apply is in flight (internal/shard, txnManager.cut).
//
// Unreplicated engines run without a Source (all ops are stamped LSN 0
// and every reader sees the latest state), so the single-node fast path
// is untouched.
package mvcc

import (
	"math"
	"sync"
	"sync/atomic"

	"bg3/internal/metrics"
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
	pins     map[Epoch]int // live pin references by epoch
	unpinned []func()      // run when the last pin closes (WhenUnpinned)

	// metrics
	pinned    metrics.Gauge // live pin handles
	advances  metrics.Counter
	pinsTotal metrics.Counter
}

// NewSource returns a Source whose epoch starts at start (the recovered
// durable LSN on restart, 0 for a fresh engine).
func NewSource(start Epoch) *Source {
	s := &Source{pins: make(map[Epoch]int)}
	s.current.Store(uint64(start))
	return s
}

// Advance moves the released horizon up to e. The writer that releases a
// group calls it with the group's last LSN just before acking the group's
// writers; epochs only move forward, so late or duplicate calls are
// no-ops. It takes no lock.
func (s *Source) Advance(e Epoch) {
	for {
		cur := s.current.Load()
		if uint64(e) <= cur {
			return
		}
		if s.current.CompareAndSwap(cur, uint64(e)) {
			s.advances.Inc()
			return
		}
	}
}

// Current returns the latest released epoch.
func (s *Source) Current() Epoch { return Epoch(s.current.Load()) }

// Pin takes a reference on the current epoch and returns a handle. The
// returned pin keeps history at or below its epoch reachable until Close.
func (s *Source) Pin() *Pin {
	s.mu.Lock()
	e := Epoch(s.current.Load()) // read under mu so Floor can't miss us
	s.pins[e]++
	s.mu.Unlock()
	s.pinned.Add(1)
	s.pinsTotal.Inc()
	return &Pin{src: s, epoch: e}
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
	if s.pins[e]--; s.pins[e] <= 0 {
		delete(s.pins, e)
	}
	var idle []func()
	if len(s.pins) == 0 {
		idle, s.unpinned = s.unpinned, nil
	}
	s.mu.Unlock()
	s.pinned.Add(-1)
	for _, fn := range idle {
		fn()
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
	// oldest snapshot is holding back from consolidation.
	Lag uint64
	// PinsTotal counts Pin calls over the source's lifetime.
	PinsTotal int64
	// Advances counts epoch advances (group releases observed).
	Advances int64
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
	}
}

// RegisterMetrics exposes the epoch clock under the "mvcc." prefix.
func (s *Source) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("mvcc.read_epoch", func() int64 { return int64(s.current.Load()) })
	r.RegisterGauge("mvcc.pinned_epochs", &s.pinned)
	r.GaugeFunc("mvcc.epoch_lag", func() int64 { return int64(s.Stats().Lag) })
	r.RegisterCounter("mvcc.pins_total", &s.pinsTotal)
	r.RegisterCounter("mvcc.advances", &s.advances)
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
