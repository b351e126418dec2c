package gc

import (
	"sync"
	"time"

	"bg3/internal/storage"
)

// Reclaimer drives a Policy against one stream of a store, either on
// demand (RunOnce) or from a background goroutine (Start/Stop). It also
// drives TTL expiry, the zero-cost reclamation path.
type Reclaimer struct {
	store    *storage.Store
	stream   storage.StreamID
	policy   Policy
	relocate storage.RelocateFunc

	// TTL expires whole extents without moving data; zero disables it.
	TTL time.Duration

	// Now supplies timestamps (tests inject a fake clock). Nil = time.Now.
	Now func() time.Time

	// Pins, when set, reports the wall-clock start of the oldest live MVCC
	// pin (typically *mvcc.Source). Extents whose contents changed after
	// that instant are skipped: their invalidated records may still back a
	// pinned snapshot's stable images or retained deltas, and reclaiming
	// them would drop history a reader at an older horizon needs.
	Pins interface {
		OldestPinTime() (time.Time, bool)
	}

	mu          sync.Mutex
	bytesMoved  int64
	runs        int64
	expired     int64
	pinDeferred int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReclaimer returns a reclaimer for one stream. relocate repoints
// owners of moved records (typically bwtree.Mapping.Relocate).
func NewReclaimer(store *storage.Store, stream storage.StreamID, policy Policy, relocate storage.RelocateFunc) *Reclaimer {
	return &Reclaimer{
		store:    store,
		stream:   stream,
		policy:   policy,
		relocate: relocate,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (r *Reclaimer) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// RunOnce expires TTL-dead extents, then reclaims up to n extents chosen
// by the policy. It returns the bytes moved by this cycle.
func (r *Reclaimer) RunOnce(n int) (int64, error) {
	now := r.now()
	if r.TTL > 0 {
		dropped := r.store.DropExpired(r.stream, now.Add(-r.TTL))
		r.mu.Lock()
		r.expired += int64(len(dropped))
		r.mu.Unlock()
	}
	usage := r.store.Usage(r.stream)
	if r.Pins != nil {
		if oldest, ok := r.Pins.OldestPinTime(); ok {
			kept := usage[:0]
			deferred := int64(0)
			for _, u := range usage {
				if u.LastUpdate.After(oldest) {
					deferred++
					continue
				}
				kept = append(kept, u)
			}
			usage = kept
			if deferred > 0 {
				r.mu.Lock()
				r.pinDeferred += deferred
				r.mu.Unlock()
			}
		}
	}
	// The policy's clock is read after the usage snapshot: an extent
	// invalidated since the first read has LastUpdate > now, which a
	// TTL-aware policy would take for "far from expiry" and relocate.
	ids := r.policy.Pick(usage, n, r.now())
	var moved int64
	for _, id := range ids {
		m, err := r.store.Reclaim(r.stream, id, r.relocate)
		moved += m
		if err != nil && err != storage.ErrReclaimed {
			return moved, err
		}
	}
	r.mu.Lock()
	r.bytesMoved += moved
	r.runs++
	r.mu.Unlock()
	return moved, nil
}

// Start launches a background loop reclaiming batch extents every
// interval until Stop is called.
func (r *Reclaimer) Start(interval time.Duration, batch int) {
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				// Reclamation errors here mean the store is closing; the
				// loop simply keeps ticking until stopped.
				_, _ = r.RunOnce(batch)
			}
		}
	}()
}

// Stop terminates the background loop and waits for it to exit. Safe to
// call multiple times; a reclaimer that was never started must not call
// Stop.
func (r *Reclaimer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// ReclaimerStats is a snapshot of a reclaimer's accounting.
type ReclaimerStats struct {
	BytesMoved     int64 // background bytes rewritten by reclamation
	Runs           int64
	ExtentsExpired int64 // extents dropped for free by TTL
	PinDeferred    int64 // extent picks skipped because a pinned snapshot may need them
	BlockPinned    int64 // always 0: edge blocks own no extents; the benchmark harness still reads the field
}

// Stats returns a snapshot.
func (r *Reclaimer) Stats() ReclaimerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReclaimerStats{BytesMoved: r.bytesMoved, Runs: r.runs, ExtentsExpired: r.expired, PinDeferred: r.pinDeferred}
}
