package gc

import (
	"fmt"
	"sync"
	"time"

	"bg3/internal/storage"
)

// Reclaimer drives a Policy against one stream of a store, either on
// demand (RunOnce) or from a background goroutine (Start/Stop). It also
// drives TTL expiry, the zero-cost reclamation path.
//
// It picks extents from what the workload did to them alone (§3.3), never
// from what readers hold. A reader of the leader reaches storage through the
// mapping, which relocate repoints under the page latch, and every record a
// pinned snapshot still needs is live — consolidation keeps the history above
// the retention floor as delta records — so it moves with the page. Readers
// holding locations the mapping does not repoint (followers, a deposed
// leader's open snapshots) hold the extents back through the store's release
// rule instead (storage.Store.Follow).
type Reclaimer struct {
	store    *storage.Store
	stream   storage.StreamID
	policy   Policy
	relocate storage.RelocateFunc

	// TTL expires whole extents without moving data; zero disables it. Age
	// is measured on the store's clock (storage.Store.Now).
	TTL time.Duration

	// cycle is held shared by every RunOnce and exclusively by Fence, which
	// sets fenced under it.
	cycle  sync.RWMutex
	fenced bool

	mu         sync.Mutex
	bytesMoved int64
	runs       int64
	expired    int64

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

// RunOnce expires TTL-dead extents, then reclaims up to n extents chosen
// by the policy. It returns the bytes moved by this cycle, or an error
// wrapping storage.ErrFenced once the reclaimer is fenced.
func (r *Reclaimer) RunOnce(n int) (int64, error) {
	r.cycle.RLock()
	defer r.cycle.RUnlock()
	if r.fenced {
		return 0, fmt.Errorf("gc: reclaimer of a deposed leader: %w", storage.ErrFenced)
	}
	if r.TTL > 0 {
		dropped := r.store.DropExpired(r.stream, r.store.Now().Add(-r.TTL))
		r.mu.Lock()
		r.expired += int64(len(dropped))
		r.mu.Unlock()
	}
	usage := r.store.Usage(r.stream)
	// The policy's clock is read after the usage snapshot: an extent
	// invalidated since the first read has LastUpdate > now, which a
	// TTL-aware policy would take for "far from expiry" and relocate.
	ids := r.policy.Pick(usage, n, r.store.Now())
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

// Compact relocates the extents of the stream that writes left nearly empty
// (storage.Store.Compact) and returns the bytes moved, or an error wrapping
// storage.ErrFenced once the reclaimer is fenced. It picks nothing, so it
// counts in the store's compaction counters, not in Stats.
func (r *Reclaimer) Compact() (int64, error) {
	r.cycle.RLock()
	defer r.cycle.RUnlock()
	if r.fenced {
		return 0, fmt.Errorf("gc: compaction by a deposed leader: %w", storage.ErrFenced)
	}
	return r.store.Compact(r.stream, r.relocate)
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

// Fence waits out a cycle or a compaction in flight and makes every later
// RunOnce and Compact fail with storage.ErrFenced. A leader being deposed
// fences its reclaimers before its successor takes over: a cycle after that
// would relocate pages into locations the successor's mapping never learns of.
func (r *Reclaimer) Fence() {
	r.cycle.Lock()
	r.fenced = true
	r.cycle.Unlock()
}

// ReclaimerStats is a snapshot of a reclaimer's accounting.
type ReclaimerStats struct {
	BytesMoved     int64 // background bytes rewritten by reclamation
	Runs           int64
	ExtentsExpired int64 // extents dropped for free by TTL
	BlockPinned    int64 // always 0: edge blocks own no extents; the benchmark harness still reads the field
}

// Stats returns a snapshot.
func (r *Reclaimer) Stats() ReclaimerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReclaimerStats{BytesMoved: r.bytesMoved, Runs: r.runs, ExtentsExpired: r.expired}
}
