// Package storage implements the append-only shared cloud storage substrate
// that BG3 persists to (the paper uses ByteDance's internal Pangu-like
// service; see DESIGN.md §4 for the substitution).
//
// The store exposes several independent append-only streams (base pages,
// delta pages, WAL, and a meta stream nothing writes any more). Each stream is divided into
// uniformly sized extents, mirroring ArkDB's layout, and every extent tracks
// the usage statistics that workload-aware space reclamation needs: latest
// update time, valid/invalid record counts, and the update-gradient samples
// of §3.3.
//
// The store is strongly consistent: a record returned by Append is
// immediately visible to every reader, which is the property the
// I/O-efficient synchronization mechanism of §3.4 relies on. Millisecond
// cloud-storage latency can be injected per operation via Options.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// StreamID identifies one append-only stream inside the store.
type StreamID uint8

// The streams BG3 uses. Separating base and delta data into distinct
// streams follows ArkDB: delta pages die young, so segregating them keeps
// extent-level reclamation cheap.
const (
	StreamBase StreamID = iota
	StreamDelta
	StreamWAL
	StreamMeta
	numStreams
)

// String returns the stream's conventional name.
func (s StreamID) String() string {
	switch s {
	case StreamBase:
		return "base"
	case StreamDelta:
		return "delta"
	case StreamWAL:
		return "wal"
	case StreamMeta:
		return "meta"
	default:
		return fmt.Sprintf("stream(%d)", uint8(s))
	}
}

// ExtentID identifies an extent within a stream. IDs increase monotonically
// in append order, so they double as a coarse timestamp.
type ExtentID uint64

// Loc is the durable address of one record.
type Loc struct {
	Stream StreamID
	Extent ExtentID
	Offset uint32
	Length uint32
}

// IsZero reports whether l is the zero location (never returned by Append,
// usable as a sentinel for "not persisted").
func (l Loc) IsZero() bool { return l == Loc{} }

func (l Loc) String() string {
	return fmt.Sprintf("%s/%d@%d+%d", l.Stream, l.Extent, l.Offset, l.Length)
}

// Errors returned by the store.
var (
	ErrNotFound    = errors.New("storage: record not found")
	ErrReclaimed   = errors.New("storage: extent has been reclaimed")
	ErrRecordStale = errors.New("storage: record invalidated")
	ErrTooLarge    = errors.New("storage: record larger than extent size")
	ErrClosed      = errors.New("storage: store closed")
	// ErrTrimmed fails a Scan whose cursor has not reached the end of an
	// extent DropBefore removed: records it never read are gone for good.
	ErrTrimmed = errors.New("storage: scan behind a trimmed prefix")
	// ErrFenced rejects an append whose epoch token is not the stream's
	// current epoch. It is permanent for the holder of the stale token —
	// retrying cannot help, a newer epoch has been opened — so IsTransient
	// deliberately excludes it and writers fail-stop on it.
	ErrFenced = errors.New("storage: append epoch fenced")
)

// Options configures a Store.
type Options struct {
	// ExtentSize is the capacity, in bytes, of each extent. Appends that
	// would overflow the active extent seal it and open a new one.
	ExtentSize int

	// ReadLatency and WriteLatency simulate the round-trip time of the
	// cloud storage service. Zero disables the simulation (the default for
	// unit tests); replication experiments use millisecond values.
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// Now is the clock of everything built on the store: extent usage
	// tracking, GC's policy and TTL decisions (Store.Now). Tests and the
	// experiments inject a virtual clock to run without sleeping. Nil means
	// time.Now.
	Now func() time.Time

	// GradientDecay is the idle half-scale of the update gradient: an
	// extent untouched for GradientDecay reads at half its last
	// invalidation rate, so long-quiet extents classify as cold.
	// Default 10s.
	GradientDecay time.Duration

	// Faults, when non-nil, injects seeded faults (transient errors, torn
	// writes, latency spikes, extent loss, crash points) into every
	// operation. Nil disables injection with zero overhead on the hot path.
	Faults *FaultPlan
}

const defaultExtentSize = 1 << 20 // 1 MiB

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.ExtentSize <= 0 {
		out.ExtentSize = defaultExtentSize
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	if out.GradientDecay <= 0 {
		out.GradientDecay = 10 * time.Second
	}
	return out
}

// Metrics aggregates the store's I/O accounting. All fields are safe for
// concurrent access through the Stats snapshot.
type Metrics struct {
	ReadOps          int64
	WriteOps         int64
	BytesRead        int64
	BytesWritten     int64
	BatchReads       int64 // ReadBatch calls
	BatchLocs        int64 // records requested through ReadBatch
	BatchRoundTrips  int64 // extent round trips those calls coalesced into
	GCBytesMoved     int64 // bytes relocated by space reclamation
	GCBytesReclaimed int64 // bytes freed by reclamation and TTL expiry
	GCRecordsMoved   int64
	ExtentsReclaimed int64
	ExtentsExpired   int64 // extents dropped wholesale by TTL
	LiveBytes        int64 // valid record bytes currently stored
	TotalBytes       int64 // capacity of all resident extents
	ExtentCount      int64
	CondemnedExtents int64 // reclaimed, not yet released: readable, outside TotalBytes
	FencedAppends    int64 // appends rejected with ErrFenced
}

// GCWriteAmp returns the write amplification of space reclamation: bytes
// rewritten per byte freed. Zero until something has been reclaimed.
func (m Metrics) GCWriteAmp() float64 {
	if m.GCBytesReclaimed == 0 {
		return 0
	}
	return float64(m.GCBytesMoved) / float64(m.GCBytesReclaimed)
}

// Store is an in-process, strongly consistent, append-only shared store.
// It is safe for concurrent use by any number of goroutines; the paper's
// RW node and all RO nodes share a single Store instance.
type Store struct {
	opts    Options
	streams [numStreams]*stream

	mu     sync.Mutex
	closed bool

	// The release rule (release.go): condemnSeq numbers condemnations, relMu
	// serializes stamps and release passes and guards followers.
	condemnSeq atomic.Uint64
	relMu      sync.Mutex
	followers  map[*Follower]struct{}

	// I/O accounting. Lock-free atomics: with the batched read path issuing
	// overlapping round trips from many goroutines, a shared counter mutex
	// would serialize exactly the operations ReadBatch parallelizes.
	readOps         atomic.Int64
	writeOps        atomic.Int64
	bytesRead       atomic.Int64
	bytesWritten    atomic.Int64
	batchReads      atomic.Int64
	batchLocs       atomic.Int64
	batchRoundTrips atomic.Int64
	fencedAppends   atomic.Int64
}

// pause injects simulated storage latency by blocking the calling
// goroutine. Blocking (rather than spinning) matters: concurrent callers
// overlap their waits exactly like concurrent requests against a real
// storage service, independent of host core count. Note that the OS timer
// floor (~1ms) makes sub-millisecond values behave as roughly 1ms;
// experiments use millisecond-class latencies, like the paper's storage.
func pause(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

// Open creates an empty store.
func Open(opts *Options) *Store {
	o := opts.withDefaults()
	s := &Store{opts: o, followers: make(map[*Follower]struct{})}
	for i := range s.streams {
		s.streams[i] = newStream(StreamID(i), o)
	}
	return s
}

// Close marks the store closed. Subsequent appends fail; reads of already
// written data continue to work so that draining readers can finish.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Now reads the store's clock (Options.Now).
func (s *Store) Now() time.Time { return s.opts.Now() }

func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Store) stream(id StreamID) (*stream, error) {
	if int(id) >= len(s.streams) {
		return nil, fmt.Errorf("storage: unknown stream %d", id)
	}
	return s.streams[id], nil
}

// Append durably writes data to the tail of the given stream and returns
// its location. tag is an opaque owner token (BG3 uses the page ID) that
// space reclamation hands back through RelocateFunc. Append carries epoch
// token 0, so it works on any stream that has never been fenced and fails
// ErrFenced afterwards.
func (s *Store) Append(id StreamID, tag uint64, data []byte) (Loc, error) {
	return s.AppendEpoch(id, 0, tag, data)
}

// AppendEpoch is Append carrying an explicit fence token. The append is
// admitted iff epoch equals the stream's current epoch (see
// OpenStreamEpoch); a mismatch fails ErrFenced and persists nothing — not
// even a torn prefix, since the fence check precedes fault injection. This
// is the BtrLog-style single-writer guarantee: a deposed leader's token is
// rejected by the storage service itself, no cooperation required.
func (s *Store) AppendEpoch(id StreamID, epoch, tag uint64, data []byte) (Loc, error) {
	if s.isClosed() {
		return Loc{}, ErrClosed
	}
	st, err := s.stream(id)
	if err != nil {
		return Loc{}, err
	}
	if len(data) > s.opts.ExtentSize {
		return Loc{}, fmt.Errorf("%w: %d > extent size %d (stream %v, tag %d)", ErrTooLarge, len(data), s.opts.ExtentSize, id, tag)
	}
	if err := st.checkEpoch(epoch); err != nil {
		s.fencedAppends.Add(1)
		return Loc{}, err
	}
	if p := s.opts.Faults; p != nil {
		out := p.appendDecision(id, len(data))
		pause(out.spike)
		if out.err != nil {
			if out.torn > 0 {
				// Persist the torn prefix: it occupies the extent tail as a
				// checksummed-garbage record that readers must detect. The
				// prefix carries the same token, so an append that loses the
				// fence race persists nothing at all.
				pause(s.opts.WriteLatency)
				if _, terr := st.append(epoch, tag, data[:out.torn]); terr == nil {
					s.writeOps.Add(1)
					s.bytesWritten.Add(int64(out.torn))
				}
			}
			return Loc{}, out.err
		}
	}
	pause(s.opts.WriteLatency)
	loc, err := st.append(epoch, tag, data)
	if err != nil {
		if errors.Is(err, ErrFenced) {
			s.fencedAppends.Add(1)
		}
		return Loc{}, err
	}
	s.writeOps.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	return loc, nil
}

// OpenStreamEpoch installs epoch as the stream's fence token, invalidating
// every lower token: subsequent appends carrying a smaller epoch fail
// ErrFenced. Opening an epoch below the current one fails ErrFenced
// (the opener itself has been deposed); re-opening the current epoch is an
// idempotent no-op. The fence is serialized with in-flight appends on the
// stream lock — once OpenStreamEpoch returns, no stale-token bytes can land.
func (s *Store) OpenStreamEpoch(id StreamID, epoch uint64) error {
	st, err := s.stream(id)
	if err != nil {
		return err
	}
	return st.openEpoch(epoch)
}

// AdvanceStreamEpoch atomically fences the stream at current+1 and returns
// the new epoch. Promotion uses it to claim a fresh epoch without a
// read-then-open race between competing candidates.
func (s *Store) AdvanceStreamEpoch(id StreamID) (uint64, error) {
	st, err := s.stream(id)
	if err != nil {
		return 0, err
	}
	return st.advanceEpoch(), nil
}

// StreamEpoch returns the stream's current fence epoch (0 = never fenced).
func (s *Store) StreamEpoch(id StreamID) uint64 {
	st, err := s.stream(id)
	if err != nil {
		return 0
	}
	return st.currentEpoch()
}

// Read returns the record at loc in place: a read-only view into its extent
// (extent.view), never a copy. Reading an invalidated record succeeds as long
// as its extent is still resident: BG3's RO nodes depend on old page versions
// remaining readable until the mapping table advances (§3.4); reclamation is
// what finally makes them unreadable, not what invalidates a view taken before.
func (s *Store) Read(loc Loc) ([]byte, error) {
	st, err := s.stream(loc.Stream)
	if err != nil {
		return nil, err
	}
	if p := s.opts.Faults; p != nil {
		spike, ferr := p.readDecision(loc.Stream, loc.Extent)
		pause(spike)
		if ferr != nil {
			return nil, ferr
		}
	}
	pause(s.opts.ReadLatency)
	data, err := st.read(loc)
	if err != nil {
		return nil, err
	}
	s.readOps.Add(1)
	s.bytesRead.Add(int64(len(data)))
	return data, nil
}

// Invalidate marks the record at loc dead, updating its extent's
// fragmentation statistics and update-gradient samples. Invalidating a
// record twice, or a record in an already reclaimed extent, is a no-op.
func (s *Store) Invalidate(loc Loc) {
	st, err := s.stream(loc.Stream)
	if err != nil {
		return
	}
	st.mark(loc, false, s.Now())
}

// Revalidate marks the record at loc live again: a leader taking over holds
// the locations the log names, which its predecessor may have superseded by a
// flush no checkpoint logged, and GC must move such a record, not drop it.
func (s *Store) Revalidate(loc Loc) {
	if st, err := s.stream(loc.Stream); err == nil && !loc.IsZero() {
		st.mark(loc, true, time.Time{})
	}
}

// Stats returns a snapshot of the store's metrics.
func (s *Store) Stats() Metrics {
	m := Metrics{
		ReadOps:         s.readOps.Load(),
		WriteOps:        s.writeOps.Load(),
		BytesRead:       s.bytesRead.Load(),
		BytesWritten:    s.bytesWritten.Load(),
		BatchReads:      s.batchReads.Load(),
		BatchLocs:       s.batchLocs.Load(),
		BatchRoundTrips: s.batchRoundTrips.Load(),
		FencedAppends:   s.fencedAppends.Load(),
	}
	for _, st := range s.streams {
		sm := st.stats()
		m.GCBytesMoved += sm.GCBytesMoved
		m.GCBytesReclaimed += sm.GCBytesReclaimed
		m.GCRecordsMoved += sm.GCRecordsMoved
		m.ExtentsReclaimed += sm.ExtentsReclaimed
		m.ExtentsExpired += sm.ExtentsExpired
		m.LiveBytes += sm.LiveBytes
		m.TotalBytes += sm.TotalBytes
		m.ExtentCount += sm.ExtentCount
		m.CondemnedExtents += sm.CondemnedExtents
	}
	return m
}

// ResetIOStats zeroes the read/write operation counters (extent-level usage
// tracking is untouched). Benchmarks call this after loading a dataset so
// measurements cover only the steady state.
func (s *Store) ResetIOStats() {
	for _, c := range []*atomic.Int64{
		&s.readOps, &s.writeOps, &s.bytesRead, &s.bytesWritten,
		&s.batchReads, &s.batchLocs, &s.batchRoundTrips,
	} {
		c.Store(0)
	}
}

// Usage returns the usage records of all resident extents in a stream,
// ordered by extent ID (oldest first). GC policies consume this.
func (s *Store) Usage(id StreamID) []ExtentUsage {
	st, err := s.stream(id)
	if err != nil {
		return nil
	}
	return st.usage()
}

// RelocateFunc is invoked by Reclaim for every valid record moved out of a
// reclaimed extent. The callback must atomically repoint the owner's
// reference from old to new (BG3 updates the Bw-tree mapping table) and
// report whether it did; returning false means the record went stale while
// being moved, and the new copy is immediately invalidated.
type RelocateFunc func(tag uint64, old, new Loc) bool

// Reclaim rewrites all still-valid records of the given extent to the tail
// of its stream, then condemns the extent: it leaves usage and space
// accounting at once and is released under the store's release rule
// (release.go) — at once on a store without a log. It returns the number of bytes
// relocated (the write amplification the GC experiments measure).
func (s *Store) Reclaim(id StreamID, ext ExtentID, relocate RelocateFunc) (movedBytes int64, err error) {
	st, errs := s.stream(id)
	if errs != nil {
		return 0, errs
	}
	return st.reclaim(s, ext, relocate)
}

// DropExpired removes whole extents whose newest record is older than
// deadline — the TTL fast path of §3.3 ("allow it to expire naturally"):
// no data is moved, so expiry contributes zero write amplification.
// It returns the IDs of the dropped extents. The active (unsealed) extent
// is never dropped.
func (s *Store) DropExpired(id StreamID, deadline time.Time) []ExtentID {
	st, err := s.stream(id)
	if err != nil {
		return nil
	}
	return st.dropExpired(deadline)
}

// ExtentSize returns the configured extent capacity.
func (s *Store) ExtentSize() int { return s.opts.ExtentSize }

// Faults returns the store's fault plan (nil when injection is disabled).
func (s *Store) Faults() *FaultPlan { return s.opts.Faults }
