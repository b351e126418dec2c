package wal

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"bg3/internal/metrics"
)

// ErrCommitterStopped is returned for records caught in a committer
// shutdown.
var ErrCommitterStopped = errors.New("wal: group committer stopped")

// GroupCommitterOptions tunes the coalescing triggers of a GroupCommitter.
type GroupCommitterOptions struct {
	// MaxBatch is the size trigger and the largest group one cut takes: once
	// this many records are queued a waiter cuts them without waiting out
	// MaxDelay. 0 means 64.
	MaxBatch int
	// MaxDelay is the latency trigger: how long the head of the queue waits
	// for company before a waiter cuts it. 0 cuts as soon as a waiter finds
	// no cut in the air — every record still shares an append with whatever
	// queued while the previous one was in the air.
	MaxDelay time.Duration
	// OnRelease, when set, is invoked with the last LSN of each group just
	// before that group's writers are acked. Groups are appended one after
	// another in LSN order, so successive calls carry strictly increasing
	// LSNs and each marks a gapless durable prefix — the MVCC
	// epoch source hangs off this hook to advance the global read epoch at
	// group-commit boundaries. The callback runs on the release path, under
	// the committer's lock, and must not block.
	OnRelease func(last LSN)
}

func (o GroupCommitterOptions) withDefaults() GroupCommitterOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	return o
}

// commitReq is one record awaiting group commit: a copy of the one LogAsync
// was handed, whose Key and Value it shares.
type commitReq struct {
	rec Record
	at  time.Time // when the record was enqueued; commit latency base
}

// sealedAppender is the slice of *Writer the committer drives: LSN sealing
// plus sealed-group appends. Narrowed to an interface so that tests can drive
// the committer against a fake storage whose appends complete when the test
// says.
type sealedAppender interface {
	MaxRecordSize() int
	NextLSN() LSN
	SealAssigned(dst []SealedGroup, recs []*Record, frame func(size int) []byte) ([]SealedGroup, error)
	AppendSealed(g SealedGroup) error
}

var _ sealedAppender = (*Writer)(nil)

// maxKeptFrame is the largest envelope buffer the committer keeps for reuse;
// a larger group's buffer is left to the collector. keptFrames is how many it
// keeps: a cut is one group, or two when it outgrew an extent.
const (
	maxKeptFrame = 64 << 10
	keptFrames   = 2
)

// GroupCommitter batches WAL records into shared storage appends and is the
// node's LSN authority — the paper's §3.4 write-side amortization: many
// logical writes share one ms-latency storage round trip. It sits between
// the forest's bwtree.WALLogger hook and the Writer, and owns no goroutine.
//
// LogAsync assigns the LSN and queues the record — callers hold their page
// latch only for that instant — and returns a wait function that does the
// committer's work: while its record is still queued and no cut is in the
// air, the waiter cuts up to MaxBatch records off the head of the queue, seals
// them and appends them itself; otherwise it sleeps until a release, the end
// of a cut or a failure wakes it. Nothing is cut before someone waits, so
// whatever a write queues before its wait goes out as one group, and whatever
// queues while a cut is in the air goes out with the next.
//
// One cut is in the air at a time, and its groups are appended in LSN order,
// each once the one before it returned: groups land in the log in LSN order,
// so no durable group ever lies past a hole, and a reader can take one for
// damage. A record's outcome follows from its LSN alone: inside the released
// prefix it succeeded; at or after a failed group — or in the queue when Stop
// lands — it failed, and the committer assigns no further LSN.
type GroupCommitter struct {
	a    sealedAppender
	opts GroupCommitterOptions

	mu      sync.Mutex
	cond    sync.Cond // broadcast at every release, cut's end, failure and window end
	nextLSN LSN
	pending []commitReq // assigned, not yet cut, in LSN order
	busy    bool        // a cut's groups are being appended
	durable LSN         // last LSN of the released, gapless durable prefix
	failAt  LSN         // every record from here on failed (0: healthy)
	failErr error
	window  bool // a MaxDelay timer is armed

	// Reused from cut to cut, so that a cut allocates nothing.
	frames [][]byte      // envelope buffers whose append returned, at most keptFrames
	recs   []*Record     // a cut's records: pointers into pending, under mu
	at     []time.Time   // when each of a cut's records was enqueued
	groups []SealedGroup // a cut's sealed groups
	// frame is takeFrame, bound once: a method value made at every cut would
	// be allocated at every cut.
	frame func(size int) []byte

	batches   metrics.Counter      // groups released
	records   metrics.Counter      // records released
	commitLat metrics.Histogram    // enqueue to durable, per record
	groupSize metrics.IntHistogram // records per released group
}

// NewGroupCommitter returns a committer over w.
func NewGroupCommitter(w *Writer, opts GroupCommitterOptions) *GroupCommitter {
	return newGroupCommitterFor(w, opts)
}

// newGroupCommitterFor is NewGroupCommitter against any sealed appender
// (tests substitute a fake storage with controlled completions).
func newGroupCommitterFor(a sealedAppender, opts GroupCommitterOptions) *GroupCommitter {
	next := a.NextLSN()
	c := &GroupCommitter{a: a, opts: opts.withDefaults(), nextLSN: next, durable: next - 1}
	c.cond.L = &c.mu
	c.frame = c.takeFrame
	return c
}

// LogAsync assigns the next LSN to rec, queues a copy of it for group commit,
// and returns the LSN plus a wait function that blocks until the record is
// durable. It keeps no pointer to rec, which the caller may reuse at once;
// the copy shares rec's Key and Value, which must not change until the wait
// returned. Queue order equals LSN order, and so is the order groups are
// appended and acks released in. A record too large to
// ever fit a storage append is rejected here, before an LSN exists — the
// failure stays scoped to this one write instead of fail-stopping the log.
func (c *GroupCommitter) LogAsync(rec *Record) (LSN, func() error) {
	if n := encodedSize(rec); n > c.a.MaxRecordSize() {
		err := fmt.Errorf("%w: %d bytes, max %d", ErrRecordTooLarge, n, c.a.MaxRecordSize())
		return 0, func() error { return err }
	}
	at := time.Now()
	c.mu.Lock()
	if c.failAt != 0 {
		err := c.failErr
		c.mu.Unlock()
		return 0, func() error { return err }
	}
	lsn := c.nextLSN
	rec.LSN = lsn
	c.nextLSN++
	c.pending = append(c.pending, commitReq{rec: *rec, at: at})
	c.mu.Unlock()
	return lsn, func() error { return c.wait(lsn) }
}

// Waits collects the durability waits of a write's records, as LogAsync
// returned them, for the write to drain once, after its last record is
// enqueued, so that all its records share storage appends. The first few are
// held inline: a Waits declared by the writer keeps a short list off the heap.
type Waits struct {
	n      int
	inline [4]func() error
	more   []func() error
}

// Add appends wait to the list.
func (ws *Waits) Add(wait func() error) {
	if ws.n < len(ws.inline) {
		ws.inline[ws.n] = wait
		ws.n++
		return
	}
	ws.more = append(ws.more, wait)
}

// Drain invokes every wait, in the order added, and returns the first
// failure.
func (ws *Waits) Drain() error {
	var err error
	for _, list := range [][]func() error{ws.inline[:ws.n], ws.more} {
		for _, wait := range list {
			if werr := wait(); werr != nil && err == nil {
				err = werr
			}
		}
	}
	return err
}

// Log implements bwtree.WALLogger: enqueue and wait for durability.
func (c *GroupCommitter) Log(rec *Record) (LSN, error) {
	lsn, wait := c.LogAsync(rec)
	if err := wait(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// LastLSN returns the most recently assigned LSN (0 if none).
func (c *GroupCommitter) LastLSN() LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextLSN - 1
}

// wait blocks until the record at lsn has an outcome, cutting and appending
// the head of the queue itself whenever that is due.
func (c *GroupCommitter) wait(lsn LSN) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		switch {
		case lsn <= c.durable:
			return nil
		case c.failAt != 0 && lsn >= c.failAt:
			return c.failErr
		case c.due(lsn):
			c.flushLocked()
		default:
			c.cond.Wait()
		}
	}
}

// due reports whether the waiter for lsn cuts now: its record is still
// queued, no cut is in the air, and either MaxBatch records are queued or the
// head has waited MaxDelay. A window still open arms one timer that wakes the
// waiters when it closes. Caller holds c.mu.
func (c *GroupCommitter) due(lsn LSN) bool {
	if len(c.pending) == 0 || lsn < c.pending[0].rec.LSN || c.busy {
		return false
	}
	if c.opts.MaxDelay <= 0 || len(c.pending) >= c.opts.MaxBatch {
		return true
	}
	left := c.opts.MaxDelay - time.Since(c.pending[0].at)
	if left <= 0 {
		return true
	}
	if !c.window {
		c.window = true
		time.AfterFunc(left, func() {
			c.mu.Lock()
			c.window = false
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	return false
}

// flushLocked cuts up to MaxBatch records off the head of the queue, seals
// them, and appends the sealed groups (one, unless the batch outgrew an
// extent) one after another, in LSN order, on the caller's goroutine,
// releasing c.mu around each storage append and each group once its append
// returned. The cut stays in the air until its last group returned: no other
// waiter cuts meanwhile. Each group is encoded once, into a frame from the
// free list, and its frame goes back on the list once its append returned:
// storage keeps a copy of what it persisted, and nothing else reads the
// frame. Caller holds c.mu.
func (c *GroupCommitter) flushLocked() {
	n := min(len(c.pending), c.opts.MaxBatch)
	for i := range c.pending[:n] {
		c.recs = append(c.recs, &c.pending[i].rec)
		c.at = append(c.at, c.pending[i].at)
	}
	groups, err := c.a.SealAssigned(c.groups, c.recs, c.frame)
	clear(c.recs)
	c.recs = c.recs[:0]
	if err != nil {
		c.at = c.at[:0]
		c.failLocked(c.pending[0].rec.LSN, err)
		return
	}
	c.pending = slices.Delete(c.pending, 0, n)
	c.busy = true
	at := c.at
	for _, g := range groups {
		// A group at or after a failure has failed already; Stop fails the
		// queue alone, so the groups cut before it still go out.
		err := c.failErr
		if c.failAt == 0 || g.First < c.failAt {
			c.mu.Unlock()
			err = c.a.AppendSealed(g)
			c.mu.Lock()
		}
		c.putFrame(g.Data)
		c.releaseLocked(g, at[:g.Count], err)
		at = at[g.Count:]
	}
	clear(groups)
	c.groups, c.at = groups[:0], c.at[:0]
	c.busy = false
	c.cond.Broadcast()
	// Yield the processor once per cut. The waiters just woken, and whatever
	// else became runnable meanwhile, are queued behind this goroutine, which
	// would otherwise go on with its caller's work and keep them parked until
	// it blocks or is preempted.
	c.mu.Unlock()
	runtime.Gosched()
	c.mu.Lock()
}

// takeFrame is SealAssigned's frame source: the last buffer on the free list
// when it holds size bytes, else a new one — rounded up to a power of two when
// it will be kept, so that it serves the next groups of about that size too.
// Caller holds c.mu.
func (c *GroupCommitter) takeFrame(size int) []byte {
	if k := len(c.frames); k > 0 {
		b := c.frames[k-1]
		c.frames[k-1] = nil
		c.frames = c.frames[:k-1]
		if cap(b) >= size {
			return b
		}
	}
	if size <= maxKeptFrame {
		size = 1 << bits.Len(uint(size-1))
	}
	return make([]byte, 0, size)
}

// putFrame returns the buffer of a group whose append returned to the free
// list, unless it is over maxKeptFrame or the list is full. Caller holds c.mu.
func (c *GroupCommitter) putFrame(b []byte) {
	if b != nil && cap(b) <= maxKeptFrame && len(c.frames) < keptFrames {
		c.frames = append(c.frames, b[:0])
	}
}

// releaseLocked settles group g, whose append returned err, and whose records
// were enqueued at the times at. A durable group advances the durable prefix
// and acks its records; a failed one fails every record from its first LSN
// on, so the acked records are exactly the log's gapless durable prefix.
// Caller holds c.mu.
func (c *GroupCommitter) releaseLocked(g SealedGroup, at []time.Time, err error) {
	if err != nil {
		c.failLocked(g.First, err)
		return
	}
	if c.opts.OnRelease != nil {
		// Advance the read epoch before acking: a writer that sees its commit
		// return can immediately pin a snapshot that includes its own write.
		c.opts.OnRelease(g.Last)
	}
	c.durable = g.Last
	now := time.Now()
	for _, t := range at {
		c.commitLat.Observe(now.Sub(t))
	}
	c.groupSize.Observe(int64(g.Count))
	c.batches.Inc()
	c.records.Add(int64(g.Count))
	c.cond.Broadcast()
}

// failLocked fails every record from LSN at on with err and drops the queue;
// no LSN is assigned afterwards. The lowest failure wins, so a real failure
// below a shutdown replaces ErrCommitterStopped as the cause later admissions
// report. Caller holds c.mu.
func (c *GroupCommitter) failLocked(at LSN, err error) {
	if c.failAt == 0 || at < c.failAt {
		c.failAt, c.failErr = at, err
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	c.cond.Broadcast()
}

// Stop terminates the committer: records still queued fail with
// ErrCommitterStopped, and Stop returns once the cut in the air, if any, has
// been appended and released normally.
func (c *GroupCommitter) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.nextLSN
	if len(c.pending) > 0 {
		at = c.pending[0].rec.LSN
	}
	c.failLocked(at, ErrCommitterStopped)
	for c.busy {
		c.cond.Wait()
	}
}

// RegisterMetrics exposes the committer's accounting under the "wal."
// prefix, next to the writer's per-append metrics.
//
// wal.commit_us is the enqueue-to-durable latency of acked records: the group
// window, the wait for the cut in the air and the storage append with its
// retries. wal.group_size is records per released group, its mean the
// write-side amortization factor (records acked per storage round trip, §3.4).
func (c *GroupCommitter) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("wal.commit_batches", &c.batches)
	r.RegisterCounter("wal.commit_records", &c.records)
	r.RegisterHistogram("wal.commit_us", &c.commitLat)
	r.RegisterIntHistogram("wal.group_size", &c.groupSize)
	r.GaugeFunc("wal.last_lsn", func() int64 { return int64(c.LastLSN()) })
}
