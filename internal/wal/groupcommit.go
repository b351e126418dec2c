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
	// a free pipeline slot — every record still shares an append with
	// whatever queued while the pipeline was full.
	MaxDelay time.Duration
	// PipelineDepth is how many sealed group appends the committer keeps in
	// flight concurrently (BtrLog-style commit pipelining). Storage
	// completions may land out of order, but acks are released strictly in
	// LSN order: a group's writers learn of durability only once every
	// earlier group is durable too. <= 1 preserves the serial
	// one-append-at-a-time behaviour.
	PipelineDepth int
	// OnRelease, when set, is invoked with the last LSN of each group just
	// before that group's writers are acked. Because flights retire from
	// the FIFO strictly in LSN order, successive calls carry strictly
	// increasing LSNs and each marks a gapless durable prefix — the MVCC
	// epoch source hangs off this hook to advance the global read epoch at
	// group-commit boundaries. The callback runs on the release path, under
	// the committer's lock, and must not block.
	OnRelease func(last LSN)
}

func (o GroupCommitterOptions) withDefaults() GroupCommitterOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 1
	}
	return o
}

// commitReq is one record awaiting group commit: a copy of the one LogAsync
// was handed, whose Key and Value it shares.
type commitReq struct {
	rec Record
	at  time.Time // when the record was enqueued; commit latency base
}

// sealedAppender is the slice of *Writer the committer drives: serial LSN
// sealing plus concurrent sealed-group appends. Narrowed to an interface so
// the pipeline's scheduling can be property-tested against a fake storage
// with controlled completion order.
type sealedAppender interface {
	MaxRecordSize() int
	NextLSN() LSN
	SealAssigned(dst []SealedGroup, recs []*Record, frame func(size int) []byte) ([]SealedGroup, error)
	AppendSealed(g SealedGroup) error
}

var _ sealedAppender = (*Writer)(nil)

// flight is one sealed group cut from the queue and not yet released.
// Flights retire from the FIFO strictly in cut (= LSN) order, however their
// storage appends complete. A released flight is reused by a later cut.
type flight struct {
	g      SealedGroup
	at     []time.Time // when each of its records was enqueued
	done   bool
	err    error
	doneAt time.Time // when the storage append completed
}

// maxKeptFrame is the largest envelope buffer the committer keeps for reuse;
// a larger group's buffer is left to the collector.
const maxKeptFrame = 64 << 10

// GroupCommitter batches WAL records into shared storage appends and is the
// node's LSN authority — the paper's §3.4 write-side amortization: many
// logical writes share one ms-latency storage round trip. It sits between
// the forest's bwtree.WALLogger hook and the Writer, and owns no goroutine.
//
// LogAsync assigns the LSN and queues the record — callers hold their page
// latch only for that instant — and returns a wait function that does the
// committer's work: while its record is still queued and a pipeline slot is
// free, the waiter cuts up to MaxBatch records off the head of the queue,
// seals them and appends them itself; otherwise it sleeps until a release, a
// freed slot or a failure wakes it. Nothing is cut before someone waits, so
// whatever a write queues before its wait goes out as one group.
//
// With PipelineDepth > 1 several waiters append at once. Completions may
// arrive out of order, but release is strictly in order: the durable prefix
// advances only over a gapless run of completed groups at the head of the
// flight FIFO. A record's outcome follows from its LSN alone: inside the
// released prefix it succeeded; at or after a failed group — or in the queue
// when Stop lands — it failed, and the committer assigns no further LSN.
type GroupCommitter struct {
	a    sealedAppender
	opts GroupCommitterOptions

	mu       sync.Mutex
	cond     sync.Cond // broadcast at every release, freed slot, failure and window end
	nextLSN  LSN
	pending  []commitReq // assigned, not yet cut, in LSN order
	flights  []*flight   // cut, not yet released, FIFO in LSN order
	inflight int         // flights whose append has not completed
	durable  LSN         // last LSN of the released, gapless durable prefix
	failAt   LSN         // every record from here on failed (0: healthy)
	failErr  error
	window   bool // a MaxDelay timer is armed

	// Reused from cut to cut, so that a cut allocates nothing.
	spare  []*flight     // released flights
	frames [][]byte      // envelope buffers whose append returned, at most PipelineDepth+1
	recs   []*Record     // a cut's records: pointers into pending, under mu
	groups []SealedGroup // a cut's sealed groups
	// frame is takeFrame, bound once: a method value made at every cut would
	// be allocated at every cut.
	frame func(size int) []byte

	batches      metrics.Counter      // groups released
	records      metrics.Counter      // records released
	commitLat    metrics.Histogram    // enqueue to durable, per record
	groupSize    metrics.IntHistogram // records per released group
	ackReorder   metrics.Histogram    // completion-to-release wait per group
	inflightHist metrics.IntHistogram // in-flight appends observed at dispatch
}

// NewGroupCommitter returns a committer over w.
func NewGroupCommitter(w *Writer, opts GroupCommitterOptions) *GroupCommitter {
	return newGroupCommitterFor(w, opts)
}

// newGroupCommitterFor is NewGroupCommitter against any sealed appender
// (property tests substitute a fake storage with controlled completions).
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
// returned. Queue order equals LSN order, so acks release in LSN order even
// when pipelined storage appends complete out of it. A record too large to
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
// queued, a pipeline slot is free, and either MaxBatch records are queued or
// the head has waited MaxDelay. A window still open arms one timer that wakes
// the waiters when it closes. Caller holds c.mu.
func (c *GroupCommitter) due(lsn LSN) bool {
	if len(c.pending) == 0 || lsn < c.pending[0].rec.LSN || c.inflight >= c.opts.PipelineDepth {
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
// extent) in order on the caller's goroutine, releasing c.mu around each
// storage append. Sealing happens under c.mu, so groups are sealed in cut
// order, which is LSN order. Each group is encoded once, into a frame from
// the free list, and its frame goes back on the list once its append
// returned: storage keeps a copy of what it persisted, and nothing else reads
// the frame. Caller holds c.mu.
func (c *GroupCommitter) flushLocked() {
	n := min(len(c.pending), c.opts.MaxBatch)
	for i := range c.pending[:n] {
		c.recs = append(c.recs, &c.pending[i].rec)
	}
	groups, err := c.a.SealAssigned(c.groups, c.recs, c.frame)
	clear(c.recs)
	c.recs = c.recs[:0]
	if err != nil {
		c.failLocked(c.pending[0].rec.LSN, err)
		return
	}
	var cut [2]*flight // almost always one group, so the list stays on the stack
	fs := cut[:0]
	batch := c.pending[:n]
	for _, g := range groups {
		fs = append(fs, c.newFlight(g, batch[:g.Count]))
		batch = batch[g.Count:]
		c.inflight++
		c.inflightHist.Observe(int64(c.inflight))
	}
	clear(groups)
	c.groups = groups[:0]
	c.pending = slices.Delete(c.pending, 0, n)
	c.flights = append(c.flights, fs...)
	for _, f := range fs {
		// A group at or after a failure has failed already; Stop fails the
		// queue alone, so the groups cut before it still go out.
		f.err = c.failErr
		if c.failAt == 0 || f.g.First < c.failAt {
			c.mu.Unlock()
			aerr := c.a.AppendSealed(f.g)
			c.mu.Lock()
			f.err = aerr
		}
		c.putFrame(f.g.Data)
		f.g.Data = nil
		f.done, f.doneAt = true, time.Now()
		c.inflight--
		c.releaseLocked()
		c.cond.Broadcast()
	}
	// Yield the processor once per append. The waiters just woken, and
	// whatever else became runnable meanwhile, are queued behind this
	// goroutine, which would otherwise go on with its caller's work and keep
	// them parked until it blocks or is preempted.
	c.mu.Unlock()
	runtime.Gosched()
	c.mu.Lock()
}

// newFlight returns a flight for g, a spare one if there is, stamped with the
// enqueue times of reqs, its records. Caller holds c.mu.
func (c *GroupCommitter) newFlight(g SealedGroup, reqs []commitReq) *flight {
	var f *flight
	if k := len(c.spare); k > 0 {
		f, c.spare = c.spare[k-1], c.spare[:k-1]
	} else {
		f = new(flight)
	}
	f.g = g
	for _, req := range reqs {
		f.at = append(f.at, req.at)
	}
	return f
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
	if b != nil && cap(b) <= maxKeptFrame && len(c.frames) <= c.opts.PipelineDepth {
		c.frames = append(c.frames, b[:0])
	}
}

// releaseLocked retires completed flights from the FIFO head in LSN order,
// advancing the durable prefix. A failed head fails every record from its
// first LSN on — its own and those of every flight behind it, durable or
// not — so the acked records are exactly the gapless durable prefix. Caller
// holds c.mu.
func (c *GroupCommitter) releaseLocked() {
	now := time.Now()
	k := 0
	for ; k < len(c.flights) && c.flights[k].done; k++ {
		f := c.flights[k]
		if f.err != nil {
			// Later flights may already be durable, but their predecessors
			// are not: acking them would advertise a hole. They fail with
			// maybe-semantics — recovery delivers only the gapless prefix.
			// Flights still in the air belong to their appenders, so none of
			// these is reused.
			clear(c.flights)
			c.flights = c.flights[:0]
			c.failLocked(f.g.First, f.err)
			return
		}
		c.ackReorder.Observe(now.Sub(f.doneAt))
		if c.opts.OnRelease != nil {
			// Advance the read epoch before acking: a writer that sees its
			// commit return can immediately pin a snapshot that includes its
			// own write.
			c.opts.OnRelease(f.g.Last)
		}
		c.durable = f.g.Last
		for _, at := range f.at {
			c.commitLat.Observe(now.Sub(at))
		}
		c.groupSize.Observe(int64(f.g.Count))
		c.batches.Inc()
		c.records.Add(int64(f.g.Count))
		*f = flight{at: f.at[:0]}
		c.spare = append(c.spare, f)
	}
	c.flights = slices.Delete(c.flights, 0, k)
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
// ErrCommitterStopped, and Stop returns once the appends in flight have
// completed and released normally.
func (c *GroupCommitter) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.nextLSN
	if len(c.pending) > 0 {
		at = c.pending[0].rec.LSN
	}
	c.failLocked(at, ErrCommitterStopped)
	for c.inflight > 0 {
		c.cond.Wait()
	}
}

// RegisterMetrics exposes the committer's accounting under the "wal."
// prefix, next to the writer's per-append metrics.
//
// wal.commit_us is the enqueue-to-durable latency of acked records: the group
// window, the storage append with its retries and any in-order release wait.
// wal.group_size is records per released group, its mean the write-side
// amortization factor (records acked per storage round trip, §3.4).
// wal.ack_reorder_us is how long a durable group waited for its predecessors
// before its acks could release in LSN order. wal.inflight_groups is the
// appends in flight seen at each dispatch (a mean above 1: round trips
// overlap), wal.pipeline_inflight those in flight now and wal.pipeline_depth
// how many the committer allows.
func (c *GroupCommitter) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("wal.commit_batches", &c.batches)
	r.RegisterCounter("wal.commit_records", &c.records)
	r.RegisterHistogram("wal.commit_us", &c.commitLat)
	r.RegisterIntHistogram("wal.group_size", &c.groupSize)
	r.RegisterHistogram("wal.ack_reorder_us", &c.ackReorder)
	r.RegisterIntHistogram("wal.inflight_groups", &c.inflightHist)
	r.GaugeFunc("wal.pipeline_depth", func() int64 { return int64(c.opts.PipelineDepth) })
	r.GaugeFunc("wal.pipeline_inflight", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.inflight)
	})
	r.GaugeFunc("wal.last_lsn", func() int64 { return int64(c.LastLSN()) })
}
