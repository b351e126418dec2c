package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bg3/internal/metrics"
)

// ErrCommitterStopped is returned for records caught in a committer
// shutdown.
var ErrCommitterStopped = errors.New("wal: group committer stopped")

// GroupCommitterOptions tunes the coalescing triggers of a GroupCommitter.
type GroupCommitterOptions struct {
	// MaxBatch is the size trigger: a flush is cut as soon as this many
	// records are pending, without waiting out MaxDelay. 0 means 64.
	MaxBatch int
	// MaxDelay is the latency trigger: how long the committer lets a group
	// accumulate after the first record arrives before flushing. 0 flushes
	// as soon as the queue drains — every record still shares an append
	// with whatever arrived while the previous flush was in flight.
	MaxDelay time.Duration
	// QueueDepth bounds the pending queue. A writer that would overflow it
	// blocks until a flush makes room (backpressure rather than unbounded
	// memory); the stall is recorded in wal.group_stall_us. 0 means 4096.
	QueueDepth int
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
	// group-commit boundaries. The callback runs on the release path and
	// must not block.
	OnRelease func(last LSN)
}

func (o GroupCommitterOptions) withDefaults() GroupCommitterOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.QueueDepth < o.MaxBatch {
		o.QueueDepth = o.MaxBatch
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 1
	}
	return o
}

// commitReq is one record awaiting group commit.
type commitReq struct {
	rec  *Record
	at   time.Time // when the record was enqueued; commit latency base
	done chan error
}

// sealedAppender is the slice of *Writer the committer drives: serial LSN
// sealing plus concurrent sealed-group appends. Narrowed to an interface so
// the pipeline's scheduling can be property-tested against a fake storage
// with controlled completion order.
type sealedAppender interface {
	MaxRecordSize() int
	NextLSN() LSN
	SealAssigned(recs []*Record) ([]SealedGroup, error)
	AppendSealed(g SealedGroup) error
}

var _ sealedAppender = (*Writer)(nil)

// flight is one sealed group dispatched to storage and not yet released.
// Flights retire from the FIFO strictly in dispatch (= LSN) order, however
// their storage appends complete.
type flight struct {
	g      SealedGroup
	reqs   []commitReq
	done   bool
	err    error
	doneAt time.Time // when the storage append completed
}

// GroupCommitter batches WAL records into shared storage appends and is the
// node's LSN authority — the paper's §3.4 write-side amortization: many
// logical writes share one ms-latency storage round trip. It sits between
// the forest's bwtree.WALLogger hook and the Writer.
//
// LogAsync assigns the LSN immediately — callers hold their page latch only
// for that instant — and returns a wait function that blocks until the
// record's group is durable; Log is the synchronous convenience wrapper.
// A flush is cut when MaxBatch records are pending or the accumulation
// window has passed since the flusher woke, whichever comes first.
//
// With PipelineDepth > 1 the committer keeps several sealed groups in
// flight at once. Completions may arrive out of order, but release is
// strictly in order: a group acks its writers only when it reaches the head
// of the flight FIFO and everything ahead of it is durable. A failed flight
// partitions the LSN space exactly at the last gapless durable prefix —
// every record before the failed group was acked durable, every record in
// or after it (in flight, sealed, or still queued) fails, and the committer
// fail-stops.
type GroupCommitter struct {
	a    sealedAppender
	opts GroupCommitterOptions

	mu      sync.Mutex
	space   sync.Cond // signaled when a flush frees queue room
	nextLSN LSN
	pending []commitReq
	wake    chan struct{}
	full    chan struct{}
	quiet   int // open Quiet windows
	stopped bool
	poison  error // first failure; records admitted afterwards get it

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// fmu guards the flight FIFO. Lock order is fmu -> mu -> statsMu;
	// never the reverse.
	fmu      sync.Mutex
	slot     sync.Cond // signaled when a flight completes (slot frees)
	flights  []*flight // dispatched, not yet released, FIFO in LSN order
	inflight int       // dispatched flights whose append has not completed
	pipeDead bool
	pipeErr  error
	wg       sync.WaitGroup

	statsMu sync.Mutex
	batches int64
	records int64

	commitLat    metrics.Histogram    // enqueue to durable, per record
	groupSize    metrics.IntHistogram // records per flush
	flushes      metrics.Counter      // storage flushes issued
	stallLat     metrics.Histogram    // time writers spent blocked on a full queue
	ackReorder   metrics.Histogram    // completion-to-release wait per group
	inflightHist metrics.IntHistogram // in-flight appends observed at dispatch
}

// NewGroupCommitter starts the committer goroutine against w.
func NewGroupCommitter(w *Writer, opts GroupCommitterOptions) *GroupCommitter {
	return newGroupCommitterFor(w, opts)
}

// newGroupCommitterFor is NewGroupCommitter against any sealed appender
// (property tests substitute a fake storage with controlled completions).
func newGroupCommitterFor(a sealedAppender, opts GroupCommitterOptions) *GroupCommitter {
	opts = opts.withDefaults()
	c := &GroupCommitter{
		a:       a,
		opts:    opts,
		nextLSN: a.NextLSN(),
		wake:    make(chan struct{}, 1),
		full:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.space.L = &c.mu
	c.slot.L = &c.fmu
	go c.run()
	return c
}

// LogAsync assigns the next LSN to rec, enqueues it for group commit, and
// returns the LSN plus a wait function that blocks until the record is
// durable. Enqueue order equals LSN order, so acks release in LSN order
// even when pipelined storage appends complete out of it. A record too
// large to ever fit a storage append is rejected here, before an LSN
// exists — the failure stays scoped to this one write instead of
// fail-stopping the log.
func (c *GroupCommitter) LogAsync(rec *Record) (LSN, func() error) {
	if n := encodedSize(rec); n > c.a.MaxRecordSize() {
		err := fmt.Errorf("%w: %d bytes, max %d", ErrRecordTooLarge, n, c.a.MaxRecordSize())
		return 0, func() error { return err }
	}
	req := commitReq{rec: rec, at: time.Now(), done: make(chan error, 1)}
	c.mu.Lock()
	for !c.stopped && len(c.pending) >= c.opts.QueueDepth {
		start := time.Now()
		c.space.Wait()
		c.stallLat.Observe(time.Since(start))
	}
	if c.stopped {
		err := c.poison
		if err == nil {
			err = ErrCommitterStopped
		}
		c.mu.Unlock()
		return 0, func() error { return err }
	}
	rec.LSN = c.nextLSN
	c.nextLSN++
	c.pending = append(c.pending, req)
	n := len(c.pending)
	quiet := c.quiet > 0 && n < c.opts.MaxBatch
	c.mu.Unlock()
	if quiet {
		lsn := rec.LSN
		return lsn, func() error { c.wakeFor(lsn); return <-req.done }
	}
	signal(c.wake)
	if n >= c.opts.MaxBatch {
		// Size trigger: cut the flush without waiting out the window.
		signal(c.full)
	}
	return rec.LSN, func() error { return <-req.done }
}

// Quiet opens a window in which enqueuing a record does not wake the
// committer, and returns the function that closes it. A caller about to
// enqueue several records back to back — a batch, or a transaction's wave —
// opens one so they land in one group instead of the first going out alone
// while the rest are still being built. A quiet record wakes the committer
// when its wait begins, when a group's worth is pending, or when the window
// closes, whichever comes first, so nothing waits on a committer asleep.
func (c *GroupCommitter) Quiet() (end func()) {
	c.mu.Lock()
	c.quiet++
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.quiet--
		pending := len(c.pending) > 0
		c.mu.Unlock()
		if pending {
			signal(c.wake)
		}
	}
}

// wakeFor wakes the committer if the record at lsn is still waiting to be
// cut. A wake-up for a record already cut would linger in the channel and cut
// the next window's records in two.
func (c *GroupCommitter) wakeFor(lsn LSN) {
	c.mu.Lock()
	pending := len(c.pending) > 0 && lsn >= c.pending[0].rec.LSN
	c.mu.Unlock()
	if pending {
		signal(c.wake)
	}
}

// signal posts to a one-slot wake-up channel without blocking.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
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

func (c *GroupCommitter) run() {
	defer close(c.done)
	defer func() {
		// Sealed flights always run to completion and release (ack or
		// partition); only the unsealed queue — a suffix of the LSN space —
		// fails on shutdown, so stopping never punches a hole into the acks.
		c.failPending(ErrCommitterStopped)
		c.wg.Wait()
	}()
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
		}
		// Let a group accumulate for the window — or until the size trigger
		// fires — then drain in MaxBatch flushes until the queue is empty.
		if d := c.opts.MaxDelay; d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-c.full:
				timer.Stop()
			case <-c.stop:
				timer.Stop()
				return
			}
		}
		for {
			// Wait for a free pipeline slot BEFORE cutting the batch, so the
			// queue keeps accumulating while every slot is busy. At depth 1
			// this is exactly the serial committer's amortization — the
			// in-flight append's round trip is the accumulation window — and
			// at depth K the cut happens as late as admission allows.
			c.waitSlot()
			c.mu.Lock()
			if c.stopped {
				// The pipeline failed underneath us: everything is acked or
				// failed already.
				c.mu.Unlock()
				return
			}
			n := len(c.pending)
			if n == 0 {
				c.mu.Unlock()
				break
			}
			if n > c.opts.MaxBatch {
				n = c.opts.MaxBatch
			}
			batch := make([]commitReq, n)
			copy(batch, c.pending[:n])
			c.pending = append(c.pending[:0], c.pending[n:]...)
			c.space.Broadcast()
			c.mu.Unlock()

			recs := make([]*Record, n)
			for i, req := range batch {
				recs[i] = req.rec
			}
			groups, err := c.a.SealAssigned(recs)
			if err != nil {
				now := time.Now()
				for _, req := range batch {
					c.commitLat.Observe(now.Sub(req.at))
					req.done <- err
				}
				c.failPending(err)
				return
			}
			// One cut batch seals into one or more groups (extent splits);
			// each becomes its own flight, dispatched in LSN order.
			rest := batch
			for _, g := range groups {
				f := &flight{g: g, reqs: rest[:g.Count]}
				rest = rest[g.Count:]
				if perr := c.dispatch(f); perr != nil {
					// The pipeline died while we waited for a slot; dispatch
					// acked f's requests, fail the rest of the batch here.
					now := time.Now()
					for _, req := range rest {
						c.commitLat.Observe(now.Sub(req.at))
						req.done <- fmt.Errorf("wal: commit pipeline failed: %w", perr)
					}
					return
				}
			}
		}
	}
}

// waitSlot blocks until the pipeline has a free slot (or has died) without
// admitting anything. The run loop calls it before cutting a batch so the
// queue accumulates for the whole time the pipeline is saturated; dispatch
// then admits without blocking (the run loop is the only dispatcher, so the
// free slot cannot be stolen in between).
func (c *GroupCommitter) waitSlot() {
	c.fmu.Lock()
	for c.inflight >= c.opts.PipelineDepth && !c.pipeDead {
		c.slot.Wait()
	}
	c.fmu.Unlock()
}

// dispatch admits a flight into the pipeline, blocking while every slot is
// taken, and starts its storage append. Returns the pipeline's poison error
// if it died before the flight could be admitted (the flight's requests are
// failed here).
func (c *GroupCommitter) dispatch(f *flight) error {
	c.fmu.Lock()
	for c.inflight >= c.opts.PipelineDepth && !c.pipeDead {
		c.slot.Wait()
	}
	if c.pipeDead {
		err := c.pipeErr
		c.fmu.Unlock()
		now := time.Now()
		for _, req := range f.reqs {
			c.commitLat.Observe(now.Sub(req.at))
			req.done <- fmt.Errorf("wal: commit pipeline failed: %w", err)
		}
		return err
	}
	c.flights = append(c.flights, f)
	c.inflight++
	c.inflightHist.Observe(int64(c.inflight))
	c.fmu.Unlock()
	c.wg.Add(1)
	go c.runFlight(f)
	return nil
}

// runFlight performs one flight's storage append and retires whatever
// contiguous durable prefix of the FIFO its completion unlocked.
func (c *GroupCommitter) runFlight(f *flight) {
	defer c.wg.Done()
	err := c.a.AppendSealed(f.g)
	c.fmu.Lock()
	f.err = err
	f.done = true
	f.doneAt = time.Now()
	c.inflight--
	c.releaseLocked()
	c.slot.Broadcast()
	c.fmu.Unlock()
}

// releaseLocked retires completed flights from the FIFO head, acking their
// writers in LSN order. A failed head fail-stops the pipeline: its own
// requests and those of every flight behind it — durable or not — fail, so
// the set of acked records is exactly the gapless durable prefix. Caller
// holds c.fmu.
func (c *GroupCommitter) releaseLocked() {
	now := time.Now()
	for len(c.flights) > 0 && c.flights[0].done {
		f := c.flights[0]
		c.flights = c.flights[1:]
		if f.err != nil {
			c.pipeDead = true
			c.pipeErr = f.err
			trailing := c.flights
			c.flights = nil
			c.slot.Broadcast()
			for _, req := range f.reqs {
				c.commitLat.Observe(now.Sub(req.at))
				req.done <- f.err
			}
			// Later flights may already be durable, but their predecessors
			// are not: acking them would advertise a hole. They fail with
			// maybe-semantics — recovery delivers only the gapless prefix.
			for _, ff := range trailing {
				for _, req := range ff.reqs {
					c.commitLat.Observe(now.Sub(req.at))
					req.done <- fmt.Errorf("wal: commit pipeline failed at lsn %d..%d: %w",
						f.g.First, f.g.Last, f.err)
				}
			}
			c.failPending(f.err)
			return
		}
		c.ackReorder.Observe(now.Sub(f.doneAt))
		if c.opts.OnRelease != nil {
			// Advance the read epoch before acking: a writer that sees its
			// commit return can immediately pin a snapshot that includes its
			// own write.
			c.opts.OnRelease(f.g.Last)
		}
		for _, req := range f.reqs {
			c.commitLat.Observe(now.Sub(req.at))
			req.done <- nil
		}
		c.groupSize.Observe(int64(len(f.reqs)))
		c.flushes.Inc()
		c.statsMu.Lock()
		c.batches++
		c.records += int64(len(f.reqs))
		c.statsMu.Unlock()
	}
}

func (c *GroupCommitter) failPending(err error) {
	c.mu.Lock()
	c.stopped = true
	if c.poison == nil && !errors.Is(err, ErrCommitterStopped) {
		// A real failure poisons the committer: records admitted after it
		// keep reporting the original cause (fence, exhausted retries), not
		// a generic shutdown.
		c.poison = err
	}
	pending := c.pending
	c.pending = nil
	c.space.Broadcast()
	c.mu.Unlock()
	for _, req := range pending {
		req.done <- err
	}
}

// Stop terminates the committer. Sealed flights complete and release
// normally; records still queued fail with ErrCommitterStopped.
func (c *GroupCommitter) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// BatchStats returns (flushes committed, records committed).
func (c *GroupCommitter) BatchStats() (int64, int64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.batches, c.records
}

// GroupSize returns the records-per-flush histogram: its mean is the
// write-side amortization factor (records acked per storage round trip).
func (c *GroupCommitter) GroupSize() *metrics.IntHistogram { return &c.groupSize }

// CommitLatency returns the enqueue-to-durable latency histogram. It covers
// the full client-visible commit wait: the group window plus the storage
// append (and its retries) plus any in-order release wait.
func (c *GroupCommitter) CommitLatency() *metrics.Histogram { return &c.commitLat }

// StallLatency returns the histogram of time writers spent blocked on a
// full queue (backpressure).
func (c *GroupCommitter) StallLatency() *metrics.Histogram { return &c.stallLat }

// AckReorder returns the histogram of how long each durable group waited
// for its predecessors before its acks could release — the price of
// in-order release under out-of-order completion (zero when completions
// arrive in LSN order).
func (c *GroupCommitter) AckReorder() *metrics.Histogram { return &c.ackReorder }

// InflightUtilization returns the distribution of concurrently in-flight
// appends observed at each dispatch; a mean above 1 means the pipeline is
// actually overlapping storage round trips.
func (c *GroupCommitter) InflightUtilization() *metrics.IntHistogram { return &c.inflightHist }

// InflightGroups returns how many sealed groups are in flight right now.
func (c *GroupCommitter) InflightGroups() int {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	return c.inflight
}

// PipelineDepth returns how many sealed group appends the committer keeps
// in flight at once.
func (c *GroupCommitter) PipelineDepth() int { return c.opts.PipelineDepth }

// RegisterMetrics exposes the committer's accounting under the "wal."
// prefix, next to the writer's per-append metrics.
func (c *GroupCommitter) RegisterMetrics(r *metrics.Registry) {
	r.RegisterHistogram("wal.commit_us", &c.commitLat)
	r.RegisterIntHistogram("wal.group_size", &c.groupSize)
	r.RegisterCounter("wal.group_flushes", &c.flushes)
	r.RegisterHistogram("wal.group_stall_us", &c.stallLat)
	r.RegisterHistogram("wal.ack_reorder_us", &c.ackReorder)
	r.RegisterIntHistogram("wal.inflight_groups", &c.inflightHist)
	r.GaugeFunc("wal.pipeline_depth", func() int64 { return int64(c.PipelineDepth()) })
	r.GaugeFunc("wal.pipeline_inflight", func() int64 { return int64(c.InflightGroups()) })
	r.CounterFunc("wal.commit_batches", func() int64 { b, _ := c.BatchStats(); return b })
	r.CounterFunc("wal.commit_records", func() int64 { _, n := c.BatchStats(); return n })
	r.GaugeFunc("wal.last_lsn", func() int64 { return int64(c.LastLSN()) })
}
