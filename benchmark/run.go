package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bg3"
)

// runConfig is one invocation: a workload, a seed and how long to measure.
type runConfig struct {
	sp      *spec
	seed    int64
	seconds float64
	scale   float64
	clients int
	setups  int    // how many times the database is opened and loaded; setup_s is the median
	outDir  string // where the trace writes its spans
	log     func(format string, args ...any)
	emitAll bool // result line carries every computed metric
}

func defaultClients() int { return min(runtime.NumCPU(), 4) }

// setUp loads the workload's graph into an opened stack.
func setUp(sp *spec, sz sizes, seed int64, st *stack) error {
	var err error
	batch := make([]bg3.Mutation, 0, 1024)
	single := sp.sharded
	load := func(src, dst bg3.VertexID) {
		if err != nil {
			return
		}
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, edgeValue(src, dst))
		e := bg3.Edge{Src: src, Dst: dst, Type: sp.etype, Props: bg3.Properties{{Name: "ts", Value: val}}}
		if single {
			// A 1024-edge batch would span every shard and load the graph
			// through 2PC; single writes keep the load on the plain path.
			err = st.api.AddEdge(e)
			return
		}
		batch = append(batch, bg3.AddEdgeMut(e))
		if len(batch) == cap(batch) {
			err = st.api.ApplyBatch(batch)
			batch = batch[:0]
		}
	}
	sp.preload(sz, newDraws(seed, loadStream, sz.vertices), load)
	if err == nil && len(batch) > 0 {
		err = st.api.ApplyBatch(batch)
	}
	if err != nil {
		return fmt.Errorf("load %s: %w", sp.name, err)
	}
	if sp.blocks {
		if err := buildBlocks(st, sz); err != nil {
			return err
		}
	}
	if sp.postload != nil {
		single = true
		if sp.postload(sz, load); err != nil {
			return fmt.Errorf("load %s: %w", sp.name, err)
		}
	}
	return nil
}

// buildBlocks packs every dedicated tree into its edge block. The load's own
// writes spawn background builds; one still in flight makes BuildEdgeBlocks
// skip that tree and leave it an old block under a large overlay, so the
// build is repeated until the packed entry count stops moving.
func buildBlocks(st *stack, sz sizes) error {
	var entries int64 = -1
	for i := 0; i < 8; i++ {
		var built int
		var err error
		var now int64
		if st.db != nil {
			built, err = st.db.BuildEdgeBlocks()
			now = st.db.Stats().EdgeBlocks.Entries
		} else {
			built, err = st.eng.Forest().BuildEdgeBlocks()
			now = st.eng.Mapping().BlockStatsSnapshot().Entries
		}
		if err != nil {
			return fmt.Errorf("build edge blocks: %w", err)
		}
		if built < sz.supers {
			return fmt.Errorf("built %d edge blocks, want at least %d", built, sz.supers)
		}
		if now == entries {
			return nil
		}
		entries = now
	}
	return fmt.Errorf("edge-block entry count still moving after 8 builds")
}

// setupTime is what one set-up cost. Wall time on a shared host includes
// the stretches when the hypervisor ran someone else, and swings 2x between
// identical set-ups; the CPU time the process consumed (user+sys, all
// threads) swings far less, so that is what setup_s reports.
type setupTime struct {
	wallS, cpuS float64
}

// openLoaded opens and loads one instance and reports what that cost.
func openLoaded(sp *spec, sz sizes, seed int64, open func() (*stack, error)) (*stack, setupTime, error) {
	s0 := takeSample()
	st, err := open()
	if err != nil {
		return nil, setupTime{}, err
	}
	if err := setUp(sp, sz, seed, st); err != nil {
		st.close()
		return nil, setupTime{}, err
	}
	s1 := takeSample()
	return st, setupTime{wallS: s1.t.Sub(s0.t).Seconds(), cpuS: (s1.cpuUS - s0.cpuUS) / 1e6}, nil
}

// phase is the shared state of one measured pass.
type phase struct {
	ref     *reference
	start   time.Time // start of the measured phase (after warm-up)
	end     time.Time
	slice   time.Duration
	nslices int
	clients int
	// superIssued counts writes onto super-vertices issued so far, the
	// upper bound a concurrent scan may see.
	superIssued atomic.Int64
}

// clientStats is what one client recorded during the measured phase.
type clientStats struct {
	lat        [numClasses][]uint32 // ns per op, in completion order
	marks      [numClasses][]int    // len(lat) at each slice boundary
	sliceOps   []int64
	ops        int64
	classOps   [numClasses]int64
	violated   int64    // oracle violations and failed calls
	messages   []string // the first few, for the log
	overwrites int64
	edges      int64  // edges delivered to read callbacks / reached by KHop
	sum        uint64 // order-sensitive digest of everything the client read
	gcNS       int64
	gcRuns     int64
	khopChecks int
	mutations  int64 // acked edge mutations
	txnsAcked  int64 // two-shard batches acked, warm-up included
}

func (s *clientStats) violate(format string, args ...any) {
	if s.violated++; len(s.messages) < 8 {
		s.messages = append(s.messages, fmt.Sprintf(format, args...))
	}
}

// scanState is what the Neighbors callback accumulates; the callback is
// built once per client so a read does not allocate a closure.
type scanState struct {
	n      int
	prev   bg3.VertexID
	sorted bool
	sum    uint64
}

// runner drives one client against one api.
type runner struct {
	c     *client
	a     api
	ph    *phase
	st    clientStats
	scan  scanState
	visit func(bg3.VertexID, bg3.Properties) bool
	rec   *spanLog // nil unless tracing
	onOp  func(opKind)
	curOp int
}

func newRunner(c *client, a api, ph *phase) *runner {
	r := &runner{c: c, a: a, ph: ph}
	r.st.sliceOps = make([]int64, ph.nslices+1)
	r.visit = func(dst bg3.VertexID, _ bg3.Properties) bool {
		s := &r.scan
		if s.n > 0 && dst <= s.prev {
			s.sorted = false
		}
		s.prev = dst
		s.n++
		s.sum = s.sum*1099511628211 + uint64(dst)
		return true
	}
	return r
}

// reserve sizes the latency buffers so recording does not allocate inside
// the measured phase.
func (r *runner) reserve(opsPerClass [numClasses]int) {
	for cl := range r.st.lat {
		r.st.lat[cl] = make([]uint32, 0, opsPerClass[cl])
	}
}

// step draws and executes one op. measured says whether it falls in the
// measured phase (after warm-up).
func (r *runner) step(measured bool) {
	c, st := r.c, &r.st
	o := c.sp.next(c)
	var e bg3.Edge
	if o.kind == opWrite {
		e = c.edge(o.src, o.dst)
		if p, ok := r.a.(preparer); ok {
			p.prepare(e)
		}
		if o.src >= bg3.VertexID(c.sz.vertices) {
			r.ph.superIssued.Add(1)
		}
	}
	r.scan = scanState{sorted: true}
	var (
		err    error
		found  bool
		got    bg3.Edge
		reach  map[bg3.VertexID]struct{}
		parent = -1
	)
	if r.onOp != nil && measured {
		r.onOp(o.kind)
	}
	if r.rec != nil && measured {
		parent = r.rec.begin(r.curOp, o.kind)
	}
	t0 := time.Now()
	switch o.kind {
	case opRead, opScan, opAux:
		err = r.a.Neighbors(o.src, c.sp.etype, o.limit, r.visit)
	case opKHop:
		reach, err = r.a.KHop(o.src, c.sp.etype, o.hops, o.limit)
	case opWrite:
		err = r.a.AddEdge(e)
	case opTxn:
		err = r.a.ApplyBatch(o.muts)
	case opVerify:
		got, found, err = r.a.GetEdge(o.src, c.sp.etype, o.dst)
	case opGC:
		_, err = r.a.RunGC(gcBatch)
	}
	t1 := time.Now()
	if parent >= 0 {
		r.rec.end(parent)
		r.curOp++
	}
	// Bookkeeping and the oracle run outside the timed interval.
	if err != nil {
		if measured {
			st.violate("op kind %d: %v", o.kind, err)
		}
		return
	}
	switch o.kind {
	case opWrite:
		r.acked(o.src, o.dst, measured)
	case opTxn:
		st.txnsAcked++
		var keys []uint64
		sample := st.classOps[clsTxn]%8 == 0 && len(c.txns) < 4096
		for _, m := range o.muts {
			r.acked(m.Edge.Src, m.Edge.Dst, false)
			if sample {
				keys = append(keys, edgeKey(m.Edge.Src, m.Edge.Dst))
			}
		}
		if sample {
			c.txns = append(c.txns, keys)
		}
	case opVerify:
		if measured {
			r.checkEdge(got, found, o.src, o.dst)
		}
	}
	if !measured || t1.After(r.ph.end) {
		return // warm-up, or straddles the end of the phase
	}
	switch o.kind {
	case opGC:
		st.gcNS += t1.Sub(t0).Nanoseconds()
		st.gcRuns++
		return
	case opTxn:
		st.mutations += int64(len(o.muts))
	case opWrite:
		st.mutations++
	case opAux:
		st.sum = st.sum*31 + r.scan.sum
	case opRead:
		st.edges += int64(r.scan.n)
		st.sum = st.sum*31 + r.scan.sum
	case opScan:
		st.edges += int64(r.scan.n)
		st.sum = st.sum*31 + r.scan.sum
		lo := int64(c.sz.superEdges + c.sz.superLate)
		hi := lo + r.ph.superIssued.Load()
		if n := int64(r.scan.n); n < lo || n > hi {
			st.violate("super-vertex scan returned %d edges, want %d..%d", n, lo, hi)
		}
		if !r.scan.sorted {
			st.violate("super-vertex scan not dst-sorted and unique")
		}
	case opKHop:
		st.edges += int64(len(reach))
		st.sum = st.sum*31 + uint64(len(reach))
		if r.ph.ref.adj != nil && st.khopChecks < 200/r.ph.clients && st.classOps[clsRead]%50 == 0 {
			st.khopChecks++
			want := r.ph.ref.khop(uint32(o.src), o.hops, o.limit)
			if !sameSet(reach, want) {
				st.violate("KHop(%d, %d hops) reached %d vertices, reference BFS %d", o.src, o.hops, len(reach), len(want))
			}
		}
	}
	cl := o.kind.class()
	st.ops++
	idx := int(t1.Sub(r.ph.start) / r.ph.slice)
	st.sliceOps[min(idx, r.ph.nslices)]++
	if cl != clsNone {
		st.classOps[cl]++
		for len(st.marks[cl]) < idx {
			for k := range st.marks {
				st.marks[k] = append(st.marks[k], len(st.lat[k]))
			}
		}
		st.lat[cl] = append(st.lat[cl], uint32(min(t1.Sub(t0).Nanoseconds(), math.MaxUint32)))
	}
}

func sameSet(got map[bg3.VertexID]struct{}, want map[uint32]struct{}) bool {
	if len(got) != len(want) {
		return false
	}
	for v := range got {
		if _, ok := want[uint32(v)]; !ok {
			return false
		}
	}
	return true
}

// acked records an acknowledged edge in the client's share of the
// reference model.
func (r *runner) acked(src, dst bg3.VertexID, countOverwrite bool) {
	c := r.c
	k := edgeKey(src, dst)
	if countOverwrite {
		_, mine := c.written[k]
		if !mine {
			_, mine = r.ph.ref.pre[k]
		}
		if mine {
			r.st.overwrites++
		}
	}
	c.written[k] = struct{}{}
	// Every 16th ack is kept for read-back after the phase; ingest-sharded
	// reads back inline and draws from all of them.
	if c.acks++; c.acks%16 == 0 || c.sp.sharded {
		c.acked[c.ackedN%len(c.acked)] = k
		c.ackedN++
	}
}

func (r *runner) checkEdge(got bg3.Edge, found bool, src, dst bg3.VertexID) {
	if !found {
		r.st.violate("acked edge %d->%d not found", src, dst)
		return
	}
	// Rungs below the property decoder return no props; presence is all
	// they can show.
	if got.Props == nil {
		return
	}
	v, ok := got.Props.Get("ts")
	if !ok || len(v) != 8 || binary.LittleEndian.Uint64(v) != edgeValue(src, dst) {
		r.st.violate("acked edge %d->%d read back with wrong props", src, dst)
	}
}

// phaseResult is everything one measured pass produced.
type phaseResult struct {
	ops        int64
	classOps   [numClasses]int64
	failed     int64    // oracle violations and failed calls
	violations []string // the first few per client, for the log
	overwrites int64
	mutations  int64
	edges      int64
	digest     uint64
	gcMS       float64
	gcRuns     int64

	// per-window series (measured phase), and per latency class the sample
	// count, p50 and tail. The samples themselves are dropped once these are
	// taken, so that the heap read after the pass holds none of them.
	sliceOpsPerS  []float64
	sliceCPUPerOp []float64
	sliceAllocOp  []float64
	latN          [numClasses]int
	p50US, tailUS [numClasses]float64

	heapLiveMB float64 // filled in by the caller, see liveHeapMB
	rssPeakMB  float64
	before     counters
	after      counters
	final      counters // after GC to quiescence
	liveEdges  int64

	cacheHitRatio    float64
	blockHitRatio    float64
	txnsAcked        int64 // by the clients, warm-up included
	txnCommits       int64 // by the shard group, over its lifetime
	txnAborts        int64
	extentsReclaimed int64

	dirtyMax, retainedMax, lagMax float64
}

type sample struct {
	t     time.Time
	cpuUS float64
	alloc float64
}

func takeSample() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
	m := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(m)
	return sample{t: time.Now(), cpuUS: cpu, alloc: float64(m[0].Value.Uint64())}
}

// pass is one drive of clients against a loaded stack, timed (the measured
// run) or op-counted (a traced rung), up to the point where the clients
// have stopped.
type pass struct {
	cfg     runConfig
	st      *stack
	a       api // what the clients call: the stack's root, or a lower rung
	ref     *reference
	sz      sizes
	ph      *phase
	runners []*runner
	res     *phaseResult
	samples []sample
}

func newPass(cfg runConfig, st *stack, a api, ref *reference, sz sizes, clients, nslices int, slice time.Duration) *pass {
	if a == nil {
		a = st.api
	}
	p := &pass{cfg: cfg, st: st, a: a, ref: ref, sz: sz, res: &phaseResult{}}
	p.ph = &phase{ref: ref, start: time.Now(), nslices: nslices, clients: clients, slice: slice}
	p.ph.end = p.ph.start.Add(time.Duration(nslices) * slice)
	for i := 0; i < clients; i++ {
		p.runners = append(p.runners, newRunner(newClient(cfg.sp, sz, cfg.seed, i), a, p.ph))
	}
	return p
}

func (p *pass) sampleEngines() {
	for _, e := range p.st.engines() {
		p.res.dirtyMax = math.Max(p.res.dirtyMax, float64(e.DirtyCount()))
		p.res.retainedMax = math.Max(p.res.retainedMax, float64(e.RetainedBytes()))
		if src := e.Epochs(); src != nil {
			p.res.lagMax = math.Max(p.res.lagMax, float64(src.Stats().Lag))
		}
	}
}

// windowsPerSecond is how finely the measured phase is cut. The host's
// speed swings by tens of percent over seconds; each metric is the median
// over these windows, so a burst of interference moves it little.
const windowsPerSecond = 10

// runPhase is the measured run: cfg.clients clients on the root API, closed
// loop. Warm-up is a fixed number of ops, so that every run starts measuring
// from the same state whatever the host's speed; the measured phase then
// lasts cfg.seconds.
func runPhase(cfg runConfig, st *stack, ref *reference, sz sizes) (*phaseResult, error) {
	nslices := max(3, int(math.Round(cfg.seconds*windowsPerSecond)))
	p := newPass(cfg, st, nil, ref, sz, cfg.clients, nslices, time.Duration(cfg.seconds*float64(time.Second)/float64(nslices)))
	ph := p.ph
	var warm, done sync.WaitGroup
	start := make(chan struct{})
	for _, r := range p.runners {
		warm.Add(1)
		done.Add(1)
		go func(r *runner) {
			defer done.Done()
			t0 := time.Now()
			n := sz.warmOps / len(p.runners)
			for i := 0; i < n; i++ {
				r.step(false)
			}
			// The warm-up's rate sizes the latency buffers once.
			per := int(float64(n)/math.Max(time.Since(t0).Seconds(), 1e-3)*cfg.seconds*1.5) + 1024
			r.reserve([numClasses]int{per, per, per / 4})
			warm.Done()
			<-start
			for time.Now().Before(ph.end) {
				r.step(true)
			}
		}(r)
	}
	warm.Wait()
	// The sampler reads process-wide CPU and allocation at each window
	// boundary, and the stack's counters at both ends of the phase.
	p.res.before = st.counters()
	p.samples = append(p.samples, takeSample())
	ph.start = time.Now()
	ph.end = ph.start.Add(time.Duration(nslices) * ph.slice)
	close(start)
	for k := 1; k <= nslices; k++ {
		time.Sleep(time.Until(ph.start.Add(time.Duration(k) * ph.slice)))
		p.samples = append(p.samples, takeSample())
		if k%windowsPerSecond == 0 {
			p.sampleEngines()
		}
	}
	done.Wait()
	return p.finish()
}

// fixedPass is a traced rung: one client replays a fixed number of ops in
// blocks, so that several rungs can take turns and share whatever the host
// is doing at the moment. Its single window is the time it was active.
type fixedPass struct {
	*pass
	active       time.Duration
	cpuUS, alloc float64
	blocks       int
}

func newFixedPass(cfg runConfig, st *stack, a api, ref *reference, sz sizes, rec *spanLog, onOp func(opKind)) *fixedPass {
	p := newPass(cfg, st, a, ref, sz, 1, 1, 24*time.Hour)
	p.runners[0].rec, p.runners[0].onOp = rec, onOp
	p.runners[0].reserve([numClasses]int{sz.traceOps, sz.traceOps, sz.traceOps})
	return &fixedPass{pass: p}
}

// block runs n ops. Unrecorded blocks warm the stack up; the first recorded
// one takes the counters' baseline.
func (p *fixedPass) block(n int, recorded bool) {
	if recorded && p.blocks == 0 {
		p.res.before = p.st.counters()
	}
	s0 := takeSample()
	for i := 0; i < n; i++ {
		p.runners[0].step(recorded)
	}
	if !recorded {
		return
	}
	s1 := takeSample()
	p.active += s1.t.Sub(s0.t)
	p.cpuUS += s1.cpuUS - s0.cpuUS
	p.alloc += s1.alloc - s0.alloc
	if p.blocks++; p.blocks%8 == 0 {
		p.sampleEngines()
	}
}

func (p *fixedPass) finish() (*phaseResult, error) {
	p.ph.slice = p.active
	p.samples = []sample{{t: p.ph.start}, {t: p.ph.start.Add(p.active), cpuUS: p.cpuUS, alloc: p.alloc}}
	return p.pass.finish()
}

// finish takes the end-of-phase readings, reclaims space to quiescence
// where the workload calls for it, and runs the oracle.
func (p *pass) finish() (*phaseResult, error) {
	cfg, st, a, ref, sz, ph, runners, samples, res := p.cfg, p.st, p.a, p.ref, p.sz, p.ph, p.runners, p.samples, p.res
	nslices := ph.nslices
	res.after = st.counters()

	// Fold the clients. The latency samples are reduced to their quantiles
	// here, so the result holds none: the caller reads the live heap once the
	// pass is garbage, and buffers whose size follows the host's speed must
	// not be in it.
	sliceOps := make([]int64, nslices)
	var all [numClasses][]uint32
	var sliceLat [numClasses][][]uint32
	for cl := range sliceLat {
		sliceLat[cl] = make([][]uint32, nslices)
	}
	for _, r := range runners {
		s := &r.st
		res.ops += s.ops
		res.overwrites += s.overwrites
		res.txnsAcked += s.txnsAcked
		res.mutations += s.mutations
		res.edges += s.edges
		res.digest = res.digest*1099511628211 + s.sum
		res.gcMS += float64(s.gcNS) / 1e6
		res.gcRuns += s.gcRuns
		for k := 0; k < nslices; k++ {
			sliceOps[k] += s.sliceOps[k]
		}
		for cl := 0; cl < numClasses; cl++ {
			res.classOps[cl] += s.classOps[cl]
			all[cl] = append(all[cl], s.lat[cl]...)
			lo := 0
			for k := 0; k < nslices; k++ {
				hi := len(s.lat[cl])
				if k < len(s.marks[cl]) {
					hi = s.marks[cl][k]
				}
				sliceLat[cl][k] = append(sliceLat[cl][k], s.lat[cl][lo:hi]...)
				lo = hi
			}
		}
	}
	for cl := range all {
		slices.Sort(all[cl])
		for k := range sliceLat[cl] {
			slices.Sort(sliceLat[cl][k])
		}
		res.latN[cl] = len(all[cl])
		res.p50US[cl] = sliceQuantile(sliceLat[cl], all[cl], 0.5, 100, 0.5)
		res.tailUS[cl] = sliceQuantile(sliceLat[cl], all[cl], 0.99, 1000, tailQ(len(all[cl])))
	}
	for k := 0; k < nslices; k++ {
		dt := samples[k+1].t.Sub(samples[k].t).Seconds()
		ops := math.Max(float64(sliceOps[k]), 1)
		res.sliceOpsPerS = append(res.sliceOpsPerS, float64(sliceOps[k])/ph.slice.Seconds())
		res.sliceCPUPerOp = append(res.sliceCPUPerOp, (samples[k+1].cpuUS-samples[k].cpuUS)/ops*ph.slice.Seconds()/dt)
		res.sliceAllocOp = append(res.sliceAllocOp, (samples[k+1].alloc-samples[k].alloc)/ops*ph.slice.Seconds()/dt)
	}

	// Regime readings over the measured phase.
	hits, misses := delta(res.before, res.after, "bwtree.cache_hits"), delta(res.before, res.after, "bwtree.cache_misses")
	if hits+misses > 0 {
		res.cacheHitRatio = hits / (hits + misses)
	}
	bh, bf := delta(res.before, res.after, "bwtree.block_hits"), delta(res.before, res.after, "bwtree.block_fallbacks")
	if bh+bf > 0 {
		res.blockHitRatio = bh / (bh + bf)
	}
	res.txnCommits = int64(res.after.v["shard.txn_commits"])
	res.txnAborts = int64(res.after.v["shard.txn_aborts"])

	// Space is read after reclamation has nothing left to do: a cycle that
	// neither moves a byte nor frees an extent.
	if cfg.sp.gcToQuiescence {
		freed := st.counters().v["storage.extents_reclaimed"]
		for i := 0; i < 1024; i++ {
			moved, err := a.RunGC(gcBatch)
			if err != nil {
				return nil, fmt.Errorf("gc to quiescence: %w", err)
			}
			now := st.counters().v["storage.extents_reclaimed"]
			if moved == 0 && now == freed {
				break
			}
			freed = now
		}
	}
	res.final = st.counters()
	res.extentsReclaimed = int64(res.final.v["storage.extents_reclaimed"] - res.before.v["storage.extents_reclaimed"])

	// Oracle over what the clients had acknowledged.
	live := make(map[uint64]struct{}, len(ref.pre))
	for k := range ref.pre {
		live[k] = struct{}{}
	}
	for _, r := range runners {
		for k := range r.c.written {
			live[k] = struct{}{}
		}
		n := min(r.c.ackedN, len(r.c.acked))
		for _, k := range r.c.acked[:n] {
			src, dst := bg3.VertexID(k>>32), bg3.VertexID(uint32(k))
			got, found, err := a.GetEdge(src, cfg.sp.etype, dst)
			if err != nil {
				r.st.violate("read back %d->%d: %v", src, dst, err)
				continue
			}
			r.checkEdge(got, found, src, dst)
		}
		for _, txn := range r.c.txns {
			for _, k := range txn {
				src, dst := bg3.VertexID(k>>32), bg3.VertexID(uint32(k))
				if _, found, err := a.GetEdge(src, cfg.sp.etype, dst); err != nil || !found {
					r.st.violate("two-shard batch partly missing: %d->%d (err %v)", src, dst, err)
					break
				}
			}
		}
	}
	res.liveEdges = int64(len(live))
	if cfg.sp == riskChurn {
		var total int64
		for v := 0; v < sz.vertices; v++ {
			d, err := a.Degree(bg3.VertexID(v), cfg.sp.etype)
			if err != nil {
				return nil, fmt.Errorf("degree oracle: %w", err)
			}
			total += int64(d)
		}
		if total != res.liveEdges {
			runners[0].st.violate("sum of Degree = %d, reference live edges = %d", total, res.liveEdges)
		}
	}
	for _, r := range runners {
		res.failed += r.st.violated
		res.violations = append(res.violations, r.st.messages...)
	}
	res.rssPeakMB = rssPeakMB()
	return res, nil
}

// liveHeapMB is HeapAlloc after a forced collection. A caller reads it once
// its pass has finished and everything the harness held for it - clients,
// latency samples, the reference model - is garbage, so what is left is the
// database's. That is also after reclamation to quiescence: a cycle's worth
// of dead extents would otherwise make the reading depend on where in the
// cycle the phase happened to end.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rssPeakMB reads the process's peak resident set from /proc.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile of a sorted sample, in microseconds.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailQ is the highest percentile, up to p99, that leaves at least ten
// samples beyond it.
func tailQ(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// sliceQuantile is the median over slices of each slice's q-quantile when
// every slice has at least minPer samples, else the whole phase's
// wholeQ-quantile.
func sliceQuantile(slices [][]uint32, all []uint32, q float64, minPer int, wholeQ float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) < minPer {
			return quantileUS(all, wholeQ)
		}
		per = append(per, quantileUS(s, q))
	}
	return median(per)
}
