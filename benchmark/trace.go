package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bg3"
	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
	"bg3/internal/shard"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// span is one timed call into a layer. Spans of op i share i across the
// passes of a traced run; parent is an index into the same pass's spans.
type span struct {
	op         int
	kind       opKind // of the op the span belongs to
	name       string
	start, end int64 // ns since the pass began
	parent     int
}

// spanLog holds one pass's spans in memory until the run ends. Calls come
// from the client goroutine; the WAL decorator may also be entered by a
// background flusher, so appends are locked.
type spanLog struct {
	rung  string
	names [opGC + 1]string
	t0    time.Time

	mu    sync.Mutex
	spans []span
	cur   int // the open root span, -1 between ops
	// 2PC stage instants of the open op, 0 when not reached.
	prepared, decided int64
}

var kindNames = [opGC + 1]string{"read", "scan", "aux", "khop", "write", "txn", "verify", "gc"}

func newSpanLog(rung string, ops int) *spanLog {
	l := &spanLog{rung: rung, t0: time.Now(), cur: -1, spans: make([]span, 0, ops*2)}
	for k, n := range kindNames {
		l.names[k] = rung + "." + n
	}
	return l
}

func (l *spanLog) begin(op int, kind opKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{op: op, kind: kind, name: l.names[kind], parent: -1})
	l.cur = len(l.spans) - 1
	l.spans[l.cur].start = time.Since(l.t0).Nanoseconds()
	return l.cur
}

func (l *spanLog) end(idx int) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[idx]
	s.end = now
	if l.prepared != 0 && l.decided != 0 {
		op, start := s.op, s.start
		l.spans = append(l.spans,
			span{op: op, name: "shard.txn_prepare", start: start, end: l.prepared, parent: idx},
			span{op: op, name: "shard.txn_decide", start: l.prepared, end: l.decided, parent: idx},
			span{op: op, name: "shard.txn_apply", start: l.decided, end: now, parent: idx})
	}
	l.prepared, l.decided, l.cur = 0, 0, -1
}

// child records a span under the open op; outside an op (a background
// flusher's record) it is dropped.
func (l *spanLog) child(name string, start time.Time, dur time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur < 0 {
		return
	}
	s := start.Sub(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{op: l.spans[l.cur].op, name: name, start: s, end: s + dur.Nanoseconds(), parent: l.cur})
}

func (l *spanLog) stage(st shard.TxnStage) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if st == shard.StagePrepared {
		l.prepared = now
	} else {
		l.decided = now
	}
}

// opTimes is a pass's spans folded per op: the root span's duration and
// kind, and per child name the summed child time, all in µs.
type opTimes struct {
	root     map[int]float64
	kind     map[int]opKind
	children map[string]map[int]float64
}

func (l *spanLog) fold() opTimes {
	t := opTimes{root: map[int]float64{}, kind: map[int]opKind{}, children: map[string]map[int]float64{}}
	for _, s := range l.spans {
		us := float64(s.end-s.start) / 1e3
		if s.parent < 0 {
			t.root[s.op], t.kind[s.op] = us, s.kind
			continue
		}
		if t.children[s.name] == nil {
			t.children[s.name] = map[int]float64{}
		}
		t.children[s.name][s.op] += us
	}
	return t
}

// timingLogger decorates a shard's group committer: it forwards LogAsync
// so group commit behaves as before and records the time spent enqueueing
// and waiting for durability as a wal.log span of the calling op.
type timingLogger struct {
	inner *wal.GroupCommitter
	log   *spanLog
}

func (t *timingLogger) Log(rec *wal.Record) (wal.LSN, error) {
	s := time.Now()
	lsn, err := t.inner.Log(rec)
	t.log.child("wal.log", s, time.Since(s))
	return lsn, err
}

func (t *timingLogger) LogAsync(rec *wal.Record) (wal.LSN, func() error) {
	s := time.Now()
	lsn, wait := t.inner.LogAsync(rec)
	enqueue := time.Since(s)
	return lsn, func() error {
		w := time.Now()
		err := wait()
		// The in-memory apply between enqueue and wait is the tree's time,
		// not the logger's.
		t.log.child("wal.log", s, enqueue+time.Since(w))
		return err
	}
}

var _ bwtree.AsyncWALLogger = (*timingLogger)(nil)

// tracePass is one replay of the op stream against a freshly loaded stack.
type tracePass struct {
	rung string
	fp   *fixedPass
	res  *phaseResult
	log  *spanLog
	ops  opTimes // log folded once the replay is over; empty for an untraced pass
	// kind is the op in flight; scans and scanEdges count the forest-level
	// Neighbors calls read-class ops fan out into (forest rung only).
	kind             opKind
	scans, scanEdges int64
}

// countingForest counts the scans a read op fans out into.
type countingForest struct {
	*forestRung
	p *tracePass
}

func (c countingForest) Neighbors(src bg3.VertexID, typ bg3.EdgeType, limit int, fn func(bg3.VertexID, bg3.Properties) bool) error {
	if c.p.kind.class() != clsRead {
		return c.forestRung.Neighbors(src, typ, limit, fn)
	}
	c.p.scans++
	return c.forestRung.Neighbors(src, typ, limit, func(d bg3.VertexID, p bg3.Properties) bool {
		c.p.scanEdges++
		return fn(d, p)
	})
}

func (c countingForest) KHop(start bg3.VertexID, typ bg3.EdgeType, hops, limit int) (map[bg3.VertexID]struct{}, error) {
	return graph.KHop(c, start, typ, hops, limit)
}

// rungDef is one replay of the traced run: which stack to open, where to
// enter it, and whether to record spans.
type rungDef struct {
	name    string
	sharded bool // loaded with single writes (sharded) or 1024-edge batches
	open    func() (*stack, error)
	traced  bool
	wire    func(st *stack, p *tracePass) api // picks the rung, installs decorators
}

// runTraced is the --trace 1 run. The same seeded single-client op stream
// is replayed once per rung, each against its own freshly loaded stack, so
// op i is the same call on the same state everywhere. The replays advance
// in turns, a block of ops at a time, so that a slow spell of the host
// falls on every rung alike and cancels in the differences.
func runTraced(cfg runConfig) (map[string]float64, *phaseResult, error) {
	sp := cfg.sp
	sz := sp.sizes(cfg.scale)
	opts := sp.opts(cfg.scale)
	ref := buildReference(sp, sz, cfg.seed, sp == recommendCold)
	root := func() (*stack, error) { return openRoot(sp, opts) }
	engine := func() (*stack, error) { return openEngine(opts) }

	defs := []rungDef{{name: "untraced", sharded: sp.sharded, open: root}}
	if sp.sharded {
		top := func(st *stack) shardEngineRung { return shardEngineRung{leaderRung{groupRung{shardedRoot{st.sdb}}}} }
		o1, or, unsharded := opts, opts, *sp
		o1.Shards = 1
		or.Shards, or.Replicated = 0, true
		unsharded.sharded = false
		// Every traced rung carries the same decorators (a timing WAL logger
		// on each shard's engine, the 2PC stage hook), so what they cost
		// cancels in the rung differences.
		decorate := func(st *stack, p *tracePass) {
			g := st.sdb.Group()
			for i := 0; i < g.Shards(); i++ {
				g.Leader(i).Engine().AttachLogger(&timingLogger{inner: g.Leader(i).Logger(), log: p.log})
			}
			g.SetTxnStageHook(func(s shard.TxnStage, _ uint64, _ []int) { p.log.stage(s) })
		}
		rung := func(name string, enter func(st *stack, p *tracePass) api) rungDef {
			return rungDef{name: name, sharded: true, open: root, traced: true, wire: func(st *stack, p *tracePass) api {
				decorate(st, p)
				return enter(st, p)
			}}
		}
		defs = append(defs,
			rung("bg3", func(*stack, *tracePass) api { return nil }),
			rung("shard", func(st *stack, _ *tracePass) api { return top(st).groupRung }),
			rung("replication", func(st *stack, _ *tracePass) api { return top(st).leaderRung }),
			rung("core", func(st *stack, _ *tracePass) api { return top(st) }),
			rung("forest", func(st *stack, p *tracePass) api {
				up := top(st)
				return countingForest{&forestRung{api: up, pick: func(src bg3.VertexID) *forest.Forest {
					return up.leader(src).Engine().Forest()
				}}, p}
			}),
			// The same stream at one shard and against the unsharded
			// replicated stack: what sharding costs at N = 1, measured.
			rungDef{name: "shards1", sharded: true, open: func() (*stack, error) { return openRoot(sp, o1) }},
			rungDef{name: "unsharded", open: func() (*stack, error) { return openRoot(&unsharded, or) }},
		)
	} else {
		defs = append(defs,
			rungDef{name: "bg3", open: root, traced: true},
			rungDef{name: "core", open: engine, traced: true},
			rungDef{name: "forest", open: engine, traced: true, wire: func(st *stack, p *tracePass) api {
				f := st.eng.Forest()
				return countingForest{&forestRung{api: st.api, pick: func(bg3.VertexID) *forest.Forest { return f }}, p}
			}},
		)
	}

	passes := map[string]*tracePass{}
	var order []*tracePass
	defer func() {
		for _, p := range order {
			p.fp.st.close()
		}
	}()
	var setupS float64
	for _, d := range defs {
		load := *sp
		load.sharded = d.sharded
		st, took, err := openLoaded(&load, sz, cfg.seed, d.open)
		if err != nil {
			return nil, nil, fmt.Errorf("rung %s: %w", d.name, err)
		}
		if setupS == 0 {
			setupS = took.cpuS
		}
		p := &tracePass{rung: d.name, kind: opGC}
		if d.traced {
			p.log = newSpanLog(d.name, sz.traceOps)
		}
		var a api
		if d.wire != nil {
			a = d.wire(st, p)
		}
		p.fp = newFixedPass(cfg, st, a, ref, sz, p.log, func(k opKind) { p.kind = k })
		passes[d.name] = p
		order = append(order, p)
	}
	// Half as many unrecorded ops first, from the same stream, so every rung
	// measures the same ops on the same warmed state.
	for _, p := range order {
		p.fp.block(sz.traceOps/2, false)
	}
	runtime.GC()
	blk := max(8, sz.traceOps/128)
	for done := 0; done < sz.traceOps; done += blk {
		for _, p := range order {
			p.fp.block(min(blk, sz.traceOps-done), true)
		}
	}
	for _, p := range order {
		var err error
		if p.res, err = p.fp.finish(); err != nil {
			return nil, nil, fmt.Errorf("rung %s: %w", p.rung, err)
		}
		if p.log != nil {
			p.ops = p.log.fold()
		}
	}

	base := passes["untraced"].res
	// Every rung's stack and the spans are resident here, so in a traced run
	// the heap and RSS readings cover all of them, not one database.
	base.heapLiveMB = liveHeapMB()
	values := userValues(base, setupS)
	layerValues(cfg, values, passes, opts)
	for _, p := range order[1:] {
		base.failed += p.res.failed
		base.violations = append(base.violations, p.res.violations...)
	}
	values["failed_op_share"] = float64(base.failed) / float64(max(base.ops, 1))
	if err := writeSpans(cfg, order); err != nil {
		return nil, nil, err
	}
	return values, base, nil
}

// classMeans is the mean root span of a pass per latency class.
type classMeans struct {
	mean [numClasses]float64
	n    [numClasses]int
}

// outliers adds to drop the ops whose root span is in a pass's slowest 1%.
// A collection pause or a descheduled thread lands on one rung's op i and
// not on the others'; dropping those ops from every rung keeps the means
// over one set of ops, so they still telescope.
func outliers(p *tracePass, drop map[int]bool) {
	if len(p.ops.root) < 200 {
		return
	}
	all := make([]float64, 0, len(p.ops.root))
	for _, us := range p.ops.root {
		all = append(all, us)
	}
	sort.Float64s(all)
	cut := all[len(all)*99/100]
	for op, us := range p.ops.root {
		if us > cut {
			drop[op] = true
		}
	}
}

func meansOf(p *tracePass, drop map[int]bool) classMeans {
	var m classMeans
	for op, us := range p.ops.root {
		if drop[op] {
			continue
		}
		if cl := p.ops.kind[op].class(); cl != clsNone {
			m.mean[cl] += us
			m.n[cl]++
		}
	}
	for cl := range m.mean {
		if m.n[cl] > 0 {
			m.mean[cl] /= float64(m.n[cl])
		}
	}
	return m
}

// layerValues fills in every per-layer metric from the passes.
func layerValues(cfg runConfig, v map[string]float64, passes map[string]*tracePass, opts bg3.Options) {
	for _, d := range layerMetrics {
		v[d.Name] = 0
	}
	base := passes["untraced"].res
	ops := float64(max(base.ops, 1))
	muts := float64(base.mutations)
	d := func(name string) float64 { return delta(base.before, base.after, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Counters around the untraced root pass.
	v["shard.batch_fanout_mean"] = base.after.ints["shard.batch_fanout"].Mean
	v["shard.txn_commits"] = d("shard.txn_commits")
	v["shard.txn_aborts"] = d("shard.txn_aborts")
	v["replication.checkpoints"] = d("wal.checkpoints")
	v["replication.dirty_pages_max"] = base.dirtyMax
	v["mvcc.pins_total"] = d("mvcc.pins_total")
	v["mvcc.holds_total"] = d("mvcc.holds_total")
	v["mvcc.advances_per_write"] = ratio(d("mvcc.advances"), muts)
	v["mvcc.retained_bytes_max"] = base.retainedMax
	v["mvcc.epoch_lag_max"] = base.lagMax
	v["wal.appends_per_write"] = ratio(d("wal.appends"), muts)
	v["wal.group_size_mean"] = base.after.ints["wal.group_size"].Mean
	v["wal.bytes_per_write"] = ratio(d("wal.bytes"), muts)
	v["wal.commit_p50_us"] = float64(base.after.hist["wal.commit_us"].P50US)
	v["wal.commit_p99_us"] = float64(base.after.hist["wal.commit_us"].P99US)
	v["wal.group_stall_p99_us"] = float64(base.after.hist["wal.group_stall_us"].P99US)
	v["wal.ack_reorder_p99_us"] = float64(base.after.hist["wal.ack_reorder_us"].P99US)
	v["wal.inflight_mean"] = base.after.ints["wal.inflight_groups"].Mean
	v["graph.edges_per_read"] = ratio(float64(base.edges), float64(base.classOps[clsRead]))
	v["forest.trees"] = base.after.v["forest.trees"]
	v["forest.migrations"] = d("forest.migrations")
	v["forest.init_keys"] = base.after.v["forest.init_keys"]
	v["bwtree.cache_hit_ratio"] = ratio(d("bwtree.cache_hits"), d("bwtree.cache_hits")+d("bwtree.cache_misses"))
	v["bwtree.evictions_per_op"] = d("bwtree.cache_evictions") / ops
	v["bwtree.read_fanout_mean"] = base.after.ints["bwtree.read_fanout"].Mean
	v["bwtree.read_fanout_p99"] = float64(base.after.ints["bwtree.read_fanout"].P99)
	v["bwtree.coalesced_misses"] = d("bwtree.cache_coalesced_misses")
	v["bwtree.readahead_hit_ratio"] = ratio(d("bwtree.readahead_hits"), d("bwtree.readahead_issued"))
	v["bwtree.materialize_p50_us"] = float64(base.after.hist["bwtree.materialize_us"].P50US)
	v["bwtree.materialize_p99_us"] = float64(base.after.hist["bwtree.materialize_us"].P99US)
	v["bwtree.cache_memory_mb"] = base.after.v["bwtree.memory_bytes"] / (1 << 20)
	v["bwtree.block_hit_ratio"] = ratio(d("bwtree.block_hits"), d("bwtree.block_hits")+d("bwtree.block_fallbacks"))
	v["bwtree.block_builds"] = d("bwtree.block_builds")
	v["bwtree.block_bytes"] = base.after.v["bwtree.block_bytes"]
	v["gc.run_ms"] = base.gcMS
	v["gc.write_amp"] = ratio(d("storage.gc_bytes_moved"), d("storage.gc_bytes_reclaimed"))
	v["gc.bytes_moved_per_write"] = ratio(d("storage.gc_bytes_moved"), muts)
	v["gc.extents_reclaimed"] = d("storage.extents_reclaimed")
	v["gc.pin_deferred"] = d("gc.pin_deferred")
	v["gc.block_pinned"] = d("gc.block_pinned")
	v["storage.read_ops_per_op"] = d("storage.read_ops") / ops
	v["storage.bytes_read_per_op"] = d("storage.bytes_read") / ops
	v["storage.write_ops_per_op"] = d("storage.write_ops") / ops
	v["storage.bytes_written_per_op"] = d("storage.bytes_written") / ops
	v["storage.live_bytes"] = base.after.v["storage.live_bytes"]
	v["storage.total_bytes"] = base.after.v["storage.total_bytes"]
	v["storage.extents"] = base.after.v["storage.extent_count"]
	// The per-tree structure counters need an engine handle, which the
	// unsharded root API does not give: take them from the engine-rung
	// pass, which replays the identical stream.
	tree := base
	if p := passes["core"]; p != nil && !cfg.sp.sharded {
		tree = p.res
	}
	v["bwtree.consolidations_per_write"] = ratio(delta(tree.before, tree.after, "bwtree.consolidations"), muts)
	v["bwtree.splits"] = delta(tree.before, tree.after, "bwtree.splits")
	if p := passes["shards1"]; p != nil {
		v["shard.n1_write_p50_us"] = p.res.p50US[clsWrite]
	}
	if p := passes["unsharded"]; p != nil {
		v["bg3.unsharded_write_p50_us"] = p.res.p50US[clsWrite]
	}

	// Standalone leaves, on inputs of the size this workload produced.
	fp := passes["forest"]
	scanLen := 1
	scansPerRead := 0.0
	if fp.scans > 0 {
		scanLen = max(1, int(math.Round(float64(fp.scanEdges)/float64(fp.scans))))
		scansPerRead = ratio(float64(fp.scans), float64(fp.res.classOps[clsRead]))
	}
	recBytes := 4096
	if r := d("storage.read_ops"); r > 0 {
		recBytes = int(d("storage.bytes_read") / r)
	} else if w := d("storage.write_ops"); w > 0 {
		recBytes = int(d("storage.bytes_written") / w)
	}
	// The standalone tree gets an edge block when blocks served most of the
	// workload's scans.
	blocks := fp.scans > 0 && delta(fp.res.before, fp.res.after, "bwtree.block_hits") > float64(fp.scans)/2
	lf := timeLeaves(opts, cfg.seed, scanLen, recBytes, blocks, cfg.scale)
	cfg.log("standalone leaves: %d-edge scans, %.2f scans per read, %d B records: tree scan %.3f us (%.2f storage reads), put %.3f us (%.2f appends)",
		scanLen, scansPerRead, recBytes, lf.scanUS, lf.scanReads, lf.putUS, lf.putAppends)
	v["graph.decode_us_per_edge"] = lf.decodeUS
	v["graph.encode_us_per_edge"] = lf.encodeUS
	v["mvcc.pin_us"] = lf.pinUS
	v["storage.read_us"] = lf.readUS
	v["storage.readbatch_us"] = lf.readBatchUS
	v["storage.append_us"] = lf.appendUS
	v["bwtree.scan_self_us"] = math.Max(0, lf.scanUS-lf.scanStorageUS)
	v["bwtree.put_self_us"] = math.Max(0, lf.putUS-lf.putStorageUS)

	// Rung differences. A layer's self time is its rung's mean span minus
	// the next rung's, per latency class; means telescope, so the selves sum
	// to the root span. Whatever comes out negative is time the breakdown
	// counts twice or cannot place, and is reported as unattributed.
	chain := []string{"bg3", "core", "forest"}
	if cfg.sp.sharded {
		chain = []string{"bg3", "shard", "replication", "core", "forest"}
	}
	drop := map[int]bool{}
	for _, r := range chain {
		outliers(passes[r], drop)
	}
	means := map[string]classMeans{}
	for _, r := range chain {
		means[r] = meansOf(passes[r], drop)
	}
	var unattributed, rootTime float64
	self := func(upper, lower string, cl class) float64 {
		s := means[upper].mean[cl] - means[lower].mean[cl]
		if means[upper].n[cl] == 0 || means[lower].n[cl] == 0 {
			return 0
		}
		if s < 0 {
			unattributed += -s * float64(means["bg3"].n[cl])
			return 0
		}
		return s
	}
	for cl := 0; cl < numClasses; cl++ {
		rootTime += means["bg3"].mean[cl] * float64(means["bg3"].n[cl])
	}
	next := chain[1]
	v["bg3.read_self_us"] = self("bg3", next, clsRead)
	v["bg3.write_self_us"] = self("bg3", next, clsWrite)
	if cfg.sp.sharded {
		v["shard.route_self_us"] = self("shard", "replication", clsWrite)
		v["replication.write_self_us"] = self("replication", "core", clsWrite)
	}
	v["core.read_self_us"] = self("core", "forest", clsRead)
	v["core.write_self_us"] = self("core", "forest", clsWrite)

	// Below the forest rung there is no further rung: its children are the
	// WAL logger's true child span and the standalone Bw-tree proxy.
	var walLog float64
	{
		forest := passes["forest"].ops
		var sum float64
		var n int
		for op, k := range forest.kind {
			if k == opWrite && !drop[op] {
				sum += forest.children["wal.log"][op]
				n++
			}
		}
		if n > 0 {
			walLog = sum / float64(n)
		}
		children := passes["bg3"].ops.children
		for _, stage := range []string{"shard.txn_prepare", "shard.txn_decide", "shard.txn_apply"} {
			var us []float64
			for _, x := range children[stage] {
				us = append(us, x)
			}
			v[stage+"_us"] = median(us)
		}
	}
	v["wal.log_self_us"] = walLog
	leafSelf := func(cl class, children float64) float64 {
		fm := means["forest"]
		if fm.n[cl] == 0 {
			return 0
		}
		s := fm.mean[cl] - children
		if s < 0 {
			unattributed += -s * float64(means["bg3"].n[cl])
			return 0
		}
		return s
	}
	v["forest.scan_self_us"] = leafSelf(clsRead, scansPerRead*lf.scanUS)
	v["forest.put_self_us"] = leafSelf(clsWrite, walLog+lf.putUS)
	if rootTime > 0 {
		v["trace.unattributed_share"] = unattributed / rootTime
	}

	// Tracing overhead on the class that carries the most time.
	traced, heavy := passes["bg3"].res, clsRead
	for cl := 0; cl < numClasses; cl++ {
		if means["bg3"].mean[cl]*float64(means["bg3"].n[cl]) > means["bg3"].mean[heavy]*float64(means["bg3"].n[heavy]) {
			heavy = class(cl)
		}
	}
	if u := base.p50US[heavy]; u > 0 {
		v["trace.overhead_share"] = (traced.p50US[heavy] - u) / u
	}

	// For a reader: each layer's self time times its calls per op, beside
	// the traced p50 it is a part of.
	cfg.log("traced root p50 (us): read %.3f  write %.3f  txn %.3f   [untraced: read %.3f write %.3f txn %.3f]",
		traced.p50US[clsRead], traced.p50US[clsWrite], traced.p50US[clsTxn],
		base.p50US[clsRead], base.p50US[clsWrite], base.p50US[clsTxn])
	for _, r := range chain {
		cfg.log("rung %-12s mean span (us), slowest 1%% of ops dropped: read %.3f  write %.3f  txn %.3f", r, means[r].mean[clsRead], means[r].mean[clsWrite], means[r].mean[clsTxn])
	}
	edgesPerRead := v["graph.edges_per_read"]
	for _, row := range []struct {
		name  string
		calls float64
		per   string
	}{
		{"bg3.read_self_us", 1, "read"}, {"core.read_self_us", 1, "read"}, {"forest.scan_self_us", 1, "read"},
		{"bwtree.scan_self_us", scansPerRead, "read"}, {"graph.decode_us_per_edge", edgesPerRead, "read"},
		{"storage.read_us", ratio(d("storage.read_ops"), float64(base.classOps[clsRead])), "read"},
		{"bg3.write_self_us", 1, "write"}, {"shard.route_self_us", 1, "write"}, {"replication.write_self_us", 1, "write"},
		{"core.write_self_us", 1, "write"}, {"forest.put_self_us", 1, "write"}, {"wal.log_self_us", 1, "write"},
		{"bwtree.put_self_us", 1, "write"}, {"graph.encode_us_per_edge", 1, "write"},
	} {
		if v[row.name] != 0 && row.calls != 0 {
			cfg.log("  product %-28s %10.3f us x %10.2f calls/%s = %10.3f us", row.name, v[row.name], row.calls, row.per, v[row.name]*row.calls)
		}
	}
	if cfg.sp.sharded {
		cfg.log("write p50 (us), one stream: Shards 4 %.3f | Shards 1 %.3f | unsharded replicated %.3f",
			base.p50US[clsWrite], v["shard.n1_write_p50_us"], v["bg3.unsharded_write_p50_us"])
	}
}

// leafTimes are the standalone timings of the layers whose public
// functions take layer-specific arguments.
type leafTimes struct {
	scanUS, scanReads, putUS, putAppends float64
	scanStorageUS, putStorageUS          float64
	readUS, readBatchUS, appendUS        float64
	decodeUS, encodeUS, pinUS            float64
}

func meanUS(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

var leafSink int

func timeLeaves(o bg3.Options, seed int64, scanLen, recBytes int, blocks bool, scale float64) leafTimes {
	var lf leafTimes
	rng := rand.New(rand.NewSource(seed))
	n := func(full int) int { return scaled(full, scale, 50) }

	// graph: the edge value every workload writes.
	val := make([]byte, 8)
	props := bg3.Properties{{Name: "ts", Value: val}}
	enc := graph.EncodeProps(props)
	lf.encodeUS = meanUS(n(200000), func(i int) {
		leafSink += len(graph.EncodeProps(props)) + len(graph.EdgeKey(bg3.ETypeFollow, bg3.VertexID(i)))
	})
	var dec graph.PropDecoder
	lf.decodeUS = meanUS(n(1000000), func(int) {
		p, _ := dec.Decode(enc) // enc is well-formed
		leafSink += len(p)
	})

	// mvcc: pin and release at a released epoch.
	src := mvcc.NewSource(0)
	src.Advance(1)
	lf.pinUS = meanUS(n(500000), func(int) { src.Pin().Close() })

	// storage: records of the size the workload moved.
	lf.readUS, lf.readBatchUS, lf.appendUS = timeStorage(o.ExtentSize, recBytes, rng, n)

	// bwtree: one tree of INIT-shaped keys under the workload's cache and
	// block settings, scanned at the workload's scan length.
	ts := storage.Open(&storage.Options{ExtentSize: o.ExtentSize})
	defer ts.Close()
	cfg := bwtree.Config{ConsolidateNum: o.ConsolidateNum, MaxPageEntries: o.MaxPageEntries, CacheCapacity: o.CacheCapacity}
	if blocks {
		cfg.EdgeBlockMinEntries = 1024
	}
	tree, err := bwtree.New(bwtree.NewMappingShards(o.CacheCapacity, false, o.CacheShards), ts, cfg, nil)
	if err != nil {
		return lf
	}
	keys := max(n(50000), 2*scanLen)
	key := func(i int) []byte {
		k := make([]byte, 18)
		binary.BigEndian.PutUint64(k, uint64(i/64))
		binary.BigEndian.PutUint64(k[10:], uint64(i%64))
		return k
	}
	for i := 0; i < keys; i++ {
		_ = tree.Put(key(i), enc) // standalone tree on a fault-free store
	}
	if blocks {
		_, _ = tree.TryBuildEdgeBlock()
	}
	scans := max(20, min(n(20000), n(4000000)/scanLen))
	before := ts.Stats()
	lf.scanUS = meanUS(scans, func(int) {
		_ = tree.Scan(key(rng.Intn(keys-scanLen+1)), nil, scanLen, func(k, _ []byte) bool { leafSink += len(k); return true })
	})
	mid := ts.Stats()
	lf.scanReads = float64(mid.ReadOps-before.ReadOps) / float64(scans)
	puts := n(10000)
	lf.putUS = meanUS(puts, func(int) { _ = tree.Put(key(rng.Intn(keys)), enc) })
	end := ts.Stats()
	lf.putAppends = float64(end.WriteOps-mid.WriteOps) / float64(puts)
	// The tree's own storage time, at the record sizes it moved, so that
	// what is left of its calls is the tree's self time.
	lf.scanStorageUS, lf.putStorageUS = 0, 0
	if r := mid.ReadOps - before.ReadOps; r > 0 {
		read, _, _ := timeStorage(o.ExtentSize, int((mid.BytesRead-before.BytesRead)/r), rng, n)
		lf.scanStorageUS = lf.scanReads * read
	}
	if w := end.WriteOps - mid.WriteOps; w > 0 {
		_, _, app := timeStorage(o.ExtentSize, int((end.BytesWritten-mid.BytesWritten)/w), rng, n)
		lf.putStorageUS = lf.putAppends * app
	}
	return lf
}

// timeStorage times Store.Append, Read and a base+delta ReadBatch on
// records of recBytes.
func timeStorage(extentSize, recBytes int, rng *rand.Rand, n func(int) int) (readUS, readBatchUS, appendUS float64) {
	st := storage.Open(&storage.Options{ExtentSize: extentSize})
	defer st.Close()
	rec := make([]byte, max(16, min(recBytes, st.ExtentSize()/4)))
	recs := n(4000)
	base, dlt := make([]storage.Loc, recs), make([]storage.Loc, recs)
	appendUS = meanUS(recs, func(i int) {
		base[i], _ = st.Append(storage.StreamBase, uint64(i), rec) // in-memory store, no faults configured
	})
	for i := range dlt {
		dlt[i], _ = st.Append(storage.StreamDelta, uint64(i), rec[:len(rec)/4])
	}
	readUS = meanUS(n(40000), func(int) {
		b, _ := st.Read(base[rng.Intn(recs)])
		leafSink += len(b)
	})
	pair := make([]storage.Loc, 2)
	readBatchUS = meanUS(n(40000), func(int) {
		i := rng.Intn(recs)
		pair[0], pair[1] = base[i], dlt[i]
		b, _ := st.ReadBatch(pair)
		leafSink += len(b)
	})
	return readUS, readBatchUS, appendUS
}

// writeSpans writes every pass's spans as JSON lines.
func writeSpans(cfg runConfig, passes []*tracePass) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, "trace-"+cfg.sp.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, p := range passes {
		if p.log == nil {
			continue
		}
		for i, s := range p.log.spans {
			fmt.Fprintf(w, `{"pass":%q,"op":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
				p.rung, s.op, i, s.name, s.start, s.end, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
