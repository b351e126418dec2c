package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bg3"
	"bg3/internal/shard"
)

// opKind is one kind of call a client makes.
type opKind uint8

const (
	opRead   opKind = iota // Neighbors with a limit
	opScan                 // unbounded Neighbors of a super-vertex
	opAux                  // unbounded Neighbors of an ordinary vertex
	opKHop                 // multi-hop expansion
	opWrite                // single AddEdge
	opTxn                  // ApplyBatch of txnEdges edges over two shards
	opVerify               // GetEdge of an edge this client already had acked
	opGC                   // RunGC(gcBatch); maintenance, not counted as an op
)

// class groups op kinds into the latency metrics they feed.
type class uint8

const (
	clsRead class = iota
	clsWrite
	clsTxn
	clsNone
	numClasses = int(clsNone)
)

var classNames = [numClasses]string{"read", "write", "txn"}

func (k opKind) class() class {
	switch k {
	case opRead, opScan, opKHop, opVerify:
		return clsRead
	case opWrite:
		return clsWrite
	case opTxn:
		return clsTxn
	}
	return clsNone
}

const (
	txnEdges  = 8
	gcBatch   = 8
	zipfS     = 1.2
	churnWide = 48 // risk-churn: distinct dsts a source can have
	// userBytesPerEdge is what one acked edge mutation is worth in the
	// amplification metrics: 8 (src) + len(edge key) + len(encoded props).
	userBytesPerEdge = 8 + 10 + 17
	// routerShards fixes the owner function the generator uses to pick two
	// sources on different shards, so the op stream does not depend on the
	// deployment it is replayed against.
	routerShards = 4
)

type op struct {
	kind  opKind
	src   bg3.VertexID
	dst   bg3.VertexID
	hops  int
	limit int
	muts  []bg3.Mutation
}

// scale shrinks a workload for the package test; the command always runs
// at 1.
type sizes struct {
	vertices   int
	preload    int
	superEdges int // per super-vertex, packed into its edge block
	superLate  int // per super-vertex, written after the block is sealed
	supers     int
	gcEvery    int // risk-churn: client 0 runs GC every this many of its ops
	// warmOps ops are run unrecorded before the measured phase (about 3 s of
	// work on the host this was sized on); traceOps is a traced rung.
	warmOps, traceOps int
}

func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// spec is one named workload: how the database is opened and loaded, what
// the clients do, and which regime it must stay in to mean what it says.
type spec struct {
	name    string
	why     string
	sharded bool
	etype   bg3.EdgeType
	opts    func(scale float64) bg3.Options
	sizes   func(scale float64) sizes
	// preload produces the load phase's edges in order.
	preload func(sz sizes, d *draws, emit func(src, dst bg3.VertexID))
	// blocks builds edge blocks after the load (supernode-scan); postload
	// then writes more edges, which land in the blocks' overlays.
	blocks   bool
	postload func(sz sizes, emit func(src, dst bg3.VertexID))
	// next draws a client's next op.
	next func(c *client) op
	// guard checks the regime after the measured phase.
	guard func(r *phaseResult) error
	// gcToQuiescence reclaims space until nothing moves before space is read.
	gcToQuiescence bool
}

var specs = []*spec{followHot, recommendCold, supernodeScan, ingestSharded, riskChurn}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func baseSizes(scale float64) sizes {
	return sizes{
		vertices: scaled(20000, scale, 200),
		preload:  scaled(200000, scale, 2000),
		warmOps:  scaled(600000, scale, 500),
		traceOps: scaled(100000, scale, 300),
	}
}

func zipfUniformPreload(sz sizes, d *draws, emit func(src, dst bg3.VertexID)) {
	for i := 0; i < sz.preload; i++ {
		emit(d.zipf(), d.uniform())
	}
}

var followHot = &spec{
	name:  "follow-hot",
	why:   "Table 1 Douyin Follow: 99% limit-128 Neighbors / 1% AddEdge on data that fits the cache, so time is the cache-hit read path",
	etype: bg3.ETypeFollow,
	opts: func(float64) bg3.Options {
		return bg3.Options{ForestSplitThreshold: 64}
	},
	sizes:   baseSizes,
	preload: zipfUniformPreload,
	next: func(c *client) op {
		if c.kind(100) < 1 {
			return op{kind: opWrite, src: c.zipf(), dst: c.uniform()}
		}
		return op{kind: opRead, src: c.zipf(), limit: 128}
	},
	guard: func(r *phaseResult) error {
		if r.cacheHitRatio < 0.99 {
			return fmt.Errorf("cache hit ratio %.3f < 0.99: the data no longer fits the cache", r.cacheHitRatio)
		}
		return nil
	},
}

var recommendCold = &spec{
	name:  "recommend-cold",
	why:   "Table 1 Recommendation: read-only 1/2/3-hop KHop with a 64-page cache, so time is materialize, evict and storage reads",
	etype: bg3.ETypeFollow,
	opts: func(scale float64) bg3.Options {
		return bg3.Options{ForestSplitThreshold: 64, CacheCapacity: scaled(64, scale, 2)}
	},
	sizes: func(scale float64) sizes {
		sz := baseSizes(scale)
		sz.warmOps, sz.traceOps = scaled(20000, scale, 300), scaled(8000, scale, 300)
		return sz
	},
	preload: zipfUniformPreload,
	next: func(c *client) op {
		hops := 1
		if x := c.kind(10); x >= 9 {
			hops = 3
		} else if x >= 7 {
			hops = 2
		}
		return op{kind: opKHop, src: c.zipf(), hops: hops, limit: 16}
	},
	guard: func(r *phaseResult) error {
		if r.cacheHitRatio > 0.30 {
			return fmt.Errorf("cache hit ratio %.3f > 0.30: the working set fits the cache", r.cacheHitRatio)
		}
		return nil
	},
}

// superDstBase is where dsts added to a super-vertex during a run start;
// the bulk-loaded ones are 0..superEdges-1.
const superDstBase = 1_000_000

var supernodeScan = &spec{
	name:  "supernode-scan",
	why:   "two 100k-edge super-vertices in CSR edge blocks under a populated overlay: full sequential scans beside overlay writes",
	etype: bg3.ETypeFollow,
	// Unlimited cache: with a bounded one some seeds settle into re-reading
	// pages on every ordinary-vertex scan and others never do, and storage
	// traffic per op swings severalfold between them.
	opts: func(float64) bg3.Options {
		return bg3.Options{ForestSplitThreshold: 64}
	},
	sizes: func(scale float64) sizes {
		sz := baseSizes(scale)
		sz.preload = scaled(20000, scale, 1000)
		sz.supers = 2
		sz.superEdges = scaled(100000, scale, 2000)
		sz.superLate = scaled(2000, scale, 100)
		sz.warmOps, sz.traceOps = scaled(3000, scale, 100), scaled(1500, scale, 100)
		return sz
	},
	preload: func(sz sizes, d *draws, emit func(src, dst bg3.VertexID)) {
		zipfUniformPreload(sz, d, emit)
		for s := 0; s < sz.supers; s++ {
			for d := 0; d < sz.superEdges; d++ {
				emit(bg3.VertexID(sz.vertices+s), bg3.VertexID(d))
			}
		}
	},
	blocks: true,
	// A run adds a few hundred overlay entries per super-vertex, more on a
	// faster host. Starting from a populated overlay keeps the cost of
	// merging it nearly the same whatever the host's speed.
	postload: func(sz sizes, emit func(src, dst bg3.VertexID)) {
		for s := 0; s < sz.supers; s++ {
			for d := 0; d < sz.superLate; d++ {
				emit(bg3.VertexID(sz.vertices+s), bg3.VertexID(sz.superEdges+d))
			}
		}
	},
	next: func(c *client) op {
		super := bg3.VertexID(c.sz.vertices + c.extra(c.sz.supers))
		switch x := c.kind(10); {
		case x < 5:
			return op{kind: opScan, src: super}
		case x < 9:
			return op{kind: opAux, src: c.zipf()}
		default:
			c.fresh++
			return op{kind: opWrite, src: super, dst: bg3.VertexID(superDstBase + c.dstSalt + c.fresh)}
		}
	},
	guard: func(r *phaseResult) error {
		if r.blockHitRatio < 0.9 {
			return fmt.Errorf("edge-block hit ratio %.3f < 0.9: scans fell back to the merged leaf path", r.blockHitRatio)
		}
		return nil
	},
}

var owner4 = shard.NewRouter(routerShards)

var ingestSharded = &spec{
	name:    "ingest-sharded",
	why:     "4-shard write path: 89% AddEdge, 10% two-shard 2PC ApplyBatch of 8 edges, 1% GetEdge read-back of an acked edge",
	sharded: true,
	etype:   bg3.ETypeFollow,
	opts: func(float64) bg3.Options {
		return bg3.Options{ForestSplitThreshold: 64, Shards: routerShards, CommitPipelineDepth: 8}
	},
	sizes: func(scale float64) sizes {
		sz := baseSizes(scale)
		sz.preload = scaled(5000, scale, 500)
		sz.warmOps, sz.traceOps = scaled(120000, scale, 500), scaled(40000, scale, 300)
		return sz
	},
	preload: zipfUniformPreload,
	next: func(c *client) op {
		x := c.kind(100)
		switch {
		case x < 10:
			a := c.zipf()
			b := c.zipf()
			for owner4.Owner(b) == owner4.Owner(a) {
				b = c.zipf()
			}
			c.muts = c.muts[:0]
			for i := 0; i < txnEdges; i++ {
				src := a
				if i >= txnEdges/2 {
					src = b
				}
				c.muts = append(c.muts, bg3.AddEdgeMut(c.edge(src, c.uniform())))
			}
			return op{kind: opTxn, muts: c.muts}
		case x < 11 && c.ackedN > 0:
			k := c.acked[c.extra(min(c.ackedN, len(c.acked)))]
			return op{kind: opVerify, src: bg3.VertexID(k >> 32), dst: bg3.VertexID(uint32(k))}
		default:
			return op{kind: opWrite, src: c.zipf(), dst: c.uniform()}
		}
	},
	guard: func(r *phaseResult) error {
		// 0.10 ± 0.01, widened to four standard errors when the run is too
		// short for the draw to be that tight.
		share := float64(r.classOps[clsTxn]) / float64(r.ops)
		if tol := math.Max(0.01, 4*math.Sqrt(0.09/float64(r.ops))); math.Abs(share-0.10) > tol {
			return fmt.Errorf("txn share %.3f outside 0.10 ± %.3f", share, tol)
		}
		if r.txnAborts != 0 {
			return fmt.Errorf("%d transactions aborted", r.txnAborts)
		}
		// The load issues no batches, so over the group's lifetime every
		// acked two-shard batch is exactly one 2PC commit.
		if r.txnCommits != r.txnsAcked {
			return fmt.Errorf("%d two-shard batches acked but %d 2PC commits", r.txnsAcked, r.txnCommits)
		}
		return nil
	},
	gcToQuiescence: true,
}

var riskChurn = &spec{
	name:  "risk-churn",
	why:   "Table 1 Risk Control: alternating overwriting AddEdge and 5-10 hop KHop with a 64-page cache and periodic GC, so flush, consolidate, invalidate and reclaim carry weight",
	etype: bg3.ETypeTransfer,
	opts: func(scale float64) bg3.Options {
		return bg3.Options{ForestSplitThreshold: 64, CacheCapacity: scaled(64, scale, 4), ExtentSize: scaled(256<<10, scale, 16<<10)}
	},
	sizes: func(scale float64) sizes {
		sz := baseSizes(scale)
		sz.gcEvery = scaled(1000, scale, 100)
		sz.warmOps, sz.traceOps = scaled(5000, scale, 300), scaled(3000, scale, 300)
		return sz
	},
	preload: func(sz sizes, d *draws, emit func(src, dst bg3.VertexID)) {
		for i := 0; i < sz.preload; i++ {
			emit(churnEdge(sz, d))
		}
	},
	next: func(c *client) op {
		c.n++
		if c.id == 0 && c.n%c.sz.gcEvery == 0 {
			return op{kind: opGC}
		}
		c.flip = !c.flip
		if c.flip {
			src, dst := churnEdge(c.sz, c.draws)
			return op{kind: opWrite, src: src, dst: dst}
		}
		return op{kind: opKHop, src: c.zipf(), hops: 5 + c.extra(6), limit: 2}
	},
	guard: func(r *phaseResult) error {
		if share := float64(r.overwrites) / float64(max(r.classOps[clsWrite], 1)); share < 0.5 {
			return fmt.Errorf("overwrite share %.3f < 0.5: the live set is still growing", share)
		}
		if r.extentsReclaimed <= 0 {
			return fmt.Errorf("no extent reclaimed: GC did no work")
		}
		return nil
	},
	gcToQuiescence: true,
}

// churnEdge draws a risk-churn write: 70% Zipf / 30% uniform source and one
// of churnWide dsts fixed per source, so a hot source's writes overwrite.
func churnEdge(sz sizes, d *draws) (src, dst bg3.VertexID) {
	if d.kind(10) < 7 {
		src = d.zipf()
	} else {
		src = d.uniform()
	}
	dst = bg3.VertexID((uint64(src)*7919 + uint64(d.extra(churnWide))) % uint64(sz.vertices))
	return src, dst
}

// draws is a seeded source of the workloads' random choices. The driver
// gives every run another seed, and with independent draws the luck of the
// draw - which sources a run happened to query, how skewed its graph came
// out - moved the per-op counts by 3-4% between seeds, more than anything
// else did. Each kind of choice is therefore a Kronecker sequence
// (x, x+a, x+2a, ... mod 1 for an irrational a): every stretch of a run sees
// the intended distribution almost exactly, and the seed only sets where the
// sequences start. Sources are mapped through the Zipf(1.2) quantile
// function.
type draws struct {
	x        [4]float64
	cdf      []float64 // Zipf cumulative probabilities by vertex
	vertices int
}

// loadStream is the stream id of the load's draws; clients use their ids.
const loadStream = -1

// drawSteps are the sequences' increments: the fractional parts of the
// golden ratio and of the square roots of 2, 3 and 5.
var drawSteps = [4]float64{0.6180339887498949, 0.4142135623730951, 0.7320508075688772, 0.2360679774997898}

// zipfCDF is P(vertex <= k) for P(k) proportional to (1+k)^-zipfS, the
// distribution math/rand's Zipf draws with v = 1.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(1+k), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func newDraws(seed int64, stream, vertices int) *draws {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 17))
	d := &draws{cdf: zipfCDF(vertices), vertices: vertices}
	for i := range d.x {
		d.x[i] = rng.Float64()
	}
	return d
}

func (d *draws) u(i int) float64 {
	if d.x[i] += drawSteps[i]; d.x[i] >= 1 {
		d.x[i]--
	}
	return d.x[i]
}

// zipf draws a source, uniform a destination, kind an op kind out of n, and
// extra whatever else an op needs (hop count, slot, which super-vertex).
func (d *draws) zipf() bg3.VertexID {
	return bg3.VertexID(min(sort.SearchFloat64s(d.cdf, d.u(0)), d.vertices-1))
}
func (d *draws) uniform() bg3.VertexID { return bg3.VertexID(d.u(1) * float64(d.vertices)) }
func (d *draws) kind(n int) int        { return int(d.u(2) * float64(n)) }
func (d *draws) extra(n int) int       { return int(d.u(3) * float64(n)) }

// edgeKey packs an edge's identity for the reference model.
func edgeKey(src, dst bg3.VertexID) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

// edgeValue is the 8-byte property every write of (src, dst) carries. It
// depends only on the edge, so concurrent overwrites from different
// clients cannot make the expected value ambiguous.
func edgeValue(src, dst bg3.VertexID) uint64 {
	x := edgeKey(src, dst) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// client is one closed-loop caller: its own seeded generator plus the
// slice of the reference model it owns.
type client struct {
	id int
	sp *spec
	sz sizes
	*draws
	flip bool
	n    int
	// fresh counts new dsts this client added to super-vertices; dstSalt
	// keeps clients from colliding.
	fresh   int
	dstSalt int

	muts  []bg3.Mutation
	props [txnEdges + 1][1]bg3.Property
	vals  [txnEdges + 1][8]byte
	nprop int

	// written is every edge this client had acked; acked is a ring of the
	// most recent ones for read-back; txns samples two-shard batches.
	written map[uint64]struct{}
	acked   [1024]uint64
	ackedN  int
	acks    int
	txns    [][]uint64
}

func newClient(sp *spec, sz sizes, seed int64, id int) *client {
	return &client{
		id: id, sp: sp, sz: sz, draws: newDraws(seed, id, sz.vertices),
		dstSalt: id * 10_000_000,
		written: make(map[uint64]struct{}),
	}
}

// edge builds the edge for (src, dst) in the client's reusable property
// buffers; it is valid until the next op.
func (c *client) edge(src, dst bg3.VertexID) bg3.Edge {
	i := c.nprop % len(c.props)
	c.nprop++
	binary.LittleEndian.PutUint64(c.vals[i][:], edgeValue(src, dst))
	c.props[i][0] = bg3.Property{Name: "ts", Value: c.vals[i][:]}
	return bg3.Edge{Src: src, Dst: dst, Type: c.sp.etype, Props: c.props[i][:]}
}

// reference is the harness's in-memory model of the loaded graph.
type reference struct {
	pre map[uint64]struct{} // distinct edges after the load
	adj map[uint32][]uint32 // dst-sorted adjacency, recommend-cold only
}

func buildReference(sp *spec, sz sizes, seed int64, withAdj bool) *reference {
	ref := &reference{pre: make(map[uint64]struct{}, sz.preload+sz.supers*sz.superEdges)}
	note := func(src, dst bg3.VertexID) { ref.pre[edgeKey(src, dst)] = struct{}{} }
	sp.preload(sz, newDraws(seed, loadStream, sz.vertices), note)
	if sp.postload != nil {
		sp.postload(sz, note)
	}
	if withAdj {
		ref.adj = make(map[uint32][]uint32)
		for k := range ref.pre {
			ref.adj[uint32(k>>32)] = append(ref.adj[uint32(k>>32)], uint32(k))
		}
		for _, d := range ref.adj {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		}
	}
	return ref
}

// khop is graph.KHop over the reference adjacency: first limit dsts of each
// frontier vertex in dst order, visited set shared across hops.
func (ref *reference) khop(start uint32, hops, limit int) map[uint32]struct{} {
	visited := map[uint32]struct{}{start: {}}
	reached := map[uint32]struct{}{}
	frontier := []uint32{start}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []uint32
		for _, v := range frontier {
			d := ref.adj[v]
			if limit > 0 && len(d) > limit {
				d = d[:limit]
			}
			for _, w := range d {
				if _, seen := visited[w]; !seen {
					visited[w] = struct{}{}
					reached[w] = struct{}{}
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return reached
}
