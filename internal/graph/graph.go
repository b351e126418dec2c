// Package graph defines the property-graph model shared by BG3 and the
// baseline engines (§2.2): typed vertices and edges with binary-encoded
// property lists, the key encodings that map them onto key-value storage,
// and traversal helpers (k-hop expansion) written against a small Store
// interface so every engine — BG3, ByteGraph, the Neptune stand-in — runs
// identical workloads.
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// VertexID identifies a vertex.
type VertexID uint64

// VertexType partitions vertices (user, video, account, ...).
type VertexType uint16

// EdgeType partitions the adjacency lists of a vertex (follow, like, ...),
// matching ByteGraph's per-type edge grouping.
type EdgeType uint16

// Common types used by the example workloads.
const (
	VTypeUser  VertexType = 1
	VTypeVideo VertexType = 2

	ETypeFollow   EdgeType = 1
	ETypeLike     EdgeType = 2
	ETypeTransfer EdgeType = 3
)

// Property is one named property value.
type Property struct {
	Name  string
	Value []byte
}

// Properties is the ordered property list attached to vertices and edges.
type Properties []Property

// Get returns the value of the named property.
func (ps Properties) Get(name string) ([]byte, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}

// Vertex is a typed vertex with properties.
type Vertex struct {
	ID    VertexID
	Type  VertexType
	Props Properties
}

// Edge is a typed, directed edge with properties.
type Edge struct {
	Src   VertexID
	Dst   VertexID
	Type  EdgeType
	Props Properties
}

// ErrCorrupt reports an undecodable graph record.
var ErrCorrupt = errors.New("graph: corrupt record")

// ErrPropsTooLarge reports a property list its encoding cannot hold.
var ErrPropsTooLarge = errors.New("graph: property list too large")

// EncodeProps serializes a property list:
//
//	count[2] { nlen[1] name vlen[4] value }*
//
// A list CheckProps rejects does not fit these fields.
func EncodeProps(ps Properties) []byte {
	size := 2
	for _, p := range ps {
		size += 5 + len(p.Name) + len(p.Value)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ps)))
	for _, p := range ps {
		buf = append(buf, byte(len(p.Name)))
		buf = append(buf, p.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Value)))
		buf = append(buf, p.Value...)
	}
	return buf
}

// CheckProps reports whether EncodeProps can hold ps: at most 65,535
// properties, each name at most 255 bytes and each value under 4 GiB.
func CheckProps(ps Properties) error {
	if len(ps) > math.MaxUint16 {
		return fmt.Errorf("%w: %d properties", ErrPropsTooLarge, len(ps))
	}
	for i, p := range ps {
		if len(p.Name) > math.MaxUint8 || uint64(len(p.Value)) > math.MaxUint32 {
			return fmt.Errorf("%w: property %d has a %d-byte name and a %d-byte value", ErrPropsTooLarge, i, len(p.Name), len(p.Value))
		}
	}
	return nil
}

// DecodeProps parses a property list into memory of its own: it is
// PropDecoder.Decode on a fresh decoder.
func DecodeProps(buf []byte) (Properties, error) {
	var d PropDecoder
	return d.decode(buf, false)
}

// DecodeOwnedProps is DecodeProps for a buffer the caller hands over, such as
// a point read's copy of its record: the values alias buf rather than copies
// of it, so the answer costs the slice and the names alone.
func DecodeOwnedProps(buf []byte) (Properties, error) {
	var d PropDecoder
	return d.decode(buf, true)
}

// PropDecoder decodes property lists for a scan without per-record
// allocation: the Properties slice, the value bytes (copied into an
// internal arena), and the name strings are all reused across Decode calls —
// a name is interned against the previous record's name at the same
// position, which is the same string for every record of one schema. The
// returned Properties are valid only until the next Decode — scan paths hand
// them to a callback and must document that the callback copies anything it
// retains. The zero value is ready to use; a scan borrows one from the free
// list (TakeDecoder), so a warm read path decodes into recycled memory.
type PropDecoder struct {
	scratch Properties
	arena   []byte
}

// idleDecoders is a bounded free list of property decoders, so that a scan
// borrows one rather than growing a fresh one per call. It is a channel, not
// a sync.Pool: a GC empties a pool, and the scans after it grow their
// decoders again. Eight serves a few concurrent scans while bounding what
// idle decoders hold (each up to maxPooledArena). A decoder's arena holds
// copies of the values it decoded, never views of a page, so nothing idle
// pins an extent.
var idleDecoders = make(chan *PropDecoder, 8)

// maxPooledArena and maxPooledProps bound the decoder that goes back on the
// free list: one that decoded a huge record would hold its memory for every
// small scan after it.
const (
	maxPooledArena = 64 << 10
	maxPooledProps = 1024
)

// TakeDecoder returns an idle decoder, or a new one when none is idle. Its
// holder has it to itself until Release: Properties it decodes stay valid
// however many other scans run meanwhile, on any goroutine.
func TakeDecoder() *PropDecoder {
	select {
	case d := <-idleDecoders:
		return d
	default:
		return new(PropDecoder)
	}
}

// Release makes d idle, unless it outgrew maxPooledArena or maxPooledProps or
// the free list is full. Properties it decoded are invalid from here on: the
// next holder overwrites them.
func (d *PropDecoder) Release() {
	if cap(d.arena) > maxPooledArena || cap(d.scratch) > maxPooledProps {
		return
	}
	select {
	case idleDecoders <- d:
	default:
	}
}

// Decode parses a property list, failing closed on truncation and trailing
// bytes, so that an accepted list re-encodes byte-identically. The result
// aliases the decoder's internal buffers and is invalidated by the next
// Decode call.
func (d *PropDecoder) Decode(buf []byte) (Properties, error) {
	return d.decode(buf, false)
}

// decode is Decode, with the values aliasing buf when alias is set.
func (d *PropDecoder) decode(buf []byte, alias bool) (Properties, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: short property list", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if n == 0 && len(buf) == 0 {
		return nil, nil
	}
	ps, prev := d.scratch[:0], d.scratch[:cap(d.scratch)]
	d.arena = d.arena[:0]
	for i := 0; i < n; i++ {
		if len(buf) < 1 {
			return nil, fmt.Errorf("%w: truncated property %d", ErrCorrupt, i)
		}
		nlen := int(buf[0])
		buf = buf[1:]
		if len(buf) < nlen+4 {
			return nil, fmt.Errorf("%w: truncated property name %d", ErrCorrupt, i)
		}
		// prev[i] is read before the append below overwrites it; the
		// comparison converts without allocating.
		var name string
		if i < len(prev) && prev[i].Name == string(buf[:nlen]) {
			name = prev[i].Name
		} else {
			name = string(buf[:nlen])
		}
		buf = buf[nlen:]
		vlen := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint64(vlen) > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: truncated property value %d", ErrCorrupt, i)
		}
		// Unless the caller handed buf over, copy the value into the arena
		// rather than aliasing buf: the source may be a latched page image
		// whose lifetime ends with the scan step, while the arena stays
		// valid until the next Decode. Growth mid-loop is fine — earlier
		// values keep the old array.
		var value []byte
		if alias && vlen > 0 {
			value = buf[:vlen:vlen]
		} else if vlen > 0 {
			off := len(d.arena)
			d.arena = append(d.arena, buf[:vlen]...)
			value = d.arena[off:len(d.arena):len(d.arena)]
		}
		ps = append(ps, Property{Name: name, Value: value})
		buf = buf[vlen:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes trail the property list", ErrCorrupt, len(buf))
	}
	d.scratch = ps
	return ps, nil
}

// EdgeKey encodes an edge's key within its source vertex's adjacency
// space: etype[2] dst[8]. Big-endian keeps edges of one type contiguous
// and ordered by destination.
func EdgeKey(typ EdgeType, dst VertexID) []byte {
	return AppendEdgeKey(make([]byte, 0, EdgeKeyLen), typ, dst)
}

// EdgeKeyLen is the length of an edge key.
const EdgeKeyLen = 10

// AppendEdgeKey appends the key EdgeKey returns to dst: a point read builds
// it in a stack buffer.
func AppendEdgeKey(dst []byte, typ EdgeType, v VertexID) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(typ))
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

// DecodeEdgeKey parses a key produced by EdgeKey.
func DecodeEdgeKey(key []byte) (EdgeType, VertexID, error) {
	if len(key) != EdgeKeyLen {
		return 0, 0, fmt.Errorf("%w: edge key length %d", ErrCorrupt, len(key))
	}
	return EdgeType(binary.BigEndian.Uint16(key)), VertexID(binary.BigEndian.Uint64(key[2:])), nil
}

// EdgeTypeBounds returns the [lo, hi) key range covering all edges of one
// type in a vertex's adjacency space.
func EdgeTypeBounds(typ EdgeType) (lo, hi []byte) {
	lo = make([]byte, 2)
	binary.BigEndian.PutUint16(lo, uint16(typ))
	if typ == ^EdgeType(0) {
		return lo, nil
	}
	hi = make([]byte, 2)
	binary.BigEndian.PutUint16(hi, uint16(typ)+1)
	return lo, hi
}

// Reader is the read-only half of the graph API. Traversals (KHop, the
// pattern matcher) are written against it so they run equally over a live
// store and over a pinned snapshot view that has no write methods.
type Reader interface {
	// GetVertex fetches a vertex.
	GetVertex(id VertexID, typ VertexType) (Vertex, bool, error)
	// GetEdge fetches one edge.
	GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error)
	// Neighbors streams the out-neighbors of src over edges of the given
	// type, in destination order, until fn returns false or limit edges
	// are delivered (limit <= 0: unlimited).
	Neighbors(src VertexID, typ EdgeType, limit int, fn func(dst VertexID, props Properties) bool) error
	// Degree returns the out-degree of src for the given edge type.
	Degree(src VertexID, typ EdgeType) (int, error)
}

// Store is the engine-neutral graph API all workloads run against.
type Store interface {
	Reader
	// AddVertex upserts a vertex and its properties.
	AddVertex(v Vertex) error
	// AddEdge upserts a directed edge and its properties.
	AddEdge(e Edge) error
	// DeleteEdge removes one edge.
	DeleteEdge(src VertexID, typ EdgeType, dst VertexID) error
}

// MutationKind discriminates batched graph mutations.
type MutationKind uint8

const (
	// MutAddVertex upserts Mutation.Vertex.
	MutAddVertex MutationKind = iota + 1
	// MutAddEdge upserts Mutation.Edge.
	MutAddEdge
	// MutDeleteEdge removes the edge identified by Mutation.Edge's
	// Src/Type/Dst (properties ignored).
	MutDeleteEdge
)

// Mutation is one element of a batched write: a vertex upsert, an edge
// upsert, or an edge deletion.
type Mutation struct {
	Kind   MutationKind
	Vertex Vertex
	Edge   Edge
}

// AddVertexMut builds a vertex-upsert mutation.
func AddVertexMut(v Vertex) Mutation { return Mutation{Kind: MutAddVertex, Vertex: v} }

// AddEdgeMut builds an edge-upsert mutation.
func AddEdgeMut(e Edge) Mutation { return Mutation{Kind: MutAddEdge, Edge: e} }

// DeleteEdgeMut builds an edge-deletion mutation.
func DeleteEdgeMut(src VertexID, typ EdgeType, dst VertexID) Mutation {
	return Mutation{Kind: MutDeleteEdge, Edge: Edge{Src: src, Type: typ, Dst: dst}}
}

// BatchStore is implemented by stores that can commit a group of mutations
// as one WAL commit group — many logical writes, one storage round trip.
type BatchStore interface {
	Store
	// ApplyBatch applies the mutations of one key — one vertex record, one
	// edge — in call order, and everything else in (owner, key) order: the
	// order in which a store writes each page an owner's writes touch once. No
	// reader can tell the difference from call order, because a read sees,
	// per key, the newest mutation at its horizon and nothing of how keys
	// interleaved. It returns the first error. A failed batch may have
	// applied any subset of its mutations — each is as uncertain as a failed
	// single write — and every durability wait already collected is still
	// drained. Durability is all-at-once: no mutation is acknowledged before
	// the whole batch's WAL records are durable.
	ApplyBatch(muts []Mutation) error
}

// FrontierReader is an optional Reader capability: the out-neighbors of a
// whole traversal frontier in one call, so a store can make the hop — not
// the vertex — its unit of I/O (the Bw-tree forest fetches every cold page
// of the frontier in one storage round; a sharded reader scatters the
// frontier to its shards in parallel). limit applies per source vertex; fn
// returning false stops the whole read. Each source's neighbors arrive in
// destination order, but sources interleave: cross-source order is
// unspecified. The walk is ids-only — edge properties are not decoded.
type FrontierReader interface {
	NeighborsMany(srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error
}

// NeighborsMany expands a frontier over s: through its FrontierReader
// capability when it has one, one Neighbors call per source otherwise.
func NeighborsMany(s Reader, srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error {
	if fr, ok := s.(FrontierReader); ok {
		return fr.NeighborsMany(srcs, typ, limit, fn)
	}
	return NeighborsEach(s, srcs, typ, limit, fn)
}

// NeighborsEach is the per-vertex frontier expansion: one Neighbors call
// per source, in order — what a reader without a batched read path runs
// (the paper-comparison baselines).
func NeighborsEach(s Reader, srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error {
	for _, src := range srcs {
		more := true
		err := s.Neighbors(src, typ, limit, func(dst VertexID, _ Properties) bool {
			more = fn(src, dst)
			return more
		})
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// KHop expands hops levels of out-neighbors from start over edges of the
// given type, returning the set of vertices reached (excluding start).
// perVertexLimit bounds the neighbors expanded per vertex (<= 0:
// unlimited) — the multi-hop neighbor query of the Douyin-recommendation
// workload. The map is freshly allocated and belongs to the caller.
func KHop(s Reader, start VertexID, typ EdgeType, hops, perVertexLimit int) (map[VertexID]struct{}, error) {
	return KHopBudget(s, start, typ, hops, perVertexLimit, 0)
}

// KHopBudget is KHop with a total result budget: expansion stops once
// budget vertices have been reached (<= 0: unlimited). The risk-control
// workload of Table 1 reads "10 hops and 100 edges" — a deep but bounded
// neighborhood probe.
//
// It is the one breadth-first loop: every hop is one NeighborsMany over
// the frontier, so the reader decides how a hop reaches storage. Under a
// budget a hop is fed in slices no larger than the budget still open (a
// source contributes at least one new vertex in the common case), so a
// batching reader does not fetch a whole frontier it will not expand.
// The walk runs in pooled scratch; the map it returns, on every path (the
// partial set on error), is allocated once, at its final size.
func KHopBudget(s Reader, start VertexID, typ EdgeType, hops, perVertexLimit, budget int) (map[VertexID]struct{}, error) {
	fb := takeFrontiers()
	defer fb.release()
	err := fb.expand(s, start, typ, hops, perVertexLimit, budget)
	return fb.reached(), err
}

// frontiers is KHopBudget's scratch: the visited set (start and every
// vertex reached) and the same vertices in discovery order, start first.
// Every hop's frontier is the window of order the previous hop appended,
// so the frontiers need no buffers of their own. Vertex IDs hold no
// pointers, so nothing pooled pins an extent.
type frontiers struct {
	seen   map[VertexID]struct{}
	order  []VertexID
	budget int
	visit  func(_, dst VertexID) bool // made once per scratch, reads budget
}

// idleFrontiers is a bounded free list of cleared scratch. It is not a
// sync.Pool: a GC empties a pool, and the traversal after it grows its
// visited set from empty again. Eight serves a few concurrent traversals
// while bounding what idle scratch holds (each up to maxPooledVisits).
var idleFrontiers = make(chan *frontiers, 8)

// takeFrontiers returns idle scratch, or new scratch when none is idle.
func takeFrontiers() *frontiers {
	select {
	case fb := <-idleFrontiers:
		return fb
	default:
	}
	fb := &frontiers{seen: make(map[VertexID]struct{})}
	fb.visit = func(_, dst VertexID) bool {
		n := len(fb.seen)
		fb.seen[dst] = struct{}{} // one probe: the set grows only if dst is new
		if len(fb.seen) > n {
			fb.order = append(fb.order, dst)
		}
		return fb.budget <= 0 || len(fb.order)-1 < fb.budget
	}
	return fb
}

// maxPooledVisits bounds the traversal whose scratch is pooled again:
// clearing a map costs its capacity, so a huge visited set would tax
// every small traversal after it.
const maxPooledVisits = 1 << 16

func (fb *frontiers) expand(s Reader, start VertexID, typ EdgeType, hops, perVertexLimit, budget int) error {
	fb.seen[start] = struct{}{}
	fb.order, fb.budget = append(fb.order, start), budget
	for h, lo := 0, 0; h < hops && lo < len(fb.order); h++ {
		for hi := len(fb.order); lo < hi; {
			part := fb.order[lo:hi:hi] // visit appends past hi
			if budget > 0 {
				open := budget - (len(fb.order) - 1)
				if open <= 0 {
					return nil
				}
				part = part[:min(open, len(part))]
			}
			lo += len(part)
			if err := NeighborsMany(s, part, typ, perVertexLimit, fb.visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// reached returns the vertices reached, start excluded, in a map sized once.
func (fb *frontiers) reached() map[VertexID]struct{} {
	out := make(map[VertexID]struct{}, len(fb.order)-1)
	for _, v := range fb.order[1:] {
		out[v] = struct{}{}
	}
	return out
}

// release clears fb and keeps it idle, unless its traversal outgrew
// maxPooledVisits or the free list is full.
func (fb *frontiers) release() {
	if len(fb.order) > maxPooledVisits {
		return
	}
	clear(fb.seen)
	fb.order, fb.budget = fb.order[:0], 0
	select {
	case idleFrontiers <- fb:
	default:
	}
}
