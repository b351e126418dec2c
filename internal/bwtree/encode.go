package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"bg3/internal/wal"
)

// op is one logical update of a page's overlay. lsn is the WAL LSN the
// update committed under (0 on trees without a logger): a read at horizon
// H sees, per key, the newest op with lsn <= H over the base image.
// pending marks an op no durable delta record carries yet.
type op struct {
	del     bool
	pending bool
	key     []byte
	val     []byte
	lsn     wal.LSN
}

// opOverhead is an op's resident cost beyond its key and value bytes.
const opOverhead = 64

// ErrCorruptPage is returned when a durable page image fails to decode.
var ErrCorruptPage = errors.New("bwtree: corrupt page image")

// leafImage is a leaf page as storage holds it, read in place, in one of two
// layouts:
//
//	count[4] { off[4] klen[4] }*count  { key val }*count
//	count[4]|packedLeafFlag klen[4] vlen[4] { key val }*count
//
// off is the absolute offset of entry i's key; its value runs to the next
// off (the image's end for the last one). Invariant: an image is packed — no
// byte per entry — exactly when it has entries all of one key length and one
// value length (mergeEncode picks, decodeLeaf checks), so each content has one
// encoding (FuzzDecodeLeafPage, TestSpillBoundaryIsExact, root
// TestLeafBytesPerEdge). Entries are strictly key-ascending. An image is
// immutable once built: readers walk it without the page latch and sub-slices
// are capacity-capped. nil means "not resident"; an empty page is emptyLeaf.
type leafImage []byte

const packedLeafFlag = 0x8000_0000

var emptyLeaf = leafImage{0, 0, 0, 0}

func (p leafImage) count() int { return int(binary.LittleEndian.Uint32(p) &^ packedLeafFlag) }

func (p leafImage) packed() bool { return p[3]&0x80 != 0 }

// key returns entry i's key; entry's n bounds only a table entry's value.
func (p leafImage) key(i int) []byte {
	k, _ := p.entry(i, 0)
	return k
}

func (p leafImage) val(i int) []byte {
	_, v := p.entry(i, p.count())
	return v
}

// entry returns entry i's key and value from one read of its table slot or
// header; n is p.count(), which a walk over many entries reads once.
func (p leafImage) entry(i, n int) (k, v []byte) {
	if p.packed() {
		kl, vl := int(binary.LittleEndian.Uint32(p[4:])), int(binary.LittleEndian.Uint32(p[8:]))
		off := 12 + i*(kl+vl)
		return p[off : off+kl : off+kl], p[off+kl : off+kl+vl : off+kl+vl]
	}
	slot := binary.LittleEndian.Uint64(p[4+8*i:]) // off, klen
	off, end := uint32(slot), uint32(len(p))
	mid := off + uint32(slot>>32)
	if i+1 < n {
		end = binary.LittleEndian.Uint32(p[12+8*i:])
	}
	return p[off:mid:mid], p[mid:end:end]
}

// is reports whether p is rec itself — the same bytes in the same place, not
// an equal copy.
func (p leafImage) is(rec []byte) bool {
	return len(p) > 0 && len(p) == len(rec) && &p[0] == &rec[0]
}

// bound returns the index of the first entry at or after to; nil is open.
func (p leafImage) bound(to []byte) int {
	if to == nil {
		return p.count()
	}
	return p.search(to)
}

// search returns the index of the first entry at or after key.
func (p leafImage) search(key []byte) int {
	if len(key) == 0 {
		return 0
	}
	return sort.Search(p.count(), func(i int) bool { return bytes.Compare(p.key(i), key) >= 0 })
}

// gallop returns the index of the first entry in [i, n) at or after key, n
// when there is none. It probes at doubling distances from i before it
// bisects, so finding the end of a run of r entries costs O(log r) however
// large the image is: a leaf-sized image and a 100k-entry edge block pay the
// same for an overlay key that lands a few entries ahead. The bisection is
// written out because this sits inside every scan's merge loop, where a
// sort.Search closure call per probe costs more than the probe.
func (p leafImage) gallop(i, n int, key []byte) int {
	step := 1
	for i+step <= n && bytes.Compare(p.key(i+step-1), key) < 0 {
		i += step // sorted: everything up to the probe is below key too
		step <<= 1
	}
	hi := min(i+step-1, n) // the probe that ended the loop, if any, is at or after key
	for i < hi {
		if mid := int(uint(i+hi) >> 1); bytes.Compare(p.key(mid), key) < 0 {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return i
}

// imageShape is what an image's size and layout depend on, gathered entry by
// entry: mergeEncode, persistBase's spill and decodeLeaf all size by it.
type imageShape struct {
	n, payload uint64
	klen, vlen int
	mixed      bool // entries differ in key or value length
}

func (s *imageShape) add(k, v []byte) {
	if s.n == 0 {
		s.klen, s.vlen = len(k), len(v)
	}
	s.mixed = s.mixed || len(k) != s.klen || len(v) != s.vlen
	s.n, s.payload = s.n+1, s.payload+uint64(len(k)+len(v))
}

func (s *imageShape) packed() bool { return s.n > 0 && !s.mixed }

// imageSize returns the encoded length of an image of n entries carrying
// payload key and value bytes in the given layout. Offsets in the table are
// uint32 (and a slice length an int), so the sum is taken in 64 bits and an
// image they could not address, or whose count would reach the packed flag,
// is an error — a leaf is bounded by its split threshold, an edge block only
// by its tree.
func imageSize(n, payload uint64, packed bool) (int, error) {
	const limit = min(math.MaxUint32, math.MaxInt)
	head, slot := uint64(4), uint64(8)
	if packed {
		head, slot = 12, 0
	}
	if n >= packedLeafFlag || payload > limit || head+slot*n+payload > limit {
		return 0, fmt.Errorf("bwtree: image of %d entries and %d payload bytes exceeds the leaf format's 4 GiB", n, payload)
	}
	return int(head + slot*n + payload), nil
}

// decodeLeaf validates buf as a leaf image and returns it aliased, never
// copied: every offset is checked in 64 bits against its neighbours and the
// record's end, keys must ascend and the layout must be the one mergeEncode
// picks for the entries, so the accessors above cannot panic or reach
// outside buf, and a valid image re-encodes byte-identically.
func decodeLeaf(buf []byte) (leafImage, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short leaf", ErrCorruptPage)
	}
	p := leafImage(buf)
	n := uint64(p.count())
	min := 4 + 8*n // entry i's key starts at or after entry i-1's key end
	if p.packed() {
		// n < 2^31 and klen+vlen < 2^33: the product cannot wrap.
		if len(buf) < 12 || 12+n*(uint64(binary.LittleEndian.Uint32(buf[4:]))+uint64(binary.LittleEndian.Uint32(buf[8:]))) != uint64(len(buf)) {
			return nil, fmt.Errorf("%w: packed leaf of %d entries in %d bytes", ErrCorruptPage, n, len(buf))
		}
	} else if min > uint64(len(buf)) || (n == 0 && len(buf) != 4) {
		return nil, fmt.Errorf("%w: leaf table of %d entries in %d bytes", ErrCorruptPage, n, len(buf))
	}
	for i := uint64(0); i < n && !p.packed(); i++ {
		s := buf[4+8*i:]
		off, klen := uint64(binary.LittleEndian.Uint32(s)), uint64(binary.LittleEndian.Uint32(s[4:]))
		if off < min || (i == 0 && off != min) || off+klen > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: leaf entry %d out of bounds", ErrCorruptPage, i)
		}
		min = off + klen
	}
	var shape imageShape
	for i := 0; i < int(n); i++ {
		k, v := p.entry(i, int(n))
		if i > 0 && bytes.Compare(p.key(i-1), k) >= 0 {
			return nil, fmt.Errorf("%w: leaf keys out of order at %d", ErrCorruptPage, i)
		}
		shape.add(k, v)
	}
	if shape.packed() != p.packed() {
		return nil, fmt.Errorf("%w: leaf of %d entries in the wrong layout", ErrCorruptPage, n)
	}
	return p, nil
}

// encodeOps serializes a delta record (one op for the traditional policy,
// the page's whole overlay for the read-optimized policy):
//
//	count[4]|flag { del[1] lsn klen vlen key val }*
//
// Invariant: lsn, klen and vlen are uvarints in their shortest form (read by
// wal.ReadUvarints), so a record has one encoding and op.size is its exact
// length (FuzzDecodeOps, TestDeltaRecordSizeIsExact, TestOneOpDeltaIsCompact).
// Per-op LSN stamps survive the round trip so a rebuilt or replicated delta
// chain keeps the visibility boundaries snapshot reads filter by. The record
// is appended to buf.
func encodeOps(buf []byte, ops []op) []byte {
	size := 4
	for _, o := range ops {
		size += o.size()
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops))|stampedOpsFlag)
	for _, o := range ops {
		if o.del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(o.lsn))
		buf = binary.AppendUvarint(buf, uint64(len(o.key)))
		buf = binary.AppendUvarint(buf, uint64(len(o.val)))
		buf = append(buf, o.key...)
		buf = append(buf, o.val...)
	}
	return buf
}

// size is o's exact length in encodeOps' form.
func (o *op) size() int {
	return 1 + wal.UvarintLen(uint64(o.lsn)) + wal.UvarintLen(uint64(len(o.key))) + wal.UvarintLen(uint64(len(o.val))) + len(o.key) + len(o.val)
}

// stampedOpsFlag marks the delta format in the count word; minOpSize is the
// shortest encoded op (a del byte and three one-byte uvarints).
const (
	stampedOpsFlag = 0x8000_0000
	minOpSize      = 4
)

// decodeOps parses a delta record. Ops alias buf (delta payloads are
// applied, never edited, and readers own the buffer they decode from).
// Lengths are checked per field in 64 bits, the del byte must be 0 or 1, the
// uvarints minimal and nothing may trail the last op, so a valid record
// re-encodes byte-identically and a corrupt one fails closed.
func decodeOps(buf []byte) ([]op, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short delta", ErrCorruptPage)
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if n&stampedOpsFlag == 0 {
		return nil, fmt.Errorf("%w: unstamped delta", ErrCorruptPage)
	}
	n &^= stampedOpsFlag
	if uint64(n)*minOpSize > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: delta of %d ops in %d bytes", ErrCorruptPage, n, len(buf))
	}
	ops := make([]op, 0, n)
	for i := uint32(0); i < n; i++ {
		var lsn, klen, vlen uint64
		if len(buf) == 0 || buf[0] > 1 {
			return nil, fmt.Errorf("%w: truncated delta op %d", ErrCorruptPage, i)
		}
		rest, ok := wal.ReadUvarints(buf[1:], &lsn, &klen, &vlen)
		if !ok || klen > uint64(len(rest)) || vlen > uint64(len(rest))-klen {
			return nil, fmt.Errorf("%w: truncated delta op %d", ErrCorruptPage, i)
		}
		o := op{del: buf[0] == 1, lsn: wal.LSN(lsn), key: rest[:klen:klen]}
		if vlen > 0 {
			o.val = rest[klen : klen+vlen : klen+vlen]
		}
		ops = append(ops, o)
		buf = rest[klen+vlen:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes trail the delta", ErrCorruptPage, len(buf))
	}
	return ops, nil
}
