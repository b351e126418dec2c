package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
// layouts. Both store the longest common prefix of the entries' keys (kp) and
// that of their values (vp) once, and each entry only its suffixes (prefix
// truncation, on both columns):
//
//	count[4] kpl[4] vpl[4] { off[4] klen[4] }*count kp vp { ksuf vsuf }*count
//	count[4]|packedLeafFlag kpl[4] vpl[4] klen[4] vlen[4] kp vp { ksuf vsuf }*count
//
// off is the absolute offset of entry i's key suffix; its value suffix runs
// to the next off (the image's end for the last one). Invariant: the prefixes
// are maximal — the suffixes do not all start with one byte, so a one-entry
// image's are its entry whole — and an image is packed exactly when its
// suffixes share one key length and one value length (mergeEncode picks,
// decodeLeaf checks), so each content has one encoding (FuzzDecodeLeafPage,
// TestDecodeLeafRejectsAShortPrefix, TestSpillBoundaryIsExact, root
// TestLeafBytesPerEdge). Entries are strictly key-ascending. An image is
// immutable once built: readers walk it without the page latch, and a walk
// hands its entries out as copies (joiner). nil means "not resident"; an
// empty page is emptyLeaf.
type leafImage []byte

const packedLeafFlag = 0x8000_0000

var emptyLeaf = leafImage{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

func (p leafImage) count() int { return int(binary.LittleEndian.Uint32(p) &^ packedLeafFlag) }

func (p leafImage) packed() bool { return p[3]&0x80 != 0 }

// prefixes returns the key and the value prefix every entry shares.
func (p leafImage) prefixes() (kp, vp []byte) {
	at, pre := 12+8*p.count(), binary.LittleEndian.Uint64(p[4:]) // kpl, vpl
	if p.packed() {
		at = 20
	}
	k, v := at+int(uint32(pre)), at+int(uint32(pre))+int(pre>>32)
	return p[at:k:k], p[k:v:v]
}

// suffix returns entry i's key suffix (n bounds only a value: see entry).
func (p leafImage) suffix(i int) []byte {
	k, _ := p.entry(i, 0)
	return k
}

// entry returns entry i's key and value suffixes, capped at the image's end,
// from one read of its table slot or the packed header; n is p.count(), read
// once per walk.
func (p leafImage) entry(i, n int) (k, v []byte) {
	if p.packed() {
		first, kl, stride := p.grid()
		off := first + i*stride
		return p[off : off+kl : len(p)], p[off+kl : off+stride : len(p)]
	}
	slot := binary.LittleEndian.Uint64(p[12+8*i:]) // off, klen
	off, end := uint32(slot), uint32(len(p))
	mid := off + uint32(slot>>32)
	if i+1 < n {
		end = binary.LittleEndian.Uint32(p[20+8*i:])
	}
	return p[off:mid:len(p)], p[mid:end:len(p)]
}

// grid returns where a packed image's entries lie: entry i's key suffix, kl
// bytes long, at first+i*stride, and its value suffix behind it.
func (p leafImage) grid() (first, kl, stride int) {
	pre, lens := binary.LittleEndian.Uint64(p[4:]), binary.LittleEndian.Uint64(p[12:]) // kpl vpl, klen vlen
	kl = int(uint32(lens))
	return 20 + int(uint32(pre)) + int(pre>>32), kl, kl + int(lens>>32)
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

// within compares key with the key prefix once: key's suffix past it, and the
// part of [i, n) left to search, none if key is at or below every entry or above.
func (p leafImage) within(key []byte, i, n int) ([]byte, int, int) {
	kp, _ := p.prefixes()
	if key, ok := bytes.CutPrefix(key, kp); ok && len(key) > 0 {
		return key, i, n
	} else if ok || bytes.Compare(key, kp) < 0 {
		return nil, i, i
	}
	return nil, n, n
}

// holds reports whether entry i's key is key.
func (p leafImage) holds(i int, key []byte) bool {
	kp, _ := p.prefixes()
	rest, ok := bytes.CutPrefix(key, kp)
	return ok && bytes.Equal(p.suffix(i), rest)
}

// search returns the index of the first entry at or after key.
func (p leafImage) search(key []byte) int {
	key, i, n := p.within(key, 0, p.count())
	return p.bisect(i, n, key)
}

// gallop returns the index of the first entry in [i, n) at or after key, n
// when there is none. It probes at doubling distances from i before it
// bisects, so finding the end of a run of r entries costs O(log r) however
// large the image is: a leaf-sized image and a 100k-entry edge block pay the
// same for an overlay key that lands a few entries ahead. Past the prefix
// test it compares suffixes alone.
func (p leafImage) gallop(i, n int, key []byte) int {
	key, i, n = p.within(key, i, n)
	step := 1
	for i+step <= n && bytes.Compare(p.suffix(i+step-1), key) < 0 {
		i += step // sorted: everything up to the probe is below key too
		step <<= 1
	}
	return p.bisect(i, min(i+step-1, n), key) // the probe that ended the loop, if any, is at or after key
}

// bisect is search over [i, hi) by suffix, written out: a sort.Search closure
// call per probe would cost more than the probe, in every scan's merge loop.
func (p leafImage) bisect(i, hi int, key []byte) int {
	for i < hi {
		if mid := int(uint(i+hi) >> 1); bytes.Compare(p.suffix(mid), key) < 0 {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return i
}

// split is a key or a value in two parts, in place: a base entry's image
// prefix and suffix, or an overlay op's whole bytes in s.
type split struct{ p, s []byte }

// splitOf returns what a walk handed out as parts: k and v whole, or, for a
// base entry (in), as suffixes under the prefixes kp and vp (walkPage).
func splitOf(kp, vp, k, v []byte, in bool) (split, split) {
	if !in {
		kp, vp = nil, nil
	}
	return split{kp, k}, split{vp, v}
}

func (x split) len() int { return len(x.p) + len(x.s) }

// at returns x's byte i.
func (x split) at(i int) byte {
	if i < len(x.p) {
		return x.p[i]
	}
	return x.s[i-len(x.p)]
}

// appendTo appends x's bytes [i, j) to dst.
func (x split) appendTo(dst []byte, i, j int) []byte {
	p := len(x.p)
	return append(append(dst, x.p[min(i, p):min(j, p)]...), x.s[max(i-p, 0):max(j-p, 0)]...)
}

// bytes returns x whole in memory of its own, nil when it is empty.
func (x split) bytes() []byte {
	if x.len() == 0 {
		return nil
	}
	return x.appendTo(make([]byte, 0, x.len()), 0, x.len())
}

// common returns the length of x's and y's longest common prefix, at most m.
func common(x, y split, m int) int {
	i, m := 0, min(m, x.len(), y.len())
	for i < m && x.at(i) == y.at(i) {
		i++
	}
	return i
}

// imageShape is what an image's size, layout and prefixes depend on, gathered
// from the entries of a walk in key order (mergeEncode, persistBase's spill):
// the key prefix is the first and the last key's, the value prefix a running
// one. It holds the parts the walk handed out, which stay put while it runs.
type imageShape struct {
	kb, vb     []byte // the walked image's prefixes
	n, payload uint64 // entries, and their whole key and value bytes
	k0, v0     split  // the first entry
	kn         []byte // the last key, a suffix under kb if knIn
	knIn       bool
	vp         int
	mixed      bool // entries differ in key or value length
}

// add adds the entry a walk handed out as k, v and in (a split is built only
// where a prefix needs one: it costs more than the rest of an entry).
func (s *imageShape) add(k, v []byte, in bool) {
	kl, vl := len(k), len(v)
	if in {
		kl, vl = kl+len(s.kb), vl+len(s.vb)
	}
	if s.n == 0 {
		s.k0, s.v0 = splitOf(s.kb, s.vb, k, v, in)
		s.vp = vl
	} else if !in || len(s.v0.p) == 0 || s.vp > len(s.vb) { // else both lead with vb, which holds the prefix
		_, vs := splitOf(s.kb, s.vb, nil, v, in)
		s.vp = common(s.v0, vs, s.vp)
	}
	s.mixed = s.mixed || kl != s.k0.len() || vl != s.v0.len()
	s.kn, s.knIn, s.n, s.payload = k, in, s.n+1, s.payload+uint64(kl+vl)
}

func (s *imageShape) packed() bool { return s.n > 0 && !s.mixed }

// kp is the key prefix's length: keys ascend, so the first and the last
// key's common prefix is every key's.
func (s *imageShape) kp() int {
	kn, _ := splitOf(s.kb, nil, s.kn, nil, s.knIn)
	return common(s.k0, kn, s.k0.len())
}

// size is imageSize of the entries added so far.
func (s *imageShape) size() (int, error) {
	pre := uint64(s.kp() + s.vp)
	return imageSize(s.n, s.payload-s.n*pre+pre, s.packed())
}

// imageSize returns the encoded length of an image of n entries carrying
// payload prefix and suffix bytes in the given layout. Offsets in the table
// are uint32 (and a slice length an int), so the sum is taken in 64 bits and
// an image they could not address, or whose count would reach the packed
// flag, is an error — a leaf is bounded by its split threshold, an edge block
// only by its tree.
func imageSize(n, payload uint64, packed bool) (int, error) {
	const limit = min(math.MaxUint32, math.MaxInt)
	head, slot := uint64(12), uint64(8)
	if packed {
		head, slot = 20, 0
	}
	if n >= packedLeafFlag || payload > limit || head+slot*n+payload > limit {
		return 0, fmt.Errorf("bwtree: image of %d entries and %d payload bytes exceeds the leaf format's 4 GiB", n, payload)
	}
	return int(head + slot*n + payload), nil
}

// decodeLeaf validates buf as a leaf image and returns it aliased, never
// copied: every offset is checked in 64 bits against its neighbours and the
// record's end, keys must ascend and the prefixes and the layout must be the
// ones mergeEncode picks for the entries, so the accessors above cannot panic
// or reach outside buf, and a valid image re-encodes byte-identically.
func decodeLeaf(buf []byte) (leafImage, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("%w: short leaf", ErrCorruptPage)
	}
	p := leafImage(buf)
	n := uint64(p.count())
	pre := uint64(binary.LittleEndian.Uint32(buf[4:])) + uint64(binary.LittleEndian.Uint32(buf[8:]))
	min := 12 + 8*n + pre // entry i's key starts at or after entry i-1's key end
	if p.packed() {
		// n < 2^31 and klen+vlen < 2^33: the product cannot wrap.
		if len(buf) < 20 || 20+pre+n*(uint64(binary.LittleEndian.Uint32(buf[12:]))+uint64(binary.LittleEndian.Uint32(buf[16:]))) != uint64(len(buf)) {
			return nil, fmt.Errorf("%w: packed leaf of %d entries in %d bytes", ErrCorruptPage, n, len(buf))
		}
	} else if min > uint64(len(buf)) || (n == 0 && len(buf) != 12) {
		return nil, fmt.Errorf("%w: leaf table of %d entries in %d bytes", ErrCorruptPage, n, len(buf))
	}
	for i := uint64(0); i < n && !p.packed(); i++ {
		s := buf[12+8*i:]
		off, klen := uint64(binary.LittleEndian.Uint32(s)), uint64(binary.LittleEndian.Uint32(s[4:]))
		if off < min || (i == 0 && off != min) || off+klen > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: leaf entry %d out of bounds", ErrCorruptPage, i)
		}
		min = off + klen
	}
	var k0, v0, k []byte
	mixed, vshared := false, n > 0 // the value suffixes so far share a first byte
	for i := 0; i < int(n); i++ {
		prev, v := k, []byte(nil)
		if k, v = p.entry(i, int(n)); i == 0 {
			k0, v0 = k, v
		} else if bytes.Compare(prev, k) >= 0 {
			return nil, fmt.Errorf("%w: leaf keys out of order at %d", ErrCorruptPage, i)
		}
		mixed = mixed || len(k) != len(k0) || len(v) != len(v0)
		vshared = vshared && len(v) > 0 && v[0] == v0[0]
	}
	// A prefix is short when every suffix starts with one byte: of sorted
	// keys, when the first and the last do.
	if kshared := n > 0 && len(k0) > 0 && k0[0] == k[0]; kshared || vshared || (n > 0 && !mixed) != p.packed() {
		return nil, fmt.Errorf("%w: leaf of %d entries under a short prefix or in the wrong layout", ErrCorruptPage, n)
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
