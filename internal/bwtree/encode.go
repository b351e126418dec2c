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

// leafImage is a leaf page as storage holds it, read in place:
//
//	count[4] { off[4] klen[4] }*count  { key val }*count
//
// off is the absolute offset of entry i's key; its value runs from the end
// of the key to the next entry's off (the image's end for the last one), so
// the table costs the 8 bytes per entry the two length words used to.
// Entries are strictly key-ascending. An image is immutable once built:
// readers walk it without the page latch and sub-slices are capacity-capped.
// nil means "not resident"; an empty page is emptyLeaf.
type leafImage []byte

var emptyLeaf = leafImage{0, 0, 0, 0}

func (p leafImage) count() int { return int(binary.LittleEndian.Uint32(p)) }

func (p leafImage) key(i int) []byte {
	s := p[4+8*i:]
	off, end := binary.LittleEndian.Uint32(s), binary.LittleEndian.Uint32(s)+binary.LittleEndian.Uint32(s[4:])
	return p[off:end:end]
}

func (p leafImage) val(i int) []byte {
	_, v := p.entry(i, p.count())
	return v
}

// entry returns entry i's key and value from one read of its table slot; n
// is p.count(), which a walk over many entries reads once.
func (p leafImage) entry(i, n int) (k, v []byte) {
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

// imageSize returns the encoded length of an image of n entries carrying
// payload key and value bytes. Offsets in the table are uint32 (and a slice
// length an int), so the sum is taken in 64 bits and an image they could not
// address is an error — a leaf is bounded by its split threshold, an edge
// block only by its tree.
func imageSize(n, payload uint64) (int, error) {
	const limit = min(math.MaxUint32, math.MaxInt)
	if n > limit || payload > limit || 4+8*n+payload > limit {
		return 0, fmt.Errorf("bwtree: image of %d entries and %d payload bytes exceeds the leaf format's 4 GiB", n, payload)
	}
	return int(4 + 8*n + payload), nil
}

// decodeLeaf validates buf as a leaf image and returns it aliased, never
// copied: every offset is checked in 64 bits against its neighbours and the
// record's end and keys must ascend, so the accessors above cannot panic or
// reach outside buf, and a valid image re-encodes byte-identically.
func decodeLeaf(buf []byte) (leafImage, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short leaf", ErrCorruptPage)
	}
	n := uint64(binary.LittleEndian.Uint32(buf))
	min := 4 + 8*n // entry i's key starts at or after entry i-1's key end
	if min > uint64(len(buf)) || (n == 0 && len(buf) != 4) {
		return nil, fmt.Errorf("%w: leaf table of %d entries in %d bytes", ErrCorruptPage, n, len(buf))
	}
	p := leafImage(buf)
	for i := uint64(0); i < n; i++ {
		s := buf[4+8*i:]
		off, klen := uint64(binary.LittleEndian.Uint32(s)), uint64(binary.LittleEndian.Uint32(s[4:]))
		if off < min || (i == 0 && off != min) || off+klen > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: leaf entry %d out of bounds", ErrCorruptPage, i)
		}
		min = off + klen
		if i > 0 && bytes.Compare(p.key(int(i-1)), p.key(int(i))) >= 0 {
			return nil, fmt.Errorf("%w: leaf keys out of order at %d", ErrCorruptPage, i)
		}
	}
	return p, nil
}

// encodeOps serializes a delta record (one op for the traditional policy,
// the page's whole overlay for the read-optimized policy):
//
//	count[4]|flag { del[1] lsn[8] klen[4] vlen[4] key val }*
//
// Per-op LSN stamps survive the round trip so a rebuilt or replicated
// delta chain keeps the visibility boundaries snapshot reads filter by. The
// record is appended to buf.
func encodeOps(buf []byte, ops []op) []byte {
	size := 4
	for _, o := range ops {
		size += opHeader + len(o.key) + len(o.val)
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops))|stampedOpsFlag)
	for _, o := range ops {
		if o.del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.lsn))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.key)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.val)))
		buf = append(buf, o.key...)
		buf = append(buf, o.val...)
	}
	return buf
}

// stampedOpsFlag marks the delta format in the count word; opHeader is the
// fixed part of one encoded op.
const (
	stampedOpsFlag = 0x8000_0000
	opHeader       = 17
)

// decodeOps parses a delta record. Ops alias buf (delta payloads are
// applied, never edited, and readers own the buffer they decode from).
// Lengths are checked per field in 64 bits, the del byte must be 0 or 1 and
// nothing may trail the last op, so a valid record re-encodes
// byte-identically and a corrupt one fails closed.
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
	if uint64(n)*opHeader > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: delta of %d ops in %d bytes", ErrCorruptPage, n, len(buf))
	}
	ops := make([]op, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(buf) < opHeader || buf[0] > 1 {
			return nil, fmt.Errorf("%w: truncated delta op %d", ErrCorruptPage, i)
		}
		klen, vlen := uint64(binary.LittleEndian.Uint32(buf[9:])), uint64(binary.LittleEndian.Uint32(buf[13:]))
		o := op{del: buf[0] == 1, lsn: wal.LSN(binary.LittleEndian.Uint64(buf[1:]))}
		buf = buf[opHeader:]
		if klen > uint64(len(buf)) || vlen > uint64(len(buf))-klen {
			return nil, fmt.Errorf("%w: truncated delta payload %d", ErrCorruptPage, i)
		}
		o.key = buf[:klen:klen]
		if vlen > 0 {
			o.val = buf[klen : klen+vlen : klen+vlen]
		}
		ops = append(ops, o)
		buf = buf[klen+vlen:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes trail the delta", ErrCorruptPage, len(buf))
	}
	return ops, nil
}
