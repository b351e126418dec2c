package bwtree

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"bg3/internal/wal"
)

// A resident leaf is what the Bw-tree is on storage: an immutable base
// image (the durable base record itself, aliased from the buffer a read or
// the flush's append returned) plus one overlay of the ops not
// folded into it — key-sorted, each key's ops in arrival (= LSN) order.
// "Base + history = content" is the layout, so every read, latest or
// pinned, is one bounded merge of the two at a horizon.

// horizonAll is the horizon of an unpinned read: every op is visible.
const horizonAll = wal.LSN(math.MaxUint64)

// retentionFloor returns the LSN at or below which history may be folded
// into page bases: the oldest pinned epoch of the tree's clock, or
// everything when no clock is wired (single-node / sync trees).
func (t *Tree) retentionFloor() wal.LSN {
	if t.cfg.Epochs == nil {
		return horizonAll
	}
	return wal.LSN(t.cfg.Epochs.Floor())
}

// gallopAfter is how many consecutive base entries scanPage compares with
// the overlay's next key before it searches for the end of the run instead.
const gallopAfter = 8

// searchOps returns the index of the first overlay op at or after key.
func searchOps(ov []op, key []byte) int {
	return sort.Search(len(ov), func(i int) bool { return bytes.Compare(ov[i].key, key) >= 0 })
}

// insertOps merges run — key-sorted, each key's ops in arrival order — into
// the overlay, every op behind the ops of its key already there, so the
// overlay stays key-sorted with each key's ops in arrival order. It edits ov
// in place, from the back: each op of the overlay moves at most once, and a run
// past the overlay's last key (an ascending load) none.
func insertOps(ov, run []op) []op {
	i := len(ov) // ov[:i] is still to be placed, and ends at k
	ov = append(ov, run...)
	if i == 0 || bytes.Compare(ov[i-1].key, run[0].key) <= 0 {
		return ov
	}
	k := len(ov)
	for j := len(run) - 1; j >= 0; j-- {
		key := run[j].key
		p := sort.Search(i, func(x int) bool { return bytes.Compare(ov[x].key, key) > 0 })
		k -= i - p
		copy(ov[k:], ov[p:i])
		i, k = p, k-1
		ov[k] = run[j]
	}
	return ov
}

// ownOverlay returns the overlay for an edit in place: as it is, or — when a
// scan walks its array unlatched (shared) — a copy with room for extra more
// ops, which replaces it. e.mu must be held.
func (e *pageEntry) ownOverlay(extra int) []op {
	if e.shared {
		e.overlay, e.shared = append(make([]op, 0, len(e.overlay)+extra), e.overlay...), false
	}
	return e.overlay
}

// insertOp is insertOps of one op.
func insertOp(ov []op, o op) []op {
	return insertOps(ov, []op{o})
}

// sortOps orders ops (oldest first) into overlay order; the stable sort
// keeps each key's ops in their given order.
func sortOps(ops []op) []op {
	sort.SliceStable(ops, func(i, j int) bool { return bytes.Compare(ops[i].key, ops[j].key) < 0 })
	return ops
}

// decodeDeltas decodes a delta chain's records (oldest first) into one
// overlay.
func decodeDeltas(bufs [][]byte) ([]op, error) {
	var ops []op
	for _, buf := range bufs {
		rec, err := decodeOps(buf)
		if err != nil {
			return nil, err
		}
		ops = append(ops, rec...)
	}
	return sortOps(ops), nil
}

// opsInRange returns the ops of the key-sorted overlay inside [lo, hi);
// nil bounds are open. The result is a capacity-capped sub-slice.
func opsInRange(ov []op, lo, hi []byte) []op {
	i, j := 0, len(ov)
	if lo != nil {
		i = searchOps(ov, lo)
	}
	if hi != nil {
		j = i + searchOps(ov[i:], hi)
	}
	return ov[i:j:j]
}

// opsAbove returns a copy of the ops stamped above floor, marked durable —
// the history a consolidation at floor must keep on the delta chain.
func opsAbove(ov []op, floor wal.LSN) []op {
	var out []op
	for _, o := range ov {
		if o.lsn > floor {
			o.pending = false
			out = append(out, o)
		}
	}
	return out
}

// clipBounds intersects the scan range [from, to) with the page range
// [lo, hi); nil upper bounds are open, a nil lo is −∞.
func clipBounds(from, to, lo, hi []byte) ([]byte, []byte) {
	if lo != nil && bytes.Compare(lo, from) > 0 {
		from = lo
	}
	if hi != nil && (to == nil || bytes.Compare(hi, to) < 0) {
		to = hi
	}
	return from, to
}

// joiner is where a walk rebuilds each base entry whole for its callback
// (scanPage): the image's prefixes once, then an entry's suffixes behind
// them. A reader's lives in its scan's recycled scratch (hopScratch) and holds
// no pointer into an image. A raw joiner rebuilds nothing: a walk that writes
// suffixes (mergeEncode) or keeps them takes a base entry's in place, told by
// in, under its image's prefixes.
type joiner struct {
	k, v    []byte
	raw, in bool // in: the pair going out is a base entry
}

// blockLen is the longest suffix join moves as one block: an edge key's, or
// a small property record's.
const blockLen = 16

// join returns an entry's suffix s whole and capped, rebuilt in *buf, whose
// first p bytes hold its prefix, until the next join; with no prefix, s itself.
func join(buf *[]byte, p int, s []byte) []byte {
	if p == 0 {
		return s[:len(s):len(s)]
	}
	b := append((*buf)[:p], s...)
	*buf = b[:cap(b)]
	return b[:len(b):len(b)]
}

// holding returns buf holding prefix, with a block's room behind it.
func holding(buf, prefix []byte) []byte {
	buf = append(slices.Grow(buf[:0], len(prefix)+blockLen), prefix...)
	return buf[:cap(buf)]
}

// scanPage is the one read of an image under an overlay — a leaf's, or an
// edge block's. It merges base with ov as of horizon h — per key, the newest
// overlay op stamped at or below h decides, else the base entry stands —
// over keys in [from, to) (a nil to is open), calling fn for each live pair
// until it returns false or limit pairs (limit <= 0: unlimited) went out. It
// returns how many pairs were delivered and whether fn stopped the walk.
// Nothing is materialized: a base entry goes out rebuilt in jn, valid for the
// call alone, or in place (a raw jn); an overlay op's pair goes out as it is.
// base may be walked unlatched, ov must not change meanwhile.
//
// The base entries below the overlay's next key go out as one run, each
// entry one table read. A short run ends at the first suffix that compares at
// or above the overlay key's (a leaf, or a block whose overlay is dense where
// the scan is: the entries going out are compared, nothing else is touched);
// a run that outlasts gallopAfter entries finds its end by a galloping search
// and goes out uncompared (a block under late writes: a comparison per
// overlay key, not per base entry).
func scanPage(jn *joiner, base leafImage, ov []op, from, to []byte, limit int, h wal.LSN, fn func(k, v []byte) bool) (int, bool) {
	count, kpl, vpl, packed := base.count(), 0, 0, base.packed()
	first, kl, stride := 0, 0, 0
	if packed {
		first, kl, stride = base.grid()
	}
	blocks, kw, vw := 0, []byte(nil), []byte(nil) // entries below blocks go out as kw, vw, moved into kb, vb
	var kb, vb *[blockLen]byte
	if !jn.raw {
		kp, vp := base.prefixes()
		kpl, vpl, jn.k, jn.v = len(kp), len(vp), holding(jn.k, kp), holding(jn.v, vp)
		// A packed entry's suffixes move as one block each while a value's
		// block stays inside the image, into a pair cut once per walk.
		if room := len(base) - first - kl - blockLen; packed && stride > 0 && kl <= blockLen && stride-kl <= blockLen && room >= 0 {
			blocks = min(count, room/stride+1)
			kw, vw = jn.k[:kpl+kl:kpl+kl], jn.v[:vpl+stride-kl:vpl+stride-kl]
			kb, vb = (*[blockLen]byte)(jn.k[kpl:]), (*[blockLen]byte)(jn.v[vpl:])
		}
	}
	i, n := base.search(from), base.bound(to)
	ov = opsInRange(ov, from, to)
	j, delivered := 0, 0
	for {
		end := n
		if limit > 0 && end-i > limit-delivered {
			end = i + limit - delivered
		}
		var next []byte // the overlay's next key past the key prefix
		below := end    // entries before this index are known to lie below it
		if j < len(ov) {
			next, below, end = base.within(ov[j].key, i, end)
		}
		for checked := 0; i < end; i++ {
			var ks, vs []byte
			o := first + i*stride
			switch {
			case i < blocks:
				*kb, *vb = *(*[blockLen]byte)(base[o:]), *(*[blockLen]byte)(base[o+kl:])
			case packed:
				ks, vs = base[o:o+kl:len(base)], base[o+kl:o+stride:len(base)]
			default:
				ks, vs = base.entry(i, count)
			}
			if i >= below {
				if i < blocks {
					ks = kw[kpl:]
				}
				if bytes.Compare(ks, next) >= 0 {
					break
				}
				if checked++; checked == gallopAfter {
					below = base.gallop(i+1, end, ov[j].key)
				}
			}
			delivered++
			k, v := kw, vw
			if i >= blocks {
				k, v = join(&jn.k, kpl, ks), join(&jn.v, vpl, vs)
			}
			if jn.in = true; !fn(k, v) {
				return delivered, true
			}
		}
		if j == len(ov) || (limit > 0 && delivered >= limit) {
			return delivered, false
		}
		// The overlay's key is due: collapse its run to the newest op
		// visible at h. With none visible the base entry, if any, stands.
		k, vis := ov[j].key, -1
		for ; j < len(ov) && bytes.Equal(ov[j].key, k); j++ {
			if ov[j].lsn <= h {
				vis = j
			}
		}
		same := i < n && base.holds(i, k)
		if same {
			i++
		}
		var v []byte
		switch jn.in = vis < 0 && same; {
		case vis >= 0 && !ov[vis].del:
			v = ov[vis].val
		case jn.in:
			ks, vs := base.entry(i-1, count)
			k, v = join(&jn.k, kpl, ks), join(&jn.v, vpl, vs)
		default:
			continue
		}
		delivered++
		if !fn(k, v) {
			return delivered, true
		}
		if delivered == limit {
			return delivered, false
		}
	}
}

// lookup reports whether key is live in base ⊕ ov as of h, and returns its
// value in parts aliasing page memory.
func lookup(base leafImage, ov []op, key []byte, h wal.LSN) (val split, ok bool) {
	var buf [64]byte
	succ := append(append(buf[:0], key...), 0) // [key, key\x00) holds key alone
	_, vp := base.prefixes()
	jn := joiner{raw: true}
	scanPage(&jn, base, ov, key, succ, 1, h, func(_, v []byte) bool {
		_, val = splitOf(nil, vp, nil, v, jn.in)
		ok = true
		return false
	})
	return val, ok
}

// mergeEncode folds the ops of ov stamped at or below floor into base,
// clipped to [lo, hi), appends the result to dst as a flat image and returns
// the image — the next durable base record, the next edge block, or a load's
// base merged with its chain. It is the only writer of leaf images: one pass
// sizes the result and picks its prefixes and layout (imageShape), the next
// writes each entry's suffixes. It fails only when the result would outgrow
// the format (imageSize).
func mergeEncode(dst []byte, base leafImage, ov []op, lo, hi []byte, floor wal.LSN) (leafImage, error) {
	var shape imageShape
	shape.kb, shape.vb = base.prefixes()
	jn := joiner{raw: true}
	scanPage(&jn, base, ov, lo, hi, 0, floor, func(k, v []byte) bool {
		shape.add(k, v, jn.in)
		return true
	})
	size, err := shape.size()
	if err != nil {
		return nil, err
	}
	kp, vp := shape.kp(), shape.vp
	start, n, packed := len(dst), int(shape.n), shape.packed()
	img := binary.LittleEndian.AppendUint32(slices.Grow(dst, size), uint32(n))
	img = binary.LittleEndian.AppendUint64(img, uint64(kp)|uint64(vp)<<32) // kpl, vpl
	slot := len(img)
	if packed {
		img[start+3] |= packedLeafFlag >> 24
		img = binary.LittleEndian.AppendUint64(img, uint64(shape.k0.len()-kp)|uint64(shape.v0.len()-vp)<<32) // klen, vlen
	} else {
		img = img[:slot+8*n]
	}
	img = shape.v0.appendTo(shape.k0.appendTo(img, 0, kp), 0, vp)
	scanPage(&jn, base, ov, lo, hi, 0, floor, func(kw, vw []byte) bool {
		kl := len(kw)
		if jn.in {
			kl += len(shape.kb)
		}
		if !packed {
			binary.LittleEndian.PutUint32(img[slot:], uint32(len(img)-start))
			binary.LittleEndian.PutUint32(img[slot+4:], uint32(kl-kp))
			slot += 8
		}
		if jn.in && kp == len(shape.kb) && vp == len(shape.vb) { // the walked image's suffixes are the new image's
			img = append(append(img, kw...), vw...)
		} else {
			k, v := splitOf(shape.kb, shape.vb, kw, vw, jn.in)
			img = v.appendTo(k.appendTo(img, kp, k.len()), vp, v.len())
		}
		return true
	})
	return img[start:], nil
}
