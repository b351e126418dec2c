package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// imageOf builds a flat leaf image holding the given puts (any order; the
// last value of a repeated key wins).
func imageOf(puts ...op) leafImage {
	return mustEncode(emptyLeaf, sortOps(puts), nil, nil, horizonAll)
}

// mustEncode is mergeEncode for inputs that cannot outgrow the format.
func mustEncode(base leafImage, ov []op, lo, hi []byte, floor wal.LSN) leafImage {
	img, err := mergeEncode(nil, base, ov, lo, hi, floor)
	if err != nil {
		panic(err)
	}
	return img
}

// pairAt returns entry i of p whole: its suffixes behind the image's
// prefixes, copied.
func pairAt(p leafImage, i int) (k, v []byte) {
	kp, vp := p.prefixes()
	ks, vs := p.entry(i, p.count())
	return slices.Concat(kp, ks), slices.Concat(vp, vs)
}

// TestLeafEncodeDecodeRoundTrip: an encoded image validates, reads back
// every pair in key order through the in-place accessors and the binary
// search, is packed exactly when its entries are uniform, and is no larger
// than a length-prefixed layout behind the prefix header (12 + Σ(8 + klen +
// vlen)).
func TestLeafEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte) bool {
		want := map[string][]byte{}
		var pairs []op
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			pairs = append(pairs, op{key: k, val: v})
			want[string(k)] = v
		}
		img := imageOf(pairs...)
		size, uniform := 12, true
		for k, v := range want {
			size += 8 + len(k) + len(v)
			uniform = uniform && len(k) == len(pairs[0].key) && len(v) == len(want[string(pairs[0].key)])
		}
		out, err := decodeLeaf(img)
		if err != nil || out.count() != len(want) || len(img) > size || out.packed() != (uniform && len(want) > 0) {
			return false
		}
		var prev []byte
		for i := 0; i < out.count(); i++ {
			k, v := pairAt(out, i)
			if w, ok := want[string(k)]; !ok || !bytes.Equal(v, w) {
				return false
			}
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				return false
			}
			if out.search(k) != i {
				return false
			}
			prev = k
		}
		return bytes.Equal(mustEncode(out, nil, nil, nil, horizonAll), img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestImageSizeLimit: the size of an image is summed in 64 bits and anything
// its uint32 offsets could not address is refused before it is allocated —
// including counts and payloads whose sum would wrap.
func TestImageSizeLimit(t *testing.T) {
	for _, c := range []struct {
		n, payload uint64
		packed     bool
		want       int // 0: refused
	}{
		{0, 0, false, 12},
		{3, 30, false, 12 + 24 + 30},
		{1, math.MaxUint32 - 20, false, math.MaxUint32},
		{1, math.MaxUint32 - 19, false, 0},
		{1 << 29, 0, false, 0}, // the table alone is 4 GiB
		{1 << 61, 0, false, 0}, // 8n wraps to 0
		{2, math.MaxUint64 - 19, false, 0},
		{math.MaxUint64, math.MaxUint64, false, 0},
		{3, 30, true, 20 + 30},
		{1 << 29, 1 << 30, true, 20 + 1<<30}, // no table: the count alone is no limit
		{1, math.MaxUint32 - 20, true, math.MaxUint32},
		{1, math.MaxUint32 - 19, true, 0},
		{1 << 31, 1 << 31, true, 0}, // the count would set the packed flag
		{2, math.MaxUint64 - 11, true, 0},
	} {
		if got, err := imageSize(c.n, c.payload, c.packed); got != c.want || (err == nil) != (c.want != 0) {
			t.Fatalf("imageSize(%d, %d, %v) = %d, %v; want %d", c.n, c.payload, c.packed, got, err, c.want)
		}
	}
}

// encodeUnder encodes puts (key-ascending) in the leaf format under a key and
// a value prefix of the given lengths chosen by hand, in the layout their
// suffixes pick.
func encodeUnder(puts []op, kpl, vpl int) []byte {
	count := uint32(len(puts))
	for i, o := range puts {
		if len(o.key) != len(puts[0].key) || len(o.val) != len(puts[0].val) {
			break
		} else if i == len(puts)-1 {
			count |= packedLeafFlag
		}
	}
	buf := binary.LittleEndian.AppendUint32(nil, count)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(kpl))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(vpl))
	if count&packedLeafFlag != 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(puts[0].key)-kpl))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(puts[0].val)-vpl))
	} else {
		off := len(buf) + 8*len(puts) + kpl + vpl
		for _, o := range puts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(off))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.key)-kpl))
			off += len(o.key) + len(o.val) - kpl - vpl
		}
	}
	if len(puts) > 0 {
		buf = append(append(buf, puts[0].key[:kpl]...), puts[0].val[:vpl]...)
	}
	for _, o := range puts {
		buf = append(append(buf, o.key[kpl:]...), o.val[vpl:]...)
	}
	return buf
}

// TestDecodeLeafRejectsAShortPrefix: an image has one encoding — under the
// longest prefixes its keys and its values share, which is what mergeEncode
// writes — and decodeLeaf refuses the same entries under any shorter key or
// value prefix, in either layout and for a single entry, whose prefixes are
// its key and value whole.
func TestDecodeLeafRejectsAShortPrefix(t *testing.T) {
	edge := func(dst uint64, ts byte, extra int) op { // a dedicated tree's edge: type, dst -> one ts property
		k := binary.BigEndian.AppendUint64([]byte{0, 1}, dst)
		return op{key: k, val: append([]byte{1, 0, 2, 't', 's', 8, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, ts}, make([]byte, extra)...)}
	}
	for _, c := range []struct {
		name   string
		puts   []op
		kp, vp int // the longest prefixes
	}{
		{"packed", []op{edge(300, 1, 0), edge(301, 2, 0), edge(9000, 3, 0)}, 8, 16},
		{"table", []op{edge(300, 1, 0), edge(301, 2, 1), edge(9000, 3, 0)}, 8, 16},
		{"one entry", []op{edge(300, 1, 0)}, 10, 17},
	} {
		t.Run(c.name, func(t *testing.T) {
			if img := encodeUnder(c.puts, c.kp, c.vp); !bytes.Equal(img, imageOf(c.puts...)) {
				t.Fatalf("mergeEncode does not write the entries under prefixes of %d and %d bytes", c.kp, c.vp)
			} else if _, err := decodeLeaf(img); err != nil {
				t.Fatal(err)
			}
			for kp := 0; kp <= c.kp; kp++ {
				for vp := 0; vp <= c.vp; vp++ {
					if _, err := decodeLeaf(encodeUnder(c.puts, kp, vp)); (kp < c.kp || vp < c.vp) && !errors.Is(err, ErrCorruptPage) {
						t.Fatalf("prefixes of %d and %d bytes (longest %d and %d) decode: %v", kp, vp, c.kp, c.vp, err)
					}
				}
			}
		})
	}
}

// TestSpillBoundaryIsExact: an image one entry larger than an extent keeps
// every entry that fits in its base record and spills exactly the last one
// into the delta chain, in either layout — persistBase sizes the prefix with
// the imageShape mergeEncode encodes it by.
func TestSpillBoundaryIsExact(t *testing.T) {
	for _, c := range []struct {
		name string
		vlen func(i int) int
	}{
		{"packed", func(int) int { return 50 }},
		{"table", func(i int) int { return 50 + i%2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			const fit = 16
			var shape imageShape
			var puts []op
			for i := 0; i <= fit; i++ {
				puts = append(puts, op{key: []byte(fmt.Sprintf("k%02d", i)), val: bytes.Repeat([]byte{'v'}, c.vlen(i))})
				if i < fit {
					shape.add(puts[i].key, puts[i].val, false)
				}
			}
			extent, err := shape.size()
			if err != nil {
				t.Fatal(err)
			}
			st := storage.Open(&storage.Options{ExtentSize: extent})
			m := NewMapping(0, false)
			tr, err := New(m, st, Config{DisableSplit: true}, &stubAsyncLogger{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range puts {
				if err := tr.Put(o.key, o.val); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.FlushDirty(nil); err != nil {
				t.Fatal(err)
			}
			leaves := tr.LeafDirectory()
			if len(leaves) != 1 || int(leaves[0].Base.Length) != extent || len(leaves[0].Deltas) != 1 {
				t.Fatalf("leaf directory %+v, want one leaf: a %d-byte base and one delta record", leaves, extent)
			}
			e := m.get(leaves[0].Page)
			e.mu.Lock()
			base, ov := e.base, e.overlay
			e.mu.Unlock()
			if base.count() != fit || base.packed() != (c.name == "packed") || len(ov) != 1 || !bytes.Equal(ov[0].key, puts[fit].key) {
				t.Fatalf("base of %d entries (packed %v), %d spilled ops; want %d in the %s layout and %s spilled alone",
					base.count(), base.packed(), len(ov), fit, c.name, puts[fit].key)
			}
			if n, err := tr.Len(); err != nil || n != fit+1 {
				t.Fatalf("Len = %d %v, want %d", n, err, fit+1)
			}
		})
	}
}

// TestDeltaRecordSizeIsExact: a delta record is its count word plus each op's
// size — what appendDeltas packs records by — over ops whose LSNs and
// lengths take every uvarint width up to four bytes, and it decodes to them.
func TestDeltaRecordSizeIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := make([]byte, 1<<22)
	length := func() int { return rng.Intn(1 << rng.Intn(23)) } // [0, 2^22)
	for i := 0; i < 100; i++ {
		ops := make([]op, rng.Intn(5))
		want := 4
		for j := range ops {
			ops[j] = op{del: rng.Intn(2) == 0, lsn: wal.LSN(rng.Uint64() >> rng.Intn(65)), key: big[:length()], val: big[:length()]}
			want += ops[j].size()
		}
		buf := encodeOps(nil, ops)
		if len(buf) != want {
			t.Fatalf("%d ops encode in %d bytes, their sizes sum to %d", len(ops), len(buf), want)
		}
		out, err := decodeOps(buf)
		if err != nil || len(out) != len(ops) {
			t.Fatalf("%d ops decode to %d: %v", len(ops), len(out), err)
		}
		for j, o := range out {
			if o.del != ops[j].del || o.lsn != ops[j].lsn || len(o.key) != len(ops[j].key) || len(o.val) != len(ops[j].val) {
				t.Fatalf("op %d: %v %d %d %d, want %v %d %d %d", j, o.del, o.lsn, len(o.key), len(o.val),
					ops[j].del, ops[j].lsn, len(ops[j].key), len(ops[j].val))
			}
		}
	}
}

// TestOneOpDeltaIsCompact pins what a delta record spends on one edge write:
// a 10-byte key and a 17-byte value stamped below LSN 2^21 take at most 37
// bytes (48 in fixed-width fields).
func TestOneOpDeltaIsCompact(t *testing.T) {
	o := op{key: make([]byte, 10), val: make([]byte, 17), lsn: 1<<21 - 1}
	if n := len(encodeOps(nil, []op{o})); n > 37 || n != 4+o.size() {
		t.Fatalf("a one-op delta record is %d bytes (size %d), want <= 37", n, 4+o.size())
	}
}

func TestOpsEncodeDecodeRoundTrip(t *testing.T) {
	f := func(dels []bool, keys [][]byte) bool {
		var ops []op
		for i, k := range keys {
			del := i < len(dels) && dels[i]
			o := op{del: del, key: k}
			if !del {
				o.val = k
			}
			ops = append(ops, o)
		}
		out, err := decodeOps(encodeOps(nil, ops))
		if err != nil {
			return false
		}
		if len(out) != len(ops) {
			return false
		}
		for i := range ops {
			if out[i].del != ops[i].del || !bytes.Equal(out[i].key, ops[i].key) || !bytes.Equal(out[i].val, ops[i].val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorruptImages(t *testing.T) {
	var none [8]byte // kpl and vpl of an image with no prefixes
	head := func(count uint32, rest ...byte) []byte {
		return append(append(binary.LittleEndian.AppendUint32(nil, count), none[:]...), rest...)
	}
	const packed = packedLeafFlag
	leafCases := [][]byte{
		nil,
		{1, 2},
		head(0)[:8],                // truncated header
		head(5),                    // claims 5 entries, no table
		head(1, 20, 0, 0, 0, 0, 0), // truncated table
		head(0, 0xFF),              // bytes trail an empty page
		{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'k'},                                        // an empty page under a prefix
		{1, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'k'}, // key prefix past the end
		// Two entries, a→"" and b→"1": the table below is valid but for one field.
		head(2, 29, 0, 0, 0, 1, 0, 0, 0, 29, 0, 0, 0, 1, 0, 0, 0, 'a', 'b', '1'),             // first key not at the table's end
		head(2, 28, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 29, 0, 0, 0, 1, 0, 0, 0, 'a', 'b', '1'), // klen wraps a 32-bit sum
		head(1, 20, 0, 0, 0, 0, 0, 0, 0),                                                     // one entry, uniform: packed is its layout
		head(packed, 0, 0, 0, 0, 0, 0, 0, 0),                                                 // packed and empty
		head(packed|1, 0, 0, 0, 0, 0, 0, 0),                                                  // truncated packed header
		head(packed|2, 1, 0, 0, 0, 0, 0, 0, 0, 'a'),                                          // packed entries past the end
		head(packed|2, 1, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c'),                                // bytes trail packed entries
		head(packed|2, 1, 0, 0, 0, 0, 0, 0, 0, 'b', 'a'),                                     // packed keys out of order
		head(packed|2, 0, 0, 0, 0x80, 0, 0, 0, 0x80, 'a'),                                    // count × (klen+vlen) wraps 32 bits
		head(packed|2, 2, 0, 0, 0, 0, 0, 0, 0, 'k', 'a', 'k', 'b'),                           // keys ka, kb: a short key prefix
		head(packed|2, 1, 0, 0, 0, 1, 0, 0, 0, 'a', 'v', 'b', 'v'),                           // values v, v: a short value prefix
		// One entry kx→"" under the key prefix k: its prefix is short of the key.
		{1, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'k', 'x'},
	}
	if _, err := decodeLeaf(head(2, 28, 0, 0, 0, 1, 0, 0, 0, 29, 0, 0, 0, 1, 0, 0, 0, 'a', 'b', '1')); err != nil {
		t.Fatalf("the table two cases corrupt does not decode: %v", err)
	}
	for i, buf := range leafCases {
		if _, err := decodeLeaf(buf); err == nil {
			t.Fatalf("leaf case %d decoded", i)
		}
	}
	opCases := [][]byte{
		nil,
		{9, 0, 0, 0},
		{1, 0, 0, 0, 1, 5, 0, 0, 'k'},          // unstamped
		{1, 0, 0, 0x80, 1, 0x85, 0x80, 0x80},   // truncated header
		{1, 0, 0, 0x80, 2, 5, 1, 0, 'k'},       // del byte 2
		{1, 0, 0, 0x80, 0, 0x85, 0, 1, 0, 'k'}, // lsn 5, not in its shortest form
		// klen = 2^64-1, vlen = 1: the sum wraps in 64 bits.
		{1, 0, 0, 0x80, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1, 'k'},
		{1, 0, 0, 0x80, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 1, 0, 'k'}, // lsn overflows 64 bits
		append(encodeOps(nil, []op{{key: []byte("k")}}), 0),                                       // trailing byte
	}
	for i, buf := range opCases {
		if _, err := decodeOps(buf); err == nil {
			t.Fatalf("ops case %d decoded", i)
		}
	}
}

func TestPutAfterStoreClose(t *testing.T) {
	st := storage.Open(nil)
	m := NewMapping(0, false)
	tr, err := New(m, st, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := tr.Put([]byte("b"), []byte("2")); err == nil {
		t.Fatal("put against a closed store succeeded")
	}
	// Cached reads still serve.
	if _, ok, err := tr.Get([]byte("a")); err != nil || !ok {
		t.Fatalf("cached read after close = %v %v", ok, err)
	}
}
