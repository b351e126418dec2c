package bwtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// TestLeafEncodeDecodeRoundTrip: an encoded image validates, reads back
// every pair in key order through the in-place accessors and the binary
// search, is packed exactly when its entries are uniform, and is no larger
// than the former length-prefixed layout (4 + Σ(8 + klen + vlen)).
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
		size, uniform := 4, true
		for k, v := range want {
			size += 8 + len(k) + len(v)
			uniform = uniform && len(k) == len(pairs[0].key) && len(v) == len(want[string(pairs[0].key)])
		}
		out, err := decodeLeaf(img)
		if err != nil || out.count() != len(want) || len(img) > size || out.packed() != (uniform && len(want) > 0) {
			return false
		}
		for i := 0; i < out.count(); i++ {
			if v, ok := want[string(out.key(i))]; !ok || !bytes.Equal(out.val(i), v) {
				return false
			}
			if i > 0 && bytes.Compare(out.key(i-1), out.key(i)) >= 0 {
				return false
			}
			if out.search(out.key(i)) != i {
				return false
			}
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
		{0, 0, false, 4},
		{3, 30, false, 4 + 24 + 30},
		{1, math.MaxUint32 - 12, false, math.MaxUint32},
		{1, math.MaxUint32 - 11, false, 0},
		{1 << 29, 0, false, 0}, // the table alone is 4 GiB
		{1 << 61, 0, false, 0}, // 8n wraps to 0
		{2, math.MaxUint64 - 19, false, 0},
		{math.MaxUint64, math.MaxUint64, false, 0},
		{3, 30, true, 12 + 30},
		{1 << 29, 1 << 30, true, 12 + 1<<30}, // no table: the count alone is no limit
		{1, math.MaxUint32 - 12, true, math.MaxUint32},
		{1, math.MaxUint32 - 11, true, 0},
		{1 << 31, 1 << 31, true, 0}, // the count would set the packed flag
		{2, math.MaxUint64 - 11, true, 0},
	} {
		if got, err := imageSize(c.n, c.payload, c.packed); got != c.want || (err == nil) != (c.want != 0) {
			t.Fatalf("imageSize(%d, %d, %v) = %d, %v; want %d", c.n, c.payload, c.packed, got, err, c.want)
		}
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
					shape.add(puts[i].key, puts[i].val)
				}
			}
			extent, err := imageSize(shape.n, shape.payload, shape.packed())
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
	leafCases := [][]byte{
		nil,
		{1, 2},
		{5, 0, 0, 0},                    // claims 5 entries, no table
		{1, 0, 0, 0, 10, 0, 0, 0, 0, 0}, // truncated table
		{0, 0, 0, 0, 0xFF},              // bytes trail an empty page
		{1, 0, 0, 0, 12, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 'k'}, // klen wraps a 32-bit sum
		{1, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 'k'},             // first key not at the table's end
		{1, 0, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 'k'},             // one entry, uniform: packed is its layout
		{0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0},                // packed and empty
		{1, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0},                   // truncated packed header
		{2, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 'a'},           // packed entries past the end
		{2, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c'}, // bytes trail packed entries
		{2, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 'b', 'a'},      // packed keys out of order
		{2, 0, 0, 0x80, 0, 0, 0, 0x80, 0, 0, 0, 0x80, 'a'},     // count × (klen+vlen) wraps 32 bits
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
