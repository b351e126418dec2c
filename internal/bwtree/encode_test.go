package bwtree

import (
	"bytes"
	"math"
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
// search, and is no larger than the former length-prefixed layout
// (4 + Σ(8 + klen + vlen)).
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
		size := 4
		for k, v := range want {
			size += 8 + len(k) + len(v)
		}
		out, err := decodeLeaf(img)
		if err != nil || out.count() != len(want) || len(img) > size {
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
		want       int // 0: refused
	}{
		{0, 0, 4},
		{3, 30, 4 + 24 + 30},
		{1, math.MaxUint32 - 12, math.MaxUint32},
		{1, math.MaxUint32 - 11, 0},
		{1 << 29, 0, 0}, // the table alone is 4 GiB
		{1 << 61, 0, 0}, // 8n wraps to 0
		{2, math.MaxUint64 - 19, 0},
		{math.MaxUint64, math.MaxUint64, 0},
	} {
		if got, err := imageSize(c.n, c.payload); got != c.want || (err == nil) != (c.want != 0) {
			t.Fatalf("imageSize(%d, %d) = %d, %v; want %d", c.n, c.payload, got, err, c.want)
		}
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
	}
	for i, buf := range leafCases {
		if _, err := decodeLeaf(buf); err == nil {
			t.Fatalf("leaf case %d decoded", i)
		}
	}
	opCases := [][]byte{
		nil,
		{9, 0, 0, 0},
		{1, 0, 0, 0, 1, 5, 0, 0, 0},
		{1, 0, 0, 0x80, 1, 5, 0, 0, 0}, // truncated header
		// klen = 0xFFFFFFFF, vlen = 1: the sum wraps in 32 bits.
		{1, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 'k'},
		append(encodeOps(nil, []op{{key: []byte("k")}}), 0), // trailing byte
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
