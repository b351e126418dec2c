package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bg3/internal/storage"
)

// FuzzDecodeLeafPage drives the leaf-image validator with arbitrary bytes
// (seeds: each layout under a key prefix, a value prefix, both and neither, a
// one-entry image, whose prefixes are its entry whole, and the empty image;
// corpus in testdata/fuzz: each truncation class, a flipped offset, unsorted
// keys, the 32-bit length overflow, a packed image of no entries, a packed
// count × (klen+vlen) past 32 bits, uniform entries in the table layout, a
// prefix length past the end and a short prefix). Every input either fails
// with ErrCorruptPage or is an image whose accessors stay inside the record,
// whose keys ascend, and which re-encodes byte for byte (the format is
// canonical: maximal prefixes, packed exactly when the suffixes are uniform,
// then header or table, then entries, no slack) — never a panic, never an
// alias outside buf.
func FuzzDecodeLeafPage(f *testing.F) {
	pair := func(k, v string) op { return op{key: []byte(k), val: []byte(v)} }
	for _, puts := range [][]op{
		{pair("a", "1"), pair("b", "")},        // table, no prefix
		{pair("a", "1"), pair("b", "2")},       // packed, no prefix
		{pair("k1", "1"), pair("k22", "2")},    // table under a key prefix
		{pair("k1", "1"), pair("k2", "2")},     // packed under a key prefix
		{pair("a", "ts1"), pair("b", "ts22")},  // table under a value prefix
		{pair("a", "ts1"), pair("b", "ts2")},   // packed under a value prefix
		{pair("k1", "ts1"), pair("k22", "ts")}, // table under both
		{pair("k1", "ts1"), pair("k2", "ts2")}, // packed under both
		{pair("key", "value")},                 // one entry: its prefixes are the entry
		nil,
	} {
		f.Add([]byte(imageOf(puts...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeLeaf(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
			return
		}
		// A walk hands out every entry whole, in order, capacity-capped.
		var prev []byte
		i := 0
		scanPage(new(joiner), img, nil, nil, nil, 0, horizonAll, func(k, v []byte) bool {
			wk, wv := pairAt(img, i)
			if !bytes.Equal(k, wk) || !bytes.Equal(v, wv) || cap(k) != len(k) || cap(v) != len(v) {
				t.Fatalf("entry %d: %q=%q (caps %d, %d), want %q=%q", i, k, v, cap(k), cap(v), wk, wv)
			}
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("decoded keys unsorted at %d", i)
			}
			if img.search(k) != i {
				t.Fatalf("entry %d: search = %d", i, img.search(k))
			}
			prev, i = append(prev[:0], k...), i+1
			return true
		})
		if i != img.count() {
			t.Fatalf("a walk delivered %d of %d entries", i, img.count())
		}
		if again := mustEncode(img, nil, nil, nil, horizonAll); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(again))
		}
	})
}

// FuzzDecodeOps is the same contract for delta records: ErrCorruptPage or
// ops that re-encode byte for byte (corpus: a valid record, each truncation
// class, a bad del byte, a key length that wraps, an LSN not in its shortest
// uvarint form and one past 64 bits).
func FuzzDecodeOps(f *testing.F) {
	f.Add(encodeOps(nil, []op{{key: []byte("a"), val: []byte("1"), lsn: 7}, {del: true, key: []byte("b"), lsn: 9}}))
	f.Add(encodeOps(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeOps(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
			return
		}
		if again := encodeOps(nil, ops); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(again))
		}
	})
}

// FuzzDecodeMappingUpdates drives the checkpoint payload decoder — the one
// durable format only a follower decodes — with arbitrary bytes: a round trip
// of EncodeMappingUpdates, its truncations, a count of 2^32-1 over no body,
// and a count that is not in its shortest form.
// Every input either fails with ErrCorruptPage or yields updates that
// re-encode to the bytes they were read from; never a panic, and never room
// for more updates than the input could hold (the count is off the wire).
func FuzzDecodeMappingUpdates(f *testing.F) {
	loc := func(s storage.StreamID, n uint32) storage.Loc {
		return storage.Loc{Stream: s, Extent: storage.ExtentID(n), Offset: n + 1, Length: n + 2}
	}
	valid := EncodeMappingUpdates([]MappingUpdate{
		{Tree: 1, Page: 2, Base: loc(storage.StreamBase, 3)},
		{Tree: 1, Page: 7, Base: loc(storage.StreamBase, 8), Deltas: []storage.Loc{loc(storage.StreamDelta, 11), loc(storage.StreamDelta, 14)}},
		{Tree: 1, Page: 9, Base: loc(storage.StreamBase, 15), Named: true, Init: true},
		{Tree: 4, Page: 12, Base: loc(storage.StreamBase, 16), Named: true, Owned: true, Owner: 77, Lo: []byte("k0100")},
	})
	f.Add(valid)
	f.Add(EncodeMappingUpdates(nil))
	// Cut after the count, in the first base, after the first update, in the
	// second's deltas, before the third's low key length, before the owner,
	// before the last delta count, in the last low key.
	for _, cut := range []int{1, 5, 9, 19, 33, 42, len(valid) - 8, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(binary.AppendUvarint(nil, 1<<32-1))
	f.Add(append([]byte{0x84, 0x00}, valid[1:]...)) // 4, not in its shortest form
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, err := DecodeMappingUpdates(data)
		if cap(ups)*minUpdateSize > len(data) {
			t.Fatalf("%d input bytes made room for %d updates", len(data), cap(ups))
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
			return
		}
		if again := EncodeMappingUpdates(ups); !bytes.HasPrefix(data, again) {
			t.Fatalf("decode/encode is not the input's prefix: %d bytes in, %d out", len(data), len(again))
		}
	})
}
