package bwtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bg3/internal/storage"
)

// FuzzDecodeLeafPage drives the leaf-image validator with arbitrary bytes
// (seed corpus in testdata/fuzz: a valid image in each layout, each
// truncation class, a flipped offset, unsorted keys, the 32-bit length
// overflow, a packed image of no entries, a packed count × (klen+vlen) past 32
// bits, uniform entries in the table layout). Every input either fails with
// ErrCorruptPage or is an image whose accessors stay inside the record, whose
// keys ascend, and which re-encodes byte for byte (the layout is canonical:
// packed exactly when the entries are uniform, then header or table, then
// entries, no slack) — never a panic, never an alias outside buf.
func FuzzDecodeLeafPage(f *testing.F) {
	f.Add([]byte(imageOf(op{key: []byte("a"), val: []byte("1")}, op{key: []byte("b")})))
	f.Add([]byte(imageOf(op{key: []byte("a"), val: []byte("1")}, op{key: []byte("b"), val: []byte("2")})))
	f.Add([]byte(emptyLeaf))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeLeaf(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
			return
		}
		for i := 0; i < img.count(); i++ {
			k, v := img.key(i), img.val(i)
			if i > 0 && bytes.Compare(img.key(i-1), k) >= 0 {
				t.Fatalf("decoded keys unsorted at %d", i)
			}
			if img.search(k) != i || cap(k) != len(k) || cap(v) != len(v) {
				t.Fatalf("entry %d: search = %d, key cap %d/%d, val cap %d/%d", i, img.search(k), cap(k), len(k), cap(v), len(v))
			}
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
