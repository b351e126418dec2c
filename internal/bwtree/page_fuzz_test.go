package bwtree

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeLeafPage drives the leaf-image validator with arbitrary bytes
// (seed corpus in testdata/fuzz: a valid image, each truncation class, a
// flipped offset, unsorted keys, the 32-bit length overflow). Every input
// either fails with ErrCorruptPage or is an image whose accessors stay
// inside the record, whose keys ascend, and which re-encodes byte for byte
// (the layout is canonical: table, then entries, no slack) — never a panic,
// never an alias outside buf.
func FuzzDecodeLeafPage(f *testing.F) {
	f.Add([]byte(imageOf(op{key: []byte("a"), val: []byte("1")}, op{key: []byte("b")})))
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
// ops that re-encode byte for byte.
func FuzzDecodeOps(f *testing.F) {
	f.Add(encodeOps([]op{{key: []byte("a"), val: []byte("1"), lsn: 7}, {del: true, key: []byte("b"), lsn: 9}}))
	f.Add(encodeOps(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeOps(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
			return
		}
		if again := encodeOps(ops); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(again))
		}
	})
}
