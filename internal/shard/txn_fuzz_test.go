package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bg3/internal/graph"
	"bg3/internal/wal"
)

// FuzzDecodePrepareRecord fuzzes the decoder of a 2PC record's part — the
// bytes recovery trusts when resolving in-doubt transactions — on both
// carriers: a prepare, and the coordinator's commit carrying its own part. The
// record's transaction id fuzzes alongside the part. Properties:
//
//   - DecodePrepareRecord never panics, whatever the bytes;
//   - every rejection wraps ErrBadPrepare (callers resolve fail-closed
//     as abort, never guess);
//   - anything accepted is canonical — re-encoding the decoded part
//     reproduces the input byte for byte — and structurally sound: the
//     record's transaction id is nonzero, the part has at least one write,
//     every write has a key and no delete has a value.
//
// The checked-in corpus under testdata/fuzz holds the seeds below
// (TestGenPrepareCorpus writes it).
func FuzzDecodePrepareRecord(f *testing.F) {
	for _, s := range prepareSeeds(f) {
		f.Add(s.data, s.txn, s.commit)
	}
	f.Fuzz(func(t *testing.T, data []byte, txn uint64, onCommit bool) {
		typ := wal.RecordTxnPrepare
		if onCommit {
			typ = wal.RecordTxnCommit
		}
		ws, err := DecodePrepareRecord(&wal.Record{Type: typ, TreeID: txn, Value: data})
		if err != nil {
			if !errors.Is(err, ErrBadPrepare) {
				t.Fatalf("decode error %v does not wrap ErrBadPrepare", err)
			}
			return
		}
		if txn == 0 {
			t.Fatal("accepted a record of transaction 0")
		}
		if len(ws) == 0 {
			t.Fatal("accepted an empty part")
		}
		for i, w := range ws {
			if len(w.Key) == 0 || w.Delete && w.Value != nil {
				t.Fatalf("accepted malformed write %d: %+v", i, w)
			}
		}
		if re := EncodePart(ws); !bytes.Equal(re, data) {
			t.Fatalf("accepted part is not canonical:\n in  %x\n out %x", data, re)
		}
		if _, err := DecodePrepareRecord(&wal.Record{Type: wal.RecordPut, TreeID: txn, Value: data}); !errors.Is(err, ErrBadPrepare) {
			t.Fatalf("a put record's value decoded as a part: %v", err)
		}
	})
}

// prepareSeed is one fuzz seed and checked-in corpus entry: a record's value,
// its transaction id and whether a commit carries it.
type prepareSeed struct {
	name   string
	data   []byte
	txn    uint64
	commit bool
}

// prepareSeeds are the fuzz seeds, in a fixed order: a shard's prepared part
// of an edge and a vertex and the coordinator's own part of an edge and a
// delete, each as core.Encode builds it, and one of each way a part can be
// malformed.
func prepareSeeds(tb testing.TB) []prepareSeed {
	part := func(muts ...graph.Mutation) []byte { return EncodePart(encodeBatch(tb, muts)) }
	valid := part(
		graph.AddEdgeMut(graph.Edge{Src: 11, Dst: 22, Type: 1, Props: graph.Properties{{Name: "w", Value: []byte("x")}}}),
		graph.AddVertexMut(graph.Vertex{ID: 11, Type: 4, Props: graph.Properties{{Name: "name", Value: []byte("a")}}}),
	)
	commit := part(graph.AddEdgeMut(graph.Edge{Src: 10, Dst: 22, Type: 1}), graph.DeleteEdgeMut(10, 1, 23))
	return []prepareSeed{
		{"empty", nil, 7, false},
		{"valid", valid, 7, false},
		{"commit-valid", commit, 7, true},
		{"torn-tail", valid[:len(valid)-6], 7, false},
		{"torn-header", valid[:2], 7, false}, // owner and delete flag, no key length
		{"zero-txn-id", valid, 0, false},
		{"del-flag-2", rawWrite(11, 2, []byte("k"), nil), 7, false},
		{"delete-with-value", rawWrite(11, 1, []byte("k"), []byte("v")), 7, false},
		{"empty-key", rawWrite(11, 0, nil, []byte("v")), 7, false},
		{"non-minimal-uvarint", append([]byte{0x8b, 0x00}, rawWrite(11, 0, []byte("k"), []byte("v"))[1:]...), 7, false},
		{"length-past-end", append([]byte{11, 0, 200}, "short"...), 7, false},
	}
}

// rawWrite encodes one write as EncodePart does, with whatever delete flag,
// key and value it is given.
func rawWrite(owner uint64, del byte, key, value []byte) []byte {
	buf := append(binary.AppendUvarint(nil, owner), del)
	buf = append(binary.AppendUvarint(buf, uint64(len(key))), key...)
	return append(binary.AppendUvarint(buf, uint64(len(value))), value...)
}
