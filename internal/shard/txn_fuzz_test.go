package shard

import (
	"bytes"
	"errors"
	"testing"

	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/wal"
)

// FuzzDecodePrepareRecord fuzzes the TPC2 record decoder — the bytes
// recovery trusts when resolving in-doubt transactions — on both carriers: a
// prepare, and the coordinator's commit carrying its own part. The record
// metadata (carrier, txn id, stamped epoch, coordinator page) fuzzes
// alongside the payload so the cross-checks are exercised too. Properties:
//
//   - DecodePrepareRecord never panics, whatever the bytes;
//   - every rejection wraps ErrBadPrepare (callers resolve fail-closed
//     as abort, never guess);
//   - anything accepted is canonical — re-encoding the decoded payload
//     reproduces the input byte for byte — and structurally sound: the
//     payload's txn/fence match the carrying record, the participant
//     list is strictly ascending with the coordinator and owning shard
//     present, the part is non-empty, every write has a key and no delete
//     has a value, and a commit's payload is the coordinator's part on the
//     coordinator's log.
//
// The checked-in corpus under testdata/fuzz covers the interesting
// shapes: a valid prepare and a valid commit, torn/truncated payloads,
// single-bit flips, wrong-epoch and wrong-txn-id cross-check mismatches, a
// duplicate participant entry, a commit on another shard's log, and a
// participant's part on a commit (TestGenPrepareCorpus writes it).
func FuzzDecodePrepareRecord(f *testing.F) {
	valid, dup, commit := seedPayloads(f)
	f.Add([]byte{}, uint64(7), uint64(3), false, uint64(0))
	f.Add(valid, uint64(7), uint64(3), false, uint64(0))
	f.Add(valid, uint64(7), uint64(4), false, uint64(0))                // wrong stamped epoch
	f.Add(valid, uint64(8), uint64(3), false, uint64(0))                // wrong record txn id
	f.Add(valid[:len(valid)-6], uint64(7), uint64(3), false, uint64(0)) // torn tail
	f.Add(valid[:txnHeaderLen], uint64(7), uint64(3), false, uint64(0))
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40 // bit flip inside the txn id
	f.Add(flipped, uint64(7), uint64(3), false, uint64(0))
	f.Add(dup, uint64(9), uint64(1), false, uint64(1)) // duplicate participant (not ascending)
	f.Add(commit, uint64(7), uint64(3), true, uint64(0))
	f.Add(commit, uint64(7), uint64(3), true, uint64(2)) // on another shard's log
	f.Add(valid, uint64(7), uint64(3), true, uint64(0))  // a participant's part

	f.Fuzz(func(t *testing.T, data []byte, recTxn, recEpoch uint64, onCommit bool, recPage uint64) {
		typ := wal.RecordTxnPrepare
		if onCommit {
			typ = wal.RecordTxnCommit
		}
		rec := &wal.Record{
			Type:   typ,
			TreeID: recTxn,
			PageID: recPage,
			Epoch:  recEpoch,
			Value:  data,
		}
		p, err := DecodePrepareRecord(rec)
		if err != nil {
			if !errors.Is(err, ErrBadPrepare) {
				t.Fatalf("decode error %v does not wrap ErrBadPrepare", err)
			}
			return
		}
		if p.Txn == 0 || p.Txn != recTxn || p.Fence != recEpoch {
			t.Fatalf("accepted payload fails cross-checks: txn=%d (rec %d) fence=%d (rec %d)",
				p.Txn, recTxn, p.Fence, recEpoch)
		}
		if len(p.Parts) == 0 || len(p.Parts) > MaxParticipants {
			t.Fatalf("accepted payload with %d participants", len(p.Parts))
		}
		coordOK, shardOK := false, false
		for i, s := range p.Parts {
			if i > 0 && s <= p.Parts[i-1] {
				t.Fatalf("accepted participants not strictly ascending: %v", p.Parts)
			}
			coordOK = coordOK || s == p.Coord
			shardOK = shardOK || s == p.Shard
		}
		if !coordOK || !shardOK {
			t.Fatalf("accepted payload with coord/shard outside membership: coord=%d shard=%d parts=%v",
				p.Coord, p.Shard, p.Parts)
		}
		if len(p.Writes) == 0 {
			t.Fatal("accepted payload with an empty part")
		}
		for i, w := range p.Writes {
			if len(w.Key) == 0 || w.Delete && w.Value != nil {
				t.Fatalf("accepted malformed write %d: %+v", i, w)
			}
		}
		if onCommit && (p.Shard != p.Coord || uint64(p.Coord) != recPage) {
			t.Fatalf("commit on coordinator %d's log accepted shard %d's part of coordinator %d", recPage, p.Shard, p.Coord)
		}
		if re := EncodePrepare(p); !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, re)
		}

		// The same bytes under a wrong stamp must reject: a spliced
		// payload never resolves.
		for _, wrong := range []wal.Record{
			{Type: typ, TreeID: recTxn + 1, PageID: recPage, Epoch: recEpoch, Value: data},
			{Type: typ, TreeID: recTxn, PageID: recPage, Epoch: recEpoch + 1, Value: data},
			{Type: wal.RecordTxnCommit, TreeID: recTxn, PageID: uint64(p.Coord) + 1, Epoch: recEpoch, Value: data},
		} {
			if _, err := DecodePrepareRecord(&wrong); !errors.Is(err, ErrBadPrepare) {
				t.Fatalf("mismatched %v record (txn %d, epoch %d, coordinator %d) accepted: %v",
					wrong.Type, wrong.TreeID, wrong.Epoch, wrong.PageID, err)
			}
		}
	})
}

// seedPayloads encodes the payloads the fuzz seeds and the checked-in corpus
// are cut from: a shard's prepared part of an edge and a vertex, a delete-only
// part whose membership lists a participant twice, and the coordinator's own
// part of an edge and a delete, each part as core.Encode builds it.
func seedPayloads(tb testing.TB) (valid, dup, commit []byte) {
	part := func(muts ...graph.Mutation) []forest.Write {
		ws, err := core.Encode(muts)
		if err != nil {
			tb.Fatal(err)
		}
		return ws
	}
	valid = EncodePrepare(&TxnPayload{
		Txn: 7, Fence: 3, Coord: 0, Shard: 2, Parts: []int{0, 2},
		Writes: part(
			graph.AddEdgeMut(graph.Edge{Src: 11, Dst: 22, Type: 1, Props: graph.Properties{{Name: "w", Value: []byte("x")}}}),
			graph.AddVertexMut(graph.Vertex{ID: 11, Type: 4, Props: graph.Properties{{Name: "name", Value: []byte("a")}}}),
		),
	})
	dup = EncodePrepare(&TxnPayload{
		Txn: 9, Fence: 1, Coord: 1, Shard: 1, Parts: []int{1, 1},
		Writes: part(graph.DeleteEdgeMut(5, 2, 6)),
	})
	commit = EncodePrepare(&TxnPayload{
		Txn: 7, Fence: 3, Coord: 0, Shard: 0, Parts: []int{0, 2},
		Writes: part(graph.AddEdgeMut(graph.Edge{Src: 10, Dst: 22, Type: 1}), graph.DeleteEdgeMut(10, 1, 23)),
	})
	return valid, dup, commit
}
