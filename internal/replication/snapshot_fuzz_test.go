package replication

import (
	"bytes"
	"reflect"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/storage"
)

// FuzzSnapshotRecord feeds arbitrary bytes through the path
// LoadLatestSnapshot runs on every meta-stream entry: unseal, then decode
// as a tree record (plus its trailing page IDs) or a footer. Nothing may
// panic, whatever the input; a payload that does decode must survive
// re-encoding and re-sealing unchanged, so a snapshot read back, rewritten
// and read again names the same pages.
func FuzzSnapshotRecord(f *testing.F) {
	leaves := []bwtree.LeafInfo{
		{Page: 3, Base: storage.Loc{Stream: storage.StreamBase, Extent: 7, Offset: 64, Length: 512}},
		{Page: 9, Lo: []byte("k0100"), Base: storage.Loc{Stream: storage.StreamBase, Extent: 8, Length: 96},
			Deltas: []storage.Loc{{Stream: storage.StreamDelta, Extent: 2, Offset: 10, Length: 20}}},
	}
	tree := appendLeafPageIDs(encodeTreeSnapshot(41, core.TreeSnapshot{Tree: 5, Owner: 77, HasOwner: true, Leaves: leaves}, false), leaves)
	footer := encodeFooter(snapshotMeta{generation: 41, horizon: 40, treeCount: 2, walCursor: storage.Cursor{Extent: 3, Index: 17}})
	f.Add(sealSnapRecord(tree))
	f.Add(sealSnapRecord(appendLeafPageIDs(encodeTreeSnapshot(41, core.TreeSnapshot{Tree: 1}, true), nil)))
	f.Add(sealSnapRecord(footer))
	// testdata/fuzz/FuzzSnapshotRecord holds the damaged variants.
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := openSnapRecord(data)
		if !ok {
			// The CRC stops a mutated record here, as it stops a torn one.
			// Decode the raw bytes anyway — as the payload of a record that
			// was sealed after the damage — or the fuzzer never gets past
			// the checksum to the decoders.
			payload = data
		}
		if len(payload) == 0 {
			return
		}
		if again, ok := openSnapRecord(sealSnapRecord(payload)); !ok || !bytes.Equal(again, payload) {
			t.Fatalf("re-sealed payload does not open to itself")
		}
		switch payload[0] {
		case snapRecFooter:
			meta, err := decodeFooter(payload)
			if err != nil {
				return
			}
			if again, err := decodeFooter(encodeFooter(meta)); err != nil || again != meta {
				t.Fatalf("footer %+v re-encodes to %+v, %v", meta, again, err)
			}
		case snapRecTree:
			gen, ts, isInit, err := decodeTreeSnapshot(payload)
			if err != nil || recoverLeafPageIDs(payload, &ts) != nil {
				return
			}
			buf := appendLeafPageIDs(encodeTreeSnapshot(gen, ts, isInit), ts.Leaves)
			gen2, ts2, isInit2, err := decodeTreeSnapshot(buf)
			if err == nil {
				err = recoverLeafPageIDs(buf, &ts2)
			}
			if err != nil || gen2 != gen || isInit2 != isInit || !reflect.DeepEqual(ts2, ts) {
				t.Fatalf("tree record (gen %d, %d leaves) re-encodes to gen %d, %d leaves, %v",
					gen, len(ts.Leaves), gen2, len(ts2.Leaves), err)
			}
		}
	})
}
