package replication

import (
	"bytes"
	"errors"
	"testing"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// FuzzSnapshotRecord fuzzes the snapshot's one durable record: a checkpoint
// naming leaves whole (rolling checkpoint), fed as the record that completes a
// rotation through the path a follower attaching past a trimmed prefix runs —
// decode the naming, register the forest it names (forest.Bootstrap), apply
// the record. Nothing may panic, whatever the input; a payload that decodes
// must re-encode to itself, so a naming read back and logged again names the
// same leaves.
func FuzzSnapshotRecord(f *testing.F) {
	for _, seed := range namingSeeds() {
		f.Add(seed)
	}
	// testdata/fuzz/FuzzSnapshotRecord holds the damaged variants.
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ups, err := bwtree.DecodeMappingUpdates(data)
		if err != nil {
			if !errors.Is(err, bwtree.ErrCorruptPage) {
				t.Fatalf("decode error %v is not ErrCorruptPage", err)
			}
		} else if again := bwtree.EncodeMappingUpdates(ups); !bytes.HasPrefix(data, again) {
			t.Fatalf("naming of %d leaves does not re-encode to the bytes it was read from", len(ups))
		}
		grp := []*wal.Record{{Type: wal.RecordCheckpoint, LSN: 2, CkptLSN: 1, AuxPage: 1, Value: data}}
		fo, err := forest.Bootstrap(bwtree.NewApplierMapping(0), storage.Open(nil), 1, [][]*wal.Record{grp})
		if err == nil {
			_ = fo.ApplyGroup(grp)
		}
	})
}

// namingSeeds are well-formed payloads: the leaves of a dedicated tree, an
// INIT tree's empty root, and a naming beside the updates of a flush.
func namingSeeds() [][]byte {
	loc := func(s storage.StreamID, n uint32) storage.Loc {
		return storage.Loc{Stream: s, Extent: storage.ExtentID(n), Offset: 64 * n, Length: 96}
	}
	owned := bwtree.EncodeMappingUpdates([]bwtree.MappingUpdate{
		{Tree: 1, Page: 1, Base: loc(storage.StreamBase, 1), Named: true, Init: true},
		{Tree: 5, Page: 3, Base: loc(storage.StreamBase, 7), Named: true, Owned: true, Owner: 77},
		{Tree: 5, Page: 9, Base: loc(storage.StreamBase, 8), Deltas: []storage.Loc{loc(storage.StreamDelta, 2)},
			Named: true, Owned: true, Owner: 77, Lo: []byte("k0100")},
	})
	initRoot := bwtree.EncodeMappingUpdates([]bwtree.MappingUpdate{
		{Tree: 1, Page: 1, Base: loc(storage.StreamBase, 3), Named: true, Init: true},
	})
	flushed := bwtree.EncodeMappingUpdates([]bwtree.MappingUpdate{
		{Tree: 1, Page: 4, Base: loc(storage.StreamBase, 5), Deltas: []storage.Loc{loc(storage.StreamDelta, 6)}},
		{Tree: 1, Page: 1, Base: loc(storage.StreamBase, 3), Named: true, Init: true},
	})
	return [][]byte{owned, initRoot, flushed}
}
