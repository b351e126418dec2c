package bg3

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestLogBytesPerEdge pins what the log costs a prop-less edge, by the bytes
// of its WAL entries: on a leader with the flusher off only the log writes. A
// single AddEdge on one shard is one group, its envelope and meta block
// included, and may cost 50 bytes; an edge of an 8-edge ApplyBatch shares its
// group and may cost 35. An 8-edge ApplyBatch over two sources on different
// shards of four is a two-shard transaction: its prepare, its commit, both
// parts' puts and both applied markers, counted over every shard's log, may
// cost 60 bytes per edge.
func TestLogBytesPerEdge(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
		batch  int
		limit  float64
	}{
		{"AddEdge", 1, 1, 50},
		{"ApplyBatch-8", 1, 8, 35},
		{"CrossShard-ApplyBatch-8", 4, 8, 60},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := openDB(t, &Options{Replicated: true, Shards: c.shards, FlushInterval: time.Hour})
			curs := make([]storage.Cursor, db.Shards())
			for i := range curs {
				var err error
				if _, curs[i], err = db.eng(i).Store().Scan(storage.StreamWAL, storage.Cursor{}, 0); err != nil {
					t.Fatal(err)
				}
			}
			src := func(i int) VertexID { return VertexID(i % 100) }
			if c.shards > 1 {
				r, a, b := db.Group().Router(), VertexID(1), VertexID(2)
				for r.Owner(b) == r.Owner(a) {
					b++
				}
				src = func(i int) VertexID { return [2]VertexID{a, b}[i%2] }
			}
			written := db.Stats().Storage.BytesWritten
			const edges = 4096
			var err error
			muts := make([]Mutation, 0, c.batch)
			for i := 0; i < edges; i++ {
				e := Edge{Src: src(i), Dst: VertexID(i), Type: ETypeFollow}
				if c.batch == 1 {
					err = db.AddEdge(e)
				} else if muts = append(muts, AddEdgeMut(e)); len(muts) == c.batch {
					err, muts = db.ApplyBatch(muts), muts[:0]
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			logged, appends := 0, 0
			for i, cur := range curs {
				entries, _, err := db.eng(i).Store().Scan(storage.StreamWAL, cur, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					logged += len(e.Data)
				}
				appends += len(entries)
			}
			if other := db.Stats().Storage.BytesWritten - written - int64(logged); other != 0 {
				t.Fatalf("%d bytes written beside the log's %d: the flusher ran", other, logged)
			}
			per := float64(logged) / edges
			t.Logf("%s: %d log bytes in %d appends, %.1f per edge", c.name, logged, appends, per)
			if per > c.limit {
				t.Fatalf("%s logs %.1f bytes per edge, want <= %.0f", c.name, per, c.limit)
			}
		})
	}
}

// TestLeafBytesPerEdge pins what the page records cost an edge, by the bytes
// on the base and delta streams after one consolidating flush: on a one-shard
// leader with the flusher off, the checkpoint writes every leaf once, as a
// base holding its whole content. A leaf stores its keys' common prefix and
// its values' once, and each entry only its suffixes. A dedicated tree's
// prop-less entries are then the last bytes of their dsts (a packed leaf),
// and may cost 2 bytes per edge; the INIT tree's carry their owners' low
// bytes too and may cost 12. An edge with one 8-byte ts property, as the
// benchmark's edges have, adds its 8 random bytes: 10 and 20.
func TestLeafBytesPerEdge(t *testing.T) {
	for _, c := range []struct {
		name   string
		split  int // ForestSplitThreshold: 0 keeps every vertex in INIT
		owners int
		ts     bool
		limit  float64
	}{
		{"dedicated", 64, 1, false, 2},
		{"INIT", 0, 100, false, 12},
		{"dedicated-ts", 64, 1, true, 10},
		{"INIT-ts", 0, 100, true, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := openDB(t, &Options{Replicated: true, FlushInterval: time.Hour, ForestSplitThreshold: c.split})
			const edges = 4096
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < edges; i++ {
				e := Edge{Src: VertexID(i % c.owners), Dst: VertexID(i), Type: ETypeFollow}
				if c.ts {
					e.Props = Properties{{Name: "ts", Value: binary.BigEndian.AppendUint64(nil, rng.Uint64())}}
				}
				if err := db.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st := db.eng(0).Store()
			stored, records := 0, 0
			for _, s := range []storage.StreamID{storage.StreamBase, storage.StreamDelta} {
				entries, _, err := st.Scan(s, storage.Cursor{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					stored, records = stored+len(e.Data), records+1
				}
			}
			per := float64(stored) / edges
			t.Logf("%s: %d page bytes in %d records, %.1f per edge", c.name, stored, records, per)
			if per > c.limit {
				t.Fatalf("%s stores %.1f page bytes per edge, want <= %.0f", c.name, per, c.limit)
			}
		})
	}
}
