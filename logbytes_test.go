package bg3

import (
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestLogBytesPerEdge pins what the log costs a prop-less edge, by the bytes
// of its WAL entries: on a one-shard leader with the flusher off only the log
// writes. A single AddEdge is one group, its envelope and meta block included,
// and may cost 50 bytes; an edge of an 8-edge ApplyBatch shares its group and
// may cost 35.
func TestLogBytesPerEdge(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch int
		limit float64
	}{
		{"AddEdge", 1, 50},
		{"ApplyBatch-8", 8, 35},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := openDB(t, &Options{Replicated: true, FlushInterval: time.Hour})
			st := db.eng(0).Store()
			_, cur, err := st.Scan(storage.StreamWAL, storage.Cursor{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			written := db.Stats().Storage.BytesWritten
			const edges = 4096
			muts := make([]Mutation, 0, c.batch)
			for i := 0; i < edges; i++ {
				e := Edge{Src: VertexID(i % 100), Dst: VertexID(i), Type: ETypeFollow}
				if c.batch == 1 {
					err = db.AddEdge(e)
				} else if muts = append(muts, AddEdgeMut(e)); len(muts) == c.batch {
					err, muts = db.ApplyBatch(muts), muts[:0]
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			entries, _, err := st.Scan(storage.StreamWAL, cur, 0)
			if err != nil {
				t.Fatal(err)
			}
			logged := 0
			for _, e := range entries {
				logged += len(e.Data)
			}
			if other := db.Stats().Storage.BytesWritten - written - int64(logged); other != 0 {
				t.Fatalf("%d bytes written beside the log's %d: the flusher ran", other, logged)
			}
			per := float64(logged) / edges
			t.Logf("%s: %d log bytes in %d appends, %.1f per edge", c.name, logged, len(entries), per)
			if per > c.limit {
				t.Fatalf("%s logs %.1f bytes per edge, want <= %.0f", c.name, per, c.limit)
			}
		})
	}
}
