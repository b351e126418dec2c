package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/storage"
)

// Fig11Row is one point of the Bw-tree forest scaling experiment: write
// throughput and memory cost as the number of Bw-trees grows (paper:
// 50->90->150->289 KQPS and superlinear memory as trees go 1 -> 64 ->
// 100K -> 1M, with diminishing QPS returns at the high end).
type Fig11Row struct {
	Trees       int
	WriteQPS    float64 // writes per virtual second
	MemoryBytes int64
}

// fig11FlushLatency is the storage round trip Algorithm 1's inline flush
// holds a page latch across.
const fig11FlushLatency = time.Millisecond

// fig11Worker is one writer of Fig. 11: a seeded owner stream, the writes
// left in it and the virtual time its last write finished at.
type fig11Worker struct {
	id   uint64
	zipf *rand.Zipf
	left int
	at   time.Duration
}

// Fig11ForestScaling controls the number of Bw-trees directly (the paper
// tunes it via the split threshold; we pre-dedicate the top-T owners,
// which reaches the same steady state without migration noise inside the
// measurement window) and measures fully-cached write throughput of 8
// writers plus resident memory.
//
// The contention mechanism is the paper's Observation 1/2 pair: a user
// never conflicts with itself, but the like-lists of *different* users
// share INIT leaf pages, so concurrently active users serialize on page
// latches — and per Algorithm 1 a latch is held across the inline delta
// flush to (millisecond-class) cloud storage. Dedicating trees to the
// power-law head removes that sharing; pushing dedication deep into the
// cold tail buys little extra QPS while memory keeps growing (Observation
// 3: per-tree structures for users with a handful of likes are waste).
//
// The writers run on virtual time, replayed on one goroutine: the writer
// whose clock is earliest goes next, and each record its write appends
// (read back from the stream tails) holds the record's page for one
// fig11FlushLatency, after waiting for the page to be free. Throughput is
// writes over the latest finish time.
func Fig11ForestScaling(s Scale, treeCounts []int, out io.Writer) []Fig11Row {
	if len(treeCounts) == 0 {
		treeCounts = pick(s,
			[]int{1, 64, 1024, 8192},
			[]int{1, 64, 4096, 32768},
			[]int{1, 64, 16384, 131072},
		)
	}
	owners := pick(s, 16_384, 65_536, 262_144)
	const workers = 8
	per := pick(s, 6_000, 16_000, 48_000) / workers
	streams := []storage.StreamID{storage.StreamBase, storage.StreamDelta}

	var rows []Fig11Row
	for _, trees := range treeCounts {
		st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
		m := bwtree.NewMapping(0, false) // full cache
		fo, err := forest.New(m, st, forest.Config{
			Tree: bwtree.Config{MaxPageEntries: 64},
		}, nil)
		if err != nil {
			panic(err)
		}
		// Dedicate the hottest T-1 owners (the INIT tree is the T-th).
		// Owner IDs are zipf-rank * workers + worker, so dedication covers
		// every worker's head equally.
		for i := 0; i < trees-1 && i < owners; i++ {
			if err := fo.Dedicate(forest.OwnerID(i)); err != nil {
				panic(err)
			}
		}

		// Per Observation 2, one user never writes concurrently with
		// itself: each worker owns a disjoint residue class of owner IDs.
		// The hot owners of different workers have adjacent IDs, so in the
		// shared INIT tree their like-lists land on the same leaves — the
		// write-conflict scenario of Figure 3.
		ws := make([]*fig11Worker, workers)
		for w := range ws {
			rng := rand.New(rand.NewSource(int64(w) + 1))
			ws[w] = &fig11Worker{id: uint64(w), zipf: rand.NewZipf(rng, 1.2, 1, uint64(owners/workers-1)), left: per}
		}
		seq := make(map[forest.OwnerID]uint64)
		tails := make([]storage.Cursor, len(streams))
		for i, stream := range streams {
			tails[i] = st.TailCursor(stream)
		}
		freeAt := make(map[uint64]time.Duration) // page ID -> latch release
		var end time.Duration
		for n := 0; n < per*workers; n++ {
			var wk *fig11Worker
			for _, c := range ws {
				if c.left > 0 && (wk == nil || c.at < wk.at) {
					wk = c
				}
			}
			wk.left--
			owner := forest.OwnerID(wk.zipf.Uint64()*workers + wk.id)
			seq[owner]++
			if err := fo.Put(owner, key64(seq[owner]), record(uint64(n), 8)); err != nil {
				panic(err)
			}
			for i, stream := range streams {
				appended, next, err := st.Scan(stream, tails[i], 0)
				if err != nil {
					panic(err)
				}
				tails[i] = next
				for _, rec := range appended {
					wk.at = max(wk.at, freeAt[rec.Tag]) + fig11FlushLatency
					freeAt[rec.Tag] = wk.at
				}
			}
			end = max(end, wk.at)
		}

		stats := fo.Stats()
		rows = append(rows, Fig11Row{
			Trees:       stats.Trees,
			WriteQPS:    float64(per*workers) / end.Seconds(),
			MemoryBytes: stats.MemoryBytes,
		})
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 11: Bw-tree forest scaling (write-only power-law, full cache) ==\n")
		var tr [][]string
		for i, r := range rows {
			qpsGain, memGain := "", ""
			if i > 0 {
				qpsGain = fmt.Sprintf("%.2fx", r.WriteQPS/rows[i-1].WriteQPS)
				memGain = fmt.Sprintf("%.2fx", float64(r.MemoryBytes)/float64(rows[i-1].MemoryBytes))
			}
			tr = append(tr, []string{fmt.Sprint(r.Trees), fmt.Sprintf("%.0f", r.WriteQPS), fmt.Sprint(r.MemoryBytes), qpsGain, memGain})
		}
		table(out, []string{"bw-trees", "writes per virtual s", "memory bytes", "writes vs prev", "mem vs prev"}, tr)
		fmt.Fprintln(out, "paper shape: QPS grows with tree count but sublinearly at the high end, while memory keeps growing")
	}
	return rows
}
