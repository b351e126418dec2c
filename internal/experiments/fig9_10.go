package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
)

// Fig9Result reproduces the read-amplification comparison of Fig. 9:
// with a zero-size cache, every read materializes the page from storage,
// paying one read per base page plus one per durable delta.
type Fig9Result struct {
	System        string
	InputQPS      float64 // nominal client read rate (paper: 20K)
	StorageQPS    float64 // implied storage read rate
	Amplification float64 // storage reads per client read
}

// fig9TreeSetup builds a tree preloaded with Douyin-follow-like data and a
// power-law update phase that leaves delta chains behind, mirroring §4.3.1
// ("restricted from splitting", consolidate after 10 deltas, cache = 0).
func fig9TreeSetup(policy bwtree.DeltaPolicy, keys, updates int, seed int64) (*bwtree.Tree, *storage.Store) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
	m := bwtree.NewMapping(0, true) // zero cache: every read hits storage
	tr, err := bwtree.New(m, st, bwtree.Config{
		Policy:         policy,
		ConsolidateNum: 10,
		DisableSplit:   false, // split on load so pages stay page-sized...
		MaxPageEntries: 64,
	}, nil)
	if err != nil {
		panic(err)
	}
	// Load phase: insert all data (sequential keys split into many pages).
	for i := 0; i < keys; i++ {
		if err := tr.Put(key64(uint64(i)), record(uint64(i), 32)); err != nil {
			panic(err)
		}
	}
	// Update phase: power-law updates build delta chains on hot pages.
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	for i := 0; i < updates; i++ {
		if err := tr.Put(key64(zipf.Uint64()), record(uint64(keys+i), 32)); err != nil {
			panic(err)
		}
	}
	return tr, st
}

func key64(v uint64) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, v)
	return buf
}

// record is the n-byte value of an experiment's seq-th write: seq, then
// zeros. Values are distinct, as a real workload's are; values that were all
// alike would be stored once per leaf (its value prefix), and the bytes a
// figure compares would shrink to the keys'.
func record(seq uint64, n int) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, n), seq)[:n]
}

// Fig9ReadAmplification measures storage reads per client read for the
// traditional (SLED-like) and read-optimized trees. The paper reports
// 76K vs 48K storage QPS at a 20K QPS power-law read load (3.87x vs 2.4x).
func Fig9ReadAmplification(s Scale, out io.Writer) []Fig9Result {
	keys := pick(s, 4_000, 40_000, 200_000)
	updates := pick(s, 8_000, 80_000, 400_000)
	reads := pick(s, 5_000, 50_000, 200_000)
	const inputQPS = 20_000 // nominal, as in the paper

	run := func(name string, policy bwtree.DeltaPolicy) Fig9Result {
		tr, st := fig9TreeSetup(policy, keys, updates, 42)
		st.ResetIOStats()
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
		for i := 0; i < reads; i++ {
			if _, _, err := tr.Get(key64(zipf.Uint64())); err != nil {
				panic(err)
			}
		}
		amp := float64(st.Stats().ReadOps) / float64(reads)
		return Fig9Result{
			System:        name,
			InputQPS:      inputQPS,
			StorageQPS:    amp * inputQPS,
			Amplification: amp,
		}
	}
	results := []Fig9Result{
		run("SLED (traditional Bw-tree)", bwtree.Traditional),
		run("BG3 (read-optimized Bw-tree)", bwtree.ReadOptimized),
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 9: read amplification (cache=0, consolidate=10, power-law) ==\n")
		var tr [][]string
		for _, r := range results {
			tr = append(tr, []string{r.System, kqps(r.InputQPS), kqps(r.StorageQPS), f2(r.Amplification) + "x"})
		}
		table(out, []string{"system", "input QPS", "storage QPS", "amplification"}, tr)
		if len(results) == 2 && results[0].StorageQPS > 0 {
			fmt.Fprintf(out, "read-optimized reduces storage read QPS by %.1f%% (paper: 36.8%%)\n",
				100*(1-results[1].StorageQPS/results[0].StorageQPS))
		}
	}
	return results
}

// Fig10Result reproduces the write-bandwidth comparison of Fig. 10: the
// read-optimized tree rewrites merged deltas, paying modestly more bytes
// (paper: 70MB vs 64.5MB, +9.3%, all sequential appends).
type Fig10Result struct {
	System       string
	BytesWritten int64
}

// fig10TreeSetup runs the write-only power-law load of Fig. 10 into a fresh
// tree and returns its store.
func fig10TreeSetup(policy bwtree.DeltaPolicy, keys, writes int) *storage.Store {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
	m := bwtree.NewMapping(0, false)
	tr, err := bwtree.New(m, st, bwtree.Config{
		Policy:         policy,
		ConsolidateNum: 10,
		MaxPageEntries: 512,
	}, nil)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(21))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	for i := 0; i < writes; i++ {
		if err := tr.Put(key64(zipf.Uint64()), record(uint64(i), 64)); err != nil {
			panic(err)
		}
	}
	return st
}

// Fig10WriteBandwidth runs the write-only power-law benchmark on both
// policies and reports total bytes appended to storage. Page geometry
// matches the paper's description — "the leaf nodes of a single Bw-tree
// typically contain dozens or even hundreds of edges" — so base-page
// consolidations dominate the byte volume and the merged-delta rewrites
// add only a modest overhead, as in the paper (+9.3%).
func Fig10WriteBandwidth(s Scale, out io.Writer) []Fig10Result {
	keys := pick(s, 4_000, 40_000, 200_000)
	writes := pick(s, 10_000, 100_000, 500_000)

	run := func(name string, policy bwtree.DeltaPolicy) Fig10Result {
		return Fig10Result{System: name, BytesWritten: fig10TreeSetup(policy, keys, writes).Stats().BytesWritten}
	}
	results := []Fig10Result{
		run("SLED (traditional Bw-tree)", bwtree.Traditional),
		run("BG3 (read-optimized Bw-tree)", bwtree.ReadOptimized),
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 10: write bandwidth (write-only power-law) ==\n")
		var tr [][]string
		for _, r := range results {
			tr = append(tr, []string{r.System, mb(r.BytesWritten)})
		}
		table(out, []string{"system", "bytes written"}, tr)
		if results[0].BytesWritten > 0 {
			fmt.Fprintf(out, "read-optimized writes %.1f%% more bytes (paper: +9.3%%), all sequential appends\n",
				100*(float64(results[1].BytesWritten)/float64(results[0].BytesWritten)-1))
		}
	}
	return results
}
