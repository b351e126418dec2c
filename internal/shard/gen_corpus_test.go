package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bg3/internal/graph"
)

// TestGenPrepareCorpus regenerates the checked-in fuzz corpus. Guarded.
func TestGenPrepareCorpus(t *testing.T) {
	if os.Getenv("BG3_GEN_CORPUS") == "" {
		t.Skip("set BG3_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodePrepareRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	valid := EncodePrepare(&TxnPayload{
		Txn: 7, Fence: 3, Coord: 0, Shard: 2, Parts: []int{0, 2},
		Muts: []graph.Mutation{
			{Kind: graph.MutAddEdge, Edge: graph.Edge{
				Src: 11, Dst: 22, Type: 1,
				Props: graph.Properties{{Name: "w", Value: []byte("x")}},
			}},
			{Kind: graph.MutAddVertex, Vertex: graph.Vertex{
				ID: 11, Type: 4,
				Props: graph.Properties{{Name: "name", Value: []byte("a")}},
			}},
		},
	})
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-2] ^= 0x01
	dup := EncodePrepare(&TxnPayload{
		Txn: 9, Fence: 1, Coord: 1, Shard: 1, Parts: []int{1, 1},
		Muts: []graph.Mutation{
			{Kind: graph.MutDeleteEdge, Edge: graph.Edge{Src: 5, Dst: 6, Type: 2}},
		},
	})
	commit := EncodePrepare(&TxnPayload{
		Txn: 7, Fence: 3, Coord: 0, Shard: 0, Parts: []int{0, 2},
		Muts: []graph.Mutation{
			{Kind: graph.MutAddEdge, Edge: graph.Edge{Src: 10, Dst: 22, Type: 1}},
			{Kind: graph.MutDeleteEdge, Edge: graph.Edge{Src: 10, Dst: 23, Type: 1}},
		},
	})
	cases := []struct {
		name       string
		data       []byte
		txn, epoch uint64
		commit     bool   // carried by the coordinator's commit, not a prepare
		page       uint64 // the carrying record's PageID: the coordinator
	}{
		{"valid", valid, 7, 3, false, 0},
		{"wrong-epoch", valid, 7, 4, false, 0},
		{"wrong-txn-id", valid, 8, 3, false, 0},
		{"torn-tail", valid[:len(valid)-6], 7, 3, false, 0},
		{"torn-header", valid[:txnHeaderLen], 7, 3, false, 0},
		{"bit-flip-txn", flipped, 7, 3, false, 0},
		{"bit-flip-crc", crcFlip, 7, 3, false, 0},
		{"duplicate-participant", dup, 9, 1, false, 1},
		{"empty", nil, 7, 3, false, 0},
		{"commit-valid", commit, 7, 3, true, 0},
		{"commit-wrong-coordinator", commit, 7, 3, true, 2},
		{"commit-participant-part", valid, 7, 3, true, 0},
	}
	for _, c := range cases {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(%d)\nuint64(%d)\nbool(%v)\nuint64(%d)\n",
			c.data, c.txn, c.epoch, c.commit, c.page)
		if err := os.WriteFile(filepath.Join(dir, c.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
