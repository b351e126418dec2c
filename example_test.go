package bg3_test

import (
	"fmt"
	"log"
	"sort"

	bg3 "bg3"
)

// Example demonstrates the minimal write/read cycle.
func Example() {
	db, err := bg3.Open(nil)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if err := db.AddEdge(bg3.Edge{Src: 1, Dst: 2, Type: bg3.ETypeFollow}); err != nil {
		log.Fatal(err)
	}
	if err := db.AddEdge(bg3.Edge{Src: 1, Dst: 3, Type: bg3.ETypeFollow}); err != nil {
		log.Fatal(err)
	}
	deg, _ := db.Degree(1, bg3.ETypeFollow)
	fmt.Println("degree:", deg)
	// Output: degree: 2
}

// ExampleDB_Neighbors shows ordered adjacency iteration.
func ExampleDB_Neighbors() {
	db, _ := bg3.Open(nil)
	defer db.Close()
	for _, dst := range []bg3.VertexID{30, 10, 20} {
		if err := db.AddEdge(bg3.Edge{Src: 1, Dst: dst, Type: bg3.ETypeLike}); err != nil {
			log.Fatal(err)
		}
	}
	db.Neighbors(1, bg3.ETypeLike, 0, func(dst bg3.VertexID, _ bg3.Properties) bool {
		fmt.Println(dst)
		return true
	})
	// Output:
	// 10
	// 20
	// 30
}

// ExampleDB_FindCycles shows transfer-loop detection, the risk-control
// primitive.
func ExampleDB_FindCycles() {
	db, _ := bg3.Open(nil)
	defer db.Close()
	for _, e := range [][2]bg3.VertexID{{1, 2}, {2, 3}, {3, 1}} {
		if err := db.AddEdge(bg3.Edge{Src: e[0], Dst: e[1], Type: bg3.ETypeTransfer}); err != nil {
			log.Fatal(err)
		}
	}
	cycles, _ := db.FindCycles(1, bg3.ETypeTransfer, 4, 0)
	fmt.Println("cycles:", len(cycles), cycles[0])
	// Output: cycles: 1 [1 2 3]
}

// ExampleDB_OpenReplica shows a strongly consistent read-only replica.
func ExampleDB_OpenReplica() {
	db, _ := bg3.Open(&bg3.Options{Replicated: true})
	defer db.Close()
	replica, err := db.OpenReplica()
	if err != nil {
		log.Fatal(err)
	}
	if err := db.AddEdge(bg3.Edge{Src: 7, Dst: 8, Type: bg3.ETypeFollow}); err != nil {
		log.Fatal(err)
	}
	if err := replica.Sync(); err != nil {
		log.Fatal(err)
	}
	deg, _ := replica.Degree(7, bg3.ETypeFollow)
	fmt.Println("replica sees degree:", deg)
	// Output: replica sees degree: 1
}

// ExampleOpen_sharded splits the vertex space over four shards behind the one
// handle: a batch whose edges live on several shards commits atomically, a
// traversal crosses shards at one consistent cut, and a replica follows every
// shard.
func ExampleOpen_sharded() {
	db, err := bg3.Open(&bg3.Options{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	var chain []bg3.Mutation
	for v := bg3.VertexID(1); v < 8; v++ {
		chain = append(chain, bg3.AddEdgeMut(bg3.Edge{Src: v, Dst: v + 1, Type: bg3.ETypeFollow}))
	}
	if err := db.ApplyBatch(chain); err != nil {
		log.Fatal(err)
	}
	reached, _ := db.KHop(1, bg3.ETypeFollow, 7, 0)
	s := db.Snapshot()
	defer s.Close()
	fmt.Println("shards:", db.Shards(), "pinned epochs:", len(s.Epochs()), "reached:", len(reached))

	replica, err := db.OpenReplica()
	if err != nil {
		log.Fatal(err)
	}
	if err := replica.Sync(); err != nil {
		log.Fatal(err)
	}
	reached, _ = replica.KHop(1, bg3.ETypeFollow, 7, 0)
	fmt.Println("replica reached:", len(reached))
	// Output:
	// shards: 4 pinned epochs: 4 reached: 7
	// replica reached: 7
}

// ExampleDB_KHop shows bounded multi-hop expansion.
func ExampleDB_KHop() {
	db, _ := bg3.Open(nil)
	defer db.Close()
	for _, e := range [][2]bg3.VertexID{{1, 2}, {2, 3}, {3, 4}} {
		if err := db.AddEdge(bg3.Edge{Src: e[0], Dst: e[1], Type: bg3.ETypeFollow}); err != nil {
			log.Fatal(err)
		}
	}
	reached, _ := db.KHop(1, bg3.ETypeFollow, 2, 0)
	var ids []int
	for v := range reached {
		ids = append(ids, int(v))
	}
	sort.Ints(ids)
	fmt.Println("within 2 hops:", ids)
	// Output: within 2 hops: [2 3]
}
