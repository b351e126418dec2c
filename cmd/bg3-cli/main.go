// Command bg3-cli is a small interactive shell over an in-process BG3
// database — handy for poking at the engine's behaviour.
//
//	$ bg3-cli
//	bg3> addv 1 user
//	bg3> adde 1 2 follow
//	bg3> neighbors 1 follow
//	2
//	bg3> khop 1 follow 2
//	...
//	bg3> stats
//	bg3> quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	bg3 "bg3"
)

var edgeTypes = map[string]bg3.EdgeType{
	"follow":   bg3.ETypeFollow,
	"like":     bg3.ETypeLike,
	"transfer": bg3.ETypeTransfer,
}

var vertexTypes = map[string]bg3.VertexType{
	"user":  bg3.VTypeUser,
	"video": bg3.VTypeVideo,
}

func main() {
	replicated := flag.Bool("replicated", false,
		"open with the WAL replication pipeline (enables the 'failover' command)")
	flag.Parse()

	db, err := bg3.Open(&bg3.Options{ForestSplitThreshold: 1000, Replicated: *replicated})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bg3-cli:", err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Println("BG3 interactive shell — type 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("bg3> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := dispatch(db, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func parseID(s string) (bg3.VertexID, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	return bg3.VertexID(v), err
}

func parseEdgeType(s string) (bg3.EdgeType, error) {
	if t, ok := edgeTypes[strings.ToLower(s)]; ok {
		return t, nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("unknown edge type %q (follow, like, transfer, or a number)", s)
	}
	return bg3.EdgeType(v), nil
}

func dispatch(db *bg3.DB, f []string) error {
	switch strings.ToLower(f[0]) {
	case "quit", "exit":
		return errQuit
	case "help":
		fmt.Print(`commands:
  addv <id> <user|video>                add a vertex
  adde <src> <dst> <etype> [k=v ...]    add an edge with properties
  dele <src> <dst> <etype>              delete an edge
  get  <src> <dst> <etype>              show one edge
  neighbors <src> <etype> [limit]       list out-neighbors
  degree <src> <etype>                  out-degree
  khop <src> <etype> <hops>             multi-hop expansion
  cycles <src> <etype> <maxlen>         loop detection
  gc [batch]                            run space reclamation
  failover                              depose the leader, promote a follower (needs -replicated)
  stats [json|text]                     engine statistics (full registry as json/text)
  quit
`)
		return nil
	case "addv":
		if len(f) < 3 {
			return fmt.Errorf("usage: addv <id> <user|video>")
		}
		id, err := parseID(f[1])
		if err != nil {
			return err
		}
		typ, ok := vertexTypes[strings.ToLower(f[2])]
		if !ok {
			return fmt.Errorf("unknown vertex type %q", f[2])
		}
		return db.AddVertex(bg3.Vertex{ID: id, Type: typ})
	case "adde":
		if len(f) < 4 {
			return fmt.Errorf("usage: adde <src> <dst> <etype> [k=v ...]")
		}
		src, err := parseID(f[1])
		if err != nil {
			return err
		}
		dst, err := parseID(f[2])
		if err != nil {
			return err
		}
		typ, err := parseEdgeType(f[3])
		if err != nil {
			return err
		}
		var props bg3.Properties
		for _, kv := range f[4:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("property %q is not k=v", kv)
			}
			props = append(props, bg3.Property{Name: parts[0], Value: []byte(parts[1])})
		}
		return db.AddEdge(bg3.Edge{Src: src, Dst: dst, Type: typ, Props: props})
	case "dele":
		if len(f) < 4 {
			return fmt.Errorf("usage: dele <src> <dst> <etype>")
		}
		src, _ := parseID(f[1])
		dst, _ := parseID(f[2])
		typ, err := parseEdgeType(f[3])
		if err != nil {
			return err
		}
		return db.DeleteEdge(src, typ, dst)
	case "get":
		if len(f) < 4 {
			return fmt.Errorf("usage: get <src> <dst> <etype>")
		}
		src, _ := parseID(f[1])
		dst, _ := parseID(f[2])
		typ, err := parseEdgeType(f[3])
		if err != nil {
			return err
		}
		e, ok, err := db.GetEdge(src, typ, dst)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("(not found)")
			return nil
		}
		fmt.Printf("%d -> %d", e.Src, e.Dst)
		for _, p := range e.Props {
			fmt.Printf(" %s=%s", p.Name, p.Value)
		}
		fmt.Println()
		return nil
	case "neighbors":
		if len(f) < 3 {
			return fmt.Errorf("usage: neighbors <src> <etype> [limit]")
		}
		src, _ := parseID(f[1])
		typ, err := parseEdgeType(f[2])
		if err != nil {
			return err
		}
		limit := 0
		if len(f) > 3 {
			limit, _ = strconv.Atoi(f[3])
		}
		n := 0
		err = db.Neighbors(src, typ, limit, func(dst bg3.VertexID, _ bg3.Properties) bool {
			fmt.Println(dst)
			n++
			return true
		})
		fmt.Printf("(%d neighbors)\n", n)
		return err
	case "degree":
		if len(f) < 3 {
			return fmt.Errorf("usage: degree <src> <etype>")
		}
		src, _ := parseID(f[1])
		typ, err := parseEdgeType(f[2])
		if err != nil {
			return err
		}
		d, err := db.Degree(src, typ)
		if err != nil {
			return err
		}
		fmt.Println(d)
		return nil
	case "khop":
		if len(f) < 4 {
			return fmt.Errorf("usage: khop <src> <etype> <hops>")
		}
		src, _ := parseID(f[1])
		typ, err := parseEdgeType(f[2])
		if err != nil {
			return err
		}
		hops, _ := strconv.Atoi(f[3])
		reached, err := db.KHop(src, typ, hops, 0)
		if err != nil {
			return err
		}
		ids := make([]bg3.VertexID, 0, len(reached))
		for id := range reached {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Println(id)
		}
		fmt.Printf("(%d vertices)\n", len(ids))
		return nil
	case "cycles":
		if len(f) < 4 {
			return fmt.Errorf("usage: cycles <src> <etype> <maxlen>")
		}
		src, _ := parseID(f[1])
		typ, err := parseEdgeType(f[2])
		if err != nil {
			return err
		}
		maxLen, _ := strconv.Atoi(f[3])
		cycles, err := db.FindCycles(src, typ, maxLen, 0)
		if err != nil {
			return err
		}
		for _, c := range cycles {
			for i, v := range c {
				if i > 0 {
					fmt.Print(" -> ")
				}
				fmt.Print(v)
			}
			fmt.Printf(" -> %d\n", c[0])
		}
		fmt.Printf("(%d cycles)\n", len(cycles))
		return nil
	case "gc":
		batch := 4
		if len(f) > 1 {
			batch, _ = strconv.Atoi(f[1])
		}
		moved, err := db.RunGC(batch)
		if err != nil {
			return err
		}
		fmt.Printf("moved %d bytes\n", moved)
		return nil
	case "failover":
		if err := db.Failover(0); err != nil {
			return err
		}
		s := db.Stats()
		fmt.Printf("promoted: epoch=%d failovers=%d fenced_appends=%d\n",
			s.Shards.Epochs[0], s.Replication.Failovers, s.Replication.FencedAppends)
		return nil
	case "stats":
		if len(f) > 1 {
			switch f[1] {
			case "json":
				// Full metrics registry: every registered instrument.
				buf, err := db.StatsJSON()
				if err != nil {
					return err
				}
				fmt.Println(string(buf))
				return nil
			case "text":
				fmt.Print(db.StatsText())
				return nil
			default:
				return fmt.Errorf("unknown stats format %q (try 'json' or 'text')", f[1])
			}
		}
		s := db.Stats()
		fmt.Printf("storage: %d reads, %d writes, %d B read, %d B written\n",
			s.Storage.ReadOps, s.Storage.WriteOps, s.Storage.BytesRead, s.Storage.BytesWritten)
		fmt.Printf("space:   %d B live / %d B total, GC moved %d B (amp %.2f), %d reclaimed, %d expired, %d compacted (%d B moved)\n",
			s.Storage.LiveBytes, s.Storage.TotalBytes, s.GC.BytesMoved, s.GC.WriteAmp,
			s.GC.ExtentsReclaimed, s.GC.ExtentsExpired, s.GC.ExtentsCompacted, s.GC.CompactBytesMoved)
		fmt.Printf("forest:  %d trees, %d owners, %d INIT keys, %d migrations\n",
			s.Forest.Trees, s.Forest.Owners, s.Forest.InitKeys, s.Forest.Migrations)
		fmt.Printf("cache:   %d hits / %d misses (ratio %.2f), read fan-out p99=%d max=%d\n",
			s.Cache.Hits, s.Cache.Misses, s.Cache.HitRatio,
			s.Cache.ReadFanout.P99, s.Cache.ReadFanout.Max)
		fmt.Printf("memory:  ~%d B resident\n", s.Cache.MemoryBytes)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", f[0])
	}
}
