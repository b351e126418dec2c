package experiments

import (
	"fmt"
	"io"
	"time"

	"bg3/internal/bytegraph"
	"bg3/internal/graph"
	"bg3/internal/netsim"
	"bg3/internal/replication"
	"bg3/internal/storage"
)

// Fig12Row is one recall measurement: the fraction of leader writes a
// follower can read, per synchronization mechanism and packet loss rate.
type Fig12Row struct {
	System   string
	LossRate float64
	Recall   float64
}

// Fig12Recall reproduces Fig. 12: ByteGraph's command forwarding loses
// data in proportion to packet loss (paper: 0.98 / 0.91 / 0.83 at 1 / 5 /
// 10%), while BG3's shared-storage WAL shipping delivers recall 1.0 at
// every loss rate.
func Fig12Recall(s Scale, lossRates []float64, out io.Writer) []Fig12Row {
	if len(lossRates) == 0 {
		lossRates = []float64{0.01, 0.02, 0.05, 0.10}
	}
	edgesN := pick(s, 2_000, 20_000, 100_000)

	var rows []Fig12Row
	for _, loss := range lossRates {
		// Legacy ByteGraph: leader + follower are real ByteGraph stores,
		// linked by a lossy asynchronous forwarding channel.
		leader := bytegraph.New(bytegraph.Config{})
		follower := bytegraph.New(bytegraph.Config{})
		link := netsim.NewLink(loss, 0, 0, int64(loss*1000)+1)
		cl := replication.NewForwardingCluster(leader, []graph.Store{follower}, []*netsim.Link{link})
		edges := make([]graph.Edge, 0, edgesN)
		for i := 0; i < edgesN; i++ {
			e := graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i), Type: graph.ETypeTransfer}
			if err := cl.AddEdge(e); err != nil {
				panic(err)
			}
			edges = append(edges, e)
		}
		recall := cl.Recall(edges, 20*time.Millisecond)[0]
		rows = append(rows, Fig12Row{System: "ByteGraph (forwarding)", LossRate: loss, Recall: recall})

		// BG3: WAL over shared storage. The network loss rate is irrelevant
		// by construction — the WAL never traverses the lossy link — so the
		// same loss parameter yields recall 1.0.
		st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
		rw, err := replication.NewRWNode(st, replication.RWOptions{})
		if err != nil {
			panic(err)
		}
		ro, err := replication.NewRONode(st, time.Millisecond, 0)
		if err != nil {
			panic(err)
		}
		for _, e := range edges {
			if err := rw.AddEdge(e); err != nil {
				panic(err)
			}
		}
		lsn := rw.LastLSN()
		ro.WaitVisible(lsn, 10*time.Second)
		recall = replication.WALRecall(ro.Replica(), edges)
		ro.Stop()
		rw.Stop()
		rows = append(rows, Fig12Row{System: "BG3 (WAL on shared storage)", LossRate: loss, Recall: recall})
	}
	if out != nil {
		fmt.Fprintf(out, "\n== Figure 12: follower recall vs packet loss ==\n")
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{r.System, fmt.Sprintf("%.0f%%", r.LossRate*100), fmt.Sprintf("%.3f", r.Recall)})
		}
		table(out, []string{"system", "packet loss", "recall"}, tr)
		fmt.Fprintln(out, "paper shape: forwarding recall ~ (1 - loss); BG3 recall = 1.0 at every loss rate")
	}
	return rows
}
