package replication

import (
	"time"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/netsim"
)

// ForwardingCluster models the previous-generation ByteGraph's
// leader-follower synchronization (§2.3): write commands are forwarded
// asynchronously from the RW node to every RO node over the datacenter
// network and replayed there. The path is fire-and-forget; packet loss
// silently drops updates, which is why it provides only eventual
// consistency — the behaviour the Fig. 12 recall experiment quantifies.
type ForwardingCluster struct {
	leader    graph.Store
	followers []graph.Store
	links     []*netsim.Link
}

// NewForwardingCluster wires a leader store to follower stores through
// lossy links. followers[i] receives commands over links[i].
func NewForwardingCluster(leader graph.Store, followers []graph.Store, links []*netsim.Link) *ForwardingCluster {
	if len(followers) != len(links) {
		panic("replication: followers and links must pair up")
	}
	return &ForwardingCluster{leader: leader, followers: followers, links: links}
}

// AddEdge applies the edge on the leader and forwards the command to every
// follower (asynchronously, like Gremlin command forwarding).
func (c *ForwardingCluster) AddEdge(e graph.Edge) error {
	if err := c.leader.AddEdge(e); err != nil {
		return err
	}
	for i, link := range c.links {
		f := c.followers[i]
		link.Send(func() { _ = f.AddEdge(e) })
	}
	return nil
}

// AddVertex applies and forwards a vertex insert.
func (c *ForwardingCluster) AddVertex(v graph.Vertex) error {
	if err := c.leader.AddVertex(v); err != nil {
		return err
	}
	for i, link := range c.links {
		f := c.followers[i]
		link.Send(func() { _ = f.AddVertex(v) })
	}
	return nil
}

// Leader returns the leader store.
func (c *ForwardingCluster) Leader() graph.Store { return c.leader }

// LinkStats aggregates the links' loss accounting.
func (c *ForwardingCluster) LinkStats() netsim.LinkStats {
	var out netsim.LinkStats
	for _, l := range c.links {
		s := l.Stats()
		out.Sent += s.Sent
		out.Dropped += s.Dropped
		out.Delivered += s.Delivered
	}
	return out
}

// Recall measures, for each follower, the fraction of the given edges it
// can read — the Fig. 12 metric. wait allows in-flight deliveries to land
// before measuring.
func (c *ForwardingCluster) Recall(edges []graph.Edge, wait time.Duration) []float64 {
	time.Sleep(wait)
	out := make([]float64, len(c.followers))
	for i, f := range c.followers {
		found := 0
		for _, e := range edges {
			if _, ok, _ := f.GetEdge(e.Src, e.Type, e.Dst); ok {
				found++
			}
		}
		if len(edges) > 0 {
			out[i] = float64(found) / float64(len(edges))
		}
	}
	return out
}

// WALRecall measures the same metric for a BG3 RW/RO pair: the fraction of
// edges an RO node can read after polling. Shared-storage WAL shipping is
// immune to packet loss, so this is 1.0 by construction; the experiment
// verifies it end to end.
func WALRecall(ro *core.Replica, edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 1
	}
	found := 0
	for _, e := range edges {
		if _, ok, _ := ro.GetEdge(e.Src, e.Type, e.Dst); ok {
			found++
		}
	}
	return float64(found) / float64(len(edges))
}
