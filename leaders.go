package bg3

import (
	"slices"
	"sync"

	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/replication"
	"bg3/internal/shard"
)

// leaderSet is the replicated deployment under both root types: a shard
// group (one leader, store and WAL per shard) plus the follower sets
// attached to it. A replicated DB is the one-shard case; a ShardedDB is
// the same thing with Options.Shards of them.
type leaderSet struct {
	group *shard.Group
	cfg   layers // attach reads the follower settings

	mu       sync.Mutex // guards attached
	attached []*followers
}

func openLeaderSet(shards int, cfg layers) (*leaderSet, error) {
	g, err := shard.Open(shards, &cfg.storage, cfg.rw)
	if err != nil {
		return nil, err
	}
	return &leaderSet{group: g, cfg: cfg}, nil
}

// close stops every attached follower, then every shard's committer,
// flusher, engine and store.
func (ls *leaderSet) close() {
	for _, f := range ls.followers() {
		f.stop()
	}
	ls.group.Close()
}

// failover promotes a replacement for shard i's leader (Group.Failover).
// Page and tree IDs survive a promotion, so the followers attached to the
// deposed leader need nothing: they go on tailing the shard's log.
func (ls *leaderSet) failover(i int) error { return ls.group.Failover(i) }

func (ls *leaderSet) followers() []*followers {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]*followers(nil), ls.attached...)
}

// followers is one read-only node per shard and the reader over them,
// routed like the group's writes; a DB's Replica is the one-shard case. Each
// read re-fetches the owning node's replica, because a resync (a WAL trim that
// outran the node) replaces it wholesale. reader is handed out as the value it is —
// not embedded as a graph.Reader, whose method set would hide the router's
// graph.FrontierReader and make every hop expand per vertex.
type followers struct {
	ls     *leaderSet
	reader graph.Reader
	ros    []*replication.RONode
}

// attach opens one follower per shard, each attached from the retained head
// of its shard's WAL: from LSN 1 on a log never trimmed, else the checkpoint
// rotation past the trim and the log after it.
func (ls *leaderSet) attach() (*followers, error) {
	f := &followers{ls: ls}
	f.reader = ls.group.Router().Reader(func(i int) graph.Reader { return f.ros[i].Replica() })
	for i := 0; i < ls.group.Shards(); i++ {
		ro, err := replication.NewRONode(ls.group.Store(i), ls.cfg.followerPoll, ls.cfg.followerCache)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.ros = append(f.ros, ro)
	}
	ls.mu.Lock()
	ls.attached = append(ls.attached, f)
	ls.mu.Unlock()
	return f, nil
}

// stop detaches the set: it leaves the attached ones, and each node stops
// tailing and holds no condemned extent any more.
func (f *followers) stop() {
	f.ls.mu.Lock()
	f.ls.attached = slices.DeleteFunc(f.ls.attached, func(g *followers) bool { return g == f })
	f.ls.mu.Unlock()
	for _, ro := range f.ros {
		ro.Stop()
	}
}

// sync drains every shard's WAL so subsequent reads observe everything
// acknowledged so far.
func (f *followers) sync() error {
	for _, ro := range f.ros {
		if err := ro.Poll(); err != nil {
			return err
		}
	}
	return nil
}

// lag returns the worst applied-LSN lag of any attached follower node
// behind its shard leader's last assigned LSN.
func (ls *leaderSet) lag() uint64 {
	var worst uint64
	for _, f := range ls.followers() {
		for i, ro := range f.ros {
			last, applied := uint64(ls.group.Leader(i).LastLSN()), uint64(ro.AppliedLSN())
			if applied < last && last-applied > worst {
				worst = last - applied
			}
		}
	}
	return worst
}

// resyncs counts re-attaches across the attached followers.
func (ls *leaderSet) resyncs() int64 {
	var n int64
	for _, f := range ls.followers() {
		for _, ro := range f.ros {
			n += ro.Resyncs()
		}
	}
	return n
}

// registerMetrics wires the follower and failover gauges into reg.
func (ls *leaderSet) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("replication.replicas", func() int64 { return int64(len(ls.followers())) })
	reg.GaugeFunc("replication.applied_lsn_lag", func() int64 { return int64(ls.lag()) })
	reg.CounterFunc("replication.resyncs", ls.resyncs)
	reg.CounterFunc("replication.failovers", ls.group.Failovers)
}
