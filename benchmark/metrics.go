package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric the benchmark can compute.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Help   string
}

// userMetrics are the metrics a user of the database would see. Every one
// is computed on every run, traced or not (a traced run takes them from its
// untraced single-client pass). BENCHMARK.json lists under end_to_end the
// ones that exist on all five workloads and calibrated steady; the rest are
// listed under per_layer without a bound.
var userMetrics = []metricDef{
	{"setup_s", "s", "lower", "open + load + edge-block build: process CPU seconds (user+sys), median of the run's set-ups"},
	{"ops_per_s", "1/s", "higher", "API calls completed per second of the measured phase, median over windows"},
	{"read_p50_us", "us", "lower", "median latency of the workload's read call"},
	{"read_p99_us", "us", "lower", "tail latency of the read call (p99, or the highest percentile with ten samples beyond it)"},
	{"write_p50_us", "us", "lower", "median latency of a single AddEdge"},
	{"write_p99_us", "us", "lower", "tail latency of a single AddEdge"},
	{"txn_p50_us", "us", "lower", "median latency of a two-shard ApplyBatch (2PC)"},
	{"txn_p99_us", "us", "lower", "tail latency of a two-shard ApplyBatch"},
	{"failed_op_share", "share", "lower", "errors plus oracle violations over ops attempted"},
	{"cpu_us_per_op", "us", "lower", "process user+sys CPU per op, median over windows"},
	{"alloc_bytes_per_op", "B", "lower", "heap bytes allocated per op, median over windows"},
	{"heap_bytes_per_edge", "B", "lower", "heap_live_mb in bytes over live edges"},
	{"heap_live_mb", "MB", "lower", "HeapAlloc after the phase, reclamation to quiescence and a forced GC, the harness's own state released"},
	{"rss_peak_mb", "MB", "lower", "peak resident set of the process (VmHWM)"},
	{"storage_ops_per_op", "count", "lower", "storage read round trips plus appends per op"},
	{"storage_bytes_per_op", "B", "lower", "bytes read from plus appended to storage per op"},
	{"storage_read_round_trips_per_op", "count", "lower", "single storage reads plus coalesced batch round trips per op (Fig. 9)"},
	{"write_amp", "ratio", "lower", "storage bytes written on all streams over user bytes of acked mutations"},
	{"space_amp", "ratio", "lower", "resident extent bytes after reclamation over user bytes of live edges"},
}

// layerMetrics are the per-layer metrics, computed by a traced run only.
var layerMetrics = []metricDef{
	{"bg3.read_self_us", "us", "lower", "root API rung minus the next rung, reads"},
	{"bg3.write_self_us", "us", "lower", "root API rung minus the next rung, writes"},
	{"bg3.unsharded_write_p50_us", "us", "lower", "AddEdge p50 of the same stream against bg3.Open{Replicated}"},
	{"trace.overhead_share", "share", "lower", "(traced - untraced p50) over untraced, dominant op class"},
	{"trace.unattributed_share", "share", "lower", "share of the root span the breakdown cannot place (negative self times)"},
	{"shard.route_self_us", "us", "lower", "shard.Group rung minus the leader rung, single writes"},
	{"shard.n1_write_p50_us", "us", "lower", "AddEdge p50 of the same stream at Shards: 1"},
	{"shard.txn_prepare_us", "us", "lower", "2PC start to every prepare durable, p50"},
	{"shard.txn_decide_us", "us", "lower", "prepared to decision durable, p50"},
	{"shard.txn_apply_us", "us", "lower", "decided to every participant applied, p50"},
	{"shard.batch_fanout_mean", "count", "lower", "shards touched per routed batch"},
	{"shard.txn_commits", "count", "higher", "2PC transactions committed"},
	{"shard.txn_aborts", "count", "lower", "2PC transactions aborted"},
	{"replication.write_self_us", "us", "lower", "RWNode rung minus the engine rung, single writes"},
	{"replication.checkpoints", "count", "lower", "flusher checkpoints published"},
	{"replication.dirty_pages_max", "count", "lower", "highest sampled Engine.DirtyCount"},
	{"mvcc.pin_us", "us", "lower", "Source.Pin + Close, standalone"},
	{"mvcc.pins_total", "count", "lower", "snapshot pins taken"},
	{"mvcc.holds_total", "count", "lower", "epoch holds taken by 2PC"},
	{"mvcc.advances_per_write", "count", "lower", "epoch advances per acked mutation"},
	{"mvcc.retained_bytes_max", "B", "lower", "highest sampled retained history"},
	{"mvcc.epoch_lag_max", "count", "lower", "highest sampled current-minus-floor epoch distance"},
	{"wal.log_self_us", "us", "lower", "time inside the WAL logger per single write (decorator span), p50"},
	{"wal.appends_per_write", "count", "lower", "WAL storage appends per acked mutation"},
	{"wal.group_size_mean", "count", "higher", "records per commit group"},
	{"wal.bytes_per_write", "B", "lower", "WAL stream bytes per acked mutation"},
	{"wal.commit_p50_us", "us", "lower", "group commit latency p50 (registry histogram, process lifetime)"},
	{"wal.commit_p99_us", "us", "lower", "group commit latency p99"},
	{"wal.group_stall_p99_us", "us", "lower", "writer stall on a full commit queue, p99"},
	{"wal.ack_reorder_p99_us", "us", "lower", "durable group waiting for predecessors, p99"},
	{"wal.inflight_mean", "count", "higher", "group appends in flight at dispatch"},
	{"core.read_self_us", "us", "lower", "engine rung minus the forest rung, reads (property decode, snapshot pin)"},
	{"core.write_self_us", "us", "lower", "engine rung minus the forest rung, writes (key and property encode)"},
	{"graph.decode_us_per_edge", "us", "lower", "PropDecoder.Decode per edge, standalone"},
	{"graph.encode_us_per_edge", "us", "lower", "EncodeProps + EdgeKey per edge, standalone"},
	{"graph.edges_per_read", "count", "lower", "edges delivered per read call"},
	{"forest.scan_self_us", "us", "lower", "forest rung minus the standalone Bw-tree scan, reads"},
	{"forest.put_self_us", "us", "lower", "forest rung minus WAL logger and standalone Bw-tree put, writes"},
	{"forest.trees", "count", "lower", "Bw-trees in the forest"},
	{"forest.migrations", "count", "lower", "owners moved to a dedicated tree during the pass"},
	{"forest.init_keys", "count", "lower", "keys resident in the INIT tree"},
	{"bwtree.scan_self_us", "us", "lower", "standalone Tree.Scan of the workload's scan length, storage time removed"},
	{"bwtree.put_self_us", "us", "lower", "standalone Tree.Put, storage time removed"},
	{"bwtree.cache_hit_ratio", "share", "higher", "page cache hits over lookups"},
	{"bwtree.evictions_per_op", "count", "lower", "cache evictions per op"},
	{"bwtree.read_fanout_mean", "count", "lower", "storage reads per materialize, mean"},
	{"bwtree.read_fanout_p99", "count", "lower", "storage reads per materialize, p99"},
	{"bwtree.coalesced_misses", "count", "lower", "misses that joined another reader's flight"},
	{"bwtree.readahead_hit_ratio", "share", "higher", "read-ahead pages later hit over issued"},
	{"bwtree.materialize_p50_us", "us", "lower", "page materialize p50 (registry histogram, process lifetime)"},
	{"bwtree.materialize_p99_us", "us", "lower", "page materialize p99"},
	{"bwtree.consolidations_per_write", "count", "lower", "page consolidations per acked mutation"},
	{"bwtree.splits", "count", "lower", "page splits during the pass"},
	{"bwtree.cache_memory_mb", "MB", "lower", "mapping table plus cached pages"},
	{"bwtree.block_hit_ratio", "share", "higher", "scans served from an edge block over hits plus fallbacks"},
	{"bwtree.block_builds", "count", "lower", "edge blocks built or rebuilt during the pass"},
	{"bwtree.block_bytes", "B", "lower", "resident edge-block bytes"},
	{"gc.run_ms", "ms", "lower", "time inside RunGC during the pass"},
	{"gc.write_amp", "ratio", "lower", "bytes moved per byte reclaimed"},
	{"gc.bytes_moved_per_write", "B", "lower", "GC bytes moved per acked mutation"},
	{"gc.extents_reclaimed", "count", "higher", "extents reclaimed"},
	{"gc.pin_deferred", "count", "lower", "extent picks skipped for a pinned snapshot"},
	{"gc.block_pinned", "count", "lower", "extent picks skipped for a live edge block"},
	{"storage.read_us", "us", "lower", "Store.Read of a record of the workload's size, standalone"},
	{"storage.readbatch_us", "us", "lower", "Store.ReadBatch of a base+delta pair, standalone"},
	{"storage.append_us", "us", "lower", "Store.Append of a record of the workload's size, standalone"},
	{"storage.read_ops_per_op", "count", "lower", "records read from storage per op"},
	{"storage.bytes_read_per_op", "B", "lower", "bytes read from storage per op"},
	{"storage.write_ops_per_op", "count", "lower", "storage appends per op"},
	{"storage.bytes_written_per_op", "B", "lower", "bytes appended per op"},
	{"storage.live_bytes", "B", "lower", "valid record bytes at the end of the pass"},
	{"storage.total_bytes", "B", "lower", "capacity of resident extents at the end of the pass"},
	{"storage.extents", "count", "lower", "resident extents at the end of the pass"},
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{userMetrics, layerMetrics} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"` // no bounds
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findBenchFile looks for BENCHMARK.json in the working directory and its
// parent (the package test runs inside benchmark/).
func findBenchFile() (string, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

func loadBenchFile() (*benchFile, string, error) {
	path, err := findBenchFile()
	if err != nil {
		return nil, "", err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &bf, path, nil
}

func (bf *benchFile) write(path string) error {
	raw, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// userValues derives every user metric from one measured pass.
func userValues(res *phaseResult, setupS float64) map[string]float64 {
	ops := float64(max(res.ops, 1))
	userBytes := float64(res.mutations * userBytesPerEdge)
	d := func(name string) float64 { return delta(res.before, res.after, name) }
	roundTrips := d("storage.read_ops") - d("storage.batch_locs") + d("storage.batch_round_trips")
	v := map[string]float64{
		"setup_s":                         setupS,
		"ops_per_s":                       median(res.sliceOpsPerS),
		"cpu_us_per_op":                   median(res.sliceCPUPerOp),
		"alloc_bytes_per_op":              median(res.sliceAllocOp),
		"heap_live_mb":                    res.heapLiveMB,
		"heap_bytes_per_edge":             res.heapLiveMB * (1 << 20) / float64(max(res.liveEdges, 1)),
		"rss_peak_mb":                     res.rssPeakMB,
		"failed_op_share":                 float64(res.failed) / ops,
		"storage_read_round_trips_per_op": roundTrips / ops,
		"storage_ops_per_op":              (roundTrips + d("storage.write_ops")) / ops,
		"storage_bytes_per_op":            (d("storage.bytes_read") + d("storage.bytes_written")) / ops,
		"space_amp":                       res.final.v["storage.total_bytes"] / float64(max(res.liveEdges, 1)*userBytesPerEdge),
	}
	v["write_amp"] = 0 // no writes, no amplification to speak of
	if userBytes > 0 {
		v["write_amp"] = d("storage.bytes_written") / userBytes
	}
	for cl := 0; cl < numClasses; cl++ {
		v[classNames[cl]+"_p50_us"] = res.p50US[cl]
		v[classNames[cl]+"_p99_us"] = res.tailUS[cl]
	}
	return v
}
