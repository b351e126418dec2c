package storage

import "bg3/internal/metrics"

// RegisterMetrics exposes the store's I/O, GC and capacity accounting in the
// given registry under the "storage." prefix. The probes read from Stats()
// so they stay consistent with the snapshot API.
func (s *Store) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("storage.read_ops", s.readOps.Load)
	r.CounterFunc("storage.write_ops", s.writeOps.Load)
	r.CounterFunc("storage.bytes_read", s.bytesRead.Load)
	r.CounterFunc("storage.bytes_written", s.bytesWritten.Load)
	r.CounterFunc("storage.bytes_written_base", s.streamBytes[StreamBase].Load)
	r.CounterFunc("storage.bytes_written_delta", s.streamBytes[StreamDelta].Load)
	r.CounterFunc("storage.bytes_written_wal", s.streamBytes[StreamWAL].Load)
	r.CounterFunc("storage.batch_reads", s.batchReads.Load)
	r.CounterFunc("storage.batch_locs", s.batchLocs.Load)
	r.CounterFunc("storage.batch_round_trips", s.batchRoundTrips.Load)
	r.CounterFunc("storage.fenced_appends", s.fencedAppends.Load)
	r.CounterFunc("storage.gc_bytes_moved", func() int64 { return s.Stats().GCBytesMoved })
	r.CounterFunc("storage.gc_bytes_reclaimed", func() int64 { return s.Stats().GCBytesReclaimed })
	r.CounterFunc("storage.gc_records_moved", func() int64 { return s.Stats().GCRecordsMoved })
	r.CounterFunc("storage.extents_reclaimed", func() int64 { return s.Stats().ExtentsReclaimed })
	r.CounterFunc("storage.extents_expired", func() int64 { return s.Stats().ExtentsExpired })
	r.CounterFunc("storage.extents_emptied", func() int64 { return s.Stats().ExtentsEmptied })
	r.CounterFunc("storage.extents_compacted", func() int64 { return s.Stats().ExtentsCompacted })
	r.CounterFunc("storage.compact_bytes_moved", func() int64 { return s.Stats().CompactBytesMoved })
	r.GaugeFunc("storage.live_bytes", func() int64 { return s.Stats().LiveBytes })
	r.GaugeFunc("storage.total_bytes", func() int64 { return s.Stats().TotalBytes })
	r.GaugeFunc("storage.extent_count", func() int64 { return s.Stats().ExtentCount })
	r.RatioFunc("storage.gc_write_amp", func() float64 { return s.Stats().GCWriteAmp() })
	r.CounterFunc("faults.retries", s.retries.Load)
}
