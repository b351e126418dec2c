package bg3

import "time"

// OpenWithWriteLatency opens o on stores whose every append takes d, a
// simulated storage round trip Options does not carry: the seam through which
// the package's external benchmarks set it.
func OpenWithWriteLatency(o *Options, d time.Duration) (*DB, error) {
	cfg := o.layers()
	cfg.storage.WriteLatency = d
	return open(*o, cfg)
}
