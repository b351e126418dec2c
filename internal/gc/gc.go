// Package gc implements space reclamation for BG3's append-only storage
// (§3.3). Out-of-place updates leave invalid records behind; reclamation
// rewrites an extent's surviving records to the stream tail and drops the
// extent. Which extent to reclaim is the whole game: every byte moved is
// background write amplification.
//
// Three policies are provided:
//
//   - FIFO: the traditional Bw-tree queue — always reclaim the oldest
//     extent.
//   - DirtyRatio: ArkDB's baseline — reclaim the extent with the highest
//     fragmentation (invalid-record) rate.
//   - WorkloadAware: BG3's Algorithm 2 — prefer extents with the smallest
//     update gradient (cold data whose remaining records will stay valid),
//     break ties by fragmentation rate, and skip extents that TTL will
//     soon expire wholesale (moving them would waste I/O on doomed data).
package gc

import (
	"sort"
	"time"

	"bg3/internal/storage"
)

// Policy selects extents for reclamation from a usage snapshot.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick returns up to n extent IDs to reclaim, most urgent first.
	Pick(usage []storage.ExtentUsage, n int, now time.Time) []storage.ExtentID
}

// sealedCandidates filters a usage snapshot down to sealed extents that
// contain at least one invalid record (reclaiming a fully valid extent
// moves every byte for zero space gain).
func sealedCandidates(usage []storage.ExtentUsage) []storage.ExtentUsage {
	out := make([]storage.ExtentUsage, 0, len(usage))
	for _, u := range usage {
		if u.Sealed && u.InvalidRecords > 0 {
			out = append(out, u)
		}
	}
	return out
}

// FIFO reclaims the oldest sealed extents first.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Pick implements Policy.
func (FIFO) Pick(usage []storage.ExtentUsage, n int, _ time.Time) []storage.ExtentID {
	cands := sealedCandidates(usage)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Extent < cands[j].Extent })
	return takeIDs(cands, n)
}

// DirtyRatio reclaims the most fragmented sealed extents first (the ArkDB
// baseline of Table 2). MinRate filters extents not worth touching.
type DirtyRatio struct {
	// MinRate is the minimum fragmentation rate an extent must reach to be
	// considered (default 0: any invalid record qualifies).
	MinRate float64
}

// Name implements Policy.
func (DirtyRatio) Name() string { return "dirty-ratio" }

// Pick implements Policy.
func (p DirtyRatio) Pick(usage []storage.ExtentUsage, n int, _ time.Time) []storage.ExtentID {
	cands := sealedCandidates(usage)
	filtered := cands[:0]
	for _, u := range cands {
		if u.FragmentationRate() >= p.MinRate {
			filtered = append(filtered, u)
		}
	}
	sort.Slice(filtered, func(i, j int) bool {
		fi, fj := filtered[i].FragmentationRate(), filtered[j].FragmentationRate()
		if fi != fj {
			return fi > fj
		}
		return filtered[i].Extent < filtered[j].Extent
	})
	return takeIDs(filtered, n)
}

// WorkloadAware is Algorithm 2: extents are bucketed by update gradient
// (coarsely quantized, so "the extents with the smallest gradient" form a
// group rather than a single winner), buckets are visited coldest first,
// and within a bucket the highest fragmentation rate wins. Extents whose
// TTL expiry is imminent are bypassed entirely.
type WorkloadAware struct {
	// MinRate filters extents below this fragmentation rate (default 0).
	MinRate float64

	// TTL is the workload's data lifetime. Zero means the workload never
	// expires data and the TTL bypass is inactive.
	TTL time.Duration

	// TTLBypassMargin widens the bypass window: an extent expiring within
	// TTL+margin of its last update is left to die naturally. The margin
	// defaults to TTL/4 when zero.
	TTLBypassMargin time.Duration
}

// Name implements Policy.
func (p WorkloadAware) Name() string {
	if p.TTL > 0 {
		return "workload-aware+ttl"
	}
	return "workload-aware"
}

// gradientBucket quantizes an update gradient (invalid records per second)
// into a coarse coldness class: 0 for frozen extents, then doubling bands.
func gradientBucket(g float64) int {
	if g <= 0 {
		return 0
	}
	b := 1
	for threshold := 0.1; g > threshold && b < 32; threshold *= 2 {
		b++
	}
	return b
}

// Pick implements Policy.
func (p WorkloadAware) Pick(usage []storage.ExtentUsage, n int, now time.Time) []storage.ExtentID {
	cands := sealedCandidates(usage)
	filtered := cands[:0]
	margin := p.TTLBypassMargin
	if p.TTL > 0 && margin == 0 {
		margin = p.TTL / 4
	}
	for _, u := range cands {
		if u.FragmentationRate() < p.MinRate {
			continue
		}
		if p.TTL > 0 {
			expiry := u.LastUpdate.Add(p.TTL)
			if !now.Add(margin).Before(expiry) {
				continue // about to expire wholesale; moving it wastes I/O
			}
		}
		filtered = append(filtered, u)
	}
	sort.Slice(filtered, func(i, j int) bool {
		bi, bj := gradientBucket(filtered[i].UpdateGradient), gradientBucket(filtered[j].UpdateGradient)
		if bi != bj {
			return bi < bj // coldest bucket first (line 2 of Algorithm 2)
		}
		fi, fj := filtered[i].FragmentationRate(), filtered[j].FragmentationRate()
		if fi != fj {
			return fi > fj // highest fragmentation within the bucket (line 3)
		}
		return filtered[i].Extent < filtered[j].Extent
	})
	return takeIDs(filtered, n)
}

func takeIDs(cands []storage.ExtentUsage, n int) []storage.ExtentID {
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]storage.ExtentID, 0, n)
	for _, u := range cands[:n] {
		out = append(out, u.Extent)
	}
	return out
}
