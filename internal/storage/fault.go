package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault-injection layer. The paper's whole premise is surviving cheap shared
// cloud storage whose appends can be slow, fail, or arrive torn (§3, §4);
// BtrLog-style logging stacks show the tail behaviour of the logging path on
// such storage dominates both latency and correctness. A FaultPlan is a
// seeded, deterministic source of injected faults that the Store consults on
// every Append, Read, Scan, and extent Seal, so the WAL, flush, and
// leader–follower paths can be tested against the storage misbehaviour they
// must tolerate in production.

// Errors injected by a FaultPlan.
var (
	// ErrTransient marks a retryable I/O failure: the operation did not
	// happen and may be retried. Consumers match with errors.Is.
	ErrTransient = errors.New("storage: transient I/O error (injected)")

	// ErrTornWrite marks an append that persisted only a prefix of its
	// payload before failing — the tail-of-extent torn write of cheap cloud
	// storage. The caller must treat the write as failed (retry appends a
	// fresh full copy); readers detect the torn prefix by checksum.
	ErrTornWrite = errors.New("storage: torn write (injected)")

	// ErrCrashed is returned for every append after the plan's crash point
	// fires: the writing node is dead mid-flight. Reads keep working —
	// shared storage outlives the node, which is what recovery relies on.
	ErrCrashed = errors.New("storage: node crashed (injected)")

	// ErrExtentLost is returned when reading or scanning an extent the plan
	// has declared permanently lost.
	ErrExtentLost = errors.New("storage: extent lost (injected)")
)

// FaultKind labels an injected fault for the OnInject hook.
type FaultKind int

// The injectable fault classes.
const (
	FaultTransientAppend FaultKind = iota
	FaultTransientRead
	FaultTornWrite
	FaultLatencySpike
	FaultCrash
	FaultExtentLoss
)

// String returns the fault kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultTransientAppend:
		return "transient-append"
	case FaultTransientRead:
		return "transient-read"
	case FaultTornWrite:
		return "torn-write"
	case FaultLatencySpike:
		return "latency-spike"
	case FaultCrash:
		return "crash"
	case FaultExtentLoss:
		return "extent-loss"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultConfig parameterizes a FaultPlan. All probabilities are in [0, 1]
// and evaluated independently per operation.
type FaultConfig struct {
	// Seed drives the plan's private RNG; the same seed over the same
	// operation sequence reproduces the same faults.
	Seed int64

	// AppendFailProb is the probability an Append fails transiently with
	// nothing persisted.
	AppendFailProb float64

	// TornWriteProb is the probability an Append persists only a prefix of
	// its payload and then fails (a torn tail-of-extent write).
	TornWriteProb float64

	// ReadFailProb is the probability a Read or Scan fails transiently.
	ReadFailProb float64

	// SpikeProb injects SpikeLatency of extra blocking time into an
	// operation (append or read) with this probability.
	SpikeProb    float64
	SpikeLatency time.Duration
}

// FaultStats counts the faults a plan has injected.
type FaultStats struct {
	TransientAppends int64
	TransientReads   int64
	TornWrites       int64
	LatencySpikes    int64
	Crashes          int64
	ExtentsLost      int64
}

// Total is the number of faults of every kind.
func (s FaultStats) Total() int64 {
	return s.TransientAppends + s.TransientReads + s.TornWrites + s.LatencySpikes + s.Crashes + s.ExtentsLost
}

// extentKey identifies an extent across streams for the lost set.
type extentKey struct {
	stream StreamID
	extent ExtentID
}

// FaultPlan is a deterministic, seeded fault source hooked into a Store via
// Options.Faults. It is safe for concurrent use; decisions are drawn from
// one mutex-guarded RNG, so a serialized operation sequence reproduces the
// same faults for the same seed.
type FaultPlan struct {
	// OnInject, when non-nil, is invoked (without the plan lock) for every
	// injected fault — wiring point for metrics counters. Set before the
	// plan is shared.
	OnInject func(FaultKind)

	mu       sync.Mutex
	rng      *rand.Rand
	cfg      FaultConfig
	enabled  bool
	appends  int64
	crashAt  int64 // the append the crash point takes (0: none armed)
	crashed  bool
	tearNext bool
	lost     map[extentKey]struct{}
	stats    FaultStats
}

// NewFaultPlan returns an armed plan for the given config.
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	return &FaultPlan{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		cfg:     cfg,
		enabled: true,
		lost:    make(map[extentKey]struct{}),
	}
}

// SetEnabled arms or disarms probabilistic injection. A disarmed plan still
// remembers lost extents and the crash state (those model storage and node
// state, not active misbehaviour).
func (p *FaultPlan) SetEnabled(on bool) {
	p.mu.Lock()
	p.enabled = on
	p.mu.Unlock()
}

// TearNext forces the next append (on any stream) to be torn, regardless of
// probabilities. Tests use it for deterministic torn-tail scenarios.
func (p *FaultPlan) TearNext() {
	p.mu.Lock()
	p.tearNext = true
	p.mu.Unlock()
}

// ScheduleCrash arms the crash point n appends from now (n >= 1), counted
// across streams, successful or not: that append persists a torn prefix and
// fails with ErrCrashed, and so does every later one until ClearCrash.
func (p *FaultPlan) ScheduleCrash(n int64) {
	p.mu.Lock()
	p.crashAt = p.appends + n
	p.mu.Unlock()
}

// ClearCrash lifts the crash state and disarms the crash point — the
// recovering node attaches to the surviving shared store. A forced tear
// the crash pre-empted (the crash check runs first and leaves TearNext
// armed) dies with the crashed node instead of hitting recovery's first
// append.
func (p *FaultPlan) ClearCrash() {
	p.mu.Lock()
	p.crashed = false
	p.crashAt = 0
	p.tearNext = false
	p.mu.Unlock()
}

// LoseExtent declares an extent permanently lost.
func (p *FaultPlan) LoseExtent(stream StreamID, ext ExtentID) {
	p.mu.Lock()
	p.lost[extentKey{stream, ext}] = struct{}{}
	p.stats.ExtentsLost++
	p.mu.Unlock()
	p.inject(FaultExtentLoss)
}

// Stats returns a snapshot of the injected-fault counters.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *FaultPlan) inject(kind FaultKind) {
	if p.OnInject != nil {
		p.OnInject(kind)
	}
}

// appendOutcome tells Store.Append what to do.
type appendOutcome struct {
	err   error         // nil = proceed normally
	torn  int           // bytes of the payload to persist before failing
	spike time.Duration // extra latency to inject before the outcome
}

// appendDecision draws the fate of one append of n bytes. The append
// counter advances on every call so crash points are positioned in the
// global append order.
func (p *FaultPlan) appendDecision(stream StreamID, n int) appendOutcome {
	p.mu.Lock()
	p.appends++
	if p.crashed {
		p.mu.Unlock()
		return appendOutcome{err: fmt.Errorf("storage: append %v: %w", stream, ErrCrashed)}
	}
	if p.crashAt > 0 && p.appends >= p.crashAt {
		p.crashed = true
		p.stats.Crashes++
		p.stats.TornWrites++
		cut := p.tornCutLocked(n)
		p.mu.Unlock()
		p.inject(FaultCrash)
		return appendOutcome{
			err:  fmt.Errorf("storage: append %v: %w", stream, ErrCrashed),
			torn: cut,
		}
	}
	if !p.enabled && !p.tearNext {
		p.mu.Unlock()
		return appendOutcome{}
	}
	var out appendOutcome
	if p.enabled && p.cfg.SpikeProb > 0 && p.rng.Float64() < p.cfg.SpikeProb {
		out.spike = p.cfg.SpikeLatency
		p.stats.LatencySpikes++
		defer p.inject(FaultLatencySpike)
	}
	switch {
	case p.tearNext || (p.enabled && p.cfg.TornWriteProb > 0 && p.rng.Float64() < p.cfg.TornWriteProb):
		p.tearNext = false
		p.stats.TornWrites++
		out.err = fmt.Errorf("storage: append %v: %w", stream, ErrTornWrite)
		out.torn = p.tornCutLocked(n)
		p.mu.Unlock()
		p.inject(FaultTornWrite)
	case p.enabled && p.cfg.AppendFailProb > 0 && p.rng.Float64() < p.cfg.AppendFailProb:
		p.stats.TransientAppends++
		out.err = fmt.Errorf("storage: append %v: %w", stream, ErrTransient)
		p.mu.Unlock()
		p.inject(FaultTransientAppend)
	default:
		p.mu.Unlock()
	}
	return out
}

// tornCutLocked picks how many payload bytes a torn write persists:
// somewhere in [1, n-1] so the tear is always detectable. Caller holds mu.
func (p *FaultPlan) tornCutLocked(n int) int {
	if n <= 1 {
		return 0
	}
	return 1 + p.rng.Intn(n-1)
}

// readDecision draws the fate of one read/scan touching the given extent
// (extent checks also apply to scans, per traversed extent via extentLost).
func (p *FaultPlan) readDecision(stream StreamID, ext ExtentID) (spike time.Duration, err error) {
	p.mu.Lock()
	if _, dead := p.lost[extentKey{stream, ext}]; dead {
		p.mu.Unlock()
		return 0, fmt.Errorf("storage: read %v/%d: %w", stream, ext, ErrExtentLost)
	}
	if !p.enabled {
		p.mu.Unlock()
		return 0, nil
	}
	if p.cfg.SpikeProb > 0 && p.rng.Float64() < p.cfg.SpikeProb {
		spike = p.cfg.SpikeLatency
		p.stats.LatencySpikes++
		defer p.inject(FaultLatencySpike)
	}
	if p.cfg.ReadFailProb > 0 && p.rng.Float64() < p.cfg.ReadFailProb {
		p.stats.TransientReads++
		p.mu.Unlock()
		p.inject(FaultTransientRead)
		return spike, fmt.Errorf("storage: read %v/%d: %w", stream, ext, ErrTransient)
	}
	p.mu.Unlock()
	return spike, nil
}

// extentLost reports whether the plan has lost the extent (no RNG draw).
func (p *FaultPlan) extentLost(stream StreamID, ext ExtentID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, dead := p.lost[extentKey{stream, ext}]
	return dead
}
